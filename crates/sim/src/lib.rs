//! Deterministic two-phase cycle-based simulation kernel.
//!
//! This crate provides the clocking, tracing and reproducibility plumbing
//! shared by the TMU reproduction's behavioural models:
//!
//! * [`clock`] — the [`Clock`] cycle counter and [`Reset`] line model.
//! * [`runner`] — the [`Simulation`] loop that steps a closure per cycle
//!   until a condition or limit.
//! * [`trace`] — a bounded [`EventTrace`] of timestamped events for
//!   debugging and assertions.
//! * [`stats`] — the [`Histogram`] used by the TMU's performance logs.
//! * [`rng`] — a seeded, splittable [`SimRng`] so every experiment is
//!   bit-reproducible.
//! * [`vcd`] — a minimal value-change-dump writer for waveform inspection
//!   of boolean and vector signals.
//!
//! # Simulation model
//!
//! A cycle consists of one or more ordered *drive* passes (combinational
//! settling, sequenced by the harness) followed by a single *commit*
//! (clock edge). The kernel itself stays trait-free: it only counts
//! cycles. The per-link units that sit between a manager and a
//! subordinate (the TMU with its reset line, the traffic regulator)
//! share one five-pass protocol, `soc::stage::LinkStage`, and a
//! `soc::stage::StageBank` runs each pass across many ports. Harnesses
//! like `soc::System` order those passes around their managers,
//! interconnect and subordinates, which keeps combinational dependencies
//! explicit and the simulation deterministic.
//!
//! # Example
//!
//! ```
//! use sim::{Clock, Simulation};
//!
//! let mut counter = 0u64;
//! let mut simulation = Simulation::new();
//! let outcome = simulation.run_until(1000, |_clock: &Clock| {
//!     counter += 1;
//!     counter == 10 // stop condition
//! });
//! assert!(outcome.condition_met);
//! assert_eq!(outcome.cycles, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod vcd;

pub use clock::{Clock, Reset};
pub use rng::SimRng;
pub use runner::{RunOutcome, Simulation, StepStatus};
pub use stats::Histogram;
pub use trace::{Event, EventMsg, EventTrace};
pub use vcd::VcdWriter;
