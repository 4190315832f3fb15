//! Deterministic two-phase cycle-based simulation plumbing.
//!
//! This crate provides the reset, statistics, reproducibility and
//! waveform pieces shared by the TMU reproduction's behavioural models:
//!
//! * [`reset`] — the [`Reset`] line model driven by the TMU's reset
//!   request.
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
//! (clock edge). Each harness (`soc::link::GuardedLink`,
//! `soc::system::System`, `soc::regulated::RegulatedLink`) owns its cycle
//! counter and its run loop; this crate has no scheduler. The per-link
//! units that sit between a manager and a subordinate (the TMU with its
//! reset line, the traffic regulator) share one five-pass protocol,
//! `soc::stage::LinkStage`, and a `soc::stage::StageBank` runs each pass
//! across many ports. Harnesses order those passes around their
//! managers, interconnect and subordinates, which keeps combinational
//! dependencies explicit and the simulation deterministic.

pub mod reset;
pub mod rng;
pub mod stats;
pub mod vcd;

pub use reset::Reset;
pub use rng::SimRng;
pub use stats::Histogram;
pub use vcd::VcdWriter;
