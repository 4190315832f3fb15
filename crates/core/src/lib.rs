//! The AXI4 Transaction Monitoring Unit (TMU).
//!
//! This crate is the primary contribution of the reproduced paper,
//! *"Towards Reliable Systems: A Scalable Approach to AXI4 Transaction
//! Monitoring"* (DATE 2025): a drop-in monitor that sits between an AXI4
//! interconnect and a subordinate endpoint, detects transaction failures
//! (protocol violations and timeouts) in real time, and triggers recovery
//! by aborting outstanding transactions with `SLVERR`, raising an
//! interrupt, and requesting a hardware reset of the subordinate.
//!
//! # Architecture (paper §II)
//!
//! * [`remap`] — the **AXI ID Remapper** compacting a wide, sparse ID
//!   space into a dense internal index.
//! * [`ott`] — the **Outstanding Transaction Table**: the ID Head-Tail
//!   (HT) table, the Linked-Data (LD) table and the Enqueue-Index (EI)
//!   table.
//! * [`counter`] — prescaled timeout counters with the **sticky bit**.
//! * [`budget`] — the **adaptive time-budgeting** mechanism (queue-waiting
//!   plus data-transfer components scaled by burst length and OTT
//!   occupancy).
//! * [`phase`] — the six write phases and four read phases of the
//!   Full-Counter solution (paper Figs. 4 & 5).
//! * [`guard`] — the **Write Guard** and **Read Guard** state machines.
//! * [`config`] — static configuration ([`TmuConfig`]) and the
//!   software-visible [`config::RegisterFile`].
//! * [`log`] — error and performance logs.
//! * [`monitor`] — the top-level [`Tmu`] tying it all together, including
//!   fault detection, interrupt and reset-request logic.
//! * [`terminator`] — the [`Terminator`]: path severing, `SLVERR` abort,
//!   residual W drain and held-address acceptance, shared with the
//!   traffic regulator's isolation path.
//! * [`wheel`] — the event-driven [`wheel::DeadlineWheel`] backing the
//!   deadline-scheduled counter engine ([`CounterEngine::DeadlineWheel`]).
//! * [`report`] — summary reporting.
//!
//! # Variants
//!
//! The TMU comes in two flavours selected by [`TmuVariant`]:
//!
//! * **Tiny-Counter (`Tc`)** — a single counter per outstanding
//!   transaction, transaction-level timeout granularity, minimal area.
//! * **Full-Counter (`Fc`)** — per-phase counters, one-cycle fault
//!   localization, and detailed per-phase performance logging, at roughly
//!   2.5× the area.
//!
//! # Example
//!
//! ```
//! use tmu::{Tmu, TmuConfig, TmuVariant};
//! use axi4::AxiPort;
//!
//! let cfg = TmuConfig::builder()
//!     .variant(TmuVariant::FullCounter)
//!     .max_uniq_ids(4)
//!     .txn_per_id(4)
//!     .build()
//!     .expect("valid configuration");
//! let mut tmu = Tmu::new(cfg);
//!
//! // One idle cycle of the drop-in pipeline.
//! let mut mgr = AxiPort::new();
//! let mut sub = AxiPort::new();
//! mgr.begin_cycle();
//! sub.begin_cycle();
//! tmu.forward_request(&mgr, &mut sub);
//! // ... subordinate would drive `sub` here ...
//! tmu.forward_response(&sub, &mut mgr);
//! tmu.commit_port(&mgr, 0);
//! assert!(!tmu.irq_pending());
//! ```

pub mod budget;
pub mod config;
pub mod counter;
pub mod guard;
pub mod log;
pub mod monitor;
pub mod ott;
pub mod phase;
pub mod remap;
pub mod report;
pub mod terminator;
pub mod wheel;

pub use budget::BudgetConfig;
pub use config::{CounterEngine, RegisterFile, TmuConfig, TmuConfigBuilder, TmuVariant};
pub use counter::PrescaledCounter;
pub use log::{ErrorLog, ErrorRecord, FaultKind, PerfLog, PerfRecord};
pub use monitor::{Tmu, TmuState};
pub use phase::{ReadPhase, TxnPhase, WritePhase};
pub use report::TmuReport;
pub use terminator::{Terminator, TerminatorEvent};
pub use tmu_telemetry::{self as telemetry, TelemetryConfig, TelemetryHub, TraceEvent};
