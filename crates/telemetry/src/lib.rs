//! Unified telemetry for the TMU stack: typed trace events, transaction
//! spans, and a metrics hub — the machine-readable side of the paper's
//! §II-H observability story.
//!
//! The instrumentation model is one abstraction threaded through every
//! layer: components emit [`TraceEvent`]s into a [`TelemetryHub`], and
//! the hub fans them out to its sinks:
//!
//! * a bounded **typed ring** ([`EventRing`]) of sequence-stamped
//!   [`TelemetryRecord`]s — the structured replacement for grepping a
//!   string log;
//! * the **span collector** ([`SpanCollector`]), which folds OTT
//!   enqueue/dequeue and phase-transition events into per-transaction
//!   spans (one track per AXI ID, one slice per phase) and exports
//!   Chrome trace-event JSON loadable in Perfetto / `chrome://tracing`;
//! * the **metrics hub** ([`MetricsHub`]): typed counters, gauges and
//!   latency histograms with a periodic sampler that emits JSON-lines
//!   deltas.
//!
//! [`TraceEvent`] is the stack's one event vocabulary. A record's
//! `Display` is also its human-readable line (a fault, a sever with its
//! abort and drain counts, a reset request, a resume), so there is no
//! separate string trace.
//!
//! # Hot-path contract
//!
//! A disabled hub (the default) costs **one branch** per
//! [`TelemetryHub::record`] call: the events themselves are `Copy`
//! structs of integers, so constructing them is free, and the early
//! return skips all sink work. The differential property tests in the
//! workspace root drive telemetry-enabled and -disabled monitors in
//! lockstep to prove behaviour is identical either way, and
//! `bench_hotpath` records the measured overhead ratio.
//!
//! # Example
//!
//! ```
//! use tmu_telemetry::{Dir, PhaseId, TelemetryConfig, TelemetryHub, TraceEvent};
//!
//! let mut hub = TelemetryHub::default();       // disabled: records nothing
//! hub.record(0, "demo", TraceEvent::Counter { name: "demo.events", delta: 1 });
//! assert_eq!(hub.seq(), 0);
//!
//! hub.enable(TelemetryConfig::default());
//! let aw = PhaseId::new(Dir::Write, 0); // AW-handshake
//! hub.record(3, "demo", TraceEvent::OttEnqueue {
//!     dir: Dir::Write, id: 1, addr: 0x1000, beats: 4, slot: 0, phase: aw,
//! });
//! hub.record(9, "demo", TraceEvent::OttDequeue {
//!     dir: Dir::Write, id: 1, slot: 0, total_cycles: 7,
//! });
//! assert_eq!(hub.seq(), 2);
//! let json = hub.chrome_trace_json();
//! assert!(json.contains("\"traceEvents\""));
//! ```

pub mod event;
pub mod hub;
pub mod metrics;
#[cfg(test)]
mod reference;
pub mod sink;
pub mod span;

pub use event::{Channel, Dir, FaultClass, PhaseId, RecoveryStage, TraceEvent};
pub use hub::{TelemetryConfig, TelemetryHub};
pub use metrics::{MetricsHub, MetricsSample};
pub use sink::{EventRing, TelemetryRecord};
pub use span::{PhaseSlice, SpanCollector, TxnSpan};
