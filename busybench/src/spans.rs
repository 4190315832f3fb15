//! Host-time spans for the traced run.
//!
//! The traced loop calls [`Spans::mark`] right after each component
//! call. Every mark closes the span that started at the previous mark, so
//! the spans of one chunk tile its wall time without gaps: a layer's
//! span is exactly the time of its calls plus one timer read.

use std::time::Instant;

/// A simulator layer that host time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `soc::manager::TrafficGen` drive and commit.
    Manager,
    /// `soc::mux::Mux` passes.
    Mux,
    /// `soc::demux::Demux` passes.
    Demux,
    /// `soc::memory::MemSub` drive and commit.
    Memory,
    /// `soc::ethernet::EthSub` drive and commit.
    Ethernet,
    /// `Tmu` request, response and ready-backprop passes.
    TmuForward,
    /// `Tmu::observe`: protocol checker and guard taps.
    TmuObserve,
    /// `Tmu::commit` and reset handshake: guards, OTT, wheel, recovery
    /// FSM, telemetry sampling.
    TmuCommit,
    /// `Regulator` request and response passes (tracker included).
    RegForward,
    /// `Regulator::observe` (tracker included).
    RegObserve,
    /// `Regulator::commit` (tracker included).
    RegCommit,
    /// `sim::Reset` lines.
    Reset,
    /// Harness glue: port clearing and gauge publication.
    Glue,
    /// The benchmark's own per-cycle counters; excluded from every
    /// reported layer and from the traced total.
    Probe,
}

impl Layer {
    /// Number of layers.
    pub const COUNT: usize = 14;

    /// Every layer, in `as usize` order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Manager,
        Layer::Mux,
        Layer::Demux,
        Layer::Memory,
        Layer::Ethernet,
        Layer::TmuForward,
        Layer::TmuObserve,
        Layer::TmuCommit,
        Layer::RegForward,
        Layer::RegObserve,
        Layer::RegCommit,
        Layer::Reset,
        Layer::Glue,
        Layer::Probe,
    ];

    /// The metric-name prefix of this layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Manager => "manager",
            Layer::Mux => "mux",
            Layer::Demux => "demux",
            Layer::Memory => "memory",
            Layer::Ethernet => "ethernet",
            Layer::TmuForward => "tmu.forward",
            Layer::TmuObserve => "tmu.observe",
            Layer::TmuCommit => "tmu.commit",
            Layer::RegForward => "regulator.forward",
            Layer::RegObserve => "regulator.observe",
            Layer::RegCommit => "regulator.commit",
            Layer::Reset => "reset",
            Layer::Glue => "glue",
            Layer::Probe => "probe",
        }
    }
}

/// Receiver of span boundaries.
pub trait Spans {
    /// Closes the current span and attributes it to `layer`.
    fn mark(&mut self, layer: Layer);
}

/// No timing: the traced loop compiles down to the plain component loop.
#[derive(Debug, Default)]
pub struct Untimed;

impl Spans for Untimed {
    #[inline(always)]
    fn mark(&mut self, _layer: Layer) {}
}

/// Accumulates span time and span count per layer.
#[derive(Debug, Clone)]
pub struct SpanTimer {
    last: Instant,
    /// Raw nanoseconds per layer, timer reads included.
    pub ns: [u64; Layer::COUNT],
    /// Spans closed per layer.
    pub marks: [u64; Layer::COUNT],
}

impl SpanTimer {
    /// A timer whose first span starts at `start`.
    pub fn new(start: Instant) -> Self {
        SpanTimer {
            last: start,
            ns: [0; Layer::COUNT],
            marks: [0; Layer::COUNT],
        }
    }

    /// Total raw nanoseconds over all layers.
    pub fn raw_total(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Total marks over all layers.
    pub fn total_marks(&self) -> u64 {
        self.marks.iter().sum()
    }
}

impl Spans for SpanTimer {
    #[inline]
    fn mark(&mut self, layer: Layer) {
        let now = Instant::now();
        self.ns[layer as usize] += now.duration_since(self.last).as_nanos() as u64;
        self.marks[layer as usize] += 1;
        self.last = now;
    }
}
