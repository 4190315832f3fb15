//! Fixture: event declarations (stands in for the telemetry crate).
//! Exercised by `tests/fixtures_fire.rs`; never compiled.

/// Trace events.
pub enum TraceEvent {
    /// Recorded by the user crate fixture.
    Used(u64),
    /// Never recorded anywhere — the coverage lint must flag this.
    Orphan,
}

/// A stand-in hub.
pub struct Hub;

impl Hub {
    /// Records an event.
    pub fn record(&mut self, _cycle: u64, _src: &str, _ev: TraceEvent) {}
}
