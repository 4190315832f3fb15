//! Fixture: a user crate recording one of the two event variants.
//! Exercised by `tests/fixtures_fire.rs`; never compiled.

/// Records `Used`; nothing records `Orphan`.
pub fn hot_path(hub: &mut Hub, cycle: u64, addr: u64) {
    hub.record(cycle, "fx", TraceEvent::Used(addr));
}
