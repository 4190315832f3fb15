//! Umbrella crate for the reproduction of *"Towards Reliable Systems: A
//! Scalable Approach to AXI4 Transaction Monitoring"* (DATE 2025).
//!
//! This crate re-exports the workspace members so that the examples under
//! `examples/` and the integration tests under `tests/` can exercise the
//! whole stack through one import:
//!
//! * [`axi4`] — the AXI4 protocol model (channels, bursts, checker).
//! * [`sim`] — the deterministic cycle-based simulation kernel.
//! * [`tmu`] — the paper's contribution: the Transaction Monitoring Unit.
//! * [`faults`] — signal-level fault injection.
//! * [`tmu_regulate`] — credit-based traffic regulation and
//!   misbehaving-manager isolation (AXI-REALM-style QoS companion).
//! * [`soc`] — the Cheshire-like system substrate (Fig. 10).
//! * [`gf12_area`] — the calibrated GF12 area model (Figs. 7 & 8).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, or run:
//!
//! ```text
//! cargo run --example quickstart
//! ```

pub use axi4;
pub use faults;
pub use gf12_area;
pub use sim;
pub use soc;
pub use tmu;
pub use tmu_regulate;

/// Test-support utilities shared by the integration and property suites.
pub mod testkit {
    use tmu::Tmu;

    /// Asserts the TMU's internal guard invariants (OTT / remapper /
    /// deadline-wheel agreement). Debug builds only — release builds
    /// skip the walk so timing-sensitive suites stay fast.
    ///
    /// Property suites call this from their `run_until` predicates, so
    /// every committed cycle of every generated case is checked.
    pub fn check_tmu(tmu: &Tmu) {
        if cfg!(debug_assertions) {
            tmu.assert_consistent();
        }
    }
}
