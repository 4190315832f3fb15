//! Credit-based AXI4 traffic regulation: bandwidth budgeting and
//! misbehaving-manager isolation for the TMU reproduction.
//!
//! The source paper's TMU detects managers and subordinates that *hang*;
//! this crate adds the complementary real-time guarantee pioneered by
//! AXI-REALM (see `PAPERS.md`): managers that are perfectly live but
//! *greedy* are throttled to a configured bandwidth budget so they
//! cannot starve critical traffic sharing the interconnect.
//!
//! # Credit model
//!
//! Each regulated manager owns a [`BudgetUnit`] holding two credit
//! buckets (write and read). A bucket carries *byte* credits and
//! *transaction* credits; an AW/AR handshake is granted only while both
//! are nonzero, and a grant deducts the burst's total bytes plus one
//! transaction (saturating — so a window overshoots by at most one
//! maximal burst). Every `window_cycles` cycles both buckets refill to
//! their configured budget; credits do not bank across windows.
//!
//! A denied handshake is simple back-pressure: the [`Regulator`] hides
//! the valid from the downstream side and holds the manager's `ready`
//! low, exactly like an unready subordinate, so the manager's view stays
//! AXI-legal.
//!
//! # Isolation
//!
//! In [`RegulationMode::Isolate`], a manager whose traffic is denied in
//! N *consecutive* windows is severed. Each direction is one lane of
//! the regulator, and each lane keeps a small ledger of the
//! transactions it let through — raw ID and owed beats — sized and
//! admitted by the TMU's own [`tmu::remap::IdRemapper`]. From the
//! verdict on no new address is admitted, and once no address the
//! regulator forwarded still waits for its handshake downstream (AXI
//! forbids retracting one) it hands both ledgers to a
//! [`tmu::Terminator`], the sever/abort/drain unit the TMU's own
//! recovery uses. The terminator answers the backlog with `SLVERR` and
//! absorbs the W beats the manager still owes, while
//! the regulator forwards exactly the beats the subordinate is owed and
//! absorbs the subordinate's late responses. The port stays closed until
//! software re-admits it with [`Regulator::release`]; no subordinate
//! reset is requested, since the manager is the faulty party.
//!
//! # Example
//!
//! ```
//! use axi4::channel::AxiPort;
//! use tmu_regulate::{DirBudget, Regulator, RegulatorConfig};
//!
//! let cfg = RegulatorConfig::builder()
//!     .write_budget(DirBudget { bytes_per_window: 64, txns_per_window: 1 })
//!     .window_cycles(100)
//!     .build()
//!     .unwrap();
//! let mut reg = Regulator::new(cfg);
//! let mut mgr = AxiPort::new();
//! let mut out = AxiPort::new();
//!
//! // One cycle: the manager requests, the subordinate is ready.
//! mgr.begin_cycle();
//! out.begin_cycle();
//! mgr.aw.drive(axi4::beat::AwBeat::new(
//!     axi4::types::AxiId(0),
//!     axi4::types::Addr(0),
//!     axi4::types::BurstLen::SINGLE,
//!     axi4::types::BurstSize::default(),
//!     axi4::types::BurstKind::Incr,
//! ));
//! reg.forward_request(&mgr, &mut out);
//! out.aw.set_ready(true);
//! reg.forward_response(&out, &mut mgr);
//! assert!(mgr.aw.fires(), "credits available: the handshake passes");
//! reg.commit_port(&mgr, 0);
//! assert_eq!(reg.grants(), 1);
//! ```

pub mod budget;
pub mod config;
mod ledger;
#[cfg(test)]
mod lockstep;
pub mod regulator;

pub use budget::{BudgetUnit, CycleSpend, WindowRollover};
pub use config::{
    DirBudget, RegulationMode, RegulatorConfig, RegulatorConfigBuilder, RegulatorConfigError,
};
pub use regulator::{Regulator, ISOLATION_REASON};
