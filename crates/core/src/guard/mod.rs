//! The Write Guard and Read Guard modules (paper §II-A).
//!
//! AXI4 keeps its write and read channels independent, so the TMU
//! instantiates one guard per direction. Each guard owns an
//! [`crate::ott::Ott`] of per-transaction trackers and an ID remapper,
//! and once per cycle, at commit, reads the settled manager-side wires,
//! advances the per-transaction phase machines, ticks the timeout
//! counters, and reports [`GuardFault`]s.
//!
//! With protocol checking on, the guards also answer the context
//! protocol rules (W without AW, WLAST placement, B without a
//! transaction or before WLAST, R without a transaction, RLAST
//! placement) from the OTT lookups they already make for routing; the
//! TMU runs the stateless wire rules beside them.
//!
//! The guards implement both variants: in **Tiny-Counter** mode a single
//! counter spans the whole transaction against the transaction-level
//! budget; in **Full-Counter** mode the counter is re-armed with each
//! phase's own (adaptive) budget at every phase transition, and per-phase
//! latencies are recorded into the performance log.
//!
//! Since the two directions differ only in their phase machines, data
//! routing, and abort semantics, the shared machinery lives once in the
//! [`engine`] module as [`GuardCore`], parameterized by the [`Direction`]
//! trait; [`ReadGuard`] and [`WriteGuard`] are thin aliases over it.

pub mod engine;
pub mod read;
#[cfg(test)]
mod tests;
pub mod write;

pub use engine::{Direction, GuardCore, TxnTracker};
pub use read::{ReadDir, ReadGuard, ReadTracker};
pub use write::{WriteDir, WriteGuard, WriteTracker};

use axi4::{Addr, AxiId};

use crate::log::FaultKind;
use crate::phase::TxnPhase;

/// A fault detected by a guard in the current cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardFault {
    /// Failure class (always [`FaultKind::Timeout`]: the context
    /// protocol rules the guards answer are reported to the TMU as
    /// [`Violation`](axi4::checker::Violation)s instead).
    pub kind: FaultKind,
    /// Phase the fault was localized to (`None` for transaction-level
    /// Tiny-Counter detection).
    pub phase: Option<TxnPhase>,
    /// Raw AXI ID of the affected transaction.
    pub id: AxiId,
    /// Start address of the affected transaction.
    pub addr: Addr,
    /// Cycles the transaction had been in flight when flagged.
    pub inflight_cycles: u64,
}

/// One outstanding transaction the TMU must abort towards the manager
/// after severing a faulty subordinate: `SLVERR` responses are issued for
/// each (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbortTxn {
    /// Raw AXI ID to respond with.
    pub id: AxiId,
    /// Response beats still owed to the manager: 1 for a write (its B
    /// beat), the remaining R beats for a read.
    pub beats_remaining: u16,
}

/// Everything the TMU must do towards the manager to cleanly abort one
/// guard's outstanding transactions. AXI forbids a manager from
/// cancelling an issued burst, so beyond the `SLVERR` responses the TMU
/// must also *drain* the write data the manager is still obliged to send
/// and accept a still-held address beat before answering it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortSet {
    /// `SLVERR` responses owed (one B per write; remaining R beats per
    /// read).
    pub responses: Vec<AbortTxn>,
    /// Residual W beats the manager will still send for the aborted
    /// writes — the TMU absorbs and discards them.
    pub drain_w_beats: u64,
    /// True if an address beat was held on the wires awaiting `ready`
    /// when the fault struck: the TMU must accept it itself so the
    /// manager can proceed to the (aborted) data/response phases.
    pub accept_pending_addr: bool,
}
