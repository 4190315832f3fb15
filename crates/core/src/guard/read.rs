//! The Read Guard: monitors AR/R for one subordinate link.
//!
//! All direction-independent machinery lives in the
//! [generic engine](super::engine); this module contributes only the
//! read-specific vocabulary (AR beat, four-phase machine, read budgets)
//! and the R-channel routing: beats route by ID to the per-ID FIFO head
//! (same-ID reads complete in order; cross-ID interleaving is legal),
//! and `RLAST` — or reaching the expected beat count — retires the
//! transaction.
//!
//! The EI issue order belongs to the write direction, where W beats
//! carry no ID; the read guard's OTT is built without it, as in the area
//! model.

use axi4::beat::ArBeat;
use axi4::channel::{AxiPort, Channel};
use axi4::checker::Rule;
use tmu_telemetry::{Dir, TelemetryHub};

use super::engine::{flag, Direction, GuardCore, TxnTracker};
use super::AbortTxn;
use crate::budget::{BudgetConfig, QueueLoad, ReadBudgets};
use crate::log::PerfLog;
use crate::phase::ReadPhase;

/// The Read Guard: [`GuardCore`] specialized to the read direction. See
/// the [module docs](super) for the monitoring model.
pub type ReadGuard = GuardCore<ReadDir>;

/// Per-transaction tracker state stored in the read OTT's LD rows.
pub type ReadTracker = TxnTracker<ReadDir>;

/// Uninhabited marker selecting the read direction (AR/R channels, four
/// monitored phases) in the generic guard engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadDir {}

impl Direction for ReadDir {
    type Req = ArBeat;
    type Phase = ReadPhase;
    type Budgets = ReadBudgets;

    const DIR: Dir = Dir::Read;
    const IS_WRITE: bool = false;
    const SOURCE: &'static str = "tmu.read";
    const STALL_COUNTER: &'static str = "tmu.read.stall_cycles";
    const INITIAL_PHASE: ReadPhase = ReadPhase::ArHandshake;
    const ADDR_DONE_PHASE: ReadPhase = ReadPhase::DataWait;
    const DONE_PHASE: ReadPhase = ReadPhase::Done;
    // R beats route by ID, so the read OTT keeps no EI order (the area
    // model counts one EI table per TMU, the write guard's).
    const EI_ORDER: bool = false;

    fn phase_is_done(phase: ReadPhase) -> bool {
        phase.is_done()
    }

    fn phase_index(phase: ReadPhase) -> usize {
        phase.index()
    }

    fn budgets(cfg: &BudgetConfig, beats: u16, load: QueueLoad) -> ReadBudgets {
        cfg.read_budgets(beats, load)
    }

    fn tiny_budget(cfg: &BudgetConfig, beats: u16, load: QueueLoad) -> u64 {
        cfg.tiny_read_budget(beats, load)
    }

    fn phase_budget(budgets: &ReadBudgets, phase: ReadPhase) -> u64 {
        budgets.for_phase(phase)
    }

    fn initial_budget(budgets: &ReadBudgets) -> u64 {
        budgets.ar_handshake
    }

    #[inline]
    fn addr(port: &AxiPort) -> &Channel<ArBeat> {
        &port.ar
    }

    #[inline]
    fn idle(port: &AxiPort) -> bool {
        !port.ar.valid() && !port.r.valid()
    }

    // A read may retire early on RLAST, so the perf record reports the
    // beats actually transferred rather than the advertised burst length.
    fn perf_beats(tracker: &ReadTracker) -> u16 {
        tracker.beats_done
    }

    // Aborting a read means answering every beat the subordinate still
    // owes with `SLVERR` (at least one, for the R-channel handshake).
    fn abort_txn(tracker: &ReadTracker) -> AbortTxn {
        AbortTxn {
            id: tracker.req.id,
            beats_remaining: tracker.beats_remaining().max(1),
        }
    }

    // The subordinate drives R: the manager owes no residual data beats.
    fn drain_beats(_tracker: &ReadTracker) -> u64 {
        0
    }

    #[inline]
    fn commit_data(
        core: &mut GuardCore<ReadDir>,
        port: &AxiPort,
        cycle: u64,
        perf: &mut PerfLog,
        telemetry: &mut TelemetryHub,
    ) {
        // R beats route by ID to the per-ID FIFO head (same-ID reads
        // complete in order; cross-ID interleaving is legal). The beat
        // that fires is the beat offered, so one lookup serves both.
        let Some(&r) = port.r.beat() else {
            return;
        };
        let r_fired = port.r.fires();
        let head = core.route_response(r.id);
        let variant = core.variant;
        let engine = core.engine;
        let mut retire = None;
        let mut unexpected = Some(Rule::RWithoutTxn);
        if let Some((uid, idx, entry)) =
            head.and_then(|(uid, idx)| Some((uid, idx, core.ott.get_mut(idx)?)))
        {
            let wheel = &mut core.wheel;
            let t = &mut entry.tracker;
            let offered_is_final = t.beats_done + 1 == t.req.len.beats();
            if t.phase == ReadPhase::DataWait {
                let to = if offered_is_final {
                    ReadPhase::LastReady
                } else {
                    ReadPhase::BurstTransfer
                };
                GuardCore::transition(wheel, engine, idx, t, to, cycle, variant, telemetry);
            } else if t.phase == ReadPhase::BurstTransfer && offered_is_final {
                GuardCore::transition(
                    wheel,
                    engine,
                    idx,
                    t,
                    ReadPhase::LastReady,
                    cycle,
                    variant,
                    telemetry,
                );
            }
            // A head still in ArHandshake has not fired its address: the
            // beat belongs to no read.
            if r_fired && !t.phase.is_done() && t.phase != ReadPhase::ArHandshake {
                t.beats_done += 1;
                core.beats_owed -= 1;
                let beats = t.req.len.beats();
                let is_final = t.beats_done == beats;
                unexpected = match (r.last, is_final) {
                    (true, false) => Some(Rule::RlastEarly),
                    (false, true) => Some(Rule::RlastMissing),
                    _ => None,
                };
                // The subordinate's RLAST drives completion; reaching the
                // expected count does likewise.
                if r.last || t.beats_done >= beats {
                    retire = Some(uid);
                }
            }
        }
        if !r_fired {
            return;
        }
        if let Some(rule) = unexpected.filter(|_| core.check_protocol) {
            flag(
                &mut core.violations,
                rule,
                cycle,
                Some(r.id),
                format!("read data {r} breaks {rule}"),
            );
        }
        if let Some(uid) = retire {
            // `retire` performs the Done transition, closing out the
            // final phase's recorded latency.
            core.retire(uid, cycle, perf, telemetry);
        }
    }
}
