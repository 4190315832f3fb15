//! The Write Guard: monitors AW/W/B for one subordinate link.
//!
//! All direction-independent machinery lives in the
//! [generic engine](super::engine); this module contributes only the
//! write-specific vocabulary (AW beat, six-phase machine, write budgets)
//! and the W/B routing: W beats route to the EI-front transaction (AW
//! order, no write-data interleaving in AXI4), B responses route by ID
//! and retire the per-ID FIFO head once its data completed.

use axi4::beat::{AwBeat, BBeat};
use axi4::channel::AxiPort;
use axi4::checker::Rule;
use tmu_telemetry::{Dir, TelemetryHub};

use super::engine::{flag, Direction, GuardCore, TxnTracker};
use super::AbortTxn;
use crate::budget::{BudgetConfig, QueueLoad, WriteBudgets};
use crate::log::PerfLog;
use crate::phase::WritePhase;

/// The Write Guard: [`GuardCore`] specialized to the write direction.
/// See the [module docs](super) for the monitoring model.
pub type WriteGuard = GuardCore<WriteDir>;

/// Per-transaction tracker state stored in the write OTT's LD rows.
pub type WriteTracker = TxnTracker<WriteDir>;

/// Uninhabited marker selecting the write direction (AW/W/B channels,
/// six monitored phases) in the generic guard engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteDir {}

/// W/B-channel wires captured per cycle.
#[derive(Debug, Clone, Default)]
pub struct WriteDataObs {
    w_offered: bool,
    w_fired: bool,
    w_last: bool,
    b_offered: Option<BBeat>,
    /// Whether `b_offered` fired.
    b_fired: bool,
}

impl Direction for WriteDir {
    type Req = AwBeat;
    type Phase = WritePhase;
    type Budgets = WriteBudgets;
    type DataObs = WriteDataObs;

    const DIR: Dir = Dir::Write;
    const IS_WRITE: bool = true;
    const SOURCE: &'static str = "tmu.write";
    const STALL_COUNTER: &'static str = "tmu.write.stall_cycles";
    const INITIAL_PHASE: WritePhase = WritePhase::AwHandshake;
    const ADDR_DONE_PHASE: WritePhase = WritePhase::DataEntry;
    const DONE_PHASE: WritePhase = WritePhase::Done;
    const EI_ORDER: bool = true;

    fn phase_is_done(phase: WritePhase) -> bool {
        phase.is_done()
    }

    fn phase_index(phase: WritePhase) -> usize {
        phase.index()
    }

    fn budgets(cfg: &BudgetConfig, beats: u16, load: QueueLoad) -> WriteBudgets {
        cfg.write_budgets(beats, load)
    }

    fn tiny_budget(cfg: &BudgetConfig, beats: u16, load: QueueLoad) -> u64 {
        cfg.tiny_write_budget(beats, load)
    }

    fn phase_budget(budgets: &WriteBudgets, phase: WritePhase) -> u64 {
        budgets.for_phase(phase)
    }

    fn initial_budget(budgets: &WriteBudgets) -> u64 {
        budgets.aw_handshake
    }

    fn observe_addr(port: &AxiPort) -> (Option<AwBeat>, bool) {
        (port.aw.beat().copied(), port.aw.fires())
    }

    fn observe_data(port: &AxiPort) -> WriteDataObs {
        WriteDataObs {
            w_offered: port.w.valid(),
            w_fired: port.w.fires(),
            w_last: port.w.beat().is_some_and(|w| w.last),
            b_offered: port.b.beat().copied(),
            b_fired: port.b.fires(),
        }
    }

    // `w_fired` and `w_last` mean nothing without `w_offered`.
    fn data_idle(data: &WriteDataObs) -> bool {
        !data.w_offered && data.b_offered.is_none()
    }

    // A write's data length is fixed by the AW beat.
    fn perf_beats(tracker: &WriteTracker) -> u16 {
        tracker.req.len.beats()
    }

    // Aborting a write means answering its (single) B with `SLVERR`.
    fn abort_txn(tracker: &WriteTracker) -> AbortTxn {
        AbortTxn {
            id: tracker.req.id,
            beats_remaining: 1,
        }
    }

    // The manager still owes the undelivered W beats; the sever path
    // absorbs them so the interconnect is not left mid-burst.
    fn drain_beats(tracker: &WriteTracker) -> u64 {
        u64::from(tracker.beats_remaining())
    }

    #[inline]
    fn commit_data(
        core: &mut GuardCore<WriteDir>,
        data: &WriteDataObs,
        cycle: u64,
        perf: &mut PerfLog,
        telemetry: &mut TelemetryHub,
    ) {
        let check = core.check_protocol;
        // W beats route to the EI-front transaction (AW order).
        if data.w_offered {
            let front = core.ott.ei_front();
            let variant = core.variant;
            let engine = core.engine;
            let mut advance_ei = None;
            if let Some((idx, entry)) = front.and_then(|idx| Some((idx, core.ott.get_mut(idx)?))) {
                let wheel = &mut core.wheel;
                let t = &mut entry.tracker;
                if t.phase == WritePhase::DataEntry {
                    GuardCore::transition(
                        wheel,
                        engine,
                        idx,
                        t,
                        WritePhase::FirstData,
                        cycle,
                        variant,
                        telemetry,
                    );
                }
                if data.w_fired {
                    if matches!(t.phase, WritePhase::FirstData | WritePhase::BurstTransfer) {
                        t.beats_done += 1;
                        core.beats_owed -= 1;
                        let beats = t.req.len.beats();
                        let is_final = t.beats_done == beats;
                        let mut complete_data = is_final;
                        if check && data.w_last && !is_final {
                            flag(
                                &mut core.violations,
                                Rule::WlastEarly,
                                cycle,
                                Some(t.req.id),
                                format!("WLAST on beat {}/{beats}", t.beats_done),
                            );
                            // An early WLAST ends the burst, as the
                            // subordinate sees it. Its unsent beats stay
                            // owed until the transaction retires.
                            complete_data = true;
                        } else if check && is_final && !data.w_last {
                            flag(
                                &mut core.violations,
                                Rule::WlastMissing,
                                cycle,
                                Some(t.req.id),
                                format!("final beat {}/{beats} without WLAST", t.beats_done),
                            );
                        }
                        let to = if complete_data {
                            advance_ei = Some(idx);
                            WritePhase::RespWait
                        } else {
                            WritePhase::BurstTransfer
                        };
                        if t.phase != to {
                            GuardCore::transition(
                                wheel, engine, idx, t, to, cycle, variant, telemetry,
                            );
                        }
                    } else if check {
                        // Data for a write whose address has not fired.
                        flag(
                            &mut core.violations,
                            Rule::WWithoutAw,
                            cycle,
                            None,
                            format!("write data while {} waits for its address", t.req),
                        );
                    }
                }
            } else if data.w_fired && check {
                flag(
                    &mut core.violations,
                    Rule::WWithoutAw,
                    cycle,
                    None,
                    "write data with no outstanding write address".to_string(),
                );
            }
            if let Some(idx) = advance_ei {
                core.ott.ei_advance(idx);
            }
        }

        // B response: valid moves RespWait -> RespReady; the fired
        // handshake completes and retires the transaction. The beat that
        // fires is the beat offered, so one lookup serves both.
        if let Some(b) = data.b_offered {
            let head = core.route_response(b.id);
            let variant = core.variant;
            let engine = core.engine;
            let mut phase = None;
            if let Some((idx, entry)) =
                head.and_then(|(_, idx)| Some((idx, core.ott.get_mut(idx)?)))
            {
                if entry.tracker.phase == WritePhase::RespWait {
                    GuardCore::transition(
                        &mut core.wheel,
                        engine,
                        idx,
                        &mut entry.tracker,
                        WritePhase::RespReady,
                        cycle,
                        variant,
                        telemetry,
                    );
                }
                phase = Some(entry.tracker.phase);
            }
            if data.b_fired {
                let unexpected = match (phase, head) {
                    (Some(WritePhase::RespReady), Some((uid, _))) => {
                        core.retire(uid, cycle, perf, telemetry);
                        None
                    }
                    (
                        Some(
                            WritePhase::DataEntry
                            | WritePhase::FirstData
                            | WritePhase::BurstTransfer,
                        ),
                        _,
                    ) => Some(Rule::BBeforeWlast),
                    // No write for the ID, or only one whose address has
                    // not fired.
                    (None | Some(WritePhase::AwHandshake), _) => Some(Rule::BWithoutTxn),
                    // A head awaiting its B moved to RespReady above.
                    _ => None,
                };
                if let Some(rule) = unexpected.filter(|_| check) {
                    flag(
                        &mut core.violations,
                        rule,
                        cycle,
                        Some(b.id),
                        format!("unexpected write response {b}"),
                    );
                }
            }
        }
    }
}
