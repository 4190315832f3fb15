//! The direction-generic guard engine.
//!
//! The paper instantiates one guard per AXI direction because the write
//! (AW/W/B, six monitored phases) and read (AR/R, four phases) pipelines
//! differ only in their phase machines, data routing, and abort
//! semantics. Everything else — the Outstanding Transaction Table, ID
//! remapper, prescaled timeout counters, deadline wheel, adaptive budget
//! selection, stall backpressure, and the stall/commit/drain/clear
//! lifecycle — is direction-independent and lives here exactly once, in
//! [`GuardCore`].
//!
//! The split is expressed as a trait: [`Direction`] captures the
//! direction-specific *vocabulary* (request beat type, phase enum,
//! budget table) and *behaviour* (which wires are its own, data/response
//! routing, abort obligations). `ReadGuard`/`WriteGuard` are thin type
//! aliases over `GuardCore<ReadDir>`/`GuardCore<WriteDir>`, so the
//! public guard API and the telemetry event streams are identical to the
//! former hand-specialized implementations.
//!
//! ## Commit ordering contract
//!
//! [`GuardCore::commit`] reads the settled manager-side port and advances
//! the tracked state for one cycle in a fixed order that both directions
//! share:
//!
//! 1. a newly *offered* address beat allocates an OTT entry (unless
//!    [`GuardCore::decide_stall`], asked again on the state the commit
//!    starts from, held it off),
//! 2. a *fired* address handshake advances the head entry into the data
//!    phase,
//! 3. the direction routes data/response wires through its phase machine,
//!    retires completed transactions and, when protocol checking is on,
//!    answers the context rules from the same OTT lookups
//!    ([`Direction::commit_data`]),
//! 4. timeout expiries are flagged (per-cycle tick sweep or deadline
//!    wheel pop, per the configured engine),
//! 5. a stalled cycle bumps the direction's stall counter.
//!
//! ## Quiet cycles
//!
//! Under the deadline-wheel engine a commit does work only on an event.
//! A cycle whose port carries no valid beat on the direction's channels
//! ([`Direction::idle`], tested before any beat is read; a stall needs
//! a valid address, so an idle cycle has none) and no deadline that
//! [`DeadlineWheel::may_be_due`] is skipped:
//! steps 1–5 would change nothing on it. The per-cycle reference engine ticks every live
//! counter every cycle, so it commits every cycle in full.
//!
//! When `debug_assertions` are on, every commit ends with
//! [`GuardCore::assert_consistent`], so all property tests exercise the
//! structural invariants after each committed cycle for free.

use axi4::beat::AddrBeat;
use axi4::channel::{AxiPort, Channel};
use axi4::checker::{Rule, Violation};
use axi4::AxiId;
use tmu_telemetry::{Dir, FaultClass, PhaseId, TelemetryHub, TraceEvent};

use super::{AbortSet, AbortTxn, GuardFault};
use crate::budget::{BudgetConfig, QueueLoad};
use crate::config::{CounterEngine, TmuConfig, TmuVariant};
use crate::counter::PrescaledCounter;
use crate::log::{FaultKind, PerfLog, PerfRecord};
use crate::ott::{LdIndex, Ott};
use crate::phase::TxnPhase;
use crate::remap::{IdRemapper, UniqId};
use crate::wheel::DeadlineWheel;

/// One AXI direction's contribution to the guard engine: the beat and
/// phase vocabulary plus the direction-specific routing and abort
/// semantics. Implemented by the uninhabited markers
/// [`ReadDir`](super::read::ReadDir) and
/// [`WriteDir`](super::write::WriteDir).
pub trait Direction: Sized + std::fmt::Debug + Clone + 'static {
    /// The address beat that opens a transaction (`AwBeat` / `ArBeat`).
    type Req: AddrBeat + PartialEq + Eq;
    /// The per-direction monitored phase enum.
    type Phase: Copy + std::fmt::Debug + PartialEq + Eq + Into<PhaseId> + Into<TxnPhase>;
    /// The per-phase budget table consulted by the Full-Counter variant.
    type Budgets: Copy + std::fmt::Debug + PartialEq + Eq;

    /// Which guard this is, as tagged in telemetry events.
    const DIR: Dir;
    /// Whether completed transactions log as writes.
    const IS_WRITE: bool;
    /// Telemetry source tag for this guard.
    const SOURCE: &'static str;
    /// Metric key counting cycles a new address beat was stalled.
    const STALL_COUNTER: &'static str;
    /// Phase a freshly allocated transaction starts in.
    const INITIAL_PHASE: Self::Phase;
    /// Phase entered when the address handshake fires.
    const ADDR_DONE_PHASE: Self::Phase;
    /// Terminal phase assigned at retirement.
    const DONE_PHASE: Self::Phase;
    /// Whether the OTT keeps the EI issue order (write data routes by
    /// AW order; read data carries its ID).
    const EI_ORDER: bool;

    /// Whether `phase` is the terminal phase.
    fn phase_is_done(phase: Self::Phase) -> bool;
    /// 0-based index of `phase` into the per-phase latency array.
    fn phase_index(phase: Self::Phase) -> usize;
    /// Per-phase budget table for a burst of `beats` under `load`.
    fn budgets(cfg: &BudgetConfig, beats: u16, load: QueueLoad) -> Self::Budgets;
    /// Whole-transaction budget for the Tiny-Counter variant.
    fn tiny_budget(cfg: &BudgetConfig, beats: u16, load: QueueLoad) -> u64;
    /// Budget of one phase from the table.
    fn phase_budget(budgets: &Self::Budgets, phase: Self::Phase) -> u64;
    /// Budget of the initial (address-handshake) phase.
    fn initial_budget(budgets: &Self::Budgets) -> u64;
    /// The direction's address channel on `port`.
    fn addr(port: &AxiPort) -> &Channel<Self::Req>;
    /// Whether none of the direction's channels on `port` carries a
    /// valid beat, so that steps 1–3 of the commit would do nothing.
    fn idle(port: &AxiPort) -> bool;
    /// Beats reported in the perf record of a retired transaction.
    fn perf_beats(tracker: &TxnTracker<Self>) -> u16;
    /// Abort obligation for one outstanding transaction (sever path).
    fn abort_txn(tracker: &TxnTracker<Self>) -> AbortTxn;
    /// Residual W beats the manager still owes for this transaction
    /// (0 for reads: the subordinate owns the read data channel).
    fn drain_beats(tracker: &TxnTracker<Self>) -> u64;
    /// Step 3 of the commit contract: route this cycle's data/response
    /// wires on `port` through the phase machine and retire completions
    /// via `GuardCore::retire`. While `GuardCore::check_protocol` is set,
    /// a beat that breaks a context rule is recorded with `flag`.
    fn commit_data(
        core: &mut GuardCore<Self>,
        port: &AxiPort,
        cycle: u64,
        perf: &mut PerfLog,
        telemetry: &mut TelemetryHub,
    );
}

/// Records a context-rule violation found in a commit.
pub(in crate::guard) fn flag(
    violations: &mut Vec<Violation>,
    rule: Rule,
    cycle: u64,
    id: Option<AxiId>,
    detail: String,
) {
    violations.push(Violation {
        rule,
        cycle,
        id,
        detail,
    });
}

/// Per-transaction tracker state stored in the OTT's LD rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnTracker<D: Direction> {
    /// The address beat that opened the transaction.
    pub req: D::Req,
    /// Committed state: current phase register.
    pub phase: D::Phase,
    /// Committed state: data beats transferred so far.
    pub beats_done: u16,
    /// Timeout counter (whole-transaction for Tc, current-phase for Fc).
    pub counter: PrescaledCounter,
    /// Per-phase budgets (consulted by Fc at each transition).
    pub budgets: D::Budgets,
    /// Cycle the transaction entered the OTT.
    pub enqueued_at: u64,
    /// Committed state: cycle the current phase started.
    pub phase_started_at: u64,
    /// Committed state: recorded per-phase latencies (the read
    /// direction uses 4 slots).
    pub phase_cycles: [u64; 6],
    /// Committed state: latched once this transaction has timed out.
    pub timed_out: bool,
}

impl<D: Direction> TxnTracker<D> {
    /// Data beats the transaction still owes.
    #[must_use]
    pub fn beats_remaining(&self) -> u16 {
        self.req.burst_len().beats().saturating_sub(self.beats_done)
    }
}

/// The direction-generic guard: owns the OTT, ID remapper, deadline
/// wheel, and prescaled counters for one direction of one monitored
/// link, and drives the stall/commit/drain/clear lifecycle: the stall is
/// a pure function of the committed state and the offered address, which
/// the forward pass asks to gate the wires and the commit asks again
/// before it reads the settled port. See the [module docs](self) for the
/// commit ordering contract.
#[derive(Debug, Clone)]
pub struct GuardCore<D: Direction> {
    pub(in crate::guard) variant: TmuVariant,
    pub(in crate::guard) engine: CounterEngine,
    prescaler: u64,
    sticky: bool,
    budget_cfg: BudgetConfig,
    pub(in crate::guard) ott: Ott<TxnTracker<D>>,
    pub(in crate::guard) remap: IdRemapper,
    /// Deadline schedule for the event-driven counter engine.
    pub(in crate::guard) wheel: DeadlineWheel,
    /// Last committed cycle (counter materialization reference).
    last_commit: u64,
    /// Residual beats of previously aborted bursts still draining ahead
    /// of any new transaction's data (set by the TMU each cycle; only
    /// ever non-zero on the write guard).
    pending_drain_beats: u64,
    /// Data beats the tracked transactions still owe: the running sum
    /// of [`TxnTracker::beats_remaining`] over the OTT, kept the way
    /// hardware keeps an occupancy count (up by the burst length at
    /// enqueue, down by one per counted data beat, down by the rest at
    /// retirement) so the adaptive budget reads it in O(1).
    pub(in crate::guard) beats_owed: u64,
    /// Entry allocated on address `valid`, still waiting for `ready`.
    addr_pending: Option<LdIndex>,
    /// Whether [`Direction::commit_data`] checks the context protocol
    /// rules (set by the TMU from `TmuConfig::check_protocol` and
    /// `CTRL_PROT_CHECK`).
    pub(in crate::guard) check_protocol: bool,
    /// Context-rule violations found since the TMU last collected them.
    pub(in crate::guard) violations: Vec<Violation>,
    /// The last response beat's route, `(id, uid, head)`: one entry that
    /// spares a burst's later beats the remapper scan. It stays valid
    /// until its uid retires a transaction or the guard clears, since
    /// only a dequeue moves a uid's head and only a release unmaps an ID.
    resp_route: Option<(AxiId, UniqId, LdIndex)>,
}

impl<D: Direction> GuardCore<D> {
    /// Builds the guard for a TMU configuration.
    #[must_use]
    pub fn new(cfg: &TmuConfig) -> Self {
        GuardCore {
            variant: cfg.variant(),
            engine: cfg.engine(),
            prescaler: cfg.prescaler(),
            sticky: cfg.sticky(),
            budget_cfg: *cfg.budgets(),
            ott: if D::EI_ORDER {
                Ott::new(cfg.max_uniq_ids(), cfg.max_outstanding())
            } else {
                Ott::without_ei(cfg.max_uniq_ids(), cfg.max_outstanding())
            },
            remap: IdRemapper::new(cfg.max_uniq_ids(), cfg.txn_per_id()),
            wheel: DeadlineWheel::new(cfg.max_outstanding()),
            last_commit: 0,
            pending_drain_beats: 0,
            beats_owed: 0,
            addr_pending: None,
            check_protocol: cfg.check_protocol(),
            violations: Vec::new(),
            resp_route: None,
        }
    }

    /// Switches the context protocol rules on or off.
    pub(crate) fn set_protocol_check(&mut self, on: bool) {
        self.check_protocol = on;
    }

    /// Moves the context-rule violations found since the last call to
    /// the end of `out`, in the order they were found.
    pub(crate) fn take_violations(&mut self, out: &mut Vec<Violation>) {
        if !self.violations.is_empty() {
            out.append(&mut self.violations);
        }
    }

    /// Residual abort-drain beats that will occupy the data channel
    /// before any newly enqueued transaction's data: charged into the
    /// adaptive queue-waiting budget. The TMU sets this each cycle on
    /// the write guard while a severed link drains.
    pub fn set_pending_drain(&mut self, beats: u64) {
        self.pending_drain_beats = beats;
    }

    /// Replaces the budget configuration (software reprogramming via the
    /// register file). Applies to transactions enqueued afterwards.
    pub fn set_budgets(&mut self, budgets: BudgetConfig) {
        self.budget_cfg = budgets;
    }

    /// Outstanding transactions currently tracked.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.ott.len()
    }

    /// Deadlines currently armed in this guard's deadline wheel, at most
    /// one per LD slot (telemetry gauge; 0 under the per-cycle reference
    /// engine).
    #[must_use]
    pub fn wheel_depth(&self) -> usize {
        self.wheel.depth()
    }

    /// Whether the offered address beat `req` must be stalled this cycle
    /// (saturation / remapper backpressure, paper §II-D): a pure function
    /// of the committed state, asked by the forward pass and again by the
    /// commit.
    ///
    /// The address beat already allocated while it waits for `ready` is
    /// never stalled, unless protocol checks are on and the manager
    /// changed it while waiting (a stability violation): that beat is
    /// held off too. So every address that fires is in the OTT exactly
    /// as it fired, which the context protocol rules rely on.
    #[inline]
    #[must_use]
    pub fn decide_stall(&self, req: Option<&D::Req>) -> bool {
        match (req, self.addr_pending) {
            (None, _) => false,
            (Some(beat), Some(idx)) => self.check_protocol && self.changed_while_waiting(idx, beat),
            (Some(beat), None) => self.ott.is_full() || self.remap.probe(beat.id()).is_err(),
        }
    }

    /// Whether `beat` differs from the allocated address beat in `idx`.
    #[cold]
    fn changed_while_waiting(&self, idx: LdIndex, beat: &D::Req) -> bool {
        self.ott.get(idx).is_some_and(|e| e.tracker.req != *beat)
    }

    /// The queue load ahead of a new arrival (adaptive-budget input).
    pub(in crate::guard) fn queue_load(&self) -> QueueLoad {
        QueueLoad {
            txns_ahead: self.ott.len(),
            beats_ahead: self.pending_drain_beats + self.beats_owed,
        }
    }

    /// The unique-ID slot of a response beat with `id` and the head of
    /// that slot's FIFO, the transaction the beat answers; `None` when no
    /// transaction of `id` is tracked. Memoized for the next beat.
    #[inline]
    pub(in crate::guard) fn route_response(&mut self, id: AxiId) -> Option<(UniqId, LdIndex)> {
        if let Some((memo_id, uid, head)) = self.resp_route {
            if memo_id == id {
                return Some((uid, head));
            }
        }
        let uid = self.remap.lookup(id)?;
        let head = self.ott.head_of(uid)?;
        self.resp_route = Some((id, uid, head));
        Some((uid, head))
    }

    /// Moves `tracker` to phase `to`, records the finished phase's
    /// latency, and (Full-Counter) restarts the counter with the new
    /// phase's budget, re-arming the deadline wheel. An associated
    /// function so [`Direction::commit_data`] can split-borrow the OTT
    /// entry and the wheel.
    #[allow(clippy::too_many_arguments)]
    pub(in crate::guard) fn transition(
        wheel: &mut DeadlineWheel,
        engine: CounterEngine,
        idx: LdIndex,
        tracker: &mut TxnTracker<D>,
        to: D::Phase,
        cycle: u64,
        variant: TmuVariant,
        telemetry: &mut TelemetryHub,
    ) {
        let from = tracker.phase;
        if !D::phase_is_done(from) {
            // Latency of the finished phase: inclusive of this cycle; a
            // same-cycle double transition yields zero.
            tracker.phase_cycles[D::phase_index(from)] =
                (cycle + 1).saturating_sub(tracker.phase_started_at);
        }
        tracker.phase = to;
        tracker.phase_started_at = cycle + 1;
        if !D::phase_is_done(to) {
            telemetry.record(
                cycle,
                D::SOURCE,
                TraceEvent::PhaseTransition {
                    dir: D::DIR,
                    id: tracker.req.id().0,
                    slot: idx as u32,
                    from: from.into(),
                    to: to.into(),
                },
            );
        }
        if variant == TmuVariant::FullCounter && !D::phase_is_done(to) {
            let budget = D::phase_budget(&tracker.budgets, to);
            tracker.counter.rebudget(budget);
            telemetry.record(
                cycle,
                D::SOURCE,
                TraceEvent::Rebudget {
                    dir: D::DIR,
                    id: tracker.req.id().0,
                    slot: idx as u32,
                    budget,
                },
            );
            // The restarted counter receives its first tick in this
            // commit; an already timed-out transaction never re-fires.
            if engine == CounterEngine::DeadlineWheel && !tracker.timed_out {
                let fire_at = cycle + tracker.counter.cycles_to_expiry() - 1;
                wheel.arm(idx, cycle, fire_at);
                telemetry.record(
                    cycle,
                    D::SOURCE,
                    TraceEvent::WheelArm {
                        dir: D::DIR,
                        slot: idx as u32,
                        fire_at,
                    },
                );
            }
        }
    }

    /// Retires the transaction at the head of `uid`'s FIFO: dequeues it,
    /// releases the remapper slot, disarms its deadline, and logs the
    /// completed-transaction perf record and telemetry event. The caller
    /// (a [`Direction::commit_data`]) has verified the head exists and
    /// its handshake completed.
    pub(in crate::guard) fn retire(
        &mut self,
        uid: UniqId,
        cycle: u64,
        perf: &mut PerfLog,
        telemetry: &mut TelemetryHub,
    ) {
        let (idx, entry) = self
            .ott
            .dequeue_head(uid)
            .expect("caller verified the FIFO head exists before retiring");
        self.remap.release(uid);
        if self
            .resp_route
            .is_some_and(|(_, memo_uid, _)| memo_uid == uid)
        {
            self.resp_route = None;
        }
        self.wheel.disarm(idx);
        let mut t = entry.tracker;
        // A read retired early by `RLAST` takes its unsent beats with it.
        self.beats_owed -= u64::from(t.beats_remaining());
        Self::transition(
            &mut self.wheel,
            self.engine,
            idx,
            &mut t,
            D::DONE_PHASE,
            cycle,
            self.variant,
            telemetry,
        );
        let total = cycle - t.enqueued_at + 1;
        perf.record(
            PerfRecord {
                id: t.req.id(),
                addr: t.req.addr(),
                is_write: D::IS_WRITE,
                beats: D::perf_beats(&t),
                total_cycles: total,
                phase_cycles: t.phase_cycles,
                completed_at: cycle,
            },
            t.req.size().bytes(),
        );
        telemetry.record(
            cycle,
            D::SOURCE,
            TraceEvent::OttDequeue {
                dir: D::DIR,
                id: t.req.id().0,
                slot: idx as u32,
                total_cycles: total,
            },
        );
    }

    /// Advances the phase machines from the settled manager-side `port`,
    /// ticks counters, and appends this cycle's faults to `faults`.
    ///
    /// `cycle` is the current cycle index; `perf` receives a record for
    /// every completed transaction (Full-Counter granularity when the
    /// variant is Fc); `telemetry` receives the structured event stream
    /// (a disabled hub costs one branch per event). `faults` is the
    /// caller's buffer, reused across cycles, so a commit allocates
    /// nothing unless a fault is found.
    ///
    /// A quiet cycle (see the [module docs](self)) costs the inlined
    /// gate alone; the busy body stays out of line.
    ///
    /// # Panics
    ///
    /// Panics only if the stall decision, OTT, and remapper disagree — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    #[inline]
    pub fn commit(
        &mut self,
        port: &AxiPort,
        cycle: u64,
        perf: &mut PerfLog,
        telemetry: &mut TelemetryHub,
        faults: &mut Vec<GuardFault>,
    ) {
        self.last_commit = cycle;
        if self.is_quiet(port, cycle) {
            #[cfg(debug_assertions)]
            self.assert_consistent();
            return;
        }
        self.commit_busy(port, cycle, perf, telemetry, faults);
    }

    /// The commit of a cycle with an event: steps 1–5 of the
    /// [module docs](self).
    #[inline(never)]
    fn commit_busy(
        &mut self,
        port: &AxiPort,
        cycle: u64,
        perf: &mut PerfLog,
        telemetry: &mut TelemetryHub,
        faults: &mut Vec<GuardFault>,
    ) {
        let addr = D::addr(port);
        // The forward pass's stall decision, asked again on the state
        // this commit starts from. A pending address is never allocated
        // again, so its stall only feeds the stall counter.
        let stalled =
            (self.addr_pending.is_none() || telemetry.enabled()) && self.decide_stall(addr.beat());

        // 1. New address beat offered: allocate unless stalled or
        //    already pending.
        if let Some(&req) = addr.beat() {
            if self.addr_pending.is_none() && !stalled {
                let load = self.queue_load();
                let beats = req.burst_len().beats();
                let budgets = D::budgets(&self.budget_cfg, beats, load);
                let initial_budget = match self.variant {
                    TmuVariant::TinyCounter => D::tiny_budget(&self.budget_cfg, beats, load),
                    TmuVariant::FullCounter => D::initial_budget(&budgets),
                };
                let uid = self
                    .remap
                    .acquire(req.id())
                    .expect("stall decision guaranteed admission");
                let counter = PrescaledCounter::new(initial_budget, self.prescaler, self.sticky);
                let fire_in = counter.cycles_to_expiry();
                let tracker = TxnTracker {
                    req,
                    phase: D::INITIAL_PHASE,
                    beats_done: 0,
                    counter,
                    budgets,
                    enqueued_at: cycle,
                    phase_started_at: cycle,
                    phase_cycles: [0; 6],
                    timed_out: false,
                };
                let idx = self
                    .ott
                    .enqueue(uid, tracker)
                    .expect("stall decision guaranteed capacity");
                self.beats_owed += u64::from(beats);
                self.addr_pending = Some(idx);
                telemetry.record(
                    cycle,
                    D::SOURCE,
                    TraceEvent::OttEnqueue {
                        dir: D::DIR,
                        id: req.id().0,
                        addr: req.addr().0,
                        beats,
                        slot: idx as u32,
                        phase: D::INITIAL_PHASE.into(),
                    },
                );
                if self.engine == CounterEngine::DeadlineWheel {
                    // First tick lands in this commit, so the expiry can
                    // fire as early as this very cycle (fire_in >= 1).
                    let fire_at = cycle + fire_in - 1;
                    self.wheel.arm(idx, cycle, fire_at);
                    telemetry.record(
                        cycle,
                        D::SOURCE,
                        TraceEvent::WheelArm {
                            dir: D::DIR,
                            slot: idx as u32,
                            fire_at,
                        },
                    );
                }
            }
        }

        // 2. Address handshake completes: enter the data phase.
        if addr.fires() {
            if let Some(idx) = self.addr_pending.take() {
                let variant = self.variant;
                let engine = self.engine;
                if let Some(entry) = self.ott.get_mut(idx) {
                    Self::transition(
                        &mut self.wheel,
                        engine,
                        idx,
                        &mut entry.tracker,
                        D::ADDR_DONE_PHASE,
                        cycle,
                        variant,
                        telemetry,
                    );
                }
            }
        }

        // 3. Direction-specific data/response routing and retirement.
        D::commit_data(self, port, cycle, perf, telemetry);

        // 4. Flag expiries. The reference engine ticks every live
        //    counter each cycle; the deadline wheel only touches the
        //    counters whose precomputed expiry is due, materializing
        //    their elapsed ticks on demand.
        match self.engine {
            CounterEngine::PerCycle => {
                for (_, entry) in self.ott.iter_mut() {
                    let t = &mut entry.tracker;
                    if D::phase_is_done(t.phase) || t.timed_out {
                        continue;
                    }
                    t.counter.tick();
                    if t.counter.expired() {
                        t.timed_out = true;
                        telemetry.record(
                            cycle,
                            D::SOURCE,
                            TraceEvent::Fault {
                                class: FaultClass::Timeout,
                                dir: Some(D::DIR),
                                id: t.req.id().0,
                                phase: match self.variant {
                                    TmuVariant::FullCounter => Some(t.phase.into()),
                                    TmuVariant::TinyCounter => None,
                                },
                            },
                        );
                        faults.push(GuardFault {
                            kind: FaultKind::Timeout,
                            phase: match self.variant {
                                TmuVariant::FullCounter => Some(t.phase.into()),
                                TmuVariant::TinyCounter => None,
                            },
                            id: t.req.id(),
                            addr: t.req.addr(),
                            inflight_cycles: cycle - t.enqueued_at + 1,
                        });
                    }
                }
            }
            CounterEngine::DeadlineWheel => {
                // On most busy cycles no deadline is due: the inlined
                // bound check spares the call into the wheel's scan.
                while self.wheel.may_be_due(cycle) {
                    let Some((idx, armed_at)) = self.wheel.pop_expired(cycle) else {
                        break;
                    };
                    let Some(entry) = self.ott.get_mut(idx) else {
                        continue;
                    };
                    let t = &mut entry.tracker;
                    if D::phase_is_done(t.phase) || t.timed_out {
                        continue;
                    }
                    t.counter.advance(cycle - armed_at + 1);
                    debug_assert!(
                        t.counter.expired(),
                        "deadline fired but counter not expired"
                    );
                    t.timed_out = true;
                    telemetry.record(
                        cycle,
                        D::SOURCE,
                        TraceEvent::WheelFire {
                            dir: D::DIR,
                            slot: idx as u32,
                            armed_at,
                        },
                    );
                    telemetry.record(
                        cycle,
                        D::SOURCE,
                        TraceEvent::Fault {
                            class: FaultClass::Timeout,
                            dir: Some(D::DIR),
                            id: t.req.id().0,
                            phase: match self.variant {
                                TmuVariant::FullCounter => Some(t.phase.into()),
                                TmuVariant::TinyCounter => None,
                            },
                        },
                    );
                    faults.push(GuardFault {
                        kind: FaultKind::Timeout,
                        phase: match self.variant {
                            TmuVariant::FullCounter => Some(t.phase.into()),
                            TmuVariant::TinyCounter => None,
                        },
                        id: t.req.id(),
                        addr: t.req.addr(),
                        inflight_cycles: cycle - t.enqueued_at + 1,
                    });
                }
            }
        }

        if stalled {
            // Saturation backpressure held off a new address beat this
            // cycle: counted so the sampler can expose stall pressure
            // over time.
            telemetry.record(
                cycle,
                D::SOURCE,
                TraceEvent::Counter {
                    name: D::STALL_COUNTER,
                    delta: 1,
                },
            );
        }

        #[cfg(debug_assertions)]
        self.assert_consistent();
    }

    /// Whether the commit for `cycle` has nothing to do (see the
    /// [module docs](self)): deadline-wheel engine, no valid beat on the
    /// direction's channels of `port` and no deadline due.
    #[inline]
    fn is_quiet(&self, port: &AxiPort, cycle: u64) -> bool {
        self.engine == CounterEngine::DeadlineWheel
            && D::idle(port)
            && !self.wheel.may_be_due(cycle)
    }

    /// Builds the abort obligations for every outstanding transaction
    /// (the direction decides the `SLVERR` response shape and residual
    /// manager-side drain beats) and clears all tracking state. Used
    /// when the TMU severs the subordinate.
    pub fn drain_for_abort(&mut self) -> AbortSet {
        let responses = self
            .ott
            .iter()
            .map(|(_, e)| D::abort_txn(&e.tracker))
            .collect();
        let drain_w_beats = self
            .ott
            .iter()
            .map(|(_, e)| D::drain_beats(&e.tracker))
            .sum();
        let accept_pending_addr = self.addr_pending.is_some();
        self.clear();
        AbortSet {
            responses,
            drain_w_beats,
            accept_pending_addr,
        }
    }

    /// Discards all tracking state (reset path).
    pub fn clear(&mut self) {
        self.ott.clear();
        self.remap.clear();
        self.wheel.clear();
        self.beats_owed = 0;
        self.addr_pending = None;
        self.violations.clear();
        self.resp_route = None;
    }

    /// The earliest cycle at which an armed timeout can fire, or `None`
    /// when nothing is armed (or the per-cycle reference engine is
    /// selected, which has no schedule). Monotone under quiescence:
    /// while no new beats arrive, no deadline can move earlier.
    pub fn next_deadline(&mut self) -> Option<u64> {
        match self.engine {
            CounterEngine::PerCycle => None,
            CounterEngine::DeadlineWheel => self.wheel.next_deadline(),
        }
    }

    /// Phase of the transaction currently at the head of `id`'s FIFO
    /// (test/diagnostic hook).
    #[must_use]
    pub fn head_phase(&self, id: AxiId) -> Option<D::Phase> {
        let uid = self.remap.lookup(id)?;
        let idx = self.ott.head_of(uid)?;
        self.ott.get(idx).map(|e| e.tracker.phase)
    }

    /// Diagnostic snapshot of all tracked transactions:
    /// `(id, phase, counter)`.
    #[must_use]
    pub fn debug_entries(&self) -> Vec<(AxiId, D::Phase, PrescaledCounter)> {
        self.ott
            .iter()
            .map(|(idx, e)| {
                let mut counter = e.tracker.counter;
                // Under the wheel engine stored counters are stale;
                // materialize the ticks elapsed since the last arm.
                if self.engine == CounterEngine::DeadlineWheel
                    && !e.tracker.timed_out
                    && !D::phase_is_done(e.tracker.phase)
                {
                    let armed_at = self.wheel.armed_at(idx);
                    counter.advance(self.last_commit.saturating_sub(armed_at) + 1);
                }
                (e.tracker.req.id(), e.tracker.phase, counter)
            })
            .collect()
    }

    /// Internal consistency check for property tests.
    ///
    /// # Panics
    ///
    /// Panics on OTT inconsistencies, when the running queue-load count
    /// disagrees with the beats the OTT entries still owe, or when the
    /// memoized response route disagrees with a fresh lookup.
    pub fn assert_consistent(&self) {
        self.ott.assert_consistent();
        if let Some((id, uid, head)) = self.resp_route {
            assert_eq!(self.remap.lookup(id), Some(uid), "memoized route's uid");
            assert_eq!(self.ott.head_of(uid), Some(head), "memoized route's head");
        }
        assert_eq!(
            self.remap.outstanding(),
            self.ott.len(),
            "remapper refcounts must match OTT occupancy"
        );
        assert_eq!(
            self.beats_owed,
            self.scan_beats_owed(),
            "running beats-owed count must match the OTT's remaining beats"
        );
    }

    /// The beats the OTT entries still owe, by scanning every LD row:
    /// the reference for the running [`GuardCore::beats_owed`] count.
    pub(in crate::guard) fn scan_beats_owed(&self) -> u64 {
        self.ott
            .iter()
            .map(|(_, e)| u64::from(e.tracker.beats_remaining()))
            .sum()
    }
}
