//! The per-manager regulator: a cycle-accurate two-phase component that
//! sits between one manager and the interconnect, gates its AW/AR
//! handshakes when the credit bucket runs dry, and — in isolation mode —
//! severs a persistently overrunning manager.
//!
//! To isolate cleanly the regulator keeps a ledger of the transactions
//! it let through: raw ID and owed beats per transaction, per direction.
//! On the isolation verdict the ledger becomes the abort obligations
//! handed to a [`Terminator`] — the same sever/`SLVERR`-abort/drain unit
//! the TMU's recovery uses — which answers the manager until software
//! calls [`Regulator::release`].
//!
//! # Per-cycle protocol
//!
//! The harness calls the same four passes as for a [`tmu::Tmu`]:
//!
//! 1. [`Regulator::forward_request`] after the manager drives;
//! 2. [`Regulator::drive_response`] after the downstream side drives;
//! 3. [`Regulator::backprop_response_ready`] (optional, mux harnesses);
//! 4. [`Regulator::commit_port`] at the clock edge, on the settled
//!    manager-side and downstream wires.
//!
//! The first three take `&self`. A credit denial and an admission stall
//! are pure functions of committed state and the manager's address: the
//! drive passes ask them to gate the wires, and the commit asks them
//! again. A stale response absorbed while severed is read off the
//! settled downstream wires.
//!
//! Every pass runs on every cycle. The window rollovers are deadlines on
//! absolute cycles; a regulator attached to a running fabric joins the
//! window grid already under way.
//!
//! # Lanes
//!
//! Writes and reads are regulated alike: each direction is one lane with
//! its address gate, ledger, wait episodes and stale responses, run by
//! the same code for AW and for AR. Only W forwarding, the owed W beats
//! and the hand-off to the terminator are the regulator's own.
//!
//! # Quiet cycles
//!
//! The commit works only on an event, which it reads off the settled
//! port before decoding any beat; each lane reports its direction's
//! share. A lane has work when its address fires (a grant), an offered
//! address can be allocated in its ledger (offered, not pending, not
//! stalled), a response beat of its direction reaches the manager, or a
//! denied address opens a new wait episode. The regulator adds a W beat
//! of a granted burst moving downstream, a terminator that is not idle
//! (severed, or still absorbing W beats of aborted bursts), the window
//! rollover ([`BudgetUnit::next_rollover`]) and a due telemetry sample.
//! A quiet commit costs a few comparisons.
//! The common busy shape — an address that waits on the interconnect
//! while already pending in the ledger — is quiet. Committing in full on
//! a quiet cycle would change nothing.

use axi4::beat::AddrBeat;
use axi4::channel::{AxiPort, Channel};
use tmu::guard::AbortSet;
use tmu::{ErrorRecord, FaultKind, Terminator, TmuState};
use tmu_telemetry::{Dir, TelemetryConfig, TelemetryHub, TraceEvent};

use crate::budget::{BudgetUnit, CycleSpend};
use crate::config::{RegulationMode, RegulatorConfig};
use crate::ledger::{Ledger, Open};

/// The policy name logged (as `FaultKind::External`) when the regulator
/// commands an isolation.
pub const ISOLATION_REASON: &str = "bandwidth-overrun";

/// One direction of the regulator: the address gate, the ledger of its
/// open transactions, its wait episodes and the responses it still
/// absorbs after an isolation. See the [module docs](self#lanes).
#[derive(Debug, Clone)]
struct Lane {
    dir: Dir,
    /// Open transactions of this direction the regulator let through.
    ledger: Ledger,
    /// Committed state: responses the subordinate still owes to
    /// transactions aborted by the last isolation. They are absorbed,
    /// and [`Regulator::release`] waits for them so none reaches the
    /// re-admitted manager.
    q_stale: u64,
    /// Committed state: cycle the currently denied address started
    /// waiting.
    q_wait_since: Option<u64>,
    /// Committed state: address handshakes granted since construction.
    q_grants: u64,
    /// Committed state: denial episodes (a denied handshake newly
    /// starting to wait) since construction.
    q_denies: u64,
}

impl Lane {
    fn new(dir: Dir, cfg: &RegulatorConfig) -> Self {
        Lane {
            dir,
            ledger: Ledger::new(cfg),
            q_stale: 0,
            q_wait_since: None,
            q_grants: 0,
            q_denies: 0,
        }
    }

    /// Whether the address on the manager's channel `addr` is
    /// credit-denied (while the port is open): offered while the
    /// direction's credit is spent. A pure function of the committed
    /// budget and the wire, asked by the forward pass and again by the
    /// commit.
    #[inline]
    fn denies<B>(&self, budget: &BudgetUnit, addr: &Channel<B>) -> bool {
        addr.valid() && !budget.may_grant(self.dir)
    }

    /// Whether `addr` is denied inside an open wait episode.
    fn denied_while_waiting<B>(&self, budget: &BudgetUnit, addr: &Channel<B>) -> bool {
        self.q_wait_since.is_some() && self.denies(budget, addr)
    }

    /// Pass 1: forwards the manager's address downstream. A denied
    /// address goes downstream with valid low and no payload; it is
    /// invisible to the ledger. An address the ledger has no room for,
    /// or any new one while `hold`, is held off; a pending one keeps
    /// going downstream.
    #[inline]
    fn forward_addr<B: AddrBeat>(
        &self,
        budget: &BudgetUnit,
        hold: bool,
        mgr: &Channel<B>,
        out: &mut Channel<B>,
    ) {
        if self.denies(budget, mgr) {
            out.suppress_valid();
        } else if !self.ledger.decide_stall(mgr.beat().map(|b| b.id().0), hold) {
            out.forward_driver_from(mgr);
        }
    }

    /// This direction's share of the commit's work on its settled address
    /// channel `addr` and a `response` beat reaching the manager, on an
    /// open port: the ledger's (a fired grant, a response, or an address
    /// it [admits](Ledger::admits)), or a denial opening a wait episode.
    #[inline]
    fn has_work<B: AddrBeat>(
        &self,
        budget: &BudgetUnit,
        hold: bool,
        addr: &Channel<B>,
        response: bool,
    ) -> bool {
        let Some(beat) = addr.beat() else {
            return response;
        };
        if self.denies(budget, addr) {
            return response || self.q_wait_since.is_none();
        }
        response || addr.fires() || self.ledger.admits(beat.id().0, hold)
    }

    /// Clock commit on the settled address channel `addr` and
    /// `response` (the ID of a response beat the manager took, and
    /// whether it closes its transaction): charges a grant to `spend`
    /// and closes the wait episode, latches a denial and opens one, and
    /// commits the ledger, which admits no new address while `hold`.
    /// Returns the granted burst's beats (0 without a grant).
    #[allow(clippy::too_many_arguments)]
    fn commit<B: AddrBeat>(
        &mut self,
        budget: &BudgetUnit,
        hold: bool,
        addr: &Channel<B>,
        response: Option<(u16, bool)>,
        cycle: u64,
        spend: &mut CycleSpend,
        telemetry: &mut TelemetryHub,
    ) -> u64 {
        let deny = self.denies(budget, addr);
        let offered = addr.beat().filter(|_| !deny).map(|b| {
            let txn = Open {
                id: b.id().0,
                beats: b.burst_len().beats(),
            };
            (txn, b.total_bytes())
        });
        let fired = offered.is_some() && addr.fires();
        let mut beats = 0;
        if let Some((txn, bytes)) = offered.filter(|_| fired) {
            match self.dir {
                Dir::Write => (spend.write_bytes, spend.write_txns) = (bytes, 1),
                Dir::Read => (spend.read_bytes, spend.read_txns) = (bytes, 1),
            }
            self.q_grants += 1;
            beats = u64::from(txn.beats);
            telemetry.record(
                cycle,
                "regulate",
                TraceEvent::CreditGrant {
                    dir: self.dir,
                    id: txn.id,
                    bytes,
                },
            );
            let waited = self
                .q_wait_since
                .take()
                .map_or(0, |since| cycle.saturating_sub(since));
            if telemetry.enabled() {
                let histogram = match self.dir {
                    Dir::Write => "regulate.grant_wait.write",
                    Dir::Read => "regulate.grant_wait.read",
                };
                telemetry.metrics_mut().observe(histogram, waited);
            }
        }
        if deny {
            spend.denied = true;
            if self.q_wait_since.is_none() {
                self.q_wait_since = Some(cycle);
                self.q_denies += 1;
                telemetry.record(
                    cycle,
                    "regulate",
                    TraceEvent::CreditDeny {
                        dir: self.dir,
                        id: addr.beat().map_or(0, |b| b.id().0),
                    },
                );
            }
        }
        self.ledger
            .commit(offered.map(|(txn, _)| txn), hold, fired, response);
        beats
    }

    /// While severed: retires a stale response when one was `absorbed`
    /// this cycle (a B, or an `RLAST`, closing an aborted transaction).
    fn retire_absorbed(&mut self, absorbed: bool) {
        if absorbed {
            self.q_stale = self.q_stale.saturating_sub(1);
        }
    }

    /// The isolation edge: every open transaction becomes an abort
    /// obligation of `responses(txn)` `SLVERR` beats, plus
    /// `drain_w_beats` residual W beats; the accepted ones become stale
    /// responses the subordinate still owes.
    fn abort(&mut self, drain_w_beats: u64, responses: fn(&Open) -> u16) -> AbortSet {
        self.q_stale = self.ledger.accepted();
        let set = self.ledger.abort_set(drain_w_beats, responses);
        self.ledger.reset();
        set
    }

    /// The release edge: ends the wait episode. The sever already
    /// emptied the ledger, and a release waits for the stale responses.
    fn reset(&mut self) {
        self.q_wait_since = None;
    }
}

/// Pass 2 of one address channel: the manager's `ready`, held low while
/// the forward pass holds the address off (a credit denial or an
/// admission stall), which shows on the wires as an address valid from
/// the manager but not forwarded downstream.
#[inline]
fn forward_addr_ready<B: Clone>(out: &Channel<B>, mgr: &mut Channel<B>) {
    if mgr.valid() && !out.valid() {
        mgr.set_ready(false);
    } else {
        mgr.forward_ready_from(out);
    }
}

/// Credit-based traffic regulator for one manager port. See the
/// [module docs](self) for the wiring protocol and the crate docs for
/// the credit model.
#[derive(Debug, Clone)]
pub struct Regulator {
    cfg: RegulatorConfig,
    budget: BudgetUnit,
    /// The AW/W/B direction.
    write: Lane,
    /// The AR/R direction.
    read: Lane,
    /// Severs the port on an isolation verdict and answers the manager
    /// with `SLVERR` aborts until [`Regulator::release`].
    term: Terminator,
    telemetry: TelemetryHub,
    /// The manager-side wires latched by the [`Regulator::observe`]
    /// adapter.
    tap: AxiPort,
    /// The downstream B and R latched by the adapter's
    /// [`Regulator::forward_response`]: what [`Regulator::commit_port`]
    /// reads from the downstream side. Both latches go once the last
    /// component loop commits through `commit_port`.
    tap_out: AxiPort,
    /// Test-only reference: commit in full on every cycle.
    #[cfg(test)]
    ungated: bool,
    /// Committed state: W beats of bursts whose AW already fired towards
    /// the subordinate but whose data has not yet followed. While
    /// severed, exactly this many beats are still forwarded downstream;
    /// the sever hands the same count to the terminator as its drain.
    q_w_owed: u64,
    /// Committed state: the isolation verdict, latched until
    /// [`Regulator::release`]. The sever follows once no address is
    /// pending downstream; no new address is admitted in between.
    q_isolated: bool,
    /// Committed state: the record of the most recent sever.
    q_last_fault: Option<ErrorRecord>,
    /// Committed state: isolations commanded since construction.
    q_isolations: u64,
    /// Committed state: cycles committed.
    q_cycles: u64,
}

impl Regulator {
    /// Builds a regulator (full credit bucket, nothing open) from its
    /// validated configuration.
    #[must_use]
    pub fn new(cfg: RegulatorConfig) -> Self {
        Regulator {
            budget: BudgetUnit::new(&cfg),
            write: Lane::new(Dir::Write, &cfg),
            read: Lane::new(Dir::Read, &cfg),
            term: Terminator::new(),
            telemetry: TelemetryHub::default(),
            cfg,
            tap: AxiPort::new(),
            tap_out: AxiPort::new(),
            #[cfg(test)]
            ungated: false,
            q_w_owed: 0,
            q_isolated: false,
            q_last_fault: None,
            q_isolations: 0,
            q_cycles: 0,
        }
    }

    /// Pass 1: forward manager-driven wires downstream, suppressing
    /// credit-denied address handshakes and holding off addresses the
    /// ledger has no room for; while severed, keep the downstream side
    /// response-ready and forward only the residual W beats the
    /// subordinate is still owed.
    #[inline]
    pub fn forward_request(&self, mgr: &AxiPort, out: &mut AxiPort) {
        if !self.cfg.enabled() {
            out.forward_request_from(mgr);
            return;
        }
        self.forward_request_enabled(mgr, out);
    }

    fn forward_request_enabled(&self, mgr: &AxiPort, out: &mut AxiPort) {
        if self.term.is_severed() {
            // No credit decision, and the addresses stay off the
            // downstream wires: the sever waited until no address was
            // pending there, so nothing offered is retracted.
            // The terminator drives the manager side only; stray
            // responses still in flight from the shared subordinate must
            // not back up the interconnect, so absorb them here (the
            // manager is answered by the SLVERR aborts instead).
            out.b.set_ready(true);
            out.r.set_ready(true);
            if self.q_w_owed > 0 {
                out.w.forward_driver_from(&mgr.w);
            }
            return;
        }
        // An isolation verdict awaiting its sever admits no new address.
        let hold = self.q_isolated;
        self.write
            .forward_addr(&self.budget, hold, &mgr.aw, &mut out.aw);
        self.read
            .forward_addr(&self.budget, hold, &mgr.ar, &mut out.ar);
        self.term.forward_w(mgr, out);
        out.b.forward_ready_from(&mgr.b);
        out.r.forward_ready_from(&mgr.r);
    }

    /// Pass 2: forward downstream-driven wires back to the manager (or
    /// the terminator's abort responses while severed), and hold the
    /// address `ready` low on a credit denial or an admission stall.
    #[inline]
    pub fn drive_response(&self, out: &AxiPort, mgr: &mut AxiPort) {
        if !self.cfg.enabled() {
            mgr.forward_response_from(out);
            return;
        }
        self.drive_response_enabled(out, mgr);
    }

    /// Adapter for busybench's component loops, which commit through
    /// [`Regulator::commit`]: latches the downstream B and R that the
    /// commit reads, then runs [`Regulator::drive_response`]. Where
    /// `soc::stage::LinkStage` is in scope, `reg.forward_response(..)`
    /// resolves to that trait's `&self` pass, which latches nothing.
    #[inline]
    pub fn forward_response(&mut self, out: &AxiPort, mgr: &mut AxiPort) {
        self.tap_out.b.clone_from(&out.b);
        self.tap_out.r.clone_from(&out.r);
        self.drive_response(out, mgr);
    }

    fn drive_response_enabled(&self, out: &AxiPort, mgr: &mut AxiPort) {
        if self.term.is_severed() {
            // Pass 1 holds the downstream response `ready`s high, so a
            // valid response is absorbed this cycle; the commit reads it
            // off `out`.
            self.term.drive_severed(mgr);
            if self.q_w_owed > 0 {
                // Owed beats must genuinely transfer downstream: gate
                // the manager on the real downstream ready instead of
                // the terminator's unconditional drain absorb.
                mgr.w.set_ready(out.w.ready());
            }
            return;
        }
        mgr.b.forward_driver_from(&out.b);
        mgr.r.forward_driver_from(&out.r);
        forward_addr_ready(&out.aw, &mut mgr.aw);
        self.term.forward_w_ready(out, mgr);
        forward_addr_ready(&out.ar, &mut mgr.ar);
    }

    /// Optional pass between 2 and 3 for harnesses where the manager
    /// side's B/R `ready` settles late (below an interconnect mux).
    #[inline]
    pub fn backprop_response_ready(&self, mgr: &AxiPort, out: &mut AxiPort) {
        // While severed this is a no-op, which preserves the absorbing
        // readys driven in pass 1.
        if !self.cfg.enabled() || !self.term.is_severed() {
            out.b.forward_ready_from(&mgr.b);
            out.r.forward_ready_from(&mgr.r);
        }
    }

    /// Whether every commit runs in full: the test-only reference the
    /// quiet gate is checked against.
    #[cfg(test)]
    fn ungated(&self) -> bool {
        self.ungated
    }

    #[cfg(not(test))]
    #[inline]
    fn ungated(&self) -> bool {
        false
    }

    /// Pass 4: clock commit for `cycle` on the settled manager-side
    /// wires `mgr` and downstream wires `out` — charges the budget with
    /// the cycle's grants, latches denial episodes, rolls the window,
    /// escalates to isolation when the overrun streak crosses the
    /// configured threshold, and commits the ledgers and the terminator.
    /// Returns at once on a [quiet cycle](self#quiet-cycles).
    #[inline]
    pub fn commit_port(&mut self, mgr: &AxiPort, out: &AxiPort, cycle: u64) {
        debug_assert!(
            !self.cfg.enabled() || self.q_cycles != cycle || cycle <= self.budget.next_rollover(),
            "the gate skipped the commit of rollover cycle {}",
            self.budget.next_rollover()
        );
        // A denial inside a wait episode is never the window's first:
        // the commit that opened the episode latched one, and once the
        // window rolls the bucket refills, so the next denial in that
        // direction needs a grant, which closes the episode.
        debug_assert!(
            !self.cfg.enabled()
                || self.term.is_severed()
                || !(self.write.denied_while_waiting(&self.budget, &mgr.aw)
                    || self.read.denied_while_waiting(&self.budget, &mgr.ar))
                || self.budget.window_denied(),
            "a denial inside a wait episode finds the window's denial latched"
        );
        self.q_cycles = cycle + 1;
        let hold = self.q_isolated;
        // A W beat with nothing owed changes the owed count only when
        // its burst's AW fires in the same cycle, a grant the write
        // lane's work already covers.
        if self.cfg.enabled()
            && (!self.term.is_idle()
                || (self.q_w_owed > 0 && mgr.w.fires())
                || self
                    .write
                    .has_work(&self.budget, hold, &mgr.aw, mgr.b.fires())
                || self
                    .read
                    .has_work(&self.budget, hold, &mgr.ar, mgr.r.fires())
                || cycle >= self.budget.next_rollover()
                || self.telemetry.should_sample(cycle)
                || self.ungated())
        {
            self.commit_enabled(mgr, out, cycle);
        }
    }

    /// Adapter for busybench's component loops, which tap the wires in
    /// a pass of their own: latches `mgr` for [`Regulator::commit`].
    pub fn observe(&mut self, mgr: &AxiPort) {
        self.tap.clone_from(mgr);
    }

    /// Adapter: [`Regulator::commit_port`] on the latched wires (idle
    /// when none were latched since the last commit).
    pub fn commit(&mut self, cycle: u64) {
        let tap = std::mem::take(&mut self.tap);
        let tap_out = std::mem::take(&mut self.tap_out);
        self.commit_port(&tap, &tap_out, cycle);
    }

    /// The enabled-path body of [`Self::commit_port`], split out so the
    /// disabled pass-through and the quiet gate stay cross-crate
    /// inlinable.
    fn commit_enabled(&mut self, mgr: &AxiPort, out: &AxiPort, cycle: u64) {
        let mut spend = CycleSpend::default();
        let severed = self.term.is_severed();
        let hold = self.q_isolated;
        if severed {
            // The lanes' ledgers see no handshakes. The forward pass held
            // the downstream response `ready`s high, so a valid response
            // closing an aborted transaction was absorbed.
            self.write.retire_absorbed(out.b.fires());
            self.read
                .retire_absorbed(out.r.fired_beat().is_some_and(|r| r.last));
        } else {
            self.q_w_owed += self.write.commit(
                &self.budget,
                hold,
                &mgr.aw,
                mgr.b.fired_beat().map(|b| (b.id.0, true)),
                cycle,
                &mut spend,
                &mut self.telemetry,
            );
            self.read.commit(
                &self.budget,
                hold,
                &mgr.ar,
                mgr.r.fired_beat().map(|r| (r.id.0, r.last)),
                cycle,
                &mut spend,
                &mut self.telemetry,
            );
        }
        // While severed only owed beats move downstream; otherwise a beat
        // the terminator absorbs belongs to an aborted burst.
        if mgr.w.fires() && (severed || self.term.drain_beats() == 0) {
            self.q_w_owed = self.q_w_owed.saturating_sub(1);
        }
        if let Some(roll) = self.budget.commit(&spend, cycle) {
            self.telemetry.record(
                cycle,
                "regulate",
                TraceEvent::CreditReplenish {
                    window: roll.window,
                    overrun: roll.overrun,
                },
            );
            if let RegulationMode::Isolate { overrun_windows } = self.cfg.mode() {
                if !self.q_isolated && roll.streak >= overrun_windows {
                    self.q_isolated = true;
                    self.q_isolations += 1;
                    self.telemetry.record(
                        cycle,
                        "regulate",
                        TraceEvent::Isolated {
                            streak: roll.streak,
                        },
                    );
                }
            }
        }
        // The terminator's milestones need no reaction: the manager is
        // the faulty party, so no subordinate reset is requested, and
        // the port stays severed until software re-admits it.
        let monitoring = !self.term.is_severed();
        if !self.term.is_idle() || self.ungated() {
            self.term.commit(mgr);
        }
        if self.q_isolated
            && monitoring
            && !self.write.ledger.pending()
            && !self.read.ledger.pending()
        {
            // The sever waits until no address is offered downstream
            // unaccepted, since AXI forbids retracting one: the lanes
            // hold off new addresses meanwhile, and the pending one's
            // handshake is a commit event. Severing then hands every
            // open transaction to the terminator: the owed W beats of
            // granted bursts drain, and each write gets one SLVERR B,
            // each read its remaining R beats. The subordinate still
            // answers all of them.
            let write = self.write.abort(self.q_w_owed, |_| 1);
            let read = self.read.abort(0, |txn| txn.beats.max(1));
            self.term.sever(write, read);
            self.q_last_fault = Some(ErrorRecord {
                cycle,
                kind: FaultKind::External(ISOLATION_REASON),
                phase: None,
                id: None,
                addr: None,
                inflight_cycles: 0,
            });
        }
        if self.telemetry.should_sample(cycle) {
            self.publish_gauges(cycle);
            self.telemetry.take_sample(cycle);
        }
    }

    /// Software re-admission of an isolated manager: refills the bucket,
    /// clears the overrun history, and re-opens the port. Returns
    /// `false` (and does nothing) while the port is not isolated, the
    /// terminator is still delivering aborts, owed W beats are still
    /// draining downstream, or the subordinate still owes responses to
    /// aborted transactions.
    pub fn release(&mut self) -> bool {
        if !self.q_isolated
            || self.term.state() != TmuState::WaitReset
            || self.q_w_owed > 0
            || self.write.q_stale > 0
            || self.read.q_stale > 0
        {
            return false;
        }
        self.term.reset_done();
        self.budget.reset();
        self.q_isolated = false;
        self.write.reset();
        self.read.reset();
        true
    }

    /// Publishes the credit-level gauges as [`TraceEvent::Gauge`] events.
    /// Runs only on the sampled path, so the hub is enabled.
    fn publish_gauges(&mut self, cycle: u64) {
        let b = &self.budget;
        let gauges: [(&'static str, u64); 6] = [
            ("regulate.credit.write.bytes", b.bytes_left(Dir::Write)),
            ("regulate.credit.write.txns", b.txns_left(Dir::Write)),
            ("regulate.credit.read.bytes", b.bytes_left(Dir::Read)),
            ("regulate.credit.read.txns", b.txns_left(Dir::Read)),
            ("regulate.overrun_streak", u64::from(b.streak())),
            ("regulate.isolated", u64::from(self.q_isolated)),
        ];
        for (name, value) in gauges {
            self.telemetry
                .record(cycle, "regulate", TraceEvent::Gauge { name, value });
        }
    }

    /// The elaboration-time configuration.
    #[must_use]
    pub fn config(&self) -> &RegulatorConfig {
        &self.cfg
    }

    /// The live credit bucket (levels, streak, window count).
    #[must_use]
    pub fn budget(&self) -> &BudgetUnit {
        &self.budget
    }

    /// The isolation path's recovery state: `Monitoring` while the port
    /// is open, `Aborting` while `SLVERR` aborts are delivered,
    /// `WaitReset` until [`Regulator::release`] takes effect.
    #[must_use]
    pub fn state(&self) -> TmuState {
        self.term.state()
    }

    /// The record of the most recent isolation, logged as
    /// [`FaultKind::External`] with [`ISOLATION_REASON`].
    #[must_use]
    pub fn last_fault(&self) -> Option<&ErrorRecord> {
        self.q_last_fault.as_ref()
    }

    /// True from the isolation verdict until [`Regulator::release`]. The
    /// port is severed once an address already offered downstream has
    /// been accepted ([`Regulator::state`] leaves `Monitoring` then).
    #[must_use]
    pub fn is_isolated(&self) -> bool {
        self.q_isolated
    }

    /// Address handshakes granted since construction.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.write.q_grants + self.read.q_grants
    }

    /// Denial episodes (a handshake newly starting to wait) since
    /// construction.
    #[must_use]
    pub fn denies(&self) -> u64 {
        self.write.q_denies + self.read.q_denies
    }

    /// Isolations commanded since construction.
    #[must_use]
    pub fn isolations(&self) -> u64 {
        self.q_isolations
    }

    /// Transactions currently open for this manager (both directions,
    /// a still-offered address included).
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.write.ledger.len() + self.read.ledger.len()
    }

    /// Switches the regulator's telemetry on (credit events, gauges and
    /// grant-wait histograms).
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        self.telemetry.enable(config);
    }

    /// The regulator's telemetry hub.
    #[must_use]
    pub fn telemetry(&self) -> &TelemetryHub {
        &self.telemetry
    }

    /// Mutable telemetry access.
    #[must_use]
    pub fn telemetry_mut(&mut self) -> &mut TelemetryHub {
        &mut self.telemetry
    }
}

#[cfg(test)]
impl Regulator {
    /// A regulator whose every commit runs in full: the reference the
    /// quiet gate is checked against.
    pub(crate) fn new_ungated(cfg: RegulatorConfig) -> Self {
        Regulator {
            ungated: true,
            ..Regulator::new(cfg)
        }
    }

    /// Every piece of committed state, formatted for a lockstep
    /// comparison.
    pub(crate) fn committed_state(&self) -> String {
        let lane = |l: &Lane| {
            let (grants, denies) = (l.q_grants, l.q_denies);
            let (ledger, stale, wait) = (l.ledger.committed(), l.q_stale, l.q_wait_since);
            format!("ledger={ledger:?} stale={stale} wait_since={wait:?} grants={grants} denies={denies}")
        };
        format!(
            "budget={:?} write={} read={} term={:?} w_owed={} isolated={} \
             last_fault={:?} isolations={} cycles={} telemetry={:?}",
            self.budget,
            lane(&self.write),
            lane(&self.read),
            self.term,
            self.q_w_owed,
            self.q_isolated,
            self.q_last_fault,
            self.q_isolations,
            self.q_cycles,
            self.telemetry,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DirBudget;
    use axi4::beat::{ArBeat, AwBeat, BBeat, WBeat};
    use axi4::types::{Addr, AxiId, BurstKind, BurstLen, BurstSize, Resp};

    fn aw() -> AwBeat {
        AwBeat::new(
            AxiId(1),
            Addr(0x100),
            BurstLen::SINGLE,
            BurstSize::default(), // 8 bytes/beat
            BurstKind::Incr,
        )
    }

    /// One harness cycle: the manager closure drives `mgr`, a perfectly
    /// ready subordinate stub answers on `out`, queued B responses are
    /// driven, and the regulator's passes run.
    fn step(
        reg: &mut Regulator,
        mgr: &mut AxiPort,
        out: &mut AxiPort,
        b_queue: &mut Vec<BBeat>,
        cycle: u64,
        drive: impl FnOnce(&mut AxiPort),
    ) {
        mgr.begin_cycle();
        out.begin_cycle();
        drive(mgr);
        mgr.b.set_ready(true);
        mgr.r.set_ready(true);
        reg.forward_request(mgr, out);
        out.aw.set_ready(true);
        out.w.set_ready(true);
        out.ar.set_ready(true);
        if let Some(b) = b_queue.first() {
            out.b.drive(*b);
        }
        reg.forward_response(out, mgr);
        if out.b.fires() {
            b_queue.remove(0);
        }
        if out.w.fired_beat().is_some_and(|w| w.last) {
            b_queue.push(BBeat::new(AxiId(1), Resp::Okay));
        }
        reg.commit_port(mgr, out, cycle);
    }

    fn tight_cfg(mode: RegulationMode) -> RegulatorConfig {
        RegulatorConfig::builder()
            .write_budget(DirBudget {
                bytes_per_window: 8,
                txns_per_window: 1,
            })
            .read_budget(DirBudget::unlimited())
            .window_cycles(4)
            .mode(mode)
            .build()
            .expect("tight test configuration is valid")
    }

    #[test]
    fn disabled_regulator_is_wire_exact() {
        let cfg = RegulatorConfig::builder()
            .enabled(false)
            .build()
            .expect("disabled configuration is valid");
        let mut reg = Regulator::new(cfg);
        let mut mgr = AxiPort::new();
        let mut out = AxiPort::new();
        mgr.aw.drive(aw());
        mgr.w.drive(WBeat::new(7, true));
        mgr.b.set_ready(true);
        reg.forward_request(&mgr, &mut out);
        assert!(out.aw.valid() && out.w.valid() && out.b.ready());
        out.aw.set_ready(true);
        out.b.drive(BBeat::new(AxiId(1), Resp::Okay));
        reg.forward_response(&out, &mut mgr);
        assert!(mgr.aw.fires() && mgr.b.fires());
        reg.commit_port(&mgr, &out, 0);
        assert_eq!((reg.grants(), reg.denies()), (0, 0));
    }

    #[test]
    fn denies_when_credits_exhausted_and_replenishes() {
        for telemetry in [true, false] {
            let mut reg = Regulator::new(tight_cfg(RegulationMode::BackPressure));
            if telemetry {
                reg.enable_telemetry(TelemetryConfig::default());
            }
            let mut mgr = AxiPort::new();
            let mut out = AxiPort::new();
            let mut b_queue = Vec::new();
            // Cycle 0: first AW is granted (full bucket).
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, 0, |m| {
                m.aw.drive(aw());
            });
            assert_eq!(reg.grants(), 1);
            // Cycle 1: bucket empty — next AW held by deny while the
            // granted burst's W beat still flows through.
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, 1, |m| {
                m.aw.drive(aw());
                m.w.drive(WBeat::new(0xAB, true));
            });
            // Cycle 2: still denied.
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, 2, |m| {
                m.aw.drive(aw());
            });
            assert_eq!(reg.grants(), 1, "denied AW must not be granted");
            assert_eq!(reg.denies(), 1, "one denial episode, not one per cycle");
            // Cycle 3 closes the window; cycle 4 grants from the fresh
            // bucket.
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, 3, |m| {
                m.aw.drive(aw());
            });
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, 4, |m| {
                m.aw.drive(aw());
            });
            assert_eq!(reg.grants(), 2);
            assert!(!reg.is_isolated(), "back-pressure mode never isolates");
            let wait = reg
                .telemetry()
                .metrics()
                .histogram("regulate.grant_wait.write");
            if telemetry {
                let wait = wait.expect("grant-wait histogram exists after a grant");
                assert_eq!(wait.count(), 2, "one sample per grant");
                assert!(wait.percentile(100.0).expect("histogram is nonempty") >= 3);
            } else {
                assert!(wait.is_none(), "a disabled hub keeps no histogram");
            }
        }
    }

    #[test]
    fn isolates_after_consecutive_overrun_windows_and_releases() {
        let mut reg = Regulator::new(tight_cfg(RegulationMode::Isolate { overrun_windows: 2 }));
        let mut mgr = AxiPort::new();
        let mut out = AxiPort::new();
        let mut b_queue = Vec::new();
        let mut w_owed = 0_u64;
        // A greedy manager: AW every cycle, W as soon as owed.
        for cycle in 0..8 {
            let send_w = w_owed > 0;
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                m.aw.drive(aw());
                if send_w {
                    m.w.drive(WBeat::new(cycle, true));
                }
            });
            if mgr.aw.fires() {
                w_owed += 1;
            }
            if mgr.w.fires() {
                w_owed -= 1;
            }
        }
        // Windows 0 and 1 both overran: the commit of cycle 7 severed.
        assert!(reg.is_isolated());
        assert_eq!(reg.isolations(), 1);
        let fault = reg.last_fault().expect("isolation logs a fault");
        assert!(
            matches!(fault.kind, tmu::FaultKind::External(ISOLATION_REASON)),
            "fault must be the commanded isolation, got {:?}",
            fault.kind
        );
        // Severed: no grants, manager's AW held low-ready.
        for cycle in 8..12 {
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                m.aw.drive(aw());
            });
            assert!(!mgr.aw.fires(), "an isolated manager must stay severed");
        }
        assert_eq!(reg.grants(), 2);
        // Aborts are done (nothing was outstanding) → release re-admits.
        assert!(reg.release());
        assert!(!reg.is_isolated());
        step(&mut reg, &mut mgr, &mut out, &mut b_queue, 12, |m| {
            m.aw.drive(aw());
        });
        assert_eq!(reg.grants(), 3, "released manager is granted again");
    }

    #[test]
    fn rollover_deadline_is_the_next_credit_replenish_across_a_release() {
        let mut reg = Regulator::new(tight_cfg(RegulationMode::Isolate { overrun_windows: 1 }));
        reg.enable_telemetry(TelemetryConfig::default());
        let (mut mgr, mut out) = (AxiPort::new(), AxiPort::new());
        let mut b_queue = Vec::new();
        let mut deadlines = Vec::new();
        let mut released_at = None;
        for cycle in 0..40 {
            if reg.is_isolated() && reg.release() {
                released_at.get_or_insert(cycle);
            }
            deadlines.push(reg.budget().next_rollover());
            // Greedy: a single-beat AW every cycle, its W beat right away.
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                m.aw.drive(aw());
                m.w.drive(WBeat::new(cycle, true));
            });
        }
        assert!(
            released_at.is_some(),
            "the greedy manager was isolated and released"
        );
        let replenished: Vec<u64> = reg
            .telemetry()
            .events()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::CreditReplenish { .. }))
            .map(|r| r.cycle)
            .collect();
        assert_eq!(replenished, [3, 7, 11, 15, 19, 23, 27, 31, 35, 39]);
        for (cycle, deadline) in (0u64..).zip(deadlines) {
            let next = replenished
                .iter()
                .find(|&&c| c >= cycle)
                .expect("a replenish follows every cycle of the run");
            assert_eq!(
                deadline, *next,
                "deadline before the commit of cycle {cycle}"
            );
        }
    }

    #[test]
    fn same_cycle_aw_and_w_leave_nothing_owed_at_isolation() {
        let mut reg = Regulator::new(tight_cfg(RegulationMode::Isolate { overrun_windows: 1 }));
        let (mut mgr, mut out) = (AxiPort::new(), AxiPort::new());
        let mut b_queue = Vec::new();
        // Cycle 0: a single-beat AW and its W beat fire together.
        step(&mut reg, &mut mgr, &mut out, &mut b_queue, 0, |m| {
            m.aw.drive(aw());
            m.w.drive(WBeat::new(1, true));
        });
        assert!(mgr.aw.fires() && mgr.w.fires());
        // The next AW is denied for the rest of the window, which then
        // closes overrun and isolates the manager.
        for cycle in 1..4 {
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                m.aw.drive(aw());
            });
        }
        assert!(reg.is_isolated());
        for cycle in 4..8 {
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |_| {});
            assert!(!out.w.valid(), "no W beat is owed downstream");
        }
        assert_eq!(reg.state(), TmuState::WaitReset);
        assert!(reg.release(), "the burst's W beat was counted as sent");
    }

    #[test]
    fn isolation_aborts_outstanding_writes_with_slverr() {
        let mut reg = Regulator::new(tight_cfg(RegulationMode::Isolate { overrun_windows: 1 }));
        let mut mgr = AxiPort::new();
        let mut out = AxiPort::new();
        // Grant an AW whose W beat we withhold, so the write is still
        // open when the overrun window closes.
        let mut b_queue = Vec::new();
        for cycle in 0..4 {
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                m.aw.drive(aw());
            });
        }
        assert!(reg.is_isolated());
        assert_eq!(
            reg.state(),
            TmuState::Aborting,
            "the open write must put the terminator into its abort phase"
        );
        // The withheld W beat is owed downstream and must drain there;
        // afterwards the terminator answers the write with SLVERR.
        let mut saw_slverr = false;
        for cycle in 4..12 {
            step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                m.w.drive(WBeat::new(9, true));
            });
            if let Some(b) = mgr.b.fired_beat() {
                assert_eq!(b.resp, Resp::SlvErr);
                saw_slverr = true;
            }
        }
        assert!(saw_slverr, "outstanding write must be SLVERR-aborted");
        assert!(reg.release(), "owed beats drained; release must succeed");
    }

    /// The write lane overruns its window while an AR waits downstream
    /// for `ready` until cycle 6. The isolation verdict of cycle 3 waits
    /// for that handshake: the AR stays valid until it is accepted, no
    /// new address goes downstream meanwhile, and the sever follows the
    /// AR's handshake, aborting it like any accepted read.
    #[test]
    fn isolation_waits_for_a_pending_address_to_be_accepted() {
        let mut reg = Regulator::new(tight_cfg(RegulationMode::Isolate { overrun_windows: 1 }));
        let (mut mgr, mut out) = (AxiPort::new(), AxiPort::new());
        let mut rules = axi4::checker::WireRules::default();
        let mut violations = Vec::new();
        let ar = ArBeat::new(
            AxiId(2),
            Addr(0x200),
            BurstLen::SINGLE,
            BurstSize::default(),
            BurstKind::Incr,
        );
        let (mut ar_fired, mut severed_at, mut slverr_r) = (None, None, 0);
        for cycle in 0..12 {
            mgr.begin_cycle();
            out.begin_cycle();
            mgr.aw.drive(aw());
            if ar_fired.is_none() {
                mgr.ar.drive(ar);
            }
            mgr.b.set_ready(true);
            mgr.r.set_ready(true);
            reg.forward_request(&mgr, &mut out);
            if (1..7).contains(&cycle) {
                assert!(
                    !out.aw.valid(),
                    "cycle {cycle}: the AW is denied or held off"
                );
            }
            out.aw.set_ready(true);
            out.w.set_ready(true);
            out.ar.set_ready(cycle >= 6);
            reg.forward_response(&out, &mut mgr);
            rules.observe(&out, cycle, &mut violations);
            if mgr.ar.fires() {
                ar_fired = Some(cycle);
            }
            if mgr.r.fired_beat().is_some_and(|r| r.resp == Resp::SlvErr) {
                slverr_r += 1;
            }
            reg.commit_port(&mgr, &out, cycle);
            if reg.state() != TmuState::Monitoring {
                severed_at.get_or_insert(cycle);
            }
        }
        assert!(
            violations.is_empty(),
            "downstream wire rules: {violations:?}"
        );
        assert_eq!(
            ar_fired,
            Some(6),
            "the AR is accepted downstream, not by the sever"
        );
        assert!(reg.is_isolated());
        assert_eq!(severed_at, Some(6), "the sever follows the AR's handshake");
        assert_eq!(slverr_r, 1, "the accepted read is aborted");
        assert_eq!(reg.last_fault().map(|f| f.cycle), Some(6));
    }

    /// Writes get 64 B / 1 txn per window and reads are unlimited, or
    /// the reverse. The tight direction offers on every cycle, the loose
    /// one on the first two cycles of each window; no W beat is sent,
    /// so the subordinate answers nothing.
    #[test]
    fn write_and_read_lanes_never_mix() {
        let tight = DirBudget {
            bytes_per_window: 64,
            txns_per_window: 1,
        };
        let loose = DirBudget::unlimited();
        let ar = ArBeat::new(
            AxiId(2),
            Addr(0x200),
            BurstLen::from_beats(2).expect("2 is a legal burst length"),
            BurstSize::default(),
            BurstKind::Incr,
        );
        for tight_dir in [Dir::Write, Dir::Read] {
            let writes_tight = tight_dir == Dir::Write;
            let (write, read, loose_dir) = if writes_tight {
                (tight, loose, Dir::Read)
            } else {
                (loose, tight, Dir::Write)
            };
            let cfg = RegulatorConfig::builder()
                .write_budget(write)
                .read_budget(read)
                .window_cycles(4)
                .mode(RegulationMode::Isolate { overrun_windows: 2 })
                .build()
                .expect("asymmetric test configuration is valid");
            let mut reg = Regulator::new(cfg);
            reg.enable_telemetry(TelemetryConfig::default());
            let (mut mgr, mut out, mut b_queue) = (AxiPort::new(), AxiPort::new(), Vec::new());
            let bytes = |dir: Dir| if dir == Dir::Write { 8 } else { 16 };
            for cycle in 0..8 {
                let loose_offers = cycle % 4 < 2;
                let (aw_offered, ar_offered) = if writes_tight {
                    (true, loose_offers)
                } else {
                    (loose_offers, true)
                };
                step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |m| {
                    if aw_offered {
                        m.aw.drive(aw());
                    }
                    if ar_offered {
                        m.ar.drive(ar);
                    }
                });
                // The tight direction is granted only from a refilled
                // bucket, and its denials never hold the loose one back.
                let fired = (mgr.aw.fires(), mgr.ar.fires());
                let (tight_fired, loose_fired) = if writes_tight {
                    fired
                } else {
                    (fired.1, fired.0)
                };
                assert_eq!((tight_fired, loose_fired), (cycle % 4 == 0, loose_offers));
                if cycle == 1 {
                    let budget = reg.budget();
                    assert_eq!(budget.txns_left(tight_dir), 0);
                    assert_eq!(budget.bytes_left(tight_dir), 64 - bytes(tight_dir));
                    let loose_left = loose.bytes_per_window - 2 * bytes(loose_dir);
                    assert_eq!(budget.bytes_left(loose_dir), loose_left);
                }
            }
            // One denial episode per window; the second window closes
            // overrun too and isolates.
            assert_eq!((reg.grants(), reg.denies()), (6, 2));
            assert!(reg.is_isolated());
            // Only the tight direction's second grant waited (3 cycles).
            for (dir, waits) in [(tight_dir, (2, 3)), (loose_dir, (4, 0))] {
                let name = match dir {
                    Dir::Write => "regulate.grant_wait.write",
                    Dir::Read => "regulate.grant_wait.read",
                };
                let wait = reg.telemetry().metrics().histogram(name);
                let wait = wait.expect("each direction was granted");
                assert_eq!((wait.count(), wait.sum()), waits, "{name}");
            }
            // Every open transaction is aborted in its own direction's
            // shape: one SLVERR B per write, two SLVERR R beats per read.
            let (mut b_aborts, mut r_aborts, mut r_lasts) = (0, 0, 0);
            for cycle in 8..24 {
                step(&mut reg, &mut mgr, &mut out, &mut b_queue, cycle, |_| {});
                if let Some(b) = mgr.b.fired_beat() {
                    assert_eq!((b.id, b.resp), (AxiId(1), Resp::SlvErr));
                    b_aborts += 1;
                }
                if let Some(r) = mgr.r.fired_beat() {
                    assert_eq!((r.id, r.resp), (AxiId(2), Resp::SlvErr));
                    r_aborts += 1;
                    r_lasts += u32::from(r.last);
                }
            }
            let (writes, reads) = if writes_tight { (2, 4) } else { (4, 2) };
            assert_eq!((b_aborts, r_aborts, r_lasts), (writes, 2 * reads, reads));
            assert_eq!(reg.state(), TmuState::WaitReset);
        }
    }
}
