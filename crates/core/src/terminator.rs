//! The AXI-compliant link terminator (paper §II-B): the sever, `SLVERR`
//! abort and drain machinery, shared by the TMU's recovery state machine
//! and the traffic regulator's isolation path.
//!
//! AXI4 forbids a manager from cancelling an issued burst, so cutting a
//! link off cleanly takes more than holding its wires low. Once
//! [`Terminator::sever`] is handed the open transactions (as one
//! [`AbortSet`] per direction), the terminator, driving the manager side
//! only:
//!
//! * accepts an address beat that was held on the wires at sever time, so
//!   the manager can proceed into the aborted phases;
//! * absorbs and discards the W beats the manager still owes for aborted
//!   writes — also after monitoring resumes, ahead of any new burst's
//!   data;
//! * answers every aborted transaction with `SLVERR`: one B per write and
//!   the remaining R beats per read, `RLAST` on the final one;
//! * reports [`TerminatorEvent::AbortsDelivered`] once all responses have
//!   been taken, then waits in [`TmuState::WaitReset`] until
//!   [`Terminator::reset_done`].
//!
//! The owner decides *when* to sever and what it means (fault log,
//! interrupt, reset request); the terminator only walks
//! Monitoring → Aborting → WaitReset → Monitoring. Per cycle it drives
//! the manager side, then commits from the settled manager-side wires.

use std::collections::VecDeque;

use axi4::beat::{BBeat, RBeat};
use axi4::channel::AxiPort;

use crate::guard::{AbortSet, AbortTxn};

/// The recovery state machine of a TMU or a regulator's isolation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TmuState {
    /// Normal operation: pass-through forwarding, parallel monitoring.
    Monitoring,
    /// Fault detected: paths severed, outstanding transactions being
    /// aborted with `SLVERR` towards the manager.
    Aborting,
    /// All transactions aborted; waiting for the external reset unit to
    /// reinitialize the subordinate.
    WaitReset,
}

/// A recovery milestone reached at a [`Terminator::commit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminatorEvent {
    /// The last `SLVERR` response was taken: the terminator entered
    /// [`TmuState::WaitReset`].
    AbortsDelivered,
    /// A deferred [`Terminator::reset_done`] took effect once the held
    /// address beats were accepted: monitoring resumed.
    Resumed,
}

/// The shared sever / abort / drain unit. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct Terminator {
    state: TmuState,
    abort_b: VecDeque<AbortTxn>,
    abort_r: VecDeque<AbortTxn>,
    /// Residual W beats of aborted writes still owed by the manager
    /// (AXI forbids cancelling an issued burst): absorbed and discarded.
    w_drain_beats: u64,
    /// A held AW/AR the terminator must accept itself while severed.
    accept_aw: bool,
    accept_ar: bool,
    /// Reset completion arrived while address accepts were pending.
    reset_completed: bool,
}

impl Default for Terminator {
    fn default() -> Self {
        Terminator::new()
    }
}

impl Terminator {
    /// An idle terminator in [`TmuState::Monitoring`].
    #[must_use]
    pub fn new() -> Self {
        Terminator {
            state: TmuState::Monitoring,
            abort_b: VecDeque::new(),
            abort_r: VecDeque::new(),
            w_drain_beats: 0,
            accept_aw: false,
            accept_ar: false,
            reset_completed: false,
        }
    }

    /// The recovery state.
    #[must_use]
    #[inline]
    pub fn state(&self) -> TmuState {
        self.state
    }

    /// True while the link is cut off (aborting or awaiting reset).
    #[must_use]
    #[inline]
    pub fn is_severed(&self) -> bool {
        self.state != TmuState::Monitoring
    }

    /// Residual W beats of aborted writes still to be absorbed.
    #[must_use]
    #[inline]
    pub fn drain_beats(&self) -> u64 {
        self.w_drain_beats
    }

    /// True while there is nothing to terminate: monitoring, with no
    /// residual W beats left to absorb. [`Terminator::commit`] then
    /// changes nothing, so an owner may skip it.
    #[must_use]
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.state == TmuState::Monitoring && self.w_drain_beats == 0
    }

    /// Severs the link: takes over the abort obligations of both
    /// directions' open transactions and enters [`TmuState::Aborting`].
    /// Drain beats add to any still left from an earlier recovery.
    pub fn sever(&mut self, write: AbortSet, read: AbortSet) {
        self.abort_b = write.responses.into();
        self.abort_r = read.responses.into();
        self.w_drain_beats += write.drain_w_beats + read.drain_w_beats;
        self.accept_aw = write.accept_pending_addr;
        self.accept_ar = read.accept_pending_addr;
        self.state = TmuState::Aborting;
    }

    /// Monitoring-state W forwarding: while residual beats of aborted
    /// bursts drain, every W beat on the wires belongs to a dead burst
    /// and is absorbed instead of forwarded.
    #[inline]
    pub fn forward_w(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        if self.w_drain_beats == 0 {
            sub.w.forward_driver_from(&mgr.w);
        }
    }

    /// Monitoring-state W `ready`: forwarded from the subordinate, or
    /// held high to absorb residual dead beats.
    #[inline]
    pub fn forward_w_ready(&self, sub: &AxiPort, mgr: &mut AxiPort) {
        if self.w_drain_beats > 0 {
            mgr.w.set_ready(true);
        } else {
            mgr.w.forward_ready_from(&sub.w);
        }
    }

    /// The severed manager-side drive: `SLVERR` abort responses while
    /// aborting, acceptance of a held address beat, and absorption of
    /// owed W beats. Every other manager-side wire is left untouched, so
    /// new requests stall until the link resumes.
    pub fn drive_severed(&self, mgr: &mut AxiPort) {
        if self.state == TmuState::Aborting {
            if let Some(abort) = self.abort_b.front() {
                mgr.b.drive(BBeat::abort(abort.id));
            }
            if let Some(abort) = self.abort_r.front() {
                mgr.r
                    .drive(RBeat::abort(abort.id, abort.beats_remaining == 1));
            }
        }
        if self.accept_aw && mgr.aw.valid() {
            mgr.aw.set_ready(true);
        }
        if self.accept_ar && mgr.ar.valid() {
            mgr.ar.set_ready(true);
        }
        if self.w_drain_beats > 0 {
            mgr.w.set_ready(true);
        }
    }

    /// Clock commit from the settled manager-side wires: retires a
    /// drained beat, an accepted address and a taken abort response, and
    /// reports the milestone reached, if any.
    #[inline]
    pub fn commit(&mut self, mgr: &AxiPort) -> Option<TerminatorEvent> {
        if self.w_drain_beats > 0 && mgr.w.fires() {
            self.w_drain_beats -= 1;
        }
        if self.accept_aw && mgr.aw.fires() {
            self.accept_aw = false;
        }
        if self.accept_ar && mgr.ar.fires() {
            self.accept_ar = false;
        }
        match self.state {
            TmuState::Monitoring => None,
            TmuState::Aborting => self.commit_aborting(mgr),
            // A completed reset only re-opens the link once the held
            // address beats have been accepted (they belong to aborted
            // transactions and must not be re-tracked).
            TmuState::WaitReset => {
                if self.reset_completed && !self.accept_aw && !self.accept_ar {
                    self.state = TmuState::Monitoring;
                    self.reset_completed = false;
                    Some(TerminatorEvent::Resumed)
                } else {
                    None
                }
            }
        }
    }

    fn commit_aborting(&mut self, mgr: &AxiPort) -> Option<TerminatorEvent> {
        if mgr.b.fires() {
            self.abort_b.pop_front();
        }
        if mgr.r.fires() {
            if let Some(front) = self.abort_r.front_mut() {
                front.beats_remaining -= 1;
                if front.beats_remaining == 0 {
                    self.abort_r.pop_front();
                }
            }
        }
        if self.abort_b.is_empty() && self.abort_r.is_empty() {
            self.state = TmuState::WaitReset;
            Some(TerminatorEvent::AbortsDelivered)
        } else {
            None
        }
    }

    /// The subordinate (or, for a regulator, software) has re-admitted
    /// the link. Returns `true` if monitoring resumed now; while a held
    /// address beat is still being accepted the resume is deferred to
    /// the commit that accepts it ([`TerminatorEvent::Resumed`]).
    pub fn reset_done(&mut self) -> bool {
        if self.state != TmuState::WaitReset {
            return false;
        }
        if self.accept_aw || self.accept_ar {
            self.reset_completed = true;
            false
        } else {
            self.state = TmuState::Monitoring;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::beat::{AwBeat, WBeat};
    use axi4::types::{Addr, AxiId, BurstKind, BurstLen, BurstSize, Resp};

    fn write_set(ids: &[u16], drain: u64, held: bool) -> AbortSet {
        AbortSet {
            responses: ids
                .iter()
                .map(|&id| AbortTxn {
                    id: AxiId(id),
                    beats_remaining: 1,
                })
                .collect(),
            drain_w_beats: drain,
            accept_pending_addr: held,
        }
    }

    fn empty() -> AbortSet {
        write_set(&[], 0, false)
    }

    /// One cycle of a manager that is always B/R-ready, driving `drive`.
    fn cycle(
        term: &mut Terminator,
        drive: impl FnOnce(&mut AxiPort),
    ) -> (AxiPort, Option<TerminatorEvent>) {
        let mut mgr = AxiPort::new();
        drive(&mut mgr);
        mgr.b.set_ready(true);
        mgr.r.set_ready(true);
        term.drive_severed(&mut mgr);
        let event = term.commit(&mgr);
        (mgr, event)
    }

    #[test]
    fn delivers_write_and_read_aborts_then_waits_for_reset() {
        let mut term = Terminator::new();
        assert!(term.is_idle());
        let read = AbortSet {
            responses: vec![AbortTxn {
                id: AxiId(5),
                beats_remaining: 2,
            }],
            drain_w_beats: 0,
            accept_pending_addr: false,
        };
        term.sever(write_set(&[3], 0, false), read);
        assert_eq!(term.state(), TmuState::Aborting);
        let (mgr, event) = cycle(&mut term, |_| {});
        assert_eq!(
            mgr.b.fired_beat().map(|b| (b.id, b.resp)),
            Some((AxiId(3), Resp::SlvErr))
        );
        assert!(mgr
            .r
            .fired_beat()
            .is_some_and(|r| !r.last && r.resp == Resp::SlvErr));
        assert_eq!(event, None);
        let (mgr, event) = cycle(&mut term, |_| {});
        assert!(!mgr.b.valid());
        assert!(mgr.r.fired_beat().is_some_and(|r| r.last));
        assert_eq!(event, Some(TerminatorEvent::AbortsDelivered));
        assert_eq!(term.state(), TmuState::WaitReset);
        assert!(term.reset_done());
        assert!(!term.is_severed());
    }

    #[test]
    fn absorbs_owed_beats_and_defers_resume_until_the_held_address_is_taken() {
        let mut term = Terminator::new();
        term.sever(write_set(&[], 2, true), empty());
        // Nothing to answer: the aborts are delivered at the first commit.
        let (_, event) = cycle(&mut term, |_| {});
        assert_eq!(event, Some(TerminatorEvent::AbortsDelivered));
        assert!(!term.reset_done(), "held AW defers the resume");
        let aw = AwBeat::new(
            AxiId(1),
            Addr(0),
            BurstLen::from_beats(2).expect("two beats is a legal burst"),
            BurstSize::default(),
            BurstKind::Incr,
        );
        let (mgr, event) = cycle(&mut term, |m| {
            m.aw.drive(aw);
            m.w.drive(WBeat::new(1, false));
        });
        assert!(mgr.aw.fires() && mgr.w.fires());
        assert_eq!(event, Some(TerminatorEvent::Resumed));
        assert_eq!(term.drain_beats(), 1);
        assert!(!term.is_idle(), "an owed beat is still to be absorbed");
        // Monitoring again: the last owed beat is still absorbed.
        let (mut mgr, mut sub) = (AxiPort::new(), AxiPort::new());
        mgr.w.drive(WBeat::new(2, true));
        term.forward_w(&mgr, &mut sub);
        term.forward_w_ready(&sub, &mut mgr);
        assert!(!sub.w.valid() && mgr.w.fires());
        assert_eq!(term.commit(&mgr), None);
        assert_eq!(term.drain_beats(), 0);
        assert!(term.is_idle());
    }
}
