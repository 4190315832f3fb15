//! The wire-level fault injector.

#![warn(clippy::missing_inline_in_public_items)]

use axi4::channel::AxiPort;
use axi4::AxiId;

use crate::plan::{Duration, FaultClass, FaultPlan, Trigger};

/// Splices scheduled wire corruption into the per-cycle pipeline.
///
/// Call order within a cycle (see the [crate docs](crate)):
///
/// 1. [`Injector::corrupt_manager_side`] after the manager drives,
/// 2. [`Injector::corrupt_subordinate_side`] after the subordinate
///    drives,
/// 3. [`Injector::note_commit`] at the clock edge (tracks beat-count
///    triggers and transient durations).
#[derive(Debug, Clone, Default)]
pub struct Injector {
    plan: Option<FaultPlan>,
    active_since: Option<u64>,
    expired: bool,
    w_beats: u64,
    r_beats: u64,
    active_cycles: u64,
    corruptions_applied: u64,
}

impl Injector {
    /// An injector with no fault armed.
    #[inline]
    #[must_use]
    pub fn idle() -> Self {
        Injector::default()
    }

    /// An injector armed with `plan`.
    #[inline]
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        Injector {
            plan: Some(plan),
            ..Injector::default()
        }
    }

    /// Arms a (new) fault plan, clearing previous progress.
    #[inline]
    pub fn arm(&mut self, plan: FaultPlan) {
        *self = Injector {
            plan: Some(plan),
            ..Injector::default()
        };
    }

    /// Disarms the fault — the harness calls this when the subordinate is
    /// reset ([`Duration::UntilReset`] semantics).
    #[inline]
    pub fn disarm(&mut self) {
        self.plan = None;
        self.active_since = None;
    }

    /// The armed plan, if any.
    #[inline]
    #[must_use]
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// First cycle the fault was actually applied — the injection time
    /// that detection latency is measured from.
    #[inline]
    #[must_use]
    pub fn activation_cycle(&self) -> Option<u64> {
        self.active_since
    }

    /// Cycles the fault has been actively corrupting wires.
    #[inline]
    #[must_use]
    pub fn active_cycles(&self) -> u64 {
        self.active_cycles
    }

    /// Individual wire corruptions applied (diagnostics).
    #[inline]
    #[must_use]
    pub fn corruptions_applied(&self) -> u64 {
        self.corruptions_applied
    }

    #[inline]
    fn is_triggered(&self, cycle: u64) -> bool {
        let Some(plan) = &self.plan else { return false };
        if self.expired {
            return false;
        }
        let triggered = match plan.trigger {
            Trigger::Immediate => true,
            Trigger::AtCycle(n) => cycle >= n,
            Trigger::AfterWBeats(n) => self.w_beats >= n,
            Trigger::AfterRBeats(n) => self.r_beats >= n,
        };
        if !triggered {
            return false;
        }
        match plan.duration {
            Duration::UntilReset => true,
            Duration::Cycles(n) => self.active_cycles < n,
        }
    }

    #[inline]
    fn mark_active(&mut self, cycle: u64) {
        if self.active_since.is_none() {
            self.active_since = Some(cycle);
        }
        self.corruptions_applied += 1;
    }

    /// Applies manager-side faults to the manager port (before the TMU's
    /// request forwarding).
    ///
    /// # Panics
    ///
    /// Panics only if the injector reports triggered without an armed plan — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    #[inline]
    pub fn corrupt_manager_side(&mut self, mgr: &mut AxiPort, cycle: u64) {
        if !self.is_triggered(cycle) {
            return;
        }
        let class = self.plan.expect("triggered implies armed").class;
        if class == FaultClass::WValidSuppress {
            // The stall is effective even between beats.
            mgr.w.suppress_valid();
            self.mark_active(cycle);
        }
    }

    /// Applies subordinate-side faults to the subordinate port (after the
    /// subordinate drives, before the TMU's response forwarding).
    ///
    /// # Panics
    ///
    /// Panics only if the injector reports triggered without an armed plan — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    #[inline]
    pub fn corrupt_subordinate_side(&mut self, sub: &mut AxiPort, cycle: u64) {
        if !self.is_triggered(cycle) {
            return;
        }
        let class = self.plan.expect("triggered implies armed").class;
        match class {
            FaultClass::AwReadyDrop => {
                sub.aw.set_ready(false);
                self.mark_active(cycle);
            }
            FaultClass::WReadyDrop | FaultClass::MidBurstStall => {
                sub.w.set_ready(false);
                self.mark_active(cycle);
            }
            FaultClass::BValidSuppress => {
                sub.b.suppress_valid();
                self.mark_active(cycle);
            }
            FaultClass::BIdCorrupt => {
                if sub.b.valid() {
                    sub.b.corrupt(|b| b.id = AxiId(b.id.0 ^ 0x3f5));
                    self.mark_active(cycle);
                }
            }
            FaultClass::ArReadyDrop => {
                sub.ar.set_ready(false);
                self.mark_active(cycle);
            }
            FaultClass::RValidSuppress | FaultClass::RMidBurstStall => {
                sub.r.suppress_valid();
                self.mark_active(cycle);
            }
            FaultClass::RIdCorrupt => {
                if sub.r.valid() {
                    sub.r.corrupt(|r| r.id = AxiId(r.id.0 ^ 0x3f5));
                    self.mark_active(cycle);
                }
            }
            FaultClass::WValidSuppress => {}
        }
    }

    /// Clock-edge bookkeeping: counts transferred beats (for the
    /// `After*Beats` triggers, observed on the subordinate port) and
    /// transient-duration progress.
    #[inline]
    pub fn note_commit(&mut self, sub: &AxiPort, cycle: u64) {
        if sub.w.fires() {
            self.w_beats += 1;
        }
        if sub.r.fires() {
            self.r_beats += 1;
        }
        if self.is_triggered(cycle) {
            self.active_cycles += 1;
            if let Some(plan) = &self.plan {
                if let Duration::Cycles(n) = plan.duration {
                    if self.active_cycles >= n {
                        self.expired = true;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4::prelude::*;

    fn ready_port() -> AxiPort {
        let mut p = AxiPort::new();
        p.begin_cycle();
        p.aw.set_ready(true);
        p.w.set_ready(true);
        p.ar.set_ready(true);
        p
    }

    #[test]
    fn idle_injector_touches_nothing() {
        let mut inj = Injector::idle();
        let mut p = ready_port();
        inj.corrupt_subordinate_side(&mut p, 0);
        assert!(p.aw.ready() && p.w.ready() && p.ar.ready());
        assert_eq!(inj.activation_cycle(), None);
    }

    #[test]
    fn trigger_at_cycle_gates_activation() {
        let mut inj = Injector::new(FaultPlan::new(FaultClass::AwReadyDrop, Trigger::AtCycle(5)));
        let mut p = ready_port();
        inj.corrupt_subordinate_side(&mut p, 4);
        assert!(p.aw.ready(), "not yet triggered");
        inj.corrupt_subordinate_side(&mut p, 5);
        assert!(!p.aw.ready());
        assert_eq!(inj.activation_cycle(), Some(5));
    }

    #[test]
    fn w_valid_suppressed_on_manager_side() {
        let mut inj = Injector::new(FaultPlan::new(
            FaultClass::WValidSuppress,
            Trigger::Immediate,
        ));
        let mut mgr = AxiPort::new();
        mgr.begin_cycle();
        mgr.w.drive(WBeat::new(1, false));
        inj.corrupt_manager_side(&mut mgr, 0);
        assert!(!mgr.w.valid());
    }

    #[test]
    fn manager_fault_does_not_touch_subordinate_hook() {
        let mut inj = Injector::new(FaultPlan::new(
            FaultClass::WValidSuppress,
            Trigger::Immediate,
        ));
        let mut p = ready_port();
        inj.corrupt_subordinate_side(&mut p, 0);
        assert!(p.w.ready(), "WValidSuppress is a manager-side fault");
    }

    #[test]
    fn b_id_corruption_flips_id() {
        let mut inj = Injector::new(FaultPlan::new(FaultClass::BIdCorrupt, Trigger::Immediate));
        let mut p = AxiPort::new();
        p.begin_cycle();
        p.b.drive(BBeat::new(AxiId(1), Resp::Okay));
        inj.corrupt_subordinate_side(&mut p, 0);
        assert_ne!(p.b.beat().unwrap().id, AxiId(1));
    }

    #[test]
    fn r_suppression_hides_data() {
        let mut inj = Injector::new(FaultPlan::new(
            FaultClass::RValidSuppress,
            Trigger::Immediate,
        ));
        let mut p = AxiPort::new();
        p.begin_cycle();
        p.r.drive(RBeat::new(AxiId(0), 9, Resp::Okay, true));
        inj.corrupt_subordinate_side(&mut p, 0);
        assert!(!p.r.valid());
    }

    #[test]
    fn after_w_beats_trigger_counts_fired_beats() {
        let mut inj = Injector::new(FaultPlan::new(
            FaultClass::MidBurstStall,
            Trigger::AfterWBeats(2),
        ));
        for cycle in 0..2u64 {
            let mut p = ready_port();
            p.w.drive(WBeat::new(cycle, false));
            inj.corrupt_subordinate_side(&mut p, cycle);
            assert!(p.w.ready(), "cycle {cycle}: not yet triggered");
            inj.note_commit(&p, cycle);
        }
        let mut p = ready_port();
        p.w.drive(WBeat::new(2, false));
        inj.corrupt_subordinate_side(&mut p, 2);
        assert!(!p.w.ready(), "stalls after two beats");
        assert_eq!(inj.activation_cycle(), Some(2));
    }

    #[test]
    fn transient_fault_expires() {
        let mut inj = Injector::new(FaultPlan::transient(
            FaultClass::AwReadyDrop,
            Trigger::Immediate,
            2,
        ));
        for cycle in 0..2u64 {
            let mut p = ready_port();
            inj.corrupt_subordinate_side(&mut p, cycle);
            assert!(!p.aw.ready(), "cycle {cycle}: active");
            inj.note_commit(&p, cycle);
        }
        let mut p = ready_port();
        inj.corrupt_subordinate_side(&mut p, 2);
        assert!(p.aw.ready(), "transient expired");
        assert_eq!(inj.active_cycles(), 2);
    }

    #[test]
    fn disarm_stops_corruption() {
        let mut inj = Injector::new(FaultPlan::new(FaultClass::AwReadyDrop, Trigger::Immediate));
        let mut p = ready_port();
        inj.corrupt_subordinate_side(&mut p, 0);
        assert!(!p.aw.ready());
        inj.disarm();
        let mut p = ready_port();
        inj.corrupt_subordinate_side(&mut p, 1);
        assert!(p.aw.ready());
        assert!(inj.plan().is_none());
    }

    #[test]
    fn arm_resets_progress() {
        let mut inj = Injector::new(FaultPlan::new(FaultClass::AwReadyDrop, Trigger::Immediate));
        let mut p = ready_port();
        inj.corrupt_subordinate_side(&mut p, 0);
        assert!(inj.activation_cycle().is_some());
        inj.arm(FaultPlan::new(
            FaultClass::ArReadyDrop,
            Trigger::AtCycle(10),
        ));
        assert_eq!(inj.activation_cycle(), None);
        assert_eq!(inj.corruptions_applied(), 0);
    }
}
