//! Fault taxonomy and scheduling.

use std::fmt;

/// The fault classes of the paper's Fig. 9 (write side) and their read
/// mirrors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// "AW Stage Error": the subordinate never asserts `aw_ready`.
    AwReadyDrop,
    /// "W Stage Timeout": the manager never presents valid write data.
    WValidSuppress,
    /// "W Datapath Error": `w_ready` failure during data transfer.
    WReadyDrop,
    /// "Data Transfer Error": stall between `w_first` and `w_last`
    /// (combine with [`Trigger::AfterWBeats`]).
    MidBurstStall,
    /// "`w_last` to `b_valid` Error": the write response never arrives.
    BValidSuppress,
    /// "B Handshake Error": ID corruption on the B channel.
    BIdCorrupt,
    /// Read mirror of the AW stage error: `ar_ready` never asserted.
    ArReadyDrop,
    /// Read data never arrives (`r_valid` suppressed).
    RValidSuppress,
    /// Read burst stalls mid-transfer (combine with
    /// [`Trigger::AfterRBeats`]).
    RMidBurstStall,
    /// ID corruption on the R channel.
    RIdCorrupt,
}

impl FaultClass {
    /// The six write-side classes, in the order of the paper's Fig. 9.
    pub const WRITE_CLASSES: [FaultClass; 6] = [
        FaultClass::AwReadyDrop,
        FaultClass::WValidSuppress,
        FaultClass::WReadyDrop,
        FaultClass::MidBurstStall,
        FaultClass::BValidSuppress,
        FaultClass::BIdCorrupt,
    ];

    /// The four read-side classes.
    pub const READ_CLASSES: [FaultClass; 4] = [
        FaultClass::ArReadyDrop,
        FaultClass::RValidSuppress,
        FaultClass::RMidBurstStall,
        FaultClass::RIdCorrupt,
    ];

    /// All ten classes.
    pub const ALL: [FaultClass; 10] = [
        FaultClass::AwReadyDrop,
        FaultClass::WValidSuppress,
        FaultClass::WReadyDrop,
        FaultClass::MidBurstStall,
        FaultClass::BValidSuppress,
        FaultClass::BIdCorrupt,
        FaultClass::ArReadyDrop,
        FaultClass::RValidSuppress,
        FaultClass::RMidBurstStall,
        FaultClass::RIdCorrupt,
    ];

    /// The paper's label for the write classes (used in the Fig. 9
    /// table output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::AwReadyDrop => "AW stage error (missing aw_ready)",
            FaultClass::WValidSuppress => "W stage timeout (no valid data)",
            FaultClass::WReadyDrop => "W datapath error (w_ready failure)",
            FaultClass::MidBurstStall => "data transfer error (w_first..w_last)",
            FaultClass::BValidSuppress => "w_last to b_valid error",
            FaultClass::BIdCorrupt => "B handshake error (ID mismatch)",
            FaultClass::ArReadyDrop => "AR stage error (missing ar_ready)",
            FaultClass::RValidSuppress => "R stage timeout (no valid data)",
            FaultClass::RMidBurstStall => "read transfer error (r_first..r_last)",
            FaultClass::RIdCorrupt => "R handshake error (ID mismatch)",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// When a planned fault becomes active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trigger {
    /// Active from the first cycle.
    Immediate,
    /// Active from an absolute cycle.
    AtCycle(u64),
    /// Active once `n` W beats have transferred on the guarded link.
    AfterWBeats(u64),
    /// Active once `n` R beats have transferred on the guarded link.
    AfterRBeats(u64),
}

/// How long an active fault persists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Duration {
    /// Until the subordinate is reset (the injector is disarmed by the
    /// harness's reset plumbing).
    UntilReset,
    /// A transient glitch of `n` cycles.
    Cycles(u64),
}

/// A scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// What to break.
    pub class: FaultClass,
    /// When to break it.
    pub trigger: Trigger,
    /// For how long.
    pub duration: Duration,
}

impl FaultPlan {
    /// A persistent fault of `class` activating at `trigger`.
    #[must_use]
    pub fn new(class: FaultClass, trigger: Trigger) -> Self {
        FaultPlan {
            class,
            trigger,
            duration: Duration::UntilReset,
        }
    }

    /// A transient fault lasting `cycles` cycles.
    #[must_use]
    pub fn transient(class: FaultClass, trigger: Trigger, cycles: u64) -> Self {
        FaultPlan {
            class,
            trigger,
            duration: Duration::Cycles(cycles),
        }
    }
}

/// A *behavioural* fault: from `at_cycle` the targeted manager's
/// traffic generator is reprogrammed to over-issue — the issue gap
/// collapses to [`issue_gap`](Self::issue_gap), the outstanding window
/// widens to [`max_outstanding`](Self::max_outstanding), and bursts are
/// forced to [`burst_beats`](Self::burst_beats) — so it exceeds any
/// reasonable bandwidth budget while every wire stays AXI-legal.
///
/// Unlike the wire-level [`FaultClass`]es (which the TMU detects as
/// hangs or corruption), this class is invisible to timeout monitoring:
/// a greedy manager completes every transaction. The intended detector
/// is a credit-based regulator, which throttles and — on sustained
/// overrun — isolates the port. Harnesses apply the plan through the
/// traffic generator's `reconfigure` hook rather than the wire
/// [`crate::Injector`], keeping the generator's bookkeeping coherent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BudgetExhaustion {
    /// Cycle at which the manager turns greedy.
    pub at_cycle: u64,
    /// Issue gap forced from then on (cycles between issues).
    pub issue_gap: u64,
    /// Outstanding-transaction window forced from then on.
    pub max_outstanding: usize,
    /// Burst length (beats) forced from then on.
    pub burst_beats: u16,
}

impl BudgetExhaustion {
    /// A maximally greedy plan activating at `cycle`: back-to-back
    /// 16-beat bursts with a deep outstanding window.
    #[must_use]
    pub fn at_cycle(cycle: u64) -> Self {
        BudgetExhaustion {
            at_cycle: cycle,
            issue_gap: 0,
            max_outstanding: 8,
            burst_beats: 16,
        }
    }

    /// True once the plan should have been applied.
    #[must_use]
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.at_cycle
    }
}

impl fmt::Display for BudgetExhaustion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "budget exhaustion at cycle {} ({}-beat bursts, gap {}, {} outstanding)",
            self.at_cycle, self.burst_beats, self.issue_gap, self.max_outstanding
        )
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.class)?;
        match self.trigger {
            Trigger::Immediate => write!(f, "from start")?,
            Trigger::AtCycle(n) => write!(f, "at cycle {n}")?,
            Trigger::AfterWBeats(n) => write!(f, "after {n} W beats")?,
            Trigger::AfterRBeats(n) => write!(f, "after {n} R beats")?,
        }
        match self.duration {
            Duration::UntilReset => Ok(()),
            Duration::Cycles(n) => write!(f, " for {n} cycles"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_lists_are_disjoint_and_complete() {
        for w in FaultClass::WRITE_CLASSES {
            assert!(!FaultClass::READ_CLASSES.contains(&w));
            assert!(FaultClass::ALL.contains(&w));
        }
        for r in FaultClass::READ_CLASSES {
            assert!(FaultClass::ALL.contains(&r));
        }
        assert_eq!(
            FaultClass::ALL.len(),
            FaultClass::WRITE_CLASSES.len() + FaultClass::READ_CLASSES.len()
        );
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels = std::collections::HashSet::new();
        for c in FaultClass::ALL {
            assert!(labels.insert(c.label()));
        }
    }

    #[test]
    fn budget_exhaustion_schedule_and_display() {
        let plan = BudgetExhaustion::at_cycle(500);
        assert!(!plan.due(499));
        assert!(plan.due(500));
        assert!(plan.due(501));
        let s = plan.to_string();
        assert!(s.contains("cycle 500"), "{s}");
        assert!(s.contains("16-beat"), "{s}");
    }

    #[test]
    fn plan_display_mentions_schedule() {
        let p = FaultPlan::new(FaultClass::AwReadyDrop, Trigger::AtCycle(7));
        assert!(p.to_string().contains("at cycle 7"));
        let p = FaultPlan::transient(FaultClass::WReadyDrop, Trigger::AfterWBeats(3), 10);
        let s = p.to_string();
        assert!(s.contains("after 3 W beats"));
        assert!(s.contains("for 10 cycles"));
    }
}
