//! The per-manager budget unit: two credit buckets (write/read), each
//! holding byte and transaction credits that drain on granted address
//! handshakes and refill to the configured budget at every window
//! boundary, plus the consecutive-overrun streak that feeds the
//! isolation decision.
//!
//! Windows are aligned to absolute cycles: window `k` spans cycles
//! `k * window_cycles .. (k + 1) * window_cycles`. The unit keeps the
//! cycle whose commit closes the current window as a deadline
//! ([`BudgetUnit::next_rollover`]), so the unit's state changes only on
//! a grant, on the window's first denial and at that deadline — the
//! events an owner's commit has to react to.

use tmu_telemetry::Dir;

use crate::config::{DirBudget, RegulatorConfig};

/// One direction's live credit levels.
#[derive(Debug, Clone, Copy)]
struct DirCredits {
    budget: DirBudget,
    /// Committed state: byte credits left in the current window.
    q_bytes: u64,
    /// Committed state: transaction credits left in the current window.
    q_txns: u64,
}

impl DirCredits {
    fn full(budget: DirBudget) -> Self {
        DirCredits {
            budget,
            q_bytes: budget.bytes_per_window,
            q_txns: budget.txns_per_window,
        }
    }
}

/// What the regulator's commit pass charges the budget with for one
/// cycle: the granted address handshakes (at most one per direction per
/// cycle) and whether any handshake was denied for lack of credit.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleSpend {
    /// Payload bytes of a granted AW this cycle (0 if none fired).
    pub write_bytes: u64,
    /// 1 if an AW was granted this cycle.
    pub write_txns: u64,
    /// Payload bytes of a granted AR this cycle (0 if none fired).
    pub read_bytes: u64,
    /// 1 if an AR was granted this cycle.
    pub read_txns: u64,
    /// True if any address handshake was credit-denied this cycle.
    pub denied: bool,
}

/// Report of a window boundary crossed by [`BudgetUnit::commit`].
#[derive(Debug, Clone, Copy)]
pub struct WindowRollover {
    /// Index of the window that just closed (0-based).
    pub window: u64,
    /// True if at least one handshake was credit-denied in that window —
    /// i.e. the manager attempted more than its budget.
    pub overrun: bool,
    /// Consecutive overrun windows ending with this one (0 if the window
    /// was compliant).
    pub streak: u32,
}

/// Credit bookkeeping for one manager port.
///
/// Follows the workspace's two-phase discipline: the `q_`-prefixed
/// fields are registered state, assigned only by [`BudgetUnit::commit`]
/// and [`BudgetUnit::reset`]; [`BudgetUnit::may_grant`] is the
/// combinational read used during the drive passes.
///
/// The window rollover is a deadline, not a per-cycle test: a commit
/// only needs to run on a cycle with a grant, a denial to latch, or at
/// [`BudgetUnit::next_rollover`]; skipping every other commit changes
/// nothing. Commits that resume after a gap past the deadline (a unit
/// attached to a running fabric) find the next aligned boundary again,
/// so only a commit on a window's last cycle rolls it, as for a unit
/// committed on every cycle.
#[derive(Debug, Clone)]
pub struct BudgetUnit {
    write: DirCredits,
    read: DirCredits,
    window_cycles: u64,
    /// Committed state: a credit denial occurred in the current window.
    q_window_denied: bool,
    /// Committed state: consecutive windows that ended overrun.
    q_streak: u32,
    /// Committed state: windows completed since construction.
    q_windows: u64,
    /// Committed state: the cycle whose commit closes the current
    /// window.
    q_roll_at: u64,
}

impl BudgetUnit {
    /// Builds a full bucket from the regulator configuration.
    #[must_use]
    pub fn new(cfg: &RegulatorConfig) -> Self {
        BudgetUnit {
            write: DirCredits::full(cfg.write_budget()),
            read: DirCredits::full(cfg.read_budget()),
            window_cycles: cfg.window_cycles(),
            q_window_denied: false,
            q_streak: 0,
            q_windows: 0,
            q_roll_at: cfg.window_cycles() - 1,
        }
    }

    /// Combinational grant decision for an address handshake in `dir`:
    /// granted while both the byte and the transaction credit are
    /// nonzero. The deduction itself saturates, so one window can
    /// overshoot by at most one maximal burst.
    #[must_use]
    pub fn may_grant(&self, dir: Dir) -> bool {
        let credits = match dir {
            Dir::Write => &self.write,
            Dir::Read => &self.read,
        };
        credits.q_bytes > 0 && credits.q_txns > 0
    }

    /// Byte credits left in `dir`'s bucket.
    #[must_use]
    pub fn bytes_left(&self, dir: Dir) -> u64 {
        match dir {
            Dir::Write => self.write.q_bytes,
            Dir::Read => self.read.q_bytes,
        }
    }

    /// Transaction credits left in `dir`'s bucket.
    #[must_use]
    pub fn txns_left(&self, dir: Dir) -> u64 {
        match dir {
            Dir::Write => self.write.q_txns,
            Dir::Read => self.read.q_txns,
        }
    }

    /// Consecutive overrun windows so far.
    #[must_use]
    pub fn streak(&self) -> u32 {
        self.q_streak
    }

    /// Windows completed since construction.
    #[must_use]
    pub fn windows_completed(&self) -> u64 {
        self.q_windows
    }

    /// Whether a credit denial is already latched for the current
    /// window.
    pub(crate) fn window_denied(&self) -> bool {
        self.q_window_denied
    }

    /// The cycle whose commit closes the current window: the next
    /// refill, and the next [`WindowRollover`].
    #[must_use]
    #[inline]
    pub fn next_rollover(&self) -> u64 {
        self.q_roll_at
    }

    /// Clock commit for `cycle`: deducts the cycle's granted spend,
    /// latches any denial, and — when `cycle` closes a window — refills
    /// both buckets and reports the rollover.
    pub fn commit(&mut self, spend: &CycleSpend, cycle: u64) -> Option<WindowRollover> {
        self.write.q_bytes = self.write.q_bytes.saturating_sub(spend.write_bytes);
        self.write.q_txns = self.write.q_txns.saturating_sub(spend.write_txns);
        self.read.q_bytes = self.read.q_bytes.saturating_sub(spend.read_bytes);
        self.read.q_txns = self.read.q_txns.saturating_sub(spend.read_txns);
        self.q_window_denied = self.q_window_denied || spend.denied;
        if cycle < self.q_roll_at {
            return None;
        }
        if cycle > self.q_roll_at {
            self.q_roll_at = cycle - cycle % self.window_cycles + (self.window_cycles - 1);
            if cycle < self.q_roll_at {
                return None;
            }
        }
        self.q_roll_at = self.q_roll_at.saturating_add(self.window_cycles);
        let overrun = self.q_window_denied;
        self.q_streak = if overrun {
            self.q_streak.saturating_add(1)
        } else {
            0
        };
        let window = self.q_windows;
        self.q_windows += 1;
        self.q_window_denied = false;
        self.write = DirCredits::full(self.write.budget);
        self.read = DirCredits::full(self.read.budget);
        Some(WindowRollover {
            window,
            overrun,
            streak: self.q_streak,
        })
    }

    /// Refills both buckets and clears the overrun history (used when a
    /// severed manager is re-admitted). The window alignment stays
    /// absolute: the current window still closes at
    /// [`BudgetUnit::next_rollover`].
    pub fn reset(&mut self) {
        self.write = DirCredits::full(self.write.budget);
        self.read = DirCredits::full(self.read.budget);
        self.q_window_denied = false;
        self.q_streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DirBudget, RegulatorConfig};

    fn unit(bytes: u64, txns: u64, window: u64) -> BudgetUnit {
        let cfg = RegulatorConfig::builder()
            .write_budget(DirBudget {
                bytes_per_window: bytes,
                txns_per_window: txns,
            })
            .read_budget(DirBudget {
                bytes_per_window: bytes,
                txns_per_window: txns,
            })
            .window_cycles(window)
            .build()
            .expect("test budget configuration is valid");
        BudgetUnit::new(&cfg)
    }

    #[test]
    fn grants_until_either_credit_exhausts() {
        let mut b = unit(100, 2, 1000);
        assert!(b.may_grant(Dir::Write));
        b.commit(
            &CycleSpend {
                write_bytes: 64,
                write_txns: 1,
                ..CycleSpend::default()
            },
            0,
        );
        assert!(b.may_grant(Dir::Write));
        b.commit(
            &CycleSpend {
                write_bytes: 64,
                write_txns: 1,
                ..CycleSpend::default()
            },
            1,
        );
        // Bytes saturated to zero (one-burst overshoot) and txns are out.
        assert_eq!(b.bytes_left(Dir::Write), 0);
        assert_eq!(b.txns_left(Dir::Write), 0);
        assert!(!b.may_grant(Dir::Write));
        // The read bucket is untouched.
        assert!(b.may_grant(Dir::Read));
    }

    #[test]
    fn window_rollover_refills_and_tracks_streak() {
        let mut b = unit(10, 10, 4);
        // Window 0 (cycles 0..=3): denied.
        for cycle in 0..3 {
            assert!(b
                .commit(
                    &CycleSpend {
                        denied: true,
                        ..CycleSpend::default()
                    },
                    cycle
                )
                .is_none());
        }
        let roll = b
            .commit(
                &CycleSpend {
                    denied: true,
                    ..CycleSpend::default()
                },
                3,
            )
            .expect("cycle 3 closes the 4-cycle window");
        assert!(roll.overrun);
        assert_eq!((roll.window, roll.streak), (0, 1));
        assert_eq!(b.bytes_left(Dir::Write), 10);
        // Window 1: compliant — streak clears.
        for cycle in 4..7 {
            b.commit(&CycleSpend::default(), cycle);
        }
        let roll = b
            .commit(&CycleSpend::default(), 7)
            .expect("cycle 7 closes the second window");
        assert!(!roll.overrun);
        assert_eq!(roll.streak, 0);
        assert_eq!(b.windows_completed(), 2);
    }

    #[test]
    fn one_cycle_windows_roll_at_every_commit() {
        let mut b = unit(8, 1, 1);
        assert_eq!(b.next_rollover(), 0);
        for cycle in 0..5 {
            let roll = b
                .commit(
                    &CycleSpend {
                        write_bytes: 8,
                        write_txns: 1,
                        ..CycleSpend::default()
                    },
                    cycle,
                )
                .expect("every cycle closes a one-cycle window");
            assert_eq!(roll.window, cycle);
            assert_eq!(b.next_rollover(), cycle + 1);
            assert!(b.may_grant(Dir::Write), "each commit refills the bucket");
        }
        assert_eq!(b.windows_completed(), 5);
    }

    #[test]
    fn reset_mid_window_keeps_the_absolute_alignment() {
        let mut b = unit(10, 10, 4);
        for cycle in 0..6 {
            b.commit(&CycleSpend::default(), cycle);
        }
        assert_eq!(b.next_rollover(), 7);
        b.reset();
        assert_eq!(b.next_rollover(), 7, "reset does not realign the window");
        assert!(b.commit(&CycleSpend::default(), 6).is_none());
        let roll = b
            .commit(&CycleSpend::default(), 7)
            .expect("cycle 7 still closes the second window");
        assert_eq!(roll.window, 1);
        assert_eq!(b.next_rollover(), 11);
    }

    #[test]
    fn commits_after_a_gap_roll_only_on_aligned_window_ends() {
        let mut b = unit(10, 10, 4);
        assert!(b.commit(&CycleSpend::default(), 4).is_none());
        assert_eq!(b.next_rollover(), 7, "realigned to the window of cycle 4");
        assert!(b.commit(&CycleSpend::default(), 5).is_none());
        let roll = b
            .commit(&CycleSpend::default(), 15)
            .expect("cycle 15 ends an aligned window");
        assert_eq!(roll.window, 0, "the skipped windows are not counted");
        assert_eq!(b.next_rollover(), 19);
        assert!(b.commit(&CycleSpend::default(), 22).is_none());
        assert_eq!(b.next_rollover(), 23);
    }

    #[test]
    fn reset_refills_and_clears_history() {
        let mut b = unit(8, 1, 16);
        b.commit(
            &CycleSpend {
                write_bytes: 8,
                write_txns: 1,
                denied: true,
                ..CycleSpend::default()
            },
            0,
        );
        assert!(!b.may_grant(Dir::Write));
        b.reset();
        assert!(b.may_grant(Dir::Write));
        assert_eq!(b.streak(), 0);
        assert_eq!(b.bytes_left(Dir::Write), 8);
    }
}
