//! Adaptive time-budgeting (paper §II-F).
//!
//! To avoid false timeouts with large bursts or chained bursts, the TMU
//! adapts its budgets to both burst length and accumulated outstanding
//! traffic. A budget has two components:
//!
//! * **queue-waiting time** — from the address handshake to the first
//!   data beat, which grows with the traffic already queued ahead in the
//!   OTT (both the number of transactions and their remaining beats). A
//!   subordinate whose accept queue is full holds the address `ready`
//!   low for as long as that traffic drains, so the address-handshake
//!   budget takes the same term, and
//! * **data-transfer time** — from first to last beat, which grows with
//!   the burst length.
//!
//! [`BudgetConfig`] holds the per-phase base values plus the adaptive
//! coefficients, and computes concrete budgets for a given transaction
//! and [`QueueLoad`].

use crate::phase::{ReadPhase, WritePhase};

/// The accumulated outstanding traffic ahead of a newly enqueued
/// transaction — the adaptive input of the queue-waiting budget.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueLoad {
    /// Transactions already in the OTT.
    pub txns_ahead: usize,
    /// Data beats those transactions still have to move.
    pub beats_ahead: u64,
}

impl QueueLoad {
    /// No traffic ahead (empty OTT).
    #[must_use]
    pub fn empty() -> Self {
        QueueLoad::default()
    }

    /// A load of `n` transactions with no beat information (each is
    /// charged only the per-transaction coefficient).
    #[must_use]
    pub fn txns(n: usize) -> Self {
        QueueLoad {
            txns_ahead: n,
            beats_ahead: 0,
        }
    }
}

/// Per-phase base budgets and adaptive coefficients, in clock cycles.
///
/// ```
/// use tmu::budget::{BudgetConfig, QueueLoad};
///
/// let cfg = BudgetConfig::default();
/// // A 16-beat write queued behind 2 transactions holding 64 beats.
/// let load = QueueLoad { txns_ahead: 2, beats_ahead: 64 };
/// let w = cfg.write_budgets(16, load);
/// assert_eq!(w.burst_transfer, cfg.per_beat * 16);
/// assert!(w.data_entry > cfg.data_entry);
/// // Tiny-Counter: one budget spanning all phases.
/// assert_eq!(cfg.tiny_write_budget(16, load), w.total());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetConfig {
    /// Phase 1 base: `aw_valid`/`ar_valid` to ready.
    pub addr_handshake: u64,
    /// Phase 2 base: address accepted to first data `valid`.
    pub data_entry: u64,
    /// Phase 3: first data `valid` to `ready`.
    pub first_data: u64,
    /// Phase 4 coefficient: cycles allowed per data beat.
    pub per_beat: u64,
    /// Phase 5: last data beat to response `valid` (writes only).
    pub resp_wait: u64,
    /// Phase 6: response `valid` to `ready`.
    pub resp_ready: u64,
    /// Adaptive queue-waiting coefficient: extra address-handshake and
    /// data-entry cycles per transaction already outstanding in the OTT
    /// when this one is enqueued (covers per-transaction turnaround
    /// overhead).
    pub queue_wait_per_txn: u64,
    /// Adaptive queue-waiting coefficient: extra address-handshake and
    /// data-entry cycles per data beat still owed by the transactions
    /// ahead.
    pub queue_wait_per_beat: u64,
    /// Optional fixed total for the Tiny-Counter variant, overriding the
    /// computed phase sum (the paper's system-level evaluation uses a
    /// fixed 320-cycle Tc budget).
    pub tiny_total_override: Option<u64>,
}

impl Default for BudgetConfig {
    /// Defaults sized for the paper's IP-level setup: transactions of up
    /// to 256 beats must fit the per-phase budgets without false
    /// timeouts against a well-behaved subordinate.
    fn default() -> Self {
        BudgetConfig {
            addr_handshake: 16,
            data_entry: 16,
            first_data: 16,
            per_beat: 4,
            resp_wait: 16,
            resp_ready: 16,
            queue_wait_per_txn: 8,
            queue_wait_per_beat: 4,
            tiny_total_override: None,
        }
    }
}

/// Concrete per-phase budgets for one write transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteBudgets {
    /// Phase 1 budget (adaptive: includes queue-waiting).
    pub aw_handshake: u64,
    /// Phase 2 budget (adaptive: includes queue-waiting).
    pub data_entry: u64,
    /// Phase 3 budget.
    pub first_data: u64,
    /// Phase 4 budget (adaptive: scales with burst length).
    pub burst_transfer: u64,
    /// Phase 5 budget.
    pub resp_wait: u64,
    /// Phase 6 budget.
    pub resp_ready: u64,
}

impl WriteBudgets {
    /// The budget for a specific phase.
    ///
    /// # Panics
    ///
    /// Panics for [`WritePhase::Done`].
    #[must_use]
    pub fn for_phase(&self, phase: WritePhase) -> u64 {
        match phase {
            WritePhase::AwHandshake => self.aw_handshake,
            WritePhase::DataEntry => self.data_entry,
            WritePhase::FirstData => self.first_data,
            WritePhase::BurstTransfer => self.burst_transfer,
            WritePhase::RespWait => self.resp_wait,
            WritePhase::RespReady => self.resp_ready,
            WritePhase::Done => {
                unreachable!("Done phase has no budget: guards check phase_is_done first")
            }
        }
    }

    /// Sum of all six phase budgets — the Tiny-Counter transaction-level
    /// budget when no override is configured.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.aw_handshake
            + self.data_entry
            + self.first_data
            + self.burst_transfer
            + self.resp_wait
            + self.resp_ready
    }
}

/// Concrete per-phase budgets for one read transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadBudgets {
    /// Phase 1 budget (adaptive: includes queue-waiting).
    pub ar_handshake: u64,
    /// Phase 2 budget (adaptive: includes queue-waiting).
    pub data_wait: u64,
    /// Phase 3 budget (adaptive: scales with burst length).
    pub burst_transfer: u64,
    /// Phase 4 budget.
    pub last_ready: u64,
}

impl ReadBudgets {
    /// The budget for a specific phase.
    ///
    /// # Panics
    ///
    /// Panics for [`ReadPhase::Done`].
    #[must_use]
    pub fn for_phase(&self, phase: ReadPhase) -> u64 {
        match phase {
            ReadPhase::ArHandshake => self.ar_handshake,
            ReadPhase::DataWait => self.data_wait,
            ReadPhase::BurstTransfer => self.burst_transfer,
            ReadPhase::LastReady => self.last_ready,
            ReadPhase::Done => {
                unreachable!("Done phase has no budget: guards check phase_is_done first")
            }
        }
    }

    /// Sum of all four phase budgets.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ar_handshake + self.data_wait + self.burst_transfer + self.last_ready
    }
}

impl BudgetConfig {
    /// The adaptive queue-waiting allowance for a given load.
    fn queue_wait(&self, load: QueueLoad) -> u64 {
        self.queue_wait_per_txn * load.txns_ahead as u64
            + self.queue_wait_per_beat * load.beats_ahead
    }

    /// Budgets for a write of `beats` beats enqueued behind `load`.
    #[must_use]
    pub fn write_budgets(&self, beats: u16, load: QueueLoad) -> WriteBudgets {
        WriteBudgets {
            aw_handshake: self.addr_handshake + self.queue_wait(load),
            data_entry: self.data_entry + self.queue_wait(load),
            first_data: self.first_data,
            burst_transfer: self.per_beat * u64::from(beats),
            resp_wait: self.resp_wait,
            resp_ready: self.resp_ready,
        }
    }

    /// Budgets for a read of `beats` beats enqueued behind `load`.
    #[must_use]
    pub fn read_budgets(&self, beats: u16, load: QueueLoad) -> ReadBudgets {
        ReadBudgets {
            ar_handshake: self.addr_handshake + self.queue_wait(load),
            data_wait: self.data_entry + self.queue_wait(load),
            burst_transfer: self.per_beat * u64::from(beats),
            last_ready: self.resp_ready,
        }
    }

    /// The Tiny-Counter transaction-level budget for a write: the fixed
    /// override if set, otherwise the adaptive phase sum.
    #[must_use]
    pub fn tiny_write_budget(&self, beats: u16, load: QueueLoad) -> u64 {
        self.tiny_total_override
            .unwrap_or_else(|| self.write_budgets(beats, load).total())
    }

    /// The Tiny-Counter transaction-level budget for a read.
    #[must_use]
    pub fn tiny_read_budget(&self, beats: u16, load: QueueLoad) -> u64 {
        self.tiny_total_override
            .unwrap_or_else(|| self.read_budgets(beats, load).total())
    }

    /// The largest phase budget any transaction can be assigned under
    /// this configuration for bursts of up to `max_beats` beats and an
    /// OTT of `max_outstanding` entries all holding `max_beats` bursts —
    /// the quantity that sizes the Full-Counter's counter width.
    ///
    /// # Panics
    ///
    /// Panics only if the budget table is empty, which it never is by construction — an internal invariant
    /// violation (a bug in the monitor, not a caller error).
    #[must_use]
    pub fn max_phase_budget(&self, max_beats: u16, max_outstanding: usize) -> u64 {
        let load = QueueLoad {
            txns_ahead: max_outstanding,
            beats_ahead: max_outstanding as u64 * u64::from(max_beats),
        };
        let w = self.write_budgets(max_beats, load);
        let r = self.read_budgets(max_beats, load);
        [
            w.aw_handshake,
            w.data_entry,
            w.first_data,
            w.burst_transfer,
            w.resp_wait,
            w.resp_ready,
            r.data_wait,
            r.burst_transfer,
        ]
        .into_iter()
        .max()
        .expect("budget array literal is nonempty")
    }

    /// The largest transaction-level budget (sizes the Tiny-Counter's
    /// counter width).
    #[must_use]
    pub fn max_total_budget(&self, max_beats: u16, max_outstanding: usize) -> u64 {
        self.tiny_total_override.unwrap_or_else(|| {
            let load = QueueLoad {
                txns_ahead: max_outstanding,
                beats_ahead: max_outstanding as u64 * u64::from(max_beats),
            };
            self.write_budgets(max_beats, load)
                .total()
                .max(self.read_budgets(max_beats, load).total())
        })
    }

    /// The paper's system-level Tiny-Counter setup (Fig. 11): one fixed
    /// 320-cycle budget for the whole 250-beat Ethernet transaction.
    #[must_use]
    pub fn fig11_tiny() -> Self {
        BudgetConfig {
            tiny_total_override: Some(320),
            ..Self::fig11_full()
        }
    }

    /// The paper's system-level Full-Counter setup (Fig. 11): distinct
    /// per-phase budgets — 10 cycles for AW, 250 for the W burst
    /// (1 cycle/beat × 250 beats), and so on.
    #[must_use]
    pub fn fig11_full() -> Self {
        BudgetConfig {
            addr_handshake: 10,
            data_entry: 10,
            first_data: 10,
            per_beat: 1,
            resp_wait: 20,
            resp_ready: 10,
            queue_wait_per_txn: 0,
            queue_wait_per_beat: 1,
            tiny_total_override: None,
        }
    }

    /// Budgets provisioned for a shared interconnect (the Fig. 10 system
    /// topology): the link's queue-waiting adaptation only sees *this*
    /// subordinate's OTT, so the base allowances must additionally cover
    /// crossbar arbitration latency from traffic towards other
    /// subordinates.
    #[must_use]
    pub fn system_level() -> Self {
        BudgetConfig {
            addr_handshake: 64,
            data_entry: 256,
            first_data: 64,
            per_beat: 8,
            resp_wait: 128,
            resp_ready: 64,
            queue_wait_per_txn: 16,
            queue_wait_per_beat: 8,
            tiny_total_override: None,
        }
    }

    /// A non-adaptive configuration: the ablation baseline for the
    /// adaptive-budget experiment. Budgets are sized once for a
    /// `nominal_beats`-beat burst and do not react to actual burst length
    /// or queue depth — the nominal transfer allowance is granted as a
    /// fixed phase-2 budget and phase 4 gets a bare 1 cycle/beat.
    #[must_use]
    pub fn fixed(nominal_beats: u16) -> Self {
        let d = Self::default();
        BudgetConfig {
            queue_wait_per_txn: 0,
            queue_wait_per_beat: 0,
            data_entry: d.data_entry + d.per_beat * u64::from(nominal_beats),
            per_beat: 1,
            ..d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_budget_scales_with_beats() {
        let cfg = BudgetConfig::default();
        let short = cfg.write_budgets(1, QueueLoad::empty());
        let long = cfg.write_budgets(256, QueueLoad::empty());
        assert_eq!(
            long.burst_transfer - short.burst_transfer,
            cfg.per_beat * 255
        );
    }

    #[test]
    fn queue_wait_scales_with_txns_and_beats() {
        let cfg = BudgetConfig::default();
        let empty = cfg.write_budgets(4, QueueLoad::empty());
        let busy = cfg.write_budgets(
            4,
            QueueLoad {
                txns_ahead: 10,
                beats_ahead: 0,
            },
        );
        assert_eq!(
            busy.data_entry - empty.data_entry,
            cfg.queue_wait_per_txn * 10
        );
        let heavy = cfg.write_budgets(
            4,
            QueueLoad {
                txns_ahead: 10,
                beats_ahead: 100,
            },
        );
        assert_eq!(
            heavy.data_entry - busy.data_entry,
            cfg.queue_wait_per_beat * 100
        );
        // A full accept queue holds the address handshake as long.
        assert_eq!(
            heavy.aw_handshake - empty.aw_handshake,
            heavy.data_entry - empty.data_entry
        );
        let heavy_r = cfg.read_budgets(
            4,
            QueueLoad {
                txns_ahead: 10,
                beats_ahead: 100,
            },
        );
        assert_eq!(heavy_r.data_wait, heavy.data_entry);
        assert_eq!(heavy_r.ar_handshake, heavy.aw_handshake);
    }

    #[test]
    fn phase_lookup_matches_fields() {
        let cfg = BudgetConfig::default();
        let w = cfg.write_budgets(8, QueueLoad::txns(1));
        use crate::phase::WritePhase as P;
        assert_eq!(w.for_phase(P::AwHandshake), w.aw_handshake);
        assert_eq!(w.for_phase(P::DataEntry), w.data_entry);
        assert_eq!(w.for_phase(P::FirstData), w.first_data);
        assert_eq!(w.for_phase(P::BurstTransfer), w.burst_transfer);
        assert_eq!(w.for_phase(P::RespWait), w.resp_wait);
        assert_eq!(w.for_phase(P::RespReady), w.resp_ready);

        let r = cfg.read_budgets(8, QueueLoad::txns(1));
        use crate::phase::ReadPhase as R;
        assert_eq!(r.for_phase(R::ArHandshake), r.ar_handshake);
        assert_eq!(r.for_phase(R::DataWait), r.data_wait);
        assert_eq!(r.for_phase(R::BurstTransfer), r.burst_transfer);
        assert_eq!(r.for_phase(R::LastReady), r.last_ready);
    }

    #[test]
    #[should_panic(expected = "no budget")]
    fn done_write_phase_has_no_budget() {
        let _ = BudgetConfig::default()
            .write_budgets(1, QueueLoad::empty())
            .for_phase(WritePhase::Done);
    }

    #[test]
    #[should_panic(expected = "no budget")]
    fn done_read_phase_has_no_budget() {
        let _ = BudgetConfig::default()
            .read_budgets(1, QueueLoad::empty())
            .for_phase(ReadPhase::Done);
    }

    #[test]
    fn tiny_budget_is_phase_sum_without_override() {
        let cfg = BudgetConfig::default();
        let load = QueueLoad {
            txns_ahead: 3,
            beats_ahead: 12,
        };
        assert_eq!(
            cfg.tiny_write_budget(16, load),
            cfg.write_budgets(16, load).total()
        );
        assert_eq!(
            cfg.tiny_read_budget(16, load),
            cfg.read_budgets(16, load).total()
        );
    }

    #[test]
    fn tiny_override_wins() {
        let cfg = BudgetConfig::fig11_tiny();
        assert_eq!(cfg.tiny_write_budget(250, QueueLoad::empty()), 320);
        assert_eq!(cfg.tiny_read_budget(250, QueueLoad::empty()), 320);
        assert_eq!(cfg.max_total_budget(250, 16), 320);
    }

    #[test]
    fn fig11_full_matches_paper_settings() {
        let cfg = BudgetConfig::fig11_full();
        let w = cfg.write_budgets(250, QueueLoad::empty());
        assert_eq!(w.aw_handshake, 10, "10 cycles for AW");
        assert_eq!(w.burst_transfer, 250, "250 cycles for the W burst");
    }

    #[test]
    fn max_budgets_cover_all_phases() {
        let cfg = BudgetConfig::default();
        let m = cfg.max_phase_budget(256, 32);
        let load = QueueLoad {
            txns_ahead: 32,
            beats_ahead: 32 * 256,
        };
        let w = cfg.write_budgets(256, load);
        assert!(m >= w.burst_transfer);
        assert!(m >= w.data_entry);
        assert!(cfg.max_total_budget(256, 32) >= w.total());
    }

    #[test]
    fn fixed_config_ignores_queue_depth() {
        let cfg = BudgetConfig::fixed(16);
        let a = cfg.write_budgets(4, QueueLoad::empty());
        let b = cfg.write_budgets(
            4,
            QueueLoad {
                txns_ahead: 10,
                beats_ahead: 0,
            },
        );
        assert_eq!(a.data_entry, b.data_entry);
    }

    #[test]
    fn queue_load_constructors() {
        assert_eq!(QueueLoad::empty().txns_ahead, 0);
        assert_eq!(QueueLoad::txns(5).txns_ahead, 5);
        assert_eq!(QueueLoad::txns(5).beats_ahead, 0);
    }
}
