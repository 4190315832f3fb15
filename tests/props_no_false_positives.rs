//! Property tests: the TMU's cardinal safety property — **no false
//! positives**. Any healthy subordinate whose latencies fit the
//! programmed budgets must never trip a fault, for either variant, any
//! prescaler, and arbitrary handshake timing.

use axi_tmu::soc::link::GuardedLink;
use axi_tmu::soc::manager::TrafficPattern;
use axi_tmu::soc::memory::{MemConfig, MemSub};
use axi_tmu::tmu::config::{Reg, CTRL_ENABLE, CTRL_IRQ_ENABLE, CTRL_PROT_CHECK};
use axi_tmu::tmu::{BudgetConfig, TmuConfig, TmuVariant};
use proptest::prelude::*;

#[path = "common/cases.rs"]
mod cases;
use cases::cases;

fn pattern(seed_bursts: &[u16], outstanding: usize, gap: u64, txns: u64) -> TrafficPattern {
    TrafficPattern {
        write_ratio: 0.5,
        burst_lens: seed_bursts.to_vec(),
        ids: vec![0, 1, 2, 3],
        addr_base: 0x8000_0000,
        addr_span: 0x8000,
        max_outstanding: outstanding,
        issue_gap: gap,
        total_txns: Some(txns),
        verify_data: true,
    }
}

proptest! {
    #![proptest_config(cases(32))]

    /// Healthy memories with random (budget-respecting) latencies never
    /// trip the monitor, complete all traffic, and corrupt no data.
    #[test]
    fn healthy_latencies_never_false_positive(
        seed in 0u64..1_000_000,
        b_latency in 0u64..12,
        r_warmup in 0u64..12,
        r_beat_gap in 0u64..3,
        outstanding in 1usize..20,
        gap in 0u64..8,
        variant_sel in 0u8..2,
        prescale_pow in 0u32..6,
    ) {
        let variant = if variant_sel == 0 {
            TmuVariant::TinyCounter
        } else {
            TmuVariant::FullCounter
        };
        // Budgets sized to cover the latency ranges above (memory
        // serializes, so queue coefficients must cover predecessors).
        let budgets = BudgetConfig {
            addr_handshake: 32,
            data_entry: 64,
            first_data: 32,
            per_beat: 8,
            resp_wait: 64,
            resp_ready: 32,
            queue_wait_per_txn: 32,
            queue_wait_per_beat: 8,
            tiny_total_override: None,
        };
        let cfg = TmuConfig::builder()
            .variant(variant)
            .max_uniq_ids(4)
            .txn_per_id(4)
            .prescaler(1 << prescale_pow)
            .budgets(budgets)
            .build()
            .expect("valid");
        let mem = MemSub::new(MemConfig {
            b_latency,
            r_warmup,
            r_beat_gap,
            max_inflight: 8,
        });
        let mut link = GuardedLink::new(pattern(&[1, 4, 8, 16], outstanding, gap, 30), cfg, mem, seed);
        let done = link.run_until(200_000, |l| {
            axi_tmu::testkit::check_tmu(&l.tmu);
            l.mgr.is_done()
        });
        prop_assert!(done, "traffic must complete");
        prop_assert_eq!(
            link.tmu.faults_detected(),
            0,
            "false positive: {:?}",
            link.tmu.last_fault()
        );
        let stats = link.mgr.stats();
        prop_assert_eq!(stats.writes_errored + stats.reads_errored, 0);
        prop_assert_eq!(stats.data_mismatches, 0);
        prop_assert_eq!(link.tmu.outstanding(), 0, "OTT drains to empty");
        link.tmu.write_guard().assert_consistent();
        link.tmu.read_guard().assert_consistent();
    }

    /// Dual property: a subordinate whose response latency *exceeds* the
    /// budget is always caught — no false negatives at the boundary.
    #[test]
    fn over_budget_latency_always_caught(
        seed in 0u64..1_000_000,
        excess in 1u64..64,
    ) {
        let budgets = BudgetConfig {
            resp_wait: 16,
            ..BudgetConfig::default()
        };
        let cfg = TmuConfig::builder()
            .variant(TmuVariant::FullCounter)
            .budgets(budgets)
            .build()
            .expect("valid");
        // B latency strictly beyond the resp-wait budget (+2 covers the
        // detection threshold `count > budget + 1` granularity).
        let mem = MemSub::new(MemConfig {
            b_latency: 16 + 2 + excess,
            ..MemConfig::default()
        });
        // Writes only: a seed that drew ten reads would never wait on B.
        let writes = TrafficPattern {
            write_ratio: 1.0,
            ..pattern(&[4], 1, 4, 10)
        };
        let mut link = GuardedLink::new(writes, cfg, mem, seed);
        let detected = link.run_until(100_000, |l| {
            axi_tmu::testkit::check_tmu(&l.tmu);
            l.tmu.faults_detected() > 0
        });
        prop_assert!(detected, "over-budget subordinate must be caught");
    }
}

/// Pausing protocol checks during healthy traffic and resuming them
/// raises nothing: the guards keep tracking while checks are off, and
/// the wire rules forget beats held before the pause.
#[test]
fn toggling_protocol_checks_never_false_positive() {
    for seed in 1..20 {
        let cfg = TmuConfig::builder()
            .variant(TmuVariant::FullCounter)
            .build()
            .expect("valid");
        let traffic = TrafficPattern {
            max_outstanding: 8,
            ..TrafficPattern::default()
        };
        let mut link = GuardedLink::new(traffic, cfg, MemSub::default(), seed);
        link.run(1_000);
        link.tmu.write_reg(Reg::Ctrl, CTRL_ENABLE | CTRL_IRQ_ENABLE);
        link.run(500);
        link.tmu
            .write_reg(Reg::Ctrl, CTRL_ENABLE | CTRL_IRQ_ENABLE | CTRL_PROT_CHECK);
        link.run(3_000);
        assert_eq!(
            link.tmu.faults_detected(),
            0,
            "seed {seed}: {:?}",
            link.tmu.last_fault()
        );
        assert!(
            link.mgr.stats().total_completed() > 100,
            "seed {seed}: traffic flowed"
        );
    }
}

/// Regression: 16 outstanding against the default 8-deep memory with
/// default budgets. The memory holds `ar_ready`/`aw_ready` low while its
/// queue drains, so the address handshake needs the same queue-waiting
/// allowance as the data phase; without it this run raised 274 false
/// `R/AR-handshake` timeouts in 50k cycles.
#[test]
fn back_pressured_address_handshake_never_false_positive() {
    for variant in [TmuVariant::FullCounter, TmuVariant::TinyCounter] {
        for outstanding in [8, 16] {
            let cfg = TmuConfig::builder()
                .variant(variant)
                .build()
                .expect("valid");
            let traffic = TrafficPattern {
                max_outstanding: outstanding,
                issue_gap: 0,
                ..TrafficPattern::default()
            };
            let mut link = GuardedLink::new(traffic, cfg, MemSub::default(), 1);
            link.run(50_000);
            assert_eq!(
                link.tmu.faults_detected(),
                0,
                "{variant:?}, {outstanding} outstanding: {:?}",
                link.tmu.last_fault()
            );
            assert!(
                link.mgr.stats().total_completed() > 1_000,
                "{variant:?}, {outstanding} outstanding: traffic flowed"
            );
        }
    }
}
