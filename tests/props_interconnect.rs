//! Property tests: the AXI mux/demux interconnect delivers every beat to
//! the right place under random traffic shapes.
//!
//! Strategy: drive a randomized multi-manager workload through the full
//! `System` (mux → demux → {memory, ethernet}) with data verification
//! enabled on the memory-only manager, and assert the global invariants:
//! everything completes, nothing is misrouted (scoreboard mismatches),
//! no spurious errors, and per-manager beat accounting balances.

use axi_tmu::soc::manager::TrafficPattern;
use axi_tmu::soc::system::{System, SystemConfig, ETH_BASE, ETH_SIZE, MEM_BASE};
use axi_tmu::tmu::{BudgetConfig, TmuConfig};
use proptest::prelude::*;

#[path = "common/cases.rs"]
mod cases;
use cases::cases;

fn burst_menu() -> impl Strategy<Value = Vec<u16>> {
    prop::collection::vec(
        prop_oneof![Just(1u16), Just(2), Just(4), Just(8), Just(16), Just(32)],
        1..4,
    )
}

proptest! {
    #![proptest_config(cases(24))]

    /// Random CPU/DMA mixes: all scripted traffic completes, reads of
    /// written memory verify, and no faults or decode errors appear.
    #[test]
    fn random_mixes_complete_and_verify(
        seed in 0u64..1_000_000,
        cpu_bursts in burst_menu(),
        dma_bursts in burst_menu(),
        cpu_ratio in 0.0f64..=1.0,
        cpu_outstanding in 1usize..6,
        dma_outstanding in 1usize..3,
        cpu_txns in 5u64..40,
        dma_txns in 3u64..20,
    ) {
        let cfg = SystemConfig {
            tmu: TmuConfig::builder()
                .budgets(BudgetConfig::system_level())
                .build()
                .expect("valid"),
            cpu_pattern: TrafficPattern {
                write_ratio: cpu_ratio,
                burst_lens: cpu_bursts,
                ids: vec![0, 1, 2, 3],
                addr_base: MEM_BASE,
                addr_span: 0x4000,
                max_outstanding: cpu_outstanding,
                issue_gap: 1,
                total_txns: Some(cpu_txns),
                verify_data: true, // sole writer of the memory window
            },
            dma_pattern: TrafficPattern {
                write_ratio: 0.7,
                burst_lens: dma_bursts,
                ids: vec![0, 1],
                addr_base: ETH_BASE,
                addr_span: ETH_SIZE,
                max_outstanding: dma_outstanding,
                issue_gap: 2,
                total_txns: Some(dma_txns),
                verify_data: false, // the eth model is a ring buffer
            },
            seed,
            ..SystemConfig::default()
        };
        let mut system = System::new(cfg);
        let done = system.run_until(300_000, |s| {
            axi_tmu::testkit::check_tmu(s.tmu());
            s.traffic_done()
        });
        prop_assert!(done, "traffic must complete");

        let cpu = system.cpu_stats();
        let dma = system.dma_stats();
        prop_assert_eq!(cpu.writes_issued + cpu.reads_issued, cpu_txns);
        prop_assert_eq!(dma.writes_issued + dma.reads_issued, dma_txns);
        prop_assert_eq!(cpu.writes_errored + cpu.reads_errored, 0, "no spurious CPU errors");
        prop_assert_eq!(dma.writes_errored + dma.reads_errored, 0, "no spurious DMA errors");
        prop_assert_eq!(cpu.data_mismatches, 0, "no misrouted or corrupted data");
        prop_assert_eq!(system.tmu().faults_detected(), 0, "no false TMU positives");
        prop_assert_eq!(system.decode_errors(), 0, "all addresses decode");

        // Beat accounting: the endpoints absorbed exactly what the
        // managers sent (W) and produced what they received (R).
        let absorbed = system.mem().beats_written() + system.eth().beats_txed();
        prop_assert_eq!(cpu.w_beats + dma.w_beats, absorbed, "W beats balance");
        let produced = system.mem().beats_read() + system.eth().beats_rxed();
        prop_assert_eq!(cpu.r_beats + dma.r_beats, produced, "R beats balance");
    }

    /// Unmapped traffic always terminates with DECERR — never hangs, and
    /// never disturbs mapped traffic.
    #[test]
    fn unmapped_traffic_terminates(seed in 0u64..1_000_000, bad_txns in 1u64..10) {
        let cfg = SystemConfig {
            cpu_pattern: TrafficPattern {
                addr_base: 0x1000, // below every mapped region
                addr_span: 0x1000,
                burst_lens: vec![1, 4],
                total_txns: Some(bad_txns),
                ..TrafficPattern::default()
            },
            dma_pattern: TrafficPattern {
                total_txns: Some(5),
                ..SystemConfig::default().dma_pattern
            },
            seed,
            ..SystemConfig::default()
        };
        let mut system = System::new(cfg);
        let done = system.run_until(100_000, |s| {
            axi_tmu::testkit::check_tmu(s.tmu());
            s.traffic_done()
        });
        prop_assert!(done, "DECERR traffic must terminate");
        let cpu = system.cpu_stats();
        prop_assert_eq!(cpu.writes_errored + cpu.reads_errored, bad_txns);
        prop_assert_eq!(system.decode_errors(), bad_txns);
        let dma = system.dma_stats();
        prop_assert_eq!(dma.writes_errored + dma.reads_errored, 0, "mapped traffic unaffected");
    }
}
