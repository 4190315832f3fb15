//! Property tests: the deadline-wheel counter engine is **cycle-for-cycle
//! equivalent** to the per-cycle reference engine.
//!
//! Two identical guarded links — same traffic seed, same subordinate
//! timing, same fault plan — are driven in lockstep, one per engine, over
//! random budgets, prescaler steps, sticky settings, and both TMU
//! variants. Everything observable must match: every fault's cycle and
//! record, the performance log, recovery behaviour, and final occupancy.
//!
//! Each case also flips a coin on whether the wheel link runs with the
//! unified telemetry layer enabled: telemetry is observation-only, so
//! the differential properties must hold either way.

use axi_tmu::faults::{FaultClass, FaultPlan, Trigger};
use axi_tmu::soc::link::{AxiSubordinate, BlackHoleSub, GuardedLink};
use axi_tmu::soc::manager::TrafficPattern;
use axi_tmu::soc::memory::{MemConfig, MemSub};
use axi_tmu::tmu::{BudgetConfig, CounterEngine, TelemetryConfig, TmuConfig, TmuVariant};
use proptest::prelude::*;

#[path = "common/cases.rs"]
mod cases;
use cases::cases;

fn budgets(base: u64) -> BudgetConfig {
    BudgetConfig {
        addr_handshake: base,
        data_entry: base,
        first_data: base,
        per_beat: base,
        resp_wait: base,
        resp_ready: base,
        queue_wait_per_txn: 0,
        queue_wait_per_beat: 0,
        tiny_total_override: Some(base * 4),
    }
}

fn cfg(
    variant: TmuVariant,
    engine: CounterEngine,
    step: u64,
    sticky: bool,
    base_budget: u64,
) -> TmuConfig {
    TmuConfig::builder()
        .variant(variant)
        .max_uniq_ids(4)
        .txn_per_id(4)
        .prescaler(step)
        .sticky(sticky)
        .budgets(budgets(base_budget))
        .engine(engine)
        .build()
        .expect("valid differential configuration")
}

fn pattern(outstanding: usize, gap: u64) -> TrafficPattern {
    TrafficPattern {
        write_ratio: 0.5,
        burst_lens: vec![1, 4, 8],
        ids: vec![0, 1, 2, 3],
        addr_base: 0x4000,
        addr_span: 0x1000,
        max_outstanding: outstanding,
        issue_gap: gap,
        total_txns: None,
        verify_data: false,
    }
}

/// Steps both links `cycles` cycles and asserts every observable output
/// matches, cycle by cycle for fault counts and at the end for the logs.
fn assert_lockstep<S: AxiSubordinate>(
    reference: &mut GuardedLink<S>,
    wheel: &mut GuardedLink<S>,
    cycles: u64,
) {
    for _ in 0..cycles {
        reference.step();
        wheel.step();
        prop_assert_eq!(
            reference.tmu.faults_detected(),
            wheel.tmu.faults_detected(),
            "fault count diverged at cycle {}",
            reference.cycle()
        );
        prop_assert_eq!(
            reference.tmu.state(),
            wheel.tmu.state(),
            "recovery state diverged at cycle {}",
            reference.cycle()
        );
    }
    prop_assert_eq!(reference.tmu.error_log(), wheel.tmu.error_log());
    prop_assert_eq!(reference.tmu.perf_log(), wheel.tmu.perf_log());
    prop_assert_eq!(
        reference.tmu.resets_requested(),
        wheel.tmu.resets_requested()
    );
    prop_assert_eq!(reference.tmu.outstanding(), wheel.tmu.outstanding());
    prop_assert_eq!(reference.irq_first_at(), wheel.irq_first_at());
}

proptest! {
    #![proptest_config(cases(24))]

    /// Healthy traffic through a memory with random in-budget latencies:
    /// both engines see the same (empty) error log and identical
    /// performance records.
    #[test]
    fn healthy_traffic_is_engine_invariant(
        seed in 0u64..1_000_000,
        step in 1u64..=128,
        sticky in any::<bool>(),
        variant_sel in 0u8..2,
        b_latency in 0u64..8,
        r_warmup in 0u64..8,
        outstanding in 1usize..8,
        gap in 0u64..6,
        telemetry in any::<bool>(),
    ) {
        let variant = if variant_sel == 0 { TmuVariant::TinyCounter } else { TmuVariant::FullCounter };
        let base_budget = 2_000;
        let mem = MemConfig {
            b_latency,
            r_warmup,
            r_beat_gap: 1,
            max_inflight: 8,
        };
        let mut reference = GuardedLink::new(
            pattern(outstanding, gap),
            cfg(variant, CounterEngine::PerCycle, step, sticky, base_budget),
            MemSub::new(mem),
            seed,
        );
        let mut wheel = GuardedLink::new(
            pattern(outstanding, gap),
            cfg(variant, CounterEngine::DeadlineWheel, step, sticky, base_budget),
            MemSub::new(mem),
            seed,
        );
        if telemetry {
            wheel.enable_telemetry(TelemetryConfig::default());
        }
        assert_lockstep(&mut reference, &mut wheel, 3_000);
        prop_assert_eq!(reference.tmu.faults_detected(), 0, "healthy run must stay clean");
    }

    /// A total stall at full occupancy: the wheel must fire each timeout
    /// at exactly the cycle the ticking reference fires it, across the
    /// whole prescaler/sticky/budget space, including the recovery that
    /// follows.
    #[test]
    fn saturated_stall_fires_identically(
        seed in 0u64..1_000_000,
        step in 1u64..=128,
        sticky in any::<bool>(),
        variant_sel in 0u8..2,
        base_budget in 64u64..2_048,
        outstanding in 1usize..12,
        telemetry in any::<bool>(),
    ) {
        let variant = if variant_sel == 0 { TmuVariant::TinyCounter } else { TmuVariant::FullCounter };
        let mut reference = GuardedLink::new(
            pattern(outstanding, 0),
            cfg(variant, CounterEngine::PerCycle, step, sticky, base_budget),
            BlackHoleSub,
            seed,
        );
        let mut wheel = GuardedLink::new(
            pattern(outstanding, 0),
            cfg(variant, CounterEngine::DeadlineWheel, step, sticky, base_budget),
            BlackHoleSub,
            seed,
        );
        if telemetry {
            wheel.enable_telemetry(TelemetryConfig::default());
        }
        // Long enough for the stall to trip every armed counter and the
        // recovery FSM to sever, abort, and reset.
        let horizon = base_budget * 8 + 2_000;
        assert_lockstep(&mut reference, &mut wheel, horizon);
        prop_assert!(reference.tmu.faults_detected() > 0, "stall must be detected");
    }

    /// Every deadline falls due on a quiet cycle: the memory answers
    /// later than any budget allows and the manager's window is full, so
    /// once the bursts' data has moved no wire is active until the
    /// timeouts fire. The wheel engine skips those cycles' commits; the
    /// first fault must still match the reference's cycle, kind, phase
    /// and ID.
    #[test]
    fn quiet_cycle_expiries_fire_identically(
        seed in 0u64..1_000_000,
        step in 1u64..=64,
        sticky in any::<bool>(),
        variant_sel in 0u8..2,
        base_budget in 32u64..512,
        outstanding in 1usize..8,
        telemetry in any::<bool>(),
    ) {
        let variant = if variant_sel == 0 { TmuVariant::TinyCounter } else { TmuVariant::FullCounter };
        // Beyond the Tiny-Counter total (4x base) and each phase, even
        // after prescaler rounding (detection by budget + 3 steps).
        let late = base_budget * 6 + step * 4;
        let mem = MemConfig {
            b_latency: late,
            r_warmup: late,
            r_beat_gap: 0,
            max_inflight: 8,
        };
        let mut reference = GuardedLink::new(
            pattern(outstanding, 0),
            cfg(variant, CounterEngine::PerCycle, step, sticky, base_budget),
            MemSub::new(mem),
            seed,
        );
        let mut wheel = GuardedLink::new(
            pattern(outstanding, 0),
            cfg(variant, CounterEngine::DeadlineWheel, step, sticky, base_budget),
            MemSub::new(mem),
            seed,
        );
        if telemetry {
            wheel.enable_telemetry(TelemetryConfig::default());
        }
        assert_lockstep(&mut reference, &mut wheel, base_budget * 8 + 2_000);
        let first = |link: &GuardedLink<MemSub>| {
            link.tmu
                .error_log()
                .iter()
                .next()
                .map(|r| (r.cycle, r.kind, r.phase, r.id))
        };
        let expected = first(&reference);
        prop_assert!(expected.is_some(), "late responses must be caught");
        prop_assert_eq!(first(&wheel), expected);
    }

    /// Injected mid-burst faults (suppressed responses and stuck valids)
    /// with recovery: both engines log identical records at identical
    /// cycles and recover identically.
    #[test]
    fn injected_faults_fire_identically(
        seed in 0u64..1_000_000,
        step in 1u64..=64,
        sticky in any::<bool>(),
        variant_sel in 0u8..2,
        class_sel in 0u8..4,
        at_cycle in 50u64..500,
        telemetry in any::<bool>(),
    ) {
        let variant = if variant_sel == 0 { TmuVariant::TinyCounter } else { TmuVariant::FullCounter };
        let class = match class_sel {
            0 => FaultClass::BValidSuppress,
            1 => FaultClass::AwReadyDrop,
            2 => FaultClass::RValidSuppress,
            _ => FaultClass::WReadyDrop,
        };
        let base_budget = 600;
        let mem = MemConfig {
            b_latency: 2,
            r_warmup: 2,
            r_beat_gap: 0,
            max_inflight: 8,
        };
        let mut reference = GuardedLink::new(
            pattern(4, 1),
            cfg(variant, CounterEngine::PerCycle, step, sticky, base_budget),
            MemSub::new(mem),
            seed,
        );
        let mut wheel = GuardedLink::new(
            pattern(4, 1),
            cfg(variant, CounterEngine::DeadlineWheel, step, sticky, base_budget),
            MemSub::new(mem),
            seed,
        );
        if telemetry {
            wheel.enable_telemetry(TelemetryConfig::default());
        }
        reference.inject(FaultPlan::new(class, Trigger::AtCycle(at_cycle)));
        wheel.inject(FaultPlan::new(class, Trigger::AtCycle(at_cycle)));
        assert_lockstep(&mut reference, &mut wheel, base_budget * 8 + 3_000);
        prop_assert!(reference.tmu.faults_detected() > 0, "injected fault must be detected");
    }
}
