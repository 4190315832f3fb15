//! The event-driven hot-path benchmark scenarios behind
//! `BENCH_hotpath.json`.
//!
//! The scenario is the paper's total-stall worst case at full OTT
//! occupancy: 128 one-beat writes are accepted by a subordinate that
//! never responds ([`BlackHoleSub`]), so 128 timeout counters sit armed
//! in `RespWait` for the entire stall budget. Three ways to run it:
//!
//! 1. **Per-cycle reference** — every counter ticked every cycle
//!    (`CounterEngine::PerCycle`): O(outstanding) work per cycle.
//! 2. **Deadline wheel, stepped** — same cycle-by-cycle harness loop,
//!    but commits only touch counters whose deadline is due
//!    (`CounterEngine::DeadlineWheel`).
//! 3. **Deadline wheel, fast-forward** — the harness loop additionally
//!    skips the provably idle stall stretch in O(1): it jumps the link
//!    to [`tmu::Tmu::next_deadline`] with
//!    [`GuardedLink::fast_forward_to`].
//!
//! All three must report the fault at the identical cycle with identical
//! logs — asserted by the unit tests here and the differential property
//! tests in `tests/props_fastpath.rs`.

use soc::link::{BlackHoleSub, GuardedLink};
use soc::manager::TrafficPattern;
use soc::memory::MemSub;
use soc::regulated::RegulatedLink;
use soc::system::{System, SystemConfig, MEM_BASE};
use tmu::{BudgetConfig, CounterEngine, TelemetryConfig, TmuConfig, TmuVariant, TraceEvent};
use tmu_regulate::{DirBudget, RegulationMode, RegulatorConfig};

/// Outstanding transactions at saturation, capped by the manager's
/// issue window. The TMU itself is provisioned with headroom (4 unique
/// IDs × 128 per ID) so the manager's random ID mix never stalls on a
/// per-ID quota before reaching full occupancy.
pub const HOTPATH_OUTSTANDING: usize = 128;

/// Stall budget of the headline benchmark run: long enough that the
/// saturated stall stretch dominates the fill phase.
pub const HOTPATH_BUDGET: u64 = 20_000;

/// Prescaler step of the benchmark configuration.
pub const HOTPATH_PRESCALE: u64 = 32;

fn hotpath_pattern() -> TrafficPattern {
    TrafficPattern {
        write_ratio: 1.0,
        burst_lens: vec![1],
        ids: vec![0, 1, 2, 3],
        addr_base: 0x1000,
        addr_span: 1,
        max_outstanding: HOTPATH_OUTSTANDING,
        issue_gap: 0,
        total_txns: None,
        verify_data: false,
    }
}

fn hotpath_budgets(budget: u64) -> BudgetConfig {
    BudgetConfig {
        addr_handshake: budget,
        data_entry: budget,
        first_data: budget,
        per_beat: budget,
        resp_wait: budget,
        resp_ready: budget,
        queue_wait_per_txn: 0,
        queue_wait_per_beat: 0,
        tiny_total_override: Some(budget),
    }
}

/// The benchmark TMU configuration: 128 outstanding, prescaler 32 with
/// the sticky bit, every phase budgeted `budget` cycles.
///
/// # Panics
///
/// Panics if `budget` is zero (the builder rejects empty phase
/// budgets).
#[must_use]
pub fn hotpath_cfg(variant: TmuVariant, engine: CounterEngine, budget: u64) -> TmuConfig {
    TmuConfig::builder()
        .variant(variant)
        .max_uniq_ids(4)
        .txn_per_id(128)
        .prescaler(HOTPATH_PRESCALE)
        .budgets(hotpath_budgets(budget))
        .engine(engine)
        .build()
        .expect("valid hot-path configuration")
}

/// Outcome of one saturated-stall run (any engine/harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallRun {
    /// Cycle of the first fault record.
    pub first_fault_cycle: u64,
    /// In-flight cycles of the first timed-out transaction.
    pub inflight_cycles: u64,
    /// Harness step() invocations actually executed.
    pub steps_executed: u64,
    /// Simulated cycles elapsed (including fast-forwarded ones).
    pub cycles_elapsed: u64,
}

/// The concrete link type of the saturated-stall scenario.
pub type StallLink = GuardedLink<BlackHoleSub>;

/// Builds the saturated total-stall link on `engine`, before its first
/// cycle.
#[must_use]
pub fn stall_link(variant: TmuVariant, engine: CounterEngine, budget: u64) -> StallLink {
    GuardedLink::new(
        hotpath_pattern(),
        hotpath_cfg(variant, engine, budget),
        BlackHoleSub,
        7,
    )
}

fn cycle_limit(budget: u64) -> u64 {
    budget * 4 + 100_000
}

fn stall_result(link: &StallLink, steps_executed: u64) -> StallRun {
    let fault = link.tmu.last_fault().expect("fault recorded");
    StallRun {
        first_fault_cycle: fault.cycle,
        inflight_cycles: fault.inflight_cycles,
        steps_executed,
        cycles_elapsed: link.cycle(),
    }
}

/// Runs the saturated total-stall scenario cycle by cycle until the
/// first timeout fires.
///
/// # Panics
///
/// Panics if the saturated stall fails to time out within the
/// cycle limit — a monitor bug, not a caller error.
#[must_use]
pub fn run_saturated_stall(variant: TmuVariant, engine: CounterEngine, budget: u64) -> StallRun {
    let mut link = stall_link(variant, engine, budget);
    let detected = link.run_until(cycle_limit(budget), |l| l.tmu.faults_detected() > 0);
    assert!(detected, "saturated stall must time out");
    stall_result(&link, link.cycle())
}

/// Builds the saturated-stall link on the deadline-wheel engine with the
/// unified telemetry layer either enabled (default config) or left
/// disabled. A default hub is already disabled, so with `telemetry` off
/// this is the plain wheel link: `disabled_overhead_ratio` times two
/// copies of one program, an A/A reading of the interleaved timer's
/// noise rather than a cost of the disabled hub.
#[must_use]
pub fn telemetry_stall_link(variant: TmuVariant, budget: u64, telemetry: bool) -> StallLink {
    let mut link = stall_link(variant, CounterEngine::DeadlineWheel, budget);
    if telemetry {
        link.enable_telemetry(TelemetryConfig::default());
    }
    link
}

/// Runs [`telemetry_stall_link`] cycle by cycle until the first timeout
/// fires.
///
/// # Panics
///
/// Panics if the saturated stall fails to time out within the
/// cycle limit — a monitor bug, not a caller error.
#[must_use]
pub fn run_saturated_stall_with_telemetry(
    variant: TmuVariant,
    budget: u64,
    telemetry: bool,
) -> StallRun {
    let mut link = telemetry_stall_link(variant, budget, telemetry);
    let detected = link.run_until(cycle_limit(budget), |l| l.tmu.faults_detected() > 0);
    assert!(detected, "saturated stall must time out");
    stall_result(&link, link.cycle())
}

/// Runs the same scenario under the deadline-wheel engine with
/// event-driven fast-forward: once the OTT is saturated and every issued
/// write's data has been delivered, nothing can change until the
/// earliest armed deadline (`Tmu::next_deadline`), so the idle stretch
/// is skipped in O(1) instead of being stepped through.
///
/// # Panics
///
/// Panics if the saturated stall fails to time out within the
/// cycle limit — a monitor bug, not a caller error.
#[must_use]
pub fn run_saturated_stall_fastforward(variant: TmuVariant, budget: u64) -> StallRun {
    let mut link = stall_link(variant, CounterEngine::DeadlineWheel, budget);
    let limit = cycle_limit(budget);
    let mut steps = 0u64;
    while link.tmu.faults_detected() == 0 {
        assert!(link.cycle() < limit, "saturated stall must time out");
        link.step();
        steps += 1;
        // Quiescence proof for this scenario: the OTT is saturated (the
        // manager's next AW is stalled on a constant wire state), every
        // issued one-beat write has delivered its data beat (no W
        // handshake pending), and the subordinate never drives a
        // response. No guard transition can occur before the earliest
        // armed timeout deadline, which is itself simulated. A severed
        // TMU has no deadline, so a detected fault never skips.
        let stats = link.mgr.stats();
        if link.tmu.outstanding() == HOTPATH_OUTSTANDING && stats.w_beats == stats.writes_issued {
            if let Some(deadline) = link.tmu.next_deadline() {
                link.fast_forward_to(deadline.min(limit));
            }
        }
    }
    stall_result(&link, steps)
}

/// Cycles simulated by the traffic-regulation scenarios below: long
/// enough for the offender to fill its outstanding window, overrun the
/// budget for the required consecutive windows, and be severed, with a
/// comfortable post-isolation stretch for the victim.
pub const REGULATE_CYCLES: u64 = 20_000;

fn regulate_victim_pattern() -> TrafficPattern {
    TrafficPattern {
        write_ratio: 1.0,
        burst_lens: vec![4],
        ids: vec![0, 1],
        addr_base: 0x8000_0000,
        addr_span: 0x10_0000,
        max_outstanding: 2,
        issue_gap: 16,
        total_txns: None,
        verify_data: false,
    }
}

fn regulate_offender_pattern() -> TrafficPattern {
    TrafficPattern {
        write_ratio: 1.0,
        burst_lens: vec![16],
        ids: vec![0, 1, 2, 3],
        addr_base: 0x8010_0000,
        addr_span: 0x10_0000,
        max_outstanding: 8,
        issue_gap: 0,
        total_txns: None,
        verify_data: false,
    }
}

/// A budget the offender pattern overruns within its first two windows.
fn overload_cfg() -> RegulatorConfig {
    RegulatorConfig::builder()
        .write_budget(DirBudget {
            bytes_per_window: 512,
            txns_per_window: 4,
        })
        .read_budget(DirBudget::unlimited())
        .window_cycles(256)
        .mode(RegulationMode::Isolate { overrun_windows: 2 })
        .build()
        .expect("valid overload-isolation configuration")
}

/// Outcome of one `overload_isolation` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadRun {
    /// Cycle at which the regulator severed the offender.
    pub isolated_at: u64,
    /// Transactions the victim manager completed over the full run.
    pub victim_completed: u64,
    /// Transactions the offender completed before being severed.
    pub offender_completed: u64,
    /// Protocol faults the trunk TMU recorded (must stay zero: greed is
    /// wire-legal).
    pub trunk_faults: u64,
}

/// The `overload_isolation` scenario: a well-behaved victim and a
/// back-to-back offender share one memory port behind a trunk TMU; a
/// tight isolating regulator on the offender's port must sever it while
/// the victim and the trunk monitor ride through untouched.
///
/// # Panics
///
/// Panics if the offender is not isolated within the run — a regulator
/// bug, not a caller error.
#[must_use]
pub fn run_overload_isolation() -> OverloadRun {
    let mut link = RegulatedLink::new(
        vec![
            (regulate_victim_pattern(), None),
            (regulate_offender_pattern(), Some(overload_cfg())),
        ],
        Some(TmuConfig::default()),
        MemSub::default(),
        0x0E7A,
    );
    let isolated = link.run_until(REGULATE_CYCLES, |l| l.fabric().any_isolated());
    assert!(isolated, "the offender must be isolated within the run");
    let isolated_at = link.cycle();
    link.run(REGULATE_CYCLES.saturating_sub(isolated_at));
    OverloadRun {
        isolated_at,
        victim_completed: link.stats(0).total_completed(),
        offender_completed: link.stats(1).total_completed(),
        trunk_faults: link.tmu().expect("trunk TMU attached").faults_detected(),
    }
}

/// The concrete link type of the pass-through measurement.
pub type PassthroughLink = RegulatedLink<MemSub>;

/// Builds the two-manager pass-through measurement link. With
/// `attach_disabled` the ports carry *disabled* regulators (the
/// wire-transparent pass-through being costed); without it the slots
/// are empty — the bare baseline. Both links carry identical traffic,
/// so any completed-transaction checksum must match between them.
///
/// # Panics
///
/// Panics if the builder rejects the disabled configuration — a
/// configuration-validation bug, not a caller error.
#[must_use]
pub fn passthrough_link(attach_disabled: bool) -> PassthroughLink {
    let slot = || {
        attach_disabled.then(|| {
            RegulatorConfig::builder()
                .enabled(false)
                .build()
                .expect("a disabled configuration is always valid")
        })
    };
    RegulatedLink::new(
        vec![
            (regulate_victim_pattern(), slot()),
            (regulate_victim_pattern(), slot()),
        ],
        Some(TmuConfig::default()),
        MemSub::default(),
        0xAB5E,
    )
}

/// Runs [`passthrough_link`] for `cycles` and returns the total
/// completed transactions as a checksum.
#[must_use]
pub fn run_regulated_passthrough(attach_disabled: bool, cycles: u64) -> u64 {
    let mut link = passthrough_link(attach_disabled);
    link.run(cycles);
    link.stats(0).total_completed() + link.stats(1).total_completed()
}

/// Cycles the busy-traffic telemetry measurements simulate.
pub const BUSY_CYCLES: u64 = 40_000;

/// The Fig. 10 system on busy traffic, shaped like busybench's
/// `soc_fig10` workload: a Full-Counter TMU on the Ethernet port, a
/// Tiny-Counter TMU (prescaler 32) on the memory port, and the CPU
/// confined to a 16 KiB memory window. With `telemetry` the Ethernet
/// TMU records with the default configuration.
///
/// # Panics
///
/// Never in practice: the TMU configurations are fixed and valid.
#[must_use]
pub fn busy_system(telemetry: bool) -> System {
    let defaults = SystemConfig::default();
    let monitor = |variant, prescaler| {
        TmuConfig::builder()
            .variant(variant)
            .prescaler(prescaler)
            .budgets(BudgetConfig::system_level())
            .check_protocol(false)
            .build()
            .expect("valid busy-system TMU configuration")
    };
    let mut system = System::new(SystemConfig {
        tmu: monitor(TmuVariant::FullCounter, 1),
        mem_tmu: Some(monitor(TmuVariant::TinyCounter, 32)),
        cpu_pattern: TrafficPattern {
            addr_base: MEM_BASE,
            addr_span: 0x4000,
            ..defaults.cpu_pattern.clone()
        },
        seed: 1,
        ..defaults
    });
    if telemetry {
        system
            .tmu_mut()
            .enable_telemetry(TelemetryConfig::default());
    }
    system
}

/// One recorded event: `(cycle, source, event)`.
pub type EventMix = Vec<(u64, &'static str, TraceEvent)>;

/// Every event the busy system's Ethernet TMU records over `cycles`
/// cycles, oldest first: the event mix a busy simulation feeds
/// `TelemetryHub::record`.
///
/// # Panics
///
/// Panics if the capture ring overflowed, which would drop events.
#[must_use]
pub fn busy_event_mix(cycles: u64) -> EventMix {
    let mut system = busy_system(false);
    system.tmu_mut().enable_telemetry(TelemetryConfig {
        ring_capacity: 1 << 20,
        ..TelemetryConfig::default()
    });
    system.run(cycles);
    let events = system.tmu().telemetry().events();
    assert_eq!(events.dropped(), 0, "the capture ring kept every event");
    events
        .iter()
        .map(|r| (r.cycle, r.source, r.event))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_BUDGET: u64 = 2_000;

    #[test]
    fn overload_isolation_severs_offender_and_spares_victim() {
        let run = run_overload_isolation();
        assert_eq!(
            run.trunk_faults, 0,
            "greed is wire-legal: trunk stays clean"
        );
        assert!(
            run.victim_completed > run.offender_completed,
            "the victim must outlive the severed offender \
             ({} vs {})",
            run.victim_completed,
            run.offender_completed
        );
    }

    #[test]
    fn passthrough_checksums_match_the_bare_baseline() {
        assert_eq!(
            run_regulated_passthrough(false, REGULATE_CYCLES),
            run_regulated_passthrough(true, REGULATE_CYCLES),
            "a disabled regulator must not perturb traffic"
        );
    }

    #[test]
    fn engines_agree_cycle_for_cycle() {
        for variant in [TmuVariant::TinyCounter, TmuVariant::FullCounter] {
            let reference = run_saturated_stall(variant, CounterEngine::PerCycle, TEST_BUDGET);
            let wheel = run_saturated_stall(variant, CounterEngine::DeadlineWheel, TEST_BUDGET);
            assert_eq!(
                (reference.first_fault_cycle, reference.inflight_cycles),
                (wheel.first_fault_cycle, wheel.inflight_cycles),
                "{variant:?}: wheel must match the per-cycle reference"
            );
            assert_eq!(reference.steps_executed, wheel.steps_executed);
        }
    }

    #[test]
    fn fastforward_agrees_and_skips_most_cycles() {
        for variant in [TmuVariant::TinyCounter, TmuVariant::FullCounter] {
            let stepped = run_saturated_stall(variant, CounterEngine::DeadlineWheel, TEST_BUDGET);
            let fast = run_saturated_stall_fastforward(variant, TEST_BUDGET);
            assert_eq!(
                (stepped.first_fault_cycle, stepped.inflight_cycles),
                (fast.first_fault_cycle, fast.inflight_cycles),
                "{variant:?}: fast-forward must not change the outcome"
            );
            assert!(
                fast.steps_executed * 4 < stepped.steps_executed,
                "{variant:?}: fast-forward must skip the idle stretch \
                 ({} vs {} steps)",
                fast.steps_executed,
                stepped.steps_executed
            );
        }
    }

    #[test]
    fn telemetry_does_not_change_the_outcome() {
        for variant in [TmuVariant::TinyCounter, TmuVariant::FullCounter] {
            let off = run_saturated_stall_with_telemetry(variant, TEST_BUDGET, false);
            let on = run_saturated_stall_with_telemetry(variant, TEST_BUDGET, true);
            assert_eq!(
                (off.first_fault_cycle, off.inflight_cycles),
                (on.first_fault_cycle, on.inflight_cycles),
                "{variant:?}: telemetry must be observation-only"
            );
            let plain = run_saturated_stall(variant, CounterEngine::DeadlineWheel, TEST_BUDGET);
            assert_eq!(off, plain, "disabled telemetry is the plain wheel run");
        }
    }

    /// The deterministic outputs `bench_hotpath` records, at the
    /// benchmark's own budget.
    #[test]
    fn benchmark_outcomes_are_pinned() {
        for (variant, fault_cycle) in [
            (TmuVariant::TinyCounter, 20_031),
            (TmuVariant::FullCounter, 20_032),
        ] {
            let stepped =
                run_saturated_stall(variant, CounterEngine::DeadlineWheel, HOTPATH_BUDGET);
            let fast = run_saturated_stall_fastforward(variant, HOTPATH_BUDGET);
            assert_eq!(
                (stepped.first_fault_cycle, stepped.steps_executed),
                (fault_cycle, fault_cycle + 1),
                "{variant:?}: stepped wheel run"
            );
            assert_eq!(
                (fast.first_fault_cycle, fast.steps_executed),
                (fault_cycle, 130),
                "{variant:?}: fast-forward run"
            );
        }
        assert_eq!(
            run_overload_isolation(),
            OverloadRun {
                isolated_at: 512,
                victim_completed: 1246,
                offender_completed: 8,
                trunk_faults: 0,
            }
        );
    }

    #[test]
    fn scenario_reaches_full_occupancy() {
        let mut link = stall_link(
            TmuVariant::TinyCounter,
            CounterEngine::DeadlineWheel,
            TEST_BUDGET,
        );
        link.run_until(cycle_limit(TEST_BUDGET), |l| {
            l.tmu.outstanding() == HOTPATH_OUTSTANDING
        });
        assert_eq!(link.tmu.outstanding(), HOTPATH_OUTSTANDING);
    }
}
