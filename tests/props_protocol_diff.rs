//! Differential property: the TMU's protocol checks against the
//! standalone [`ProtocolChecker`].
//!
//! Inside the TMU, protocol checking is split in two. The stateless wire
//! rules (stability, burst legality, strobes) run in the TMU's
//! `WireRules`. The context rules (W without AW, WLAST early or missing,
//! B without a transaction or before WLAST, R without a transaction,
//! RLAST early or missing) are answered by the guards from the lookups
//! their OTT already makes. The standalone checker answers the same rules
//! from its own shadow queues. Here both watch the same manager-side
//! wires, and the TMU's first fault must carry exactly the checker's
//! first violations: the same cycle and the same set of (rule, id).
//!
//! # Why the two agree up to the first violation
//!
//! Before the first violation the wires are legal, so the OTT and the
//! checker's queues hold the same transactions in the same order. Every
//! violation severs the link in the same commit, so nothing after it has
//! to agree. A full OTT cannot make them diverge: when the OTT or the
//! remapper's per-ID quota is full, the TMU holds the address (`ready`
//! stays low), so the address does not fire on the manager side either
//! and neither side tracks it. An address that changes while it waits
//! is held as well, so every address that fires is in the OTT exactly as
//! it fired.
//!
//! # Order of records within a fault cycle
//!
//! The comparison is on sets because the order differs. The TMU logs,
//! in order: the guards' timeouts (write, then read); the wire rules
//! (stability on AW, W, B, AR, R; then AW burst legality, the W strobe
//! rule and AR burst legality); the write guard's context rules (W,
//! then B); the read guard's (R). The checker reports by channel:
//! stability, then AW, W, B, AR and R, each with its wire and context
//! rules together.
//!
//! Two stimuli drive the comparison: a traffic generator and a memory
//! with random wire corruption on both sides of the TMU (rate 0 is
//! healthy traffic, which must never fault), and arbitrary wires that
//! stay mostly stable while waiting. Both counter variants and both
//! counter engines run. Case counts follow `PROPTEST_CASES` when set.

use axi_tmu::axi4::prelude::*;
use axi_tmu::sim::SimRng;
use axi_tmu::soc::manager::{TrafficGen, TrafficPattern};
use axi_tmu::soc::memory::{MemConfig, MemSub};
use axi_tmu::tmu::{BudgetConfig, CounterEngine, FaultKind, Tmu, TmuConfig, TmuVariant};
use proptest::prelude::*;

mod common;
use common::{cases, ArbitraryWires};

/// Budgets wide enough that healthy and corrupted traffic alike reach
/// their protocol violations before any timeout.
fn wide_budgets() -> BudgetConfig {
    BudgetConfig {
        addr_handshake: 2_000,
        data_entry: 2_000,
        first_data: 2_000,
        per_beat: 100,
        resp_wait: 2_000,
        resp_ready: 2_000,
        queue_wait_per_txn: 200,
        queue_wait_per_beat: 20,
        tiny_total_override: None,
    }
}

fn tmu_config(fc: bool, wheel: bool, outstanding: usize) -> TmuConfig {
    TmuConfig::builder()
        .variant(if fc {
            TmuVariant::FullCounter
        } else {
            TmuVariant::TinyCounter
        })
        .engine(if wheel {
            CounterEngine::DeadlineWheel
        } else {
            CounterEngine::PerCycle
        })
        .max_uniq_ids(4)
        .txn_per_id(outstanding as u32)
        .budgets(wide_budgets())
        .build()
        .expect("valid differential configuration")
}

/// A violation as compared: rule and raw ID.
type Key = (&'static str, Option<u16>);

fn sorted(mut keys: Vec<Key>) -> Vec<Key> {
    keys.sort_unstable();
    keys
}

/// How one case ended.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Neither side flagged anything.
    Clean,
    /// The TMU timed out first; nothing to compare.
    TimedOut,
    /// Both flagged these protocol violations in the same cycle.
    Agreed(Vec<Key>),
}

/// Once either side flags something in `cycle`, asserts that the TMU's
/// protocol records of that cycle are exactly the checker's violations,
/// and says how the case ended; `None` while both are quiet.
fn compare_cycle(
    tmu: &Tmu,
    faults_before: u64,
    cycle: u64,
    checker: &[Violation],
) -> Option<Outcome> {
    let faulted = tmu.faults_detected() > faults_before;
    if !faulted && checker.is_empty() {
        return None;
    }
    let mut protocol = Vec::new();
    let mut timeouts = 0;
    if faulted {
        for rec in tmu.error_log().iter().filter(|r| r.cycle == cycle) {
            match rec.kind {
                FaultKind::Protocol(rule) => protocol.push((rule.mnemonic(), rec.id.map(|i| i.0))),
                _ => timeouts += 1,
            }
        }
    }
    let expected: Vec<Key> = checker
        .iter()
        .map(|v| (v.rule.mnemonic(), v.id.map(|i| i.0)))
        .collect();
    let (protocol, expected) = (sorted(protocol), sorted(expected));
    assert_eq!(
        protocol, expected,
        "cycle {cycle}: TMU protocol records vs standalone checker ({timeouts} timeouts)"
    );
    Some(if protocol.is_empty() {
        Outcome::TimedOut
    } else {
        Outcome::Agreed(protocol)
    })
}

/// Corrupts one wire of the manager-side port (before the TMU forwards
/// it). Only ever lowers `valid`/`ready` or changes a payload, which the
/// traffic generator tolerates.
fn corrupt_manager_side(port: &mut AxiPort, rng: &mut SimRng) {
    match rng.below(8) {
        0 => port.aw.corrupt(|aw| aw.id = AxiId(aw.id.0 ^ 1)),
        1 => port.aw.corrupt(|aw| {
            aw.len = BurstLen::from_beats(1 + rng.below(8) as u16).expect("1..=8 beats");
        }),
        2 => port.aw.suppress_valid(),
        3 => port.w.corrupt(|w| w.last = !w.last),
        4 => port.w.corrupt(|w| w.strb = 0),
        5 => port.w.suppress_valid(),
        6 => port.ar.corrupt(|ar| {
            ar.len = BurstLen::from_beats(1 + rng.below(8) as u16).expect("1..=8 beats");
        }),
        _ => port.ar.suppress_valid(),
    }
}

/// Corrupts one wire of the subordinate-side port (before the TMU
/// forwards it back). Never raises a `ready` the memory did not drive.
fn corrupt_subordinate_side(port: &mut AxiPort, rng: &mut SimRng) {
    match rng.below(8) {
        0 => port.b.corrupt(|b| b.id = AxiId(b.id.0 ^ 1)),
        1 => port.b.corrupt(|b| b.id = AxiId(b.id.0 ^ 4)),
        2 => port.b.suppress_valid(),
        3 => port.r.corrupt(|r| r.id = AxiId(r.id.0 ^ 1)),
        4 => port.r.corrupt(|r| r.last = !r.last),
        5 => port.r.suppress_valid(),
        6 => port.w.set_ready(false),
        _ => port.aw.set_ready(false),
    }
}

/// Runs traffic through the TMU into a memory for up to `cycles`
/// cycles, corrupting each side's wires with probability `rate_ppm`
/// per million per cycle, until the first fault or violation.
fn run_corrupted(
    cfg: TmuConfig,
    outstanding: usize,
    r_beat_gap: u64,
    rate_ppm: u64,
    seed: u64,
    cycles: u64,
) -> Outcome {
    let pattern = TrafficPattern {
        burst_lens: vec![1, 2, 4, 8],
        max_outstanding: outstanding,
        issue_gap: 0,
        ..TrafficPattern::default()
    };
    let mut mgr = TrafficGen::new(pattern, seed);
    let mut tmu = Tmu::new(cfg);
    let mut mem = MemSub::new(MemConfig {
        r_beat_gap,
        max_inflight: 4,
        ..MemConfig::default()
    });
    let mut checker = ProtocolChecker::new();
    let mut rng = SimRng::seed(seed).split("corruption");
    let (mut mgr_port, mut sub_port) = (AxiPort::new(), AxiPort::new());
    for cycle in 0..cycles {
        mgr_port.begin_cycle();
        sub_port.begin_cycle();
        mgr.drive(&mut mgr_port, cycle);
        if rng.below(1_000_000) < rate_ppm {
            corrupt_manager_side(&mut mgr_port, &mut rng);
        }
        tmu.forward_request(&mgr_port, &mut sub_port);
        mem.drive(&mut sub_port);
        if rng.below(1_000_000) < rate_ppm {
            corrupt_subordinate_side(&mut sub_port, &mut rng);
        }
        tmu.forward_response(&sub_port, &mut mgr_port);
        let violations = checker.observe(&mgr_port, cycle);
        mgr.commit(&mgr_port, cycle);
        mem.commit(&sub_port);
        let before = tmu.faults_detected();
        tmu.commit_port(&mgr_port, cycle);
        tmu.assert_consistent();
        if let Some(outcome) = compare_cycle(&tmu, before, cycle, &violations) {
            return outcome;
        }
    }
    Outcome::Clean
}

/// Runs arbitrary wires through the TMU until the first fault or
/// violation.
fn run_arbitrary(cfg: TmuConfig, seed: u64, cycles: u64) -> Outcome {
    let mut tmu = Tmu::new(cfg);
    let mut wires = ArbitraryWires::new(seed);
    let mut checker = ProtocolChecker::new();
    let (mut mgr_port, mut sub_port) = (AxiPort::new(), AxiPort::new());
    for cycle in 0..cycles {
        mgr_port.begin_cycle();
        sub_port.begin_cycle();
        wires.drive_manager(&mut mgr_port);
        tmu.forward_request(&mgr_port, &mut sub_port);
        wires.drive_subordinate(&mut sub_port);
        tmu.forward_response(&sub_port, &mut mgr_port);
        let violations = checker.observe(&mgr_port, cycle);
        wires.settle(&mgr_port);
        let before = tmu.faults_detected();
        tmu.commit_port(&mgr_port, cycle);
        tmu.assert_consistent();
        if let Some(outcome) = compare_cycle(&tmu, before, cycle, &violations) {
            return outcome;
        }
    }
    Outcome::Clean
}

proptest! {
    #![proptest_config(cases(48))]

    /// Healthy traffic never faults, and corrupted traffic faults first
    /// in exactly the cycle and with exactly the violations the
    /// standalone checker reports.
    #[test]
    fn tmu_first_protocol_fault_matches_checker(
        seed in 0u64..1_000_000,
        fc in any::<bool>(),
        wheel in any::<bool>(),
        outstanding in 1usize..9,
        r_beat_gap in 0u64..3,
        rate_ppm in prop_oneof![Just(0u64), 2_000u64..20_000],
    ) {
        let outcome = run_corrupted(
            tmu_config(fc, wheel, outstanding),
            outstanding,
            r_beat_gap,
            rate_ppm,
            seed,
            4_000,
        );
        if rate_ppm == 0 {
            prop_assert_eq!(outcome, Outcome::Clean);
        }
    }

    /// The same agreement on arbitrary wires, which reach the full OTT,
    /// the remapper quota and every burst-legality rule.
    #[test]
    fn tmu_matches_checker_on_arbitrary_wires(
        seed in 0u64..1_000_000,
        fc in any::<bool>(),
        wheel in any::<bool>(),
        outstanding in 1usize..5,
    ) {
        run_arbitrary(tmu_config(fc, wheel, outstanding), seed, 400);
    }
}

/// Over a fixed sweep of both stimuli, every context rule is the first
/// violation of some run: the properties above exercise all of them.
#[test]
fn sweep_reaches_every_context_rule() {
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..300u64 {
        let cfg = || tmu_config(seed % 2 == 0, seed % 3 != 0, 4);
        for outcome in [
            run_corrupted(cfg(), 4, seed % 3, 10_000, seed, 4_000),
            run_arbitrary(cfg(), seed, 400),
        ] {
            if let Outcome::Agreed(keys) = outcome {
                seen.extend(keys.into_iter().map(|(rule, _)| rule));
            }
        }
    }
    for rule in [
        Rule::WWithoutAw,
        Rule::WlastEarly,
        Rule::WlastMissing,
        Rule::BWithoutTxn,
        Rule::BBeforeWlast,
        Rule::RWithoutTxn,
        Rule::RlastEarly,
        Rule::RlastMissing,
    ] {
        assert!(
            seen.contains(rule.mnemonic()),
            "{rule} never came first: {seen:?}"
        );
    }
}
