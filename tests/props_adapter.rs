//! The observe/commit adapter is the port-taking commit.
//!
//! `Tmu` commits from the settled manager-side port
//! (`commit_port(mgr, cycle)`), `Regulator` from both settled sides
//! (`commit_port(mgr, out, cycle)`), after `&self` forward passes. The
//! adapter serves component loops written against a separate observe
//! pass: `Regulator::forward_response(&mut self, ..)` latches the
//! downstream B and R the commit reads, `observe(mgr)` latches the
//! manager side, and `commit(cycle)` commits from the latches. Two
//! copies of each unit, driven by identical arbitrary wires, one per
//! commit form, must drive identical wires after every pass and hold
//! identical state after every commit. The wires sever the TMU (tight
//! budgets), drain the W beats of aborted bursts, and isolate and
//! release the regulator, which absorbs the stale responses of its
//! aborted transactions meanwhile. Case counts follow `PROPTEST_CASES`
//! when set.

use axi_tmu::axi4::prelude::*;
use axi_tmu::sim::SimRng;
use axi_tmu::tmu::{
    BudgetConfig, CounterEngine, TelemetryConfig, Tmu, TmuConfig, TmuState, TmuVariant,
};
use axi_tmu::tmu_regulate::{DirBudget, RegulationMode, Regulator, RegulatorConfig};
use proptest::prelude::*;

mod common;
use common::{cases, ArbitraryWires};

/// The two commit forms under comparison.
trait Unit {
    fn forward_request(&self, mgr: &AxiPort, sub: &mut AxiPort);
    /// The response pass of the port-taking form.
    fn forward_response(&self, sub: &AxiPort, mgr: &mut AxiPort);
    /// The response pass of the adapter.
    fn latch_response(&mut self, sub: &AxiPort, mgr: &mut AxiPort);
    fn backprop_response_ready(&self, mgr: &AxiPort, sub: &mut AxiPort);
    fn commit_port(&mut self, mgr: &AxiPort, sub: &AxiPort, cycle: u64);
    fn observe(&mut self, mgr: &AxiPort);
    fn commit(&mut self, cycle: u64);
}

impl Unit for Tmu {
    fn forward_request(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        Tmu::forward_request(self, mgr, sub);
    }
    fn forward_response(&self, sub: &AxiPort, mgr: &mut AxiPort) {
        Tmu::forward_response(self, sub, mgr);
    }
    fn latch_response(&mut self, sub: &AxiPort, mgr: &mut AxiPort) {
        Tmu::forward_response(self, sub, mgr);
    }
    fn backprop_response_ready(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        Tmu::backprop_response_ready(self, mgr, sub);
    }
    fn commit_port(&mut self, mgr: &AxiPort, _sub: &AxiPort, cycle: u64) {
        Tmu::commit_port(self, mgr, cycle);
    }
    fn observe(&mut self, mgr: &AxiPort) {
        Tmu::observe(self, mgr);
    }
    fn commit(&mut self, cycle: u64) {
        Tmu::commit(self, cycle);
    }
}

impl Unit for Regulator {
    fn forward_request(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        Regulator::forward_request(self, mgr, sub);
    }
    fn forward_response(&self, sub: &AxiPort, mgr: &mut AxiPort) {
        Regulator::drive_response(self, sub, mgr);
    }
    fn latch_response(&mut self, sub: &AxiPort, mgr: &mut AxiPort) {
        Regulator::forward_response(self, sub, mgr);
    }
    fn backprop_response_ready(&self, mgr: &AxiPort, sub: &mut AxiPort) {
        Regulator::backprop_response_ready(self, mgr, sub);
    }
    fn commit_port(&mut self, mgr: &AxiPort, sub: &AxiPort, cycle: u64) {
        Regulator::commit_port(self, mgr, sub, cycle);
    }
    fn observe(&mut self, mgr: &AxiPort) {
        Regulator::observe(self, mgr);
    }
    fn commit(&mut self, cycle: u64) {
        Regulator::commit(self, cycle);
    }
}

/// A unit with its two ports.
struct Side<U> {
    unit: U,
    mgr: AxiPort,
    sub: AxiPort,
}

/// Runs one cycle of `wires` through both sides, side 0 committing with
/// `commit_port` and side 1 through the adapter (its response pass
/// latching), and requires identical wires after every pass and
/// identical state after the commit.
fn lockstep_cycle<U: Unit + std::fmt::Debug>(
    sides: &mut [Side<U>; 2],
    wires: &mut ArbitraryWires,
    late: &mut SimRng,
    cycle: u64,
) {
    let ports = |sides: &[Side<U>; 2], i: usize| format!("{:?} {:?}", sides[i].mgr, sides[i].sub);
    // One draw of each stimulus, replayed on both sides.
    let mut mgr = AxiPort::new();
    let mut sub = AxiPort::new();
    wires.drive_manager(&mut mgr);
    wires.drive_subordinate(&mut sub);
    let late_ready = late
        .chance(0.2)
        .then(|| (late.chance(0.5), late.chance(0.5)));
    for s in sides.iter_mut() {
        s.mgr.begin_cycle();
        s.sub.begin_cycle();
        s.mgr.aw.forward_driver_from(&mgr.aw);
        s.mgr.w.forward_driver_from(&mgr.w);
        s.mgr.ar.forward_driver_from(&mgr.ar);
        s.mgr.b.forward_ready_from(&mgr.b);
        s.mgr.r.forward_ready_from(&mgr.r);
        s.unit.forward_request(&s.mgr, &mut s.sub);
    }
    assert_eq!(
        ports(sides, 0),
        ports(sides, 1),
        "forward_request, cycle {cycle}"
    );
    let [direct, adapted] = &mut *sides;
    direct.sub.forward_response_from(&sub);
    direct.unit.forward_response(&direct.sub, &mut direct.mgr);
    adapted.sub.forward_response_from(&sub);
    adapted.unit.latch_response(&adapted.sub, &mut adapted.mgr);
    assert_eq!(
        ports(sides, 0),
        ports(sides, 1),
        "forward_response, cycle {cycle}"
    );
    for s in sides.iter_mut() {
        if let Some((b, r)) = late_ready {
            s.mgr.b.set_ready(b);
            s.mgr.r.set_ready(r);
        }
        s.unit.backprop_response_ready(&s.mgr, &mut s.sub);
    }
    assert_eq!(ports(sides, 0), ports(sides, 1), "backprop, cycle {cycle}");
    wires.settle(&sides[0].mgr);
    let [direct, adapted] = sides;
    direct.unit.commit_port(&direct.mgr, &direct.sub, cycle);
    adapted.unit.observe(&adapted.mgr);
    adapted.unit.commit(cycle);
    assert_eq!(
        format!("{:?}", direct.unit),
        format!("{:?}", adapted.unit),
        "state after the commit of cycle {cycle}"
    );
}

/// Telemetry with small rings, so that comparing whole units stays cheap
/// once they fill.
fn small_telemetry(sample_every: u64) -> TelemetryConfig {
    TelemetryConfig {
        ring_capacity: 16,
        spans: true,
        max_spans: 4,
        sample_every,
        max_samples: 2,
    }
}

fn tmu_config(fc: bool, wheel: bool, checks: bool, budget: u64) -> TmuConfig {
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
        .txn_per_id(2)
        .check_protocol(checks)
        .budgets(BudgetConfig {
            addr_handshake: budget,
            data_entry: budget,
            first_data: budget,
            per_beat: budget / 4 + 1,
            resp_wait: budget,
            resp_ready: budget,
            queue_wait_per_txn: budget / 4,
            queue_wait_per_beat: 1,
            tiny_total_override: None,
        })
        .build()
        .expect("valid adapter test configuration")
}

fn regulator_config(bytes: u64, txns: u64, window: u64, overrun_windows: u32) -> RegulatorConfig {
    let budget = DirBudget {
        bytes_per_window: bytes,
        txns_per_window: txns,
    };
    RegulatorConfig::builder()
        .write_budget(budget)
        .read_budget(budget)
        .window_cycles(window)
        .max_uniq_ids(2)
        .txn_per_id(2)
        .mode(RegulationMode::Isolate { overrun_windows })
        .build()
        .expect("drawn budgets and windows are nonzero")
}

proptest! {
    #![proptest_config(cases(32))]

    /// A TMU under arbitrary wires and tight budgets faults, severs,
    /// aborts, drains and resets; both commit forms agree throughout.
    #[test]
    fn tmu_adapter_is_the_port_commit(
        seed in 0u64..1_000_000,
        fc in any::<bool>(),
        wheel in any::<bool>(),
        checks in any::<bool>(),
        budget in 2u64..40,
        telemetry in any::<bool>(),
    ) {
        let cfg = tmu_config(fc, wheel, checks, budget);
        let mut sides = [0, 1].map(|_| {
            let mut unit = Tmu::new(cfg.clone());
            if telemetry {
                unit.enable_telemetry(small_telemetry(32));
            }
            Side { unit, mgr: AxiPort::new(), sub: AxiPort::new() }
        });
        let mut wires = ArbitraryWires::new(seed);
        let mut rng = SimRng::seed(seed).split("adapter");
        let mut reset_at = None;
        for cycle in 0..150 {
            lockstep_cycle(&mut sides, &mut wires, &mut rng, cycle);
            let requested = sides.each_mut().map(|s| s.unit.take_reset_request());
            prop_assert_eq!(requested[0], requested[1], "reset request at cycle {}", cycle);
            if requested[0] {
                reset_at = Some(cycle + rng.below(8));
            }
            if reset_at == Some(cycle) {
                for s in &mut sides {
                    s.unit.reset_done();
                }
                reset_at = None;
            }
        }
    }
}

/// Responses the regulator absorbed from downstream while severed.
#[derive(Debug, Default)]
struct Absorbed {
    b: u64,
    rlast: u64,
}

/// One regulator case: two regulators, one per commit form, under 150
/// cycles of arbitrary wires and random releases. Counts the responses
/// absorbed while severed into `absorbed`.
fn regulator_case(
    cfg: RegulatorConfig,
    sample_every: Option<u64>,
    seed: u64,
    absorbed: &mut Absorbed,
) {
    let mut sides = [0, 1].map(|_| {
        let mut unit = Regulator::new(cfg);
        if let Some(sample_every) = sample_every {
            unit.enable_telemetry(small_telemetry(sample_every));
        }
        Side {
            unit,
            mgr: AxiPort::new(),
            sub: AxiPort::new(),
        }
    });
    let mut wires = ArbitraryWires::new(seed);
    let mut rng = SimRng::seed(seed).split("adapter");
    for cycle in 0..150 {
        if rng.chance(0.25) {
            let released = sides.each_mut().map(|s| s.unit.release());
            assert_eq!(released[0], released[1], "release at cycle {cycle}");
        }
        let severed = sides[0].unit.state() != TmuState::Monitoring;
        lockstep_cycle(&mut sides, &mut wires, &mut rng, cycle);
        if severed {
            let out = &sides[0].sub;
            absorbed.b += u64::from(out.b.fires());
            absorbed.rlast += u64::from(out.r.fired_beat().is_some_and(|r| r.last));
        }
    }
}

/// A regulator under arbitrary wires and tight budgets denies,
/// isolates, aborts, drains its owed W beats, absorbs stale responses
/// and is released; both commit forms agree throughout. The default
/// case count must absorb both a stale B and a stale `RLAST`, so the
/// adapter's latch of each is compared against the downstream port.
#[test]
fn regulator_adapter_is_the_port_commit() {
    let mut draw = SimRng::seed(0x5eed).split("regulator_adapter_is_the_port_commit");
    let mut absorbed = Absorbed::default();
    for _ in 0..cases(32).cases {
        let cfg = regulator_config(
            draw.between(8, 64),
            draw.between(1, 3),
            draw.between(1, 8),
            draw.between(1, 3) as u32,
        );
        let sample_every = draw.chance(0.5).then(|| draw.between(1, 8));
        regulator_case(cfg, sample_every, draw.below(1_000_000), &mut absorbed);
    }
    assert!(
        absorbed.b > 0 && absorbed.rlast > 0,
        "no stale response absorbed while severed: {absorbed:?}"
    );
}
