//! The observe/commit adapter is the port-taking commit.
//!
//! `Tmu` and `Regulator` commit from the settled manager-side port
//! (`commit_port(mgr, cycle)`); `observe(mgr)` followed by
//! `commit(cycle)` latches the port and commits from the latch, for
//! component loops written against a separate observe pass. Two copies
//! of each unit, driven by identical arbitrary wires, one per commit
//! form, must drive identical wires after every pass and hold identical
//! state after every commit. The wires sever the TMU (tight budgets),
//! drain the W beats of aborted bursts, and isolate and release the
//! regulator. Case counts follow `PROPTEST_CASES` when set.

use axi_tmu::axi4::prelude::*;
use axi_tmu::sim::SimRng;
use axi_tmu::tmu::{BudgetConfig, CounterEngine, TelemetryConfig, Tmu, TmuConfig, TmuVariant};
use axi_tmu::tmu_regulate::{DirBudget, RegulationMode, Regulator, RegulatorConfig};
use proptest::prelude::*;

mod common;
use common::{cases, ArbitraryWires};

/// The two commit forms under comparison.
trait Unit {
    fn forward_request(&mut self, mgr: &AxiPort, sub: &mut AxiPort);
    fn forward_response(&mut self, sub: &AxiPort, mgr: &mut AxiPort);
    fn backprop_response_ready(&mut self, mgr: &AxiPort, sub: &mut AxiPort);
    fn commit_port(&mut self, mgr: &AxiPort, cycle: u64);
    fn observe(&mut self, mgr: &AxiPort);
    fn commit(&mut self, cycle: u64);
}

impl Unit for Tmu {
    fn forward_request(&mut self, mgr: &AxiPort, sub: &mut AxiPort) {
        Tmu::forward_request(self, mgr, sub);
    }
    fn forward_response(&mut self, sub: &AxiPort, mgr: &mut AxiPort) {
        Tmu::forward_response(self, sub, mgr);
    }
    fn backprop_response_ready(&mut self, mgr: &AxiPort, sub: &mut AxiPort) {
        Tmu::backprop_response_ready(self, mgr, sub);
    }
    fn commit_port(&mut self, mgr: &AxiPort, cycle: u64) {
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
    fn forward_request(&mut self, mgr: &AxiPort, sub: &mut AxiPort) {
        Regulator::forward_request(self, mgr, sub);
    }
    fn forward_response(&mut self, sub: &AxiPort, mgr: &mut AxiPort) {
        Regulator::forward_response(self, sub, mgr);
    }
    fn backprop_response_ready(&mut self, mgr: &AxiPort, sub: &mut AxiPort) {
        Regulator::backprop_response_ready(self, mgr, sub);
    }
    fn commit_port(&mut self, mgr: &AxiPort, cycle: u64) {
        Regulator::commit_port(self, mgr, cycle);
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
/// `commit_port` and side 1 through the adapter, and requires identical
/// wires after every pass and identical state after the commit.
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
    for s in sides.iter_mut() {
        s.sub.forward_response_from(&sub);
        s.unit.forward_response(&s.sub, &mut s.mgr);
    }
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
    direct.unit.commit_port(&direct.mgr, cycle);
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

    /// A regulator under arbitrary wires and tight budgets denies,
    /// isolates, aborts, drains its owed W beats and is released; both
    /// commit forms agree throughout.
    #[test]
    fn regulator_adapter_is_the_port_commit(
        seed in 0u64..1_000_000,
        bytes in 8u64..=64,
        txns in 1u64..=3,
        window in 1u64..=8,
        overrun_windows in 1u32..=3,
        sample_every in (any::<bool>(), 1u64..=8).prop_map(|(on, n)| on.then_some(n)),
    ) {
        let cfg = regulator_config(bytes, txns, window, overrun_windows);
        let mut sides = [0, 1].map(|_| {
            let mut unit = Regulator::new(cfg);
            if let Some(sample_every) = sample_every {
                unit.enable_telemetry(small_telemetry(sample_every));
            }
            Side { unit, mgr: AxiPort::new(), sub: AxiPort::new() }
        });
        let mut wires = ArbitraryWires::new(seed);
        let mut rng = SimRng::seed(seed).split("adapter");
        for cycle in 0..150 {
            if rng.chance(0.25) {
                let released = sides.each_mut().map(|s| s.unit.release());
                prop_assert_eq!(released[0], released[1], "release at cycle {}", cycle);
            }
            lockstep_cycle(&mut sides, &mut wires, &mut rng, cycle);
        }
    }
}
