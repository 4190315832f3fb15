//! Wire fuzz of the TMU: arbitrary manager and subordinate wires, with
//! faults, severing, aborts, resets and register writes along the way.
//!
//! Covers Tiny-Counter and Full-Counter, the deadline-wheel and
//! per-cycle engines, and protocol checks built in or not, both for a
//! lone TMU and for a `StageBank` mixing monitored and bare ports.
//! Nothing may panic, and the guards' structures must stay consistent
//! after every commit. Case counts follow `PROPTEST_CASES` when set.

use axi_tmu::axi4::prelude::*;
use axi_tmu::sim::SimRng;
use axi_tmu::soc::stage::{StageBank, TmuStage};
use axi_tmu::testkit::check_tmu;
use axi_tmu::tmu::config::{Reg, CTRL_ENABLE, CTRL_IRQ_ENABLE, CTRL_PROT_CHECK};
use axi_tmu::tmu::{
    BudgetConfig, CounterEngine, FaultKind, TelemetryConfig, Tmu, TmuConfig, TmuVariant,
};
use proptest::prelude::*;

mod common;
use common::{cases, ArbitraryWires};

fn config(fc: bool, wheel: bool, checks: bool, txn_per_id: u32, budget: u64) -> TmuConfig {
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
        .txn_per_id(txn_per_id)
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
        .expect("valid fuzz configuration")
}

/// One manager-side and one subordinate-side cycle through the TMU.
fn step(tmu: &mut Tmu, wires: &mut ArbitraryWires, mgr: &mut AxiPort, sub: &mut AxiPort) {
    mgr.begin_cycle();
    sub.begin_cycle();
    wires.drive_manager(mgr);
    tmu.forward_request(mgr, sub);
    wires.drive_subordinate(sub);
    tmu.forward_response(sub, mgr);
    wires.settle(mgr);
}

proptest! {
    #![proptest_config(cases(32))]

    /// Arbitrary wires never panic the TMU or break its invariants,
    /// through faults, recovery and register writes.
    #[test]
    fn tmu_survives_arbitrary_wires(
        seed in 0u64..1_000_000,
        fc in any::<bool>(),
        wheel in any::<bool>(),
        checks in any::<bool>(),
        txn_per_id in 1u32..5,
        budget in 2u64..200,
        reg_writes in any::<bool>(),
        telemetry in any::<bool>(),
    ) {
        let mut tmu = Tmu::new(config(fc, wheel, checks, txn_per_id, budget));
        if telemetry {
            tmu.enable_telemetry(TelemetryConfig::default());
        }
        let mut wires = ArbitraryWires::new(seed);
        let mut rng = SimRng::seed(seed).split("fuzz");
        let (mut mgr, mut sub) = (AxiPort::new(), AxiPort::new());
        let mut reset_at = None;
        for cycle in 0..1_500 {
            step(&mut tmu, &mut wires, &mut mgr, &mut sub);
            tmu.commit_port(&mgr, cycle);
            tmu.assert_consistent();
            if tmu.take_reset_request() {
                reset_at = Some(cycle + rng.below(16));
            }
            if reset_at == Some(cycle) {
                tmu.reset_done();
                reset_at = None;
            }
            if reg_writes && rng.chance(0.01) {
                let mut ctrl = CTRL_IRQ_ENABLE;
                if rng.chance(0.9) {
                    ctrl |= CTRL_ENABLE;
                }
                if rng.chance(0.5) {
                    ctrl |= CTRL_PROT_CHECK;
                }
                tmu.write_reg(Reg::Ctrl, ctrl);
            }
        }
    }
}

/// Asserts that a bare port's wires after a bank pass equal `want`, the
/// same wires after the plain copy that pass stands for.
fn assert_bare(pass: &str, port: usize, want: &AxiPort, got: &AxiPort) {
    assert_eq!(
        format!("{want:?}"),
        format!("{got:?}"),
        "{pass} on bare port {port}"
    );
}

proptest! {
    #![proptest_config(cases(32))]

    /// A bank of 1–4 ports, each bare or carrying a TMU (either variant,
    /// either engine), under arbitrary wires and late-settling B/R
    /// `ready`s: nothing panics, every TMU stays consistent, every bare
    /// port is a plain wire copy in every wire pass, and only monitored
    /// ports reset their subordinates.
    #[test]
    fn stage_bank_survives_arbitrary_wires(
        seed in 0u64..1_000_000,
        ports in prop::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 1..5),
        checks in any::<bool>(),
        txn_per_id in 1u32..5,
        budget in 2u64..200,
        reset_cycles in 1u64..16,
    ) {
        let n = ports.len();
        let mut bank = StageBank::new(n);
        for (port, &(attach, fc, wheel)) in ports.iter().enumerate() {
            if attach {
                let cfg = config(fc, wheel, checks, txn_per_id, budget);
                bank.attach(port, TmuStage::new(cfg, reset_cycles));
            }
        }
        let bare: Vec<usize> = (0..n).filter(|&p| !ports[p].0).collect();
        let mut wires: Vec<ArbitraryWires> =
            (0..n).map(|p| ArbitraryWires::new(seed * 8 + p as u64)).collect();
        let mut late = SimRng::seed(seed).split("late-ready");
        let (mut mgrs, mut subs) = (vec![AxiPort::new(); n], vec![AxiPort::new(); n]);
        for cycle in 0..1_500 {
            for ((w, mgr), sub) in wires.iter_mut().zip(&mut mgrs).zip(&mut subs) {
                mgr.begin_cycle();
                sub.begin_cycle();
                w.drive_manager(mgr);
            }
            let before = subs.clone();
            bank.forward_requests(&mgrs, &mut subs);
            for &p in &bare {
                let mut want = before[p].clone();
                want.forward_request_from(&mgrs[p]);
                assert_bare("forward_requests", p, &want, &subs[p]);
            }

            for (w, sub) in wires.iter_mut().zip(&mut subs) {
                w.drive_subordinate(sub);
            }
            let before = mgrs.clone();
            bank.forward_responses(&subs, &mut mgrs);
            for &p in &bare {
                let mut want = before[p].clone();
                want.forward_response_from(&subs[p]);
                assert_bare("forward_responses", p, &want, &mgrs[p]);
            }

            // The manager side's B/R `ready` settles late, as below a mux.
            for mgr in &mut mgrs {
                if late.chance(0.2) {
                    mgr.b.set_ready(late.chance(0.5));
                }
                if late.chance(0.2) {
                    mgr.r.set_ready(late.chance(0.5));
                }
            }
            let before = subs.clone();
            bank.backprop_response_ready(&mgrs, &mut subs);
            for &p in &bare {
                let mut want = before[p].clone();
                want.b.forward_ready_from(&mgrs[p].b);
                want.r.forward_ready_from(&mgrs[p].r);
                assert_bare("backprop_response_ready", p, &want, &subs[p]);
            }

            for (w, mgr) in wires.iter_mut().zip(&mgrs) {
                w.settle(mgr);
            }
            bank.commit(&mgrs, &subs, cycle, |port| {
                assert!(ports[port].0, "reset_sub fired for bare port {port}");
            });
            for tmu in (0..n).filter_map(|p| bank.tmu(p)) {
                check_tmu(tmu);
            }
        }
    }
}

/// Runs one hand-driven cycle through `tmu` and `checker`.
fn scripted_cycle(
    tmu: &mut Tmu,
    checker: &mut ProtocolChecker,
    cycle: u64,
    drive_mgr: impl Fn(&mut AxiPort),
    drive_sub: impl Fn(&mut AxiPort),
) -> Vec<Violation> {
    let (mut mgr, mut sub) = (AxiPort::new(), AxiPort::new());
    mgr.begin_cycle();
    sub.begin_cycle();
    drive_mgr(&mut mgr);
    tmu.forward_request(&mgr, &mut sub);
    drive_sub(&mut sub);
    tmu.forward_response(&sub, &mut mgr);
    let violations = checker.observe(&mgr, cycle);
    tmu.commit_port(&mgr, cycle);
    tmu.assert_consistent();
    violations
}

/// An early WLAST ends the burst, so a B for the same ID in the same
/// cycle is legal: the TMU reports only `WLAST_EARLY`, as the
/// standalone checker does, and stays consistent.
#[test]
fn early_wlast_with_same_cycle_b_is_one_violation() {
    let aw = AwBeat::new(
        AxiId(1),
        Addr(0x100),
        BurstLen::from_beats(4).expect("4 beats"),
        BurstSize::from_bytes(8).expect("8 bytes"),
        BurstKind::Incr,
    );
    for (fc, wheel) in [(false, false), (false, true), (true, false), (true, true)] {
        let mut tmu = Tmu::new(config(fc, wheel, true, 4, 100));
        let mut checker = ProtocolChecker::new();
        let v = scripted_cycle(
            &mut tmu,
            &mut checker,
            0,
            |mgr| mgr.aw.drive(aw),
            |sub| sub.aw.set_ready(true),
        );
        assert!(v.is_empty());
        let v = scripted_cycle(
            &mut tmu,
            &mut checker,
            1,
            |mgr| {
                mgr.w.drive(WBeat::new(0, true)); // WLAST on beat 1 of 4
                mgr.b.set_ready(true);
            },
            |sub| {
                sub.w.set_ready(true);
                sub.b.drive(BBeat::new(AxiId(1), Resp::Okay));
            },
        );
        let rules: Vec<_> = v.iter().map(|v| (v.rule, v.id)).collect();
        assert_eq!(rules, vec![(Rule::WlastEarly, Some(AxiId(1)))]);
        assert_eq!(tmu.faults_detected(), 1);
        let records: Vec<_> = tmu.error_log().iter().map(|r| (r.kind, r.id)).collect();
        assert_eq!(
            records,
            vec![(FaultKind::Protocol(Rule::WlastEarly), Some(AxiId(1)))],
            "fc={fc} wheel={wheel}"
        );
    }
}

/// An address that changes while it waits (a stability violation) is
/// held off, so the W beat of that cycle is judged against the OTT's
/// view of the wires, exactly as the standalone checker judges it.
#[test]
fn address_changed_while_waiting_is_held_off() {
    let beat = |id: u16, beats: u16| {
        AwBeat::new(
            AxiId(id),
            Addr(0x100),
            BurstLen::from_beats(beats).expect("legal length"),
            BurstSize::from_bytes(8).expect("8 bytes"),
            BurstKind::Incr,
        )
    };
    for (fc, wheel) in [(false, false), (false, true), (true, false), (true, true)] {
        let mut tmu = Tmu::new(config(fc, wheel, true, 4, 100));
        let mut checker = ProtocolChecker::new();
        // The AW waits: the subordinate is not ready.
        let v = scripted_cycle(
            &mut tmu,
            &mut checker,
            0,
            |m| m.aw.drive(beat(1, 1)),
            |_| {},
        );
        assert!(v.is_empty());
        // The manager swaps in another burst, offered to a ready
        // subordinate, with a final-looking W beat beside it.
        let v = scripted_cycle(
            &mut tmu,
            &mut checker,
            1,
            |m| {
                m.aw.drive(beat(2, 2));
                m.w.drive(WBeat::new(0, true));
            },
            |s| {
                s.aw.set_ready(true);
                s.w.set_ready(true);
            },
        );
        let mut want: Vec<_> = v.iter().map(|v| (v.rule.mnemonic(), v.id)).collect();
        want.sort_unstable();
        assert_eq!(want, vec![("AW_STABLE", None), ("W_NO_AW", None)]);
        let mut got: Vec<_> = tmu
            .error_log()
            .iter()
            .filter_map(|r| match r.kind {
                FaultKind::Protocol(rule) => Some((rule.mnemonic(), r.id)),
                _ => None,
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "fc={fc} wheel={wheel}");
    }
}
