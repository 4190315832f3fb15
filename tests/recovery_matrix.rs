//! Integration: the full fault-class × variant recovery matrix.
//!
//! Every one of the ten injectable fault classes must be (a) detected,
//! (b) answered with `SLVERR` aborts, an interrupt and a reset request,
//! and (c) fully recovered from — for both TMU variants. This is the
//! paper's IP-level validation (Fig. 9) as a pass/fail matrix.

use axi_tmu::faults::{FaultClass, FaultPlan, Trigger};
use axi_tmu::soc::link::GuardedLink;
use axi_tmu::soc::manager::TrafficPattern;
use axi_tmu::soc::memory::{MemConfig, MemSub};
use axi_tmu::tmu::{TmuConfig, TmuVariant};

fn pattern(class: FaultClass) -> TrafficPattern {
    let is_read = FaultClass::READ_CLASSES.contains(&class);
    TrafficPattern {
        write_ratio: if is_read { 0.0 } else { 1.0 },
        burst_lens: vec![32],
        ids: vec![1, 2],
        addr_base: 0x2000,
        addr_span: 0x400,
        max_outstanding: 2,
        issue_gap: 4,
        total_txns: None,
        verify_data: false,
    }
}

fn trigger(class: FaultClass) -> Trigger {
    match class {
        FaultClass::MidBurstStall => Trigger::AfterWBeats(10),
        FaultClass::RMidBurstStall => Trigger::AfterRBeats(10),
        _ => Trigger::AtCycle(120),
    }
}

fn check(variant: TmuVariant, class: FaultClass) {
    let cfg = TmuConfig::builder()
        .variant(variant)
        .max_uniq_ids(4)
        .txn_per_id(4)
        .build()
        .expect("valid config");
    let mem = MemSub::new(MemConfig {
        b_latency: 2,
        r_warmup: 2,
        ..MemConfig::default()
    });
    let mut link = GuardedLink::new(pattern(class), cfg, mem, 0xAB ^ class as u64);
    link.inject(FaultPlan::new(class, trigger(class)));

    // (a) detection
    assert!(
        link.run_until(100_000, |l| {
            axi_tmu::testkit::check_tmu(&l.tmu);
            l.tmu.faults_detected() > 0
        }),
        "{variant:?} / {class}: not detected"
    );
    // (b) reaction
    assert!(
        link.tmu.irq_pending(),
        "{variant:?} / {class}: no interrupt"
    );
    let completed_at_fault = link.mgr.stats().total_completed();
    // (c) recovery: reset happened (injector disarmed by the harness)
    //     and fresh transactions complete with no further faults.
    assert!(
        link.run_until(100_000, |l| {
            axi_tmu::testkit::check_tmu(&l.tmu);
            l.mgr.stats().total_completed() >= completed_at_fault + 5
        }),
        "{variant:?} / {class}: traffic did not resume"
    );
    assert_eq!(
        link.tmu.faults_detected(),
        1,
        "{variant:?} / {class}: spurious extra faults after recovery"
    );
    assert_eq!(
        link.tmu.resets_requested(),
        1,
        "{variant:?} / {class}: reset count"
    );
}

macro_rules! matrix {
    ($($name:ident: $variant:ident / $class:ident;)*) => {
        $(
            #[test]
            fn $name() {
                check(TmuVariant::$variant, FaultClass::$class);
            }
        )*
    };
}

matrix! {
    tc_aw_ready_drop: TinyCounter / AwReadyDrop;
    tc_w_valid_suppress: TinyCounter / WValidSuppress;
    tc_w_ready_drop: TinyCounter / WReadyDrop;
    tc_mid_burst_stall: TinyCounter / MidBurstStall;
    tc_b_valid_suppress: TinyCounter / BValidSuppress;
    tc_b_id_corrupt: TinyCounter / BIdCorrupt;
    tc_ar_ready_drop: TinyCounter / ArReadyDrop;
    tc_r_valid_suppress: TinyCounter / RValidSuppress;
    tc_r_mid_burst_stall: TinyCounter / RMidBurstStall;
    tc_r_id_corrupt: TinyCounter / RIdCorrupt;
    fc_aw_ready_drop: FullCounter / AwReadyDrop;
    fc_w_valid_suppress: FullCounter / WValidSuppress;
    fc_w_ready_drop: FullCounter / WReadyDrop;
    fc_mid_burst_stall: FullCounter / MidBurstStall;
    fc_b_valid_suppress: FullCounter / BValidSuppress;
    fc_b_id_corrupt: FullCounter / BIdCorrupt;
    fc_ar_ready_drop: FullCounter / ArReadyDrop;
    fc_r_valid_suppress: FullCounter / RValidSuppress;
    fc_r_mid_burst_stall: FullCounter / RMidBurstStall;
    fc_r_id_corrupt: FullCounter / RIdCorrupt;
}

/// The Full-Counter must localize timeout faults to a phase; the
/// Tiny-Counter reports transaction-level only.
#[test]
fn localization_granularity_matches_variant() {
    for (variant, class) in [
        (TmuVariant::FullCounter, FaultClass::AwReadyDrop),
        (TmuVariant::FullCounter, FaultClass::BValidSuppress),
        (TmuVariant::TinyCounter, FaultClass::AwReadyDrop),
    ] {
        let cfg = TmuConfig::builder()
            .variant(variant)
            .build()
            .expect("valid");
        let mut link = GuardedLink::new(pattern(class), cfg, MemSub::default(), 5);
        link.inject(FaultPlan::new(class, trigger(class)));
        assert!(link.run_until(100_000, |l| {
            axi_tmu::testkit::check_tmu(&l.tmu);
            l.tmu.faults_detected() > 0
        }));
        let fault = link.tmu.last_fault().expect("fault logged");
        match variant {
            TmuVariant::FullCounter => {
                assert!(fault.phase.is_some(), "Fc must localize {class}");
            }
            TmuVariant::TinyCounter => {
                assert!(fault.phase.is_none(), "Tc reports transaction-level only");
            }
        }
    }
}

/// The eleventh "fault class" is wire-legal greed: a manager that
/// floods the interconnect with back-to-back bursts. The TMU cannot
/// (and must not) flag it — every handshake is protocol-clean — so the
/// traffic *regulator* is the detector: it must isolate the offender,
/// log the policy fault, and leave both the
/// trunk TMU and the victim manager untouched.
#[test]
fn budget_exhaustion_is_isolated_by_the_regulator_not_the_tmu() {
    use axi_tmu::faults::BudgetExhaustion;
    use axi_tmu::soc::regulated::RegulatedLink;
    use axi_tmu::tmu::FaultKind;
    use axi_tmu::tmu_regulate::{DirBudget, RegulationMode, RegulatorConfig, ISOLATION_REASON};

    let victim = TrafficPattern {
        write_ratio: 1.0,
        burst_lens: vec![4],
        ids: vec![0, 1],
        addr_base: 0x8000_0000,
        addr_span: 0x10_0000,
        max_outstanding: 2,
        issue_gap: 16,
        total_txns: None,
        verify_data: false,
    };
    let offender = TrafficPattern {
        addr_base: 0x8010_0000,
        ..victim.clone()
    };
    let tight = RegulatorConfig::builder()
        .write_budget(DirBudget {
            bytes_per_window: 256,
            txns_per_window: 4,
        })
        .read_budget(DirBudget::unlimited())
        .window_cycles(128)
        .mode(RegulationMode::Isolate { overrun_windows: 2 })
        .build()
        .expect("tight isolating configuration is valid");
    let mut link = RegulatedLink::new(
        vec![(victim, None), (offender, Some(tight))],
        Some(TmuConfig::default()),
        MemSub::default(),
        0xFA11,
    );
    // The offender starts compliant, then turns greedy mid-run.
    link.arm_exhaustion(1, BudgetExhaustion::at_cycle(400));

    // (a) detection — by the regulator, not the trunk TMU.
    assert!(
        link.run_until(50_000, |l| l.fabric().any_isolated()),
        "the greedy manager must be isolated"
    );
    let reg = link
        .regulator(1)
        .expect("port 1 carries the isolating regulator");
    assert_eq!(reg.isolations(), 1, "exactly one isolation event");
    let fault = reg
        .last_fault()
        .expect("isolation logs a policy fault on the embedded tracker");
    assert!(
        matches!(fault.kind, FaultKind::External(reason) if reason == ISOLATION_REASON),
        "the tracker must attribute the fault to the bandwidth policy"
    );
    assert_eq!(
        link.tmu().expect("trunk TMU attached").faults_detected(),
        0,
        "wire-legal greed must never register as a protocol fault"
    );

    // (b) containment — the victim keeps completing transactions while
    //     the offender stays severed.
    let victim_at_isolation = link.stats(0).total_completed();
    let offender_at_isolation = link.stats(1).total_completed();
    assert!(
        link.run_until(50_000, |l| {
            l.stats(0).total_completed() >= victim_at_isolation + 20
        }),
        "the victim manager must keep flowing after the isolation"
    );
    assert_eq!(
        link.stats(1).total_completed(),
        offender_at_isolation,
        "a severed manager completes nothing"
    );
    assert_eq!(
        link.tmu().expect("trunk TMU attached").faults_detected(),
        0,
        "the trunk stays fault-free throughout"
    );

    // (c) recovery — software re-admission restores the offender once
    //     the abort backlog has drained.
    let mut released = false;
    for _ in 0..5000 {
        link.step();
        if link.fabric_mut().release(1) {
            released = true;
            break;
        }
    }
    assert!(released, "release must succeed once the aborts drained");
    let grants_at_release = link
        .regulator(1)
        .expect("port 1 carries the isolating regulator")
        .grants();
    link.run(2000);
    assert!(
        link.regulator(1)
            .expect("port 1 carries the isolating regulator")
            .grants()
            > grants_at_release,
        "a re-admitted manager must be granted again"
    );
}

/// Detection latency ordering: the Full-Counter never detects later than
/// the Tiny-Counter for the same early-phase fault.
#[test]
fn fc_beats_tc_on_early_faults() {
    let mut latencies = Vec::new();
    for variant in [TmuVariant::FullCounter, TmuVariant::TinyCounter] {
        let cfg = TmuConfig::builder()
            .variant(variant)
            .build()
            .expect("valid");
        let mut link =
            GuardedLink::new(pattern(FaultClass::AwReadyDrop), cfg, MemSub::default(), 6);
        link.inject(FaultPlan::new(
            FaultClass::AwReadyDrop,
            Trigger::AtCycle(120),
        ));
        assert!(link.run_until(100_000, |l| {
            axi_tmu::testkit::check_tmu(&l.tmu);
            l.tmu.faults_detected() > 0
        }));
        latencies.push(link.detection_latency().expect("measurable"));
    }
    assert!(
        latencies[0] < latencies[1],
        "Fc ({}) must detect before Tc ({})",
        latencies[0],
        latencies[1]
    );
}

/// A subordinate that answers nothing, not even `ready`, until its
/// first hardware reset; from then on it is an ordinary memory. Counts
/// the resets it receives.
#[derive(Debug, Default)]
struct HangsUntilReset {
    mem: MemSub,
    resets: u64,
}

impl axi_tmu::soc::link::AxiSubordinate for HangsUntilReset {
    fn drive(&mut self, port: &mut axi_tmu::axi4::channel::AxiPort) {
        if self.resets > 0 {
            self.mem.drive(port);
        }
    }

    fn commit(&mut self, port: &axi_tmu::axi4::channel::AxiPort) {
        if self.resets > 0 {
            self.mem.commit(port);
        }
    }

    fn reset(&mut self) {
        self.resets += 1;
        self.mem.reset();
    }
}

/// The trunk TMU of a regulated link guards the shared subordinate: when
/// that subordinate hangs, the trunk TMU must fault once, reset the
/// subordinate through its reset line, resume monitoring, and let every
/// manager complete transactions again.
#[test]
fn regulated_trunk_tmu_faults_and_recovers() {
    use axi_tmu::soc::regulated::RegulatedLink;
    use axi_tmu::tmu::TmuState;

    let manager = |addr_base| TrafficPattern {
        write_ratio: 0.5,
        burst_lens: vec![1, 4],
        ids: vec![0, 1],
        addr_base,
        addr_span: 0x1000,
        max_outstanding: 2,
        issue_gap: 8,
        total_txns: None,
        verify_data: false,
    };
    let mut link = RegulatedLink::new(
        vec![(manager(0x1000), None), (manager(0x8000), None)],
        Some(TmuConfig::default()),
        HangsUntilReset::default(),
        0x7A0C,
    );
    let ok = |l: &RegulatedLink<HangsUntilReset>, port: usize| {
        let s = l.stats(port);
        s.writes_completed + s.reads_completed
    };

    let trunk = |l: &RegulatedLink<HangsUntilReset>| {
        l.tmu().expect("the link has a trunk TMU").faults_detected()
    };
    assert!(
        link.run_until(100_000, |l| trunk(l) > 0),
        "the trunk TMU must time out the hung subordinate"
    );
    assert!(
        link.run_until(100_000, |l| {
            l.sub().resets > 0
                && l.tmu().expect("the link has a trunk TMU").state() == TmuState::Monitoring
        }),
        "the trunk TMU must reset the subordinate and resume monitoring"
    );
    let before = [ok(&link, 0), ok(&link, 1)];
    assert_eq!(
        before,
        [0, 0],
        "nothing completed while the subordinate hung"
    );
    assert!(
        link.run_until(100_000, |l| ok(l, 0) > 10 && ok(l, 1) > 10),
        "both managers must complete transactions after the recovery"
    );
    assert_eq!(trunk(&link), 1, "exactly one trunk fault");
    assert_eq!(link.sub().resets, 1, "exactly one subordinate reset");
    assert_eq!(
        link.tmu().expect("the link has a trunk TMU").state(),
        TmuState::Monitoring
    );
}
