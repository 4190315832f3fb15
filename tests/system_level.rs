//! Integration: full-system (Fig. 10) scenarios.

use axi_tmu::faults::{FaultClass, FaultPlan, Trigger};
use axi_tmu::soc::manager::TrafficPattern;
use axi_tmu::soc::system::{System, SystemConfig, ETH_BASE};
use axi_tmu::tmu::telemetry::RecoveryStage;
use axi_tmu::tmu::{BudgetConfig, TelemetryConfig, TmuConfig, TmuState, TmuVariant, TraceEvent};
use tmu_bench::experiments::{fig11_single, FaultPosition};

fn system_cfg(variant: TmuVariant) -> SystemConfig {
    SystemConfig {
        tmu: TmuConfig::builder()
            .variant(variant)
            .budgets(BudgetConfig::system_level())
            .build()
            .expect("valid config"),
        ..SystemConfig::default()
    }
}

#[test]
fn long_healthy_run_is_clean_for_both_variants() {
    for variant in [TmuVariant::TinyCounter, TmuVariant::FullCounter] {
        let mut system = System::new(system_cfg(variant));
        system.run(20_000);
        assert_eq!(
            system.tmu().faults_detected(),
            0,
            "{variant:?}: false positive"
        );
        assert!(system.eth().frames_txed() > 50, "{variant:?}: traffic flow");
        assert!(system.cpu_stats().total_completed() > 200, "{variant:?}");
        assert_eq!(
            system.cpu_stats().writes_errored + system.cpu_stats().reads_errored,
            0,
            "{variant:?}"
        );
    }
}

#[test]
fn repeated_faults_each_recover() {
    let mut system = System::new(system_cfg(TmuVariant::FullCounter));
    for round in 0..3u64 {
        let at = system.cycle() + 500;
        system.inject(FaultPlan::new(FaultClass::WReadyDrop, Trigger::AtCycle(at)));
        let detected = system.run_until(30_000, |s| s.tmu().faults_detected() == round + 1);
        assert!(detected, "round {round}: fault not detected");
        let recovered = system.run_until(30_000, |s| {
            s.eth_resets() == round + 1 && s.tmu().state() == TmuState::Monitoring
        });
        assert!(recovered, "round {round}: no recovery");
    }
    // After three full cycles of damage the system still moves frames.
    let frames = system.eth().frames_txed();
    system.run(5_000);
    assert!(
        system.eth().frames_txed() > frames,
        "traffic alive after 3 recoveries"
    );
}

/// The Ethernet TMU tells its recovery story as typed telemetry: one
/// fault, then each recovery stage in order, with the sever carrying
/// the abort counts the DMA manager then sees as `SLVERR`s.
#[test]
fn ethernet_fault_recovery_story_is_typed_telemetry() {
    let mut system = System::new(system_cfg(TmuVariant::FullCounter));
    system.enable_telemetry(TelemetryConfig::default());
    system.run(1000);
    system.inject(FaultPlan::new(
        FaultClass::WReadyDrop,
        Trigger::AtCycle(1200),
    ));
    assert!(system.run_until(20_000, |s| s.tmu().faults_detected() > 0));
    assert!(system.run_until(20_000, |s| {
        s.eth_resets() > 0 && s.tmu().state() == TmuState::Monitoring
    }));

    let story: Vec<(u64, TraceEvent)> = system
        .tmu()
        .telemetry()
        .events()
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::Fault { .. } | TraceEvent::Recovery { .. }
            )
        })
        .map(|r| (r.cycle, r.event))
        .collect();
    let kinds: Vec<&str> = story
        .iter()
        .map(|(_, e)| match e {
            TraceEvent::Recovery { stage } => stage.as_str(),
            other => other.kind(),
        })
        .collect();
    assert_eq!(
        kinds,
        [
            "fault",
            "severed",
            "aborts-delivered",
            "reset-requested",
            "resumed"
        ]
    );
    assert!(
        story.windows(2).all(|w| w[0].0 <= w[1].0),
        "cycles never decrease: {story:?}"
    );

    let (severed_at, severed) = story[1];
    let fault = system.tmu().last_fault().expect("fault logged");
    assert_eq!(severed_at, fault.cycle);
    let TraceEvent::Recovery {
        stage: RecoveryStage::Severed { writes, reads, .. },
    } = severed
    else {
        panic!("second record is the sever: {severed:?}");
    };
    let dma = system.dma_stats();
    assert_eq!(
        u64::from(writes + reads),
        dma.writes_errored + dma.reads_errored
    );
}

#[test]
fn fig11_rows_match_paper_shape() {
    // Tc detects at ~its 320-cycle budget regardless of position; Fc
    // tracks the faulty phase.
    let begin_tc = fig11_single(TmuVariant::TinyCounter, FaultPosition::Beginning);
    let begin_fc = fig11_single(TmuVariant::FullCounter, FaultPosition::Beginning);
    assert!(
        (320..=340).contains(&begin_tc.detection_inflight),
        "{}",
        begin_tc.detection_inflight
    );
    assert!(
        begin_fc.detection_inflight <= 20,
        "{}",
        begin_fc.detection_inflight
    );

    let end_tc = fig11_single(TmuVariant::TinyCounter, FaultPosition::End);
    let end_fc = fig11_single(TmuVariant::FullCounter, FaultPosition::End);
    assert!((320..=340).contains(&end_tc.detection_inflight));
    assert!(
        end_fc.detection_inflight > 250,
        "end fault detects after the data phase"
    );
    assert!(end_fc.detection_inflight < end_tc.detection_inflight);
}

#[test]
fn interrupt_latency_tracks_detection() {
    let mut system = System::new(system_cfg(TmuVariant::FullCounter));
    system.inject(FaultPlan::new(
        FaultClass::BValidSuppress,
        Trigger::AtCycle(400),
    ));
    assert!(system.run_until(30_000, |s| s.tmu().faults_detected() > 0));
    let detect_cycle = system.tmu().last_fault().expect("fault").cycle;
    system.run(2);
    let irq_at = system.irq().first_asserted_at.expect("interrupt fired");
    assert!(
        irq_at >= detect_cycle && irq_at <= detect_cycle + 2,
        "irq at {irq_at}, detection at {detect_cycle}"
    );
}

#[test]
fn scripted_250_beat_write_fits_tc_budget_without_fault() {
    // The paper's Fig. 11 healthy baseline: the 250-beat transaction
    // completes inside the 320-cycle Tc budget when nothing is broken.
    let cfg = SystemConfig {
        tmu: TmuConfig::builder()
            .variant(TmuVariant::TinyCounter)
            .budgets(BudgetConfig::fig11_tiny())
            .build()
            .expect("valid config"),
        eth: axi_tmu::soc::EthConfig {
            pace_on: 1,
            pace_off: 0,
            ..Default::default()
        },
        cpu_pattern: TrafficPattern {
            total_txns: Some(0),
            ..TrafficPattern::default()
        },
        dma_pattern: TrafficPattern::single_write(0, ETH_BASE, 250),
        ..SystemConfig::default()
    };
    let mut system = System::new(cfg);
    assert!(system.run_until(2_000, System::traffic_done));
    assert_eq!(
        system.tmu().faults_detected(),
        0,
        "no false timeout at 320 cycles"
    );
    assert_eq!(system.dma_stats().writes_completed, 1);
}

#[test]
fn tmu_disabled_by_software_is_fully_transparent() {
    let mut system = System::new(system_cfg(TmuVariant::FullCounter));
    system
        .tmu_mut()
        .write_reg(axi_tmu::tmu::config::Reg::Ctrl, 0);
    system.inject(FaultPlan::new(
        FaultClass::BValidSuppress,
        Trigger::AtCycle(200),
    ));
    system.run(10_000);
    // Nothing is detected (and the fault therefore hangs the DMA — the
    // exact failure mode the TMU exists to prevent).
    assert_eq!(system.tmu().faults_detected(), 0);
    assert_eq!(system.eth_resets(), 0);
}

#[test]
fn seeds_change_traffic_but_not_safety() {
    for seed in [1u64, 99, 12345] {
        let mut system = System::new(SystemConfig {
            seed,
            ..system_cfg(TmuVariant::TinyCounter)
        });
        system.inject(FaultPlan::new(
            FaultClass::RValidSuppress,
            Trigger::AtCycle(300),
        ));
        // A read-side fault only trips once a DMA read is in flight; the
        // default DMA mix is write-heavy, so allow a long window.
        let detected = system.run_until(100_000, |s| s.tmu().faults_detected() > 0);
        assert!(detected, "seed {seed}: fault escaped");
        let recovered = system.run_until(50_000, |s| s.eth_resets() > 0);
        assert!(recovered, "seed {seed}: no recovery");
    }
}

#[test]
fn mixed_criticality_two_tmus_isolate_independent_faults() {
    // Paper §IV: Tiny- and Full-Counter monitors mixed in one SoC.
    // Ethernet gets an Fc, memory a Tc+prescaler; faults on each link
    // are detected and recovered independently, without cross-talk.
    let cfg = SystemConfig {
        tmu: TmuConfig::builder()
            .variant(TmuVariant::FullCounter)
            .budgets(BudgetConfig::system_level())
            .build()
            .expect("valid"),
        mem_tmu: Some(
            TmuConfig::builder()
                .variant(TmuVariant::TinyCounter)
                .prescaler(8)
                .budgets(BudgetConfig::system_level())
                .build()
                .expect("valid"),
        ),
        ..SystemConfig::default()
    };
    let mut system = System::new(cfg);

    // Healthy warm-up with both monitors active.
    system.run(2000);
    assert_eq!(system.tmu().faults_detected(), 0);
    assert_eq!(system.mem_tmu().expect("configured").faults_detected(), 0);

    // Fault the memory link: only the memory TMU reacts.
    system.inject_mem(FaultPlan::new(
        FaultClass::BValidSuppress,
        Trigger::AtCycle(2100),
    ));
    let detected = system.run_until(60_000, |s| {
        s.mem_tmu().expect("configured").faults_detected() > 0
    });
    assert!(detected, "memory fault detected");
    assert_eq!(system.tmu().faults_detected(), 0, "ethernet TMU unaffected");
    let recovered = system.run_until(60_000, |s| s.mem_resets() > 0);
    assert!(recovered, "memory reset issued");

    // Then fault the ethernet link: only the ethernet TMU reacts.
    let at = system.cycle() + 500;
    system.inject(FaultPlan::new(FaultClass::WReadyDrop, Trigger::AtCycle(at)));
    let detected = system.run_until(60_000, |s| s.tmu().faults_detected() > 0);
    assert!(detected, "ethernet fault detected");
    assert_eq!(
        system.mem_tmu().expect("configured").faults_detected(),
        1,
        "memory TMU saw only its own fault"
    );
    let recovered = system.run_until(60_000, |s| s.eth_resets() > 0);
    assert!(recovered, "ethernet reset issued");

    // Both links keep moving traffic afterwards.
    let (mem_beats, eth_beats) = (system.mem().beats_written(), system.eth().beats_txed());
    system.run(5_000);
    assert!(
        system.mem().beats_written() > mem_beats,
        "memory traffic resumed"
    );
    assert!(
        system.eth().beats_txed() > eth_beats,
        "ethernet traffic resumed"
    );
}
