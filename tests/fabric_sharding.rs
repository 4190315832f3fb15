//! Integration: the sharded monitoring fabric — two monitored
//! subordinates faulting and recovering independently, including with
//! overlapping recovery windows, plus the fabric's merged views.

use axi_tmu::faults::{FaultClass, FaultPlan, Trigger};
use axi_tmu::soc::system::{System, SystemConfig};
use axi_tmu::tmu::{BudgetConfig, TmuConfig, TmuState, TmuVariant};

/// Both demux ports monitored: a Full-Counter TMU on the Ethernet link
/// and a Tiny-Counter TMU on the memory link (the paper's
/// mixed-criticality coexistence argument, §IV).
fn dual_monitor_cfg() -> SystemConfig {
    SystemConfig {
        tmu: TmuConfig::builder()
            .variant(TmuVariant::FullCounter)
            .budgets(BudgetConfig::system_level())
            .build()
            .expect("valid config"),
        mem_tmu: Some(
            TmuConfig::builder()
                .variant(TmuVariant::TinyCounter)
                .budgets(BudgetConfig::system_level())
                .build()
                .expect("valid config"),
        ),
        ..SystemConfig::default()
    }
}

#[test]
fn overlapping_faults_recover_independently() {
    let mut system = System::new(dual_monitor_cfg());
    assert!(system.fabric().is_attached(0), "memory port monitored");
    assert!(system.fabric().is_attached(1), "ethernet port monitored");

    // Healthy warm-up.
    system.run(1500);
    assert_eq!(system.fabric().faults_detected(), 0);

    // Break both links at nearly the same time, so the two slots walk
    // their sever → abort → reset → resume sequences concurrently.
    system.inject(FaultPlan::new(
        FaultClass::BValidSuppress,
        Trigger::AtCycle(1600),
    ));
    system.inject_mem(FaultPlan::new(
        FaultClass::BValidSuppress,
        Trigger::AtCycle(1650),
    ));

    let both_detected = system.run_until(60_000, |s| {
        s.tmu().faults_detected() > 0 && s.mem_tmu().expect("configured").faults_detected() > 0
    });
    assert!(both_detected, "each slot must detect its own fault");
    assert_eq!(system.fabric().faults_detected(), 2, "merged fault count");

    // Each port's private reset line fires and its TMU resumes, even
    // though the recoveries overlap.
    let both_recovered = system.run_until(60_000, |s| {
        s.eth_resets() > 0
            && s.mem_resets() > 0
            && s.tmu().state() == TmuState::Monitoring
            && s.mem_tmu().expect("configured").state() == TmuState::Monitoring
    });
    assert!(both_recovered, "both slots must recover independently");
    assert_eq!(system.tmu().faults_detected(), 1, "one ethernet fault");
    assert_eq!(
        system.mem_tmu().expect("configured").faults_detected(),
        1,
        "one memory fault"
    );
    assert_eq!(system.fabric().reset_requests(0), 1);
    assert_eq!(system.fabric().reset_requests(1), 1);

    // The merged IRQ line is still pending until software clears both.
    assert!(system.fabric().irq_pending(), "merged IRQ level");
    system.tmu_mut().clear_irq();
    assert!(system.fabric().irq_pending(), "memory slot still pending");

    // Both links keep moving traffic afterwards.
    let (mem_beats, eth_beats) = (system.mem().beats_written(), system.eth().beats_txed());
    system.run(6_000);
    assert!(system.mem().beats_written() > mem_beats, "memory resumed");
    assert!(system.eth().beats_txed() > eth_beats, "ethernet resumed");
    assert_eq!(system.fabric().faults_detected(), 2, "no refaults");
}

#[test]
fn unmonitored_memory_port_is_transparent() {
    // Same traffic with and without the fabric's memory slot attached:
    // a healthy run must complete identical work, i.e. the pass-through
    // path of an empty slot is wire-exact.
    let run = |mem_monitored: bool| {
        let mut cfg = dual_monitor_cfg();
        if !mem_monitored {
            cfg.mem_tmu = None;
        }
        let mut system = System::new(cfg);
        system.run(8_000);
        assert_eq!(system.fabric().faults_detected(), 0);
        (
            system.cpu_stats().total_completed(),
            system.dma_stats().total_completed(),
            system.mem().beats_written(),
            system.eth().beats_txed(),
        )
    };
    assert_eq!(run(true), run(false), "monitoring must not perturb traffic");
}

#[test]
fn fabric_merges_deadlines_across_slots() {
    let mut system = System::new(dual_monitor_cfg());
    // Run until both links have transactions outstanding so each slot
    // has a live timeout bound.
    let busy = system.run_until(10_000, |s| {
        s.tmu().outstanding() > 0 && s.mem_tmu().expect("configured").outstanding() > 0
    });
    assert!(busy, "both links must carry in-flight transactions");
    let mem_deadline = system
        .fabric_mut()
        .tmu_mut(0)
        .expect("configured")
        .next_deadline();
    let eth_deadline = system
        .fabric_mut()
        .tmu_mut(1)
        .expect("configured")
        .next_deadline();
    let expected = [mem_deadline, eth_deadline].into_iter().flatten().min();
    assert!(expected.is_some(), "a timeout bound is armed");
    assert_eq!(
        system.fabric_mut().next_deadline(),
        expected,
        "merged deadline is the min over the slots"
    );
}
