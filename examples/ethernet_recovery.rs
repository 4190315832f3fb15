//! The paper's system-level story (Figs. 10 & 11) as a narrated
//! scenario: a Cheshire-like SoC whose Ethernet IP develops a fault
//! mid-operation; the TMU detects it, isolates the IP, aborts the
//! outstanding transactions with `SLVERR`, interrupts the CPU, requests
//! a hardware reset, and traffic resumes.
//!
//! ```text
//! cargo run --example ethernet_recovery
//! ```

use axi_tmu::faults::{FaultClass, FaultPlan, Trigger};
use axi_tmu::soc::system::{System, SystemConfig};
use axi_tmu::tmu::{BudgetConfig, TelemetryConfig, TmuConfig, TraceEvent};
use axi_tmu::tmu::{TmuState, TmuVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SystemConfig {
        // System-level budgets: the base allowances must also cover
        // crossbar arbitration from CPU traffic sharing the trunk.
        tmu: TmuConfig::builder()
            .variant(TmuVariant::FullCounter)
            .budgets(BudgetConfig::system_level())
            .build()?,
        ..SystemConfig::default()
    };
    let mut system = System::new(cfg);
    system.enable_telemetry(TelemetryConfig::default());

    println!("[phase 1] healthy operation");
    system.run(1000);
    println!(
        "  cycle {:>5}: {} frames transmitted, {} CPU txns completed, 0 faults",
        system.cycle(),
        system.eth().frames_txed(),
        system.cpu_stats().total_completed()
    );
    assert_eq!(system.tmu().faults_detected(), 0);

    println!("[phase 2] the Ethernet IP stops accepting write data at cycle 1200");
    system.inject(FaultPlan::new(
        FaultClass::WReadyDrop,
        Trigger::AtCycle(1200),
    ));
    let detected = system.run_until(20_000, |s| s.tmu().faults_detected() > 0);
    assert!(detected);
    let fault = system.tmu().last_fault().expect("fault logged").clone();
    println!("  cycle {:>5}: TMU detected: {fault}", system.cycle());
    println!(
        "  cycle {:>5}: interrupt asserted at cycle {:?}, state = {:?}",
        system.cycle(),
        system.irq().first_asserted_at,
        system.tmu().state()
    );

    println!("[phase 3] isolation, SLVERR aborts, hardware reset");
    let recovered = system.run_until(20_000, |s| {
        s.eth_resets() > 0 && s.tmu().state() == TmuState::Monitoring
    });
    assert!(recovered);
    println!(
        "  cycle {:>5}: Ethernet reset {} time(s); aborted DMA writes: {}",
        system.cycle(),
        system.eth_resets(),
        system.dma_stats().writes_errored
    );

    println!("[phase 4] software clears the interrupt; traffic resumes");
    system.tmu_mut().clear_irq();
    let frames_before = system.eth().frames_txed();
    system.run(4000);
    println!(
        "  cycle {:>5}: {} new frames since recovery, faults still {}",
        system.cycle(),
        system.eth().frames_txed() - frames_before,
        system.tmu().faults_detected()
    );
    assert!(
        system.eth().frames_txed() > frames_before,
        "traffic must resume"
    );
    assert!(!system.tmu().irq_pending());
    println!("\nRecovery complete: the fault was contained to the Ethernet link while");
    println!(
        "CPU/memory traffic kept flowing ({} txns total).",
        system.cpu_stats().total_completed()
    );
    println!("\nTMU lifecycle trace:");
    for record in system.tmu().telemetry().events().iter() {
        if matches!(
            record.event,
            TraceEvent::Fault { .. } | TraceEvent::Recovery { .. }
        ) {
            println!("  {record}");
        }
    }
    Ok(())
}
