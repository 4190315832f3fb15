//! Descriptor-based DMA copies through a TMU-guarded memory link, with
//! end-to-end data verification — and a mid-campaign fault that fails
//! exactly one descriptor while the rest complete after recovery.
//!
//! ```text
//! cargo run --example dma_copy
//! ```

use axi_tmu::axi4::prelude::*;
use axi_tmu::faults::{FaultClass, FaultPlan, Trigger};
use axi_tmu::soc::dma::{Descriptor, DmaEngine, DmaOutcome};
use axi_tmu::soc::link::GuardedLink;
use axi_tmu::soc::memory::{pattern_word, MemSub};
use axi_tmu::tmu::{TmuConfig, TmuVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut link = GuardedLink::with_manager(
        DmaEngine::new(AxiId(4)),
        TmuConfig::builder()
            .variant(TmuVariant::FullCounter)
            .build()?,
        MemSub::default(),
    );
    for i in 0..6u64 {
        link.mgr.push(Descriptor {
            src: i * 0x200,
            dst: 0x8000 + i * 0x200,
            words: 32,
        });
    }
    // The memory's response channel dies at cycle 150 (and is healed by
    // the TMU-triggered reset).
    link.inject(FaultPlan::new(
        FaultClass::BValidSuppress,
        Trigger::AtCycle(150),
    ));
    link.run_until(100_000, |l| l.mgr.is_idle());

    let (dma, mem, cycle) = (&link.mgr, &link.sub, link.cycle());
    println!("campaign finished at cycle {cycle}:");
    for (desc, outcome) in dma.outcomes() {
        let verified = match outcome {
            DmaOutcome::Done => {
                let ok = (0..u64::from(desc.words))
                    .all(|i| mem.word(desc.dst + i * 8) == pattern_word(desc.src + i * 8));
                if ok {
                    "data verified"
                } else {
                    "DATA MISMATCH"
                }
            }
            DmaOutcome::Failed => "aborted by the TMU (driver would retry)",
        };
        println!(
            "  copy 0x{:05x} -> 0x{:05x} ({:3} words): {:?} — {}",
            desc.src, desc.dst, desc.words, outcome, verified
        );
    }
    println!(
        "\n{} completed, {} failed; TMU faults detected: {}",
        dma.completed(),
        dma.failed(),
        link.tmu.faults_detected()
    );
    assert!(dma.completed() >= 4 && dma.failed() >= 1);
    Ok(())
}
