//! Integration: the descriptor DMA engine through a TMU-guarded link —
//! data integrity end to end, and driver-style failure handling when the
//! TMU aborts a transfer.

use axi_tmu::axi4::prelude::*;
use axi_tmu::faults::{FaultClass, FaultPlan, Trigger};
use axi_tmu::soc::dma::{Descriptor, DmaEngine, DmaOutcome};
use axi_tmu::soc::link::GuardedLink;
use axi_tmu::soc::memory::{pattern_word, MemSub};
use axi_tmu::tmu::{TmuConfig, TmuVariant};

/// DMA engine → TMU → memory, with injector and reset.
fn dma_link(variant: TmuVariant) -> GuardedLink<MemSub, DmaEngine> {
    GuardedLink::with_manager(
        DmaEngine::new(AxiId(4)),
        TmuConfig::builder()
            .variant(variant)
            .build()
            .expect("valid"),
        MemSub::default(),
    )
}

#[test]
fn dma_copies_verify_through_the_tmu() {
    let mut link = dma_link(TmuVariant::FullCounter);
    for i in 0..8u64 {
        link.mgr.push(Descriptor {
            src: i * 0x100,
            dst: 0x4000 + i * 0x100,
            words: 16,
        });
    }
    assert!(link.run_until(50_000, |l| l.mgr.is_idle()));
    assert_eq!(link.mgr.completed(), 8);
    assert_eq!(link.mgr.failed(), 0);
    assert_eq!(link.tmu.faults_detected(), 0);
    // Spot-check the data at both ends.
    for i in 0..8u64 {
        assert_eq!(link.sub.word(0x4000 + i * 0x100), pattern_word(i * 0x100));
    }
    // The TMU's performance log saw every transaction (8 reads + 8
    // writes).
    assert_eq!(link.tmu.perf_log().writes(), 8);
    assert_eq!(link.tmu.perf_log().reads(), 8);
}

#[test]
fn aborted_descriptor_fails_cleanly_and_queue_continues() {
    let mut link = dma_link(TmuVariant::FullCounter);
    for i in 0..4u64 {
        link.mgr.push(Descriptor {
            src: i * 0x200,
            dst: 0x8000 + i * 0x200,
            words: 32,
        });
    }
    // Break the memory's B channel mid-campaign: some descriptor's write
    // leg gets aborted with SLVERR by the TMU.
    link.inject(FaultPlan::new(
        FaultClass::BValidSuppress,
        Trigger::AtCycle(60),
    ));
    assert!(
        link.run_until(100_000, |l| l.mgr.is_idle()),
        "queue must drain"
    );
    assert_eq!(link.tmu.faults_detected(), 1, "one fault event");
    assert!(
        link.mgr.failed() >= 1,
        "the aborted descriptor reports failure"
    );
    assert!(
        link.mgr.completed() >= 1,
        "descriptors after recovery succeed"
    );
    assert_eq!(
        link.mgr.completed() + link.mgr.failed(),
        4,
        "every descriptor reaches a terminal outcome"
    );
    // The failed descriptor is identifiable for a driver retry.
    let failed: Vec<_> = link
        .mgr
        .outcomes()
        .iter()
        .filter(|(_, o)| *o == DmaOutcome::Failed)
        .collect();
    assert!(!failed.is_empty());
}

#[test]
fn tiny_counter_variant_also_recovers_dma() {
    let mut link = dma_link(TmuVariant::TinyCounter);
    for i in 0..3u64 {
        link.mgr.push(Descriptor {
            src: i * 0x100,
            dst: 0x6000 + i * 0x100,
            words: 8,
        });
    }
    link.inject(FaultPlan::new(
        FaultClass::RValidSuppress,
        Trigger::AtCycle(30),
    ));
    assert!(link.run_until(100_000, |l| l.mgr.is_idle()));
    assert_eq!(link.tmu.faults_detected(), 1);
    assert_eq!(link.mgr.completed() + link.mgr.failed(), 3);
    assert!(
        link.mgr.failed() >= 1,
        "the read-leg abort fails its descriptor"
    );
}
