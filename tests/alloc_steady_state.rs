//! Integration: once warmed up, the monitored busy path makes no heap
//! allocation per cycle, with telemetry off and with it recording.
//!
//! A counting global allocator wraps the system allocator and counts the
//! allocations made on the calling thread only, so tests running in
//! parallel do not see each other's allocations. Each harness mirrors
//! one busy-traffic benchmark workload, built through the public API:
//! a deep Full-Counter link, the Fig. 10 system with both ports
//! monitored (also with the Ethernet TMU's telemetry on, its rings
//! bounded small enough to fill), and four regulated managers behind a
//! trunk TMU.

// The workspace denies `unsafe_code`; a `GlobalAlloc` cannot be written
// without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use axi_tmu::soc::link::GuardedLink;
use axi_tmu::soc::manager::TrafficPattern;
use axi_tmu::soc::memory::{MemConfig, MemSub};
use axi_tmu::soc::regulated::RegulatedLink;
use axi_tmu::soc::system::{System, SystemConfig, MEM_BASE};
use axi_tmu::tmu::{BudgetConfig, TelemetryConfig, TmuConfig, TmuVariant};
use axi_tmu::tmu_regulate::{DirBudget, RegulatorConfig};

/// Counts every allocation, zeroed allocation and reallocation made on
/// the current thread, then delegates to the system allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Cycles run before counting: long enough for every queue, map and
/// word store to reach its working size.
const WARM_CYCLES: u64 = 200_000;
/// Cycles over which no allocation may happen.
const MEASURED_CYCLES: u64 = 20_000;

/// Allocations made on this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The memory window every memory-facing manager addresses: small
/// enough that the memory's word store fills during warm-up.
const WINDOW_BYTES: u64 = 0x4000;

fn windowed(pattern: TrafficPattern) -> TrafficPattern {
    TrafficPattern {
        addr_base: MEM_BASE,
        addr_span: WINDOW_BYTES,
        ..pattern
    }
}

#[test]
fn counter_sees_this_threads_allocations() {
    let n = allocations_during(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(n, 1);
}

#[test]
fn deep_full_counter_link_allocates_nothing_per_cycle() {
    let cfg = TmuConfig::builder()
        .variant(TmuVariant::FullCounter)
        .max_uniq_ids(4)
        .txn_per_id(32)
        .check_protocol(true)
        .build()
        .expect("valid TMU configuration");
    let pattern = windowed(TrafficPattern {
        max_outstanding: 32,
        issue_gap: 0,
        ..TrafficPattern::default()
    });
    let mem = MemSub::new(MemConfig {
        max_inflight: 32,
        ..MemConfig::default()
    });
    let mut link = GuardedLink::new(pattern, cfg, mem, 1);
    link.run(WARM_CYCLES);
    let issued = link.mgr.stats().writes_issued + link.mgr.stats().reads_issued;
    let n = allocations_during(|| link.run(MEASURED_CYCLES));
    let after = link.mgr.stats().writes_issued + link.mgr.stats().reads_issued;
    assert!(after > issued + 1000, "the link must stay busy");
    assert!(link.tmu.outstanding() > 0);
    assert_eq!(n, 0, "allocations over {MEASURED_CYCLES} busy cycles");
}

/// The Fig. 10 system with both fabric ports monitored.
fn fig10_system() -> System {
    let defaults = SystemConfig::default();
    let monitor = |variant, prescaler| {
        TmuConfig::builder()
            .variant(variant)
            .prescaler(prescaler)
            .budgets(BudgetConfig::system_level())
            .check_protocol(false)
            .build()
            .expect("valid TMU configuration")
    };
    System::new(SystemConfig {
        tmu: monitor(TmuVariant::FullCounter, 1),
        mem_tmu: Some(monitor(TmuVariant::TinyCounter, 32)),
        cpu_pattern: windowed(defaults.cpu_pattern.clone()),
        seed: 1,
        ..defaults
    })
}

/// Runs `system` warm, then counts the allocations of its busy cycles.
fn busy_system_allocations(system: &mut System) -> u64 {
    system.run(WARM_CYCLES);
    let done = system.cpu_stats().total_completed() + system.dma_stats().total_completed();
    let n = allocations_during(|| system.run(MEASURED_CYCLES));
    let after = system.cpu_stats().total_completed() + system.dma_stats().total_completed();
    assert!(after > done + 100, "the system must stay busy");
    n
}

#[test]
fn fig10_system_with_both_ports_monitored_allocates_nothing_per_cycle() {
    let n = busy_system_allocations(&mut fig10_system());
    assert_eq!(n, 0, "allocations over {MEASURED_CYCLES} busy cycles");
}

#[test]
fn fig10_system_with_ethernet_telemetry_on_allocates_nothing_per_cycle() {
    let mut system = fig10_system();
    // Small bounds, so the event ring, the finished spans and the
    // sample ring all fill (and evict) during warm-up.
    system.tmu_mut().enable_telemetry(TelemetryConfig {
        ring_capacity: 256,
        max_spans: 64,
        max_samples: 16,
        ..TelemetryConfig::default()
    });
    let n = busy_system_allocations(&mut system);
    let hub = system.tmu().telemetry();
    assert!(hub.events().dropped() > 0, "the event ring wrapped");
    let spans = hub.spans().expect("span folding on");
    assert!(spans.dropped_spans() > 0, "the span ring wrapped");
    assert!(
        hub.metrics().samples_dropped() > 0,
        "the sample ring wrapped"
    );
    assert_eq!(n, 0, "allocations over {MEASURED_CYCLES} busy cycles");
}

#[test]
fn regulated_four_managers_allocate_nothing_per_cycle() {
    let regulator = |write: DirBudget, read: DirBudget, txn_per_id| {
        Some(
            RegulatorConfig::builder()
                .write_budget(write)
                .read_budget(read)
                .window_cycles(256)
                .txn_per_id(txn_per_id)
                .build()
                .expect("valid regulator configuration"),
        )
    };
    let budget = |bytes_per_window, txns_per_window| DirBudget {
        bytes_per_window,
        txns_per_window,
    };
    let background = windowed(TrafficPattern::default());
    let critical = TrafficPattern {
        burst_lens: vec![1, 2, 4],
        ids: vec![0, 1],
        max_outstanding: 2,
        ..background.clone()
    };
    let greedy = TrafficPattern {
        write_ratio: 1.0,
        burst_lens: vec![16],
        max_outstanding: 8,
        issue_gap: 0,
        ..background.clone()
    };
    let managers = vec![
        (critical, regulator(budget(2048, 32), budget(2048, 32), 4)),
        (
            background.clone(),
            regulator(budget(1024, 16), budget(1024, 16), 4),
        ),
        (background, regulator(budget(1024, 16), budget(1024, 16), 4)),
        (greedy, regulator(budget(512, 4), DirBudget::unlimited(), 8)),
    ];
    let trunk = TmuConfig::builder()
        .variant(TmuVariant::TinyCounter)
        .max_uniq_ids(16)
        .txn_per_id(8)
        .build()
        .expect("valid trunk TMU configuration");
    let mut link = RegulatedLink::new(managers, Some(trunk), MemSub::new(MemConfig::default()), 1);
    link.run(WARM_CYCLES);
    let done: u64 = (0..4).map(|p| link.stats(p).total_completed()).sum();
    let n = allocations_during(|| link.run(MEASURED_CYCLES));
    let after: u64 = (0..4).map(|p| link.stats(p).total_completed()).sum();
    assert!(after > done + 100, "the managers must stay busy");
    assert_eq!(n, 0, "allocations over {MEASURED_CYCLES} busy cycles");
}
