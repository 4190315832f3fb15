//! Quickstart: guard a memory subordinate with a TMU, run traffic, and
//! read the observability report.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use axi_tmu::soc::link::GuardedLink;
use axi_tmu::soc::manager::TrafficPattern;
use axi_tmu::soc::memory::MemSub;
use axi_tmu::tmu::{TmuConfig, TmuReport, TmuVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Configure the monitor: Full-Counter (phase-level) with the
    //    default adaptive budgets, 4 unique IDs x 4 outstanding each.
    let cfg = TmuConfig::builder()
        .variant(TmuVariant::FullCounter)
        .max_uniq_ids(4)
        .txn_per_id(4)
        .build()?;
    println!("TMU configuration: {cfg}");

    // 2. Drop it between a traffic generator and a memory model.
    let traffic = TrafficPattern {
        total_txns: Some(200),
        ..TrafficPattern::default()
    };
    let mut link = GuardedLink::new(traffic, cfg, MemSub::default(), 0xBEEF);

    // 3. Run until all 200 transactions complete.
    let done = link.run_until(100_000, |l| l.mgr.is_done());
    assert!(done, "traffic should complete");

    // 4. Observability: everything the TMU saw.
    println!("\n{}", TmuReport::capture(&link.tmu));
    println!("\nManager view:");
    let stats = link.mgr.stats();
    println!(
        "  {} writes + {} reads completed, 0 errors expected (got {})",
        stats.writes_completed,
        stats.reads_completed,
        stats.writes_errored + stats.reads_errored
    );
    println!("  write latency: {}", stats.write_latency);
    println!("  read latency:  {}", stats.read_latency);
    Ok(())
}
