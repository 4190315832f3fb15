//! System-level telemetry span test: a known multi-burst write
//! transaction driven through a guarded link must produce one
//! transaction span whose per-phase slices are contiguous, tile the span
//! exactly, and appear in the exported Chrome trace-event JSON with
//! matching begin/end cycles — the nesting Perfetto renders as phase
//! slices inside the transaction slice. A second test checks the bounded
//! span and sample rings against an unbounded run of the same traffic.

use axi_tmu::soc::link::GuardedLink;
use axi_tmu::soc::manager::TrafficPattern;
use axi_tmu::soc::memory::{MemConfig, MemSub};
use axi_tmu::tmu::telemetry::MetricsSample;
use axi_tmu::tmu::{CounterEngine, TelemetryConfig, TmuConfig, TmuVariant};

const BEATS: u16 = 4;
const AXI_ID: u16 = 5;

/// One write transaction of `BEATS` beats under a fixed AXI ID.
fn single_write_pattern() -> TrafficPattern {
    TrafficPattern {
        write_ratio: 1.0,
        burst_lens: vec![BEATS],
        ids: vec![AXI_ID],
        addr_base: 0x2000,
        addr_span: 0x100,
        max_outstanding: 1,
        issue_gap: 0,
        total_txns: Some(1),
        verify_data: false,
    }
}

fn fc_cfg() -> TmuConfig {
    TmuConfig::builder()
        .variant(TmuVariant::FullCounter)
        .max_uniq_ids(4)
        .txn_per_id(4)
        .engine(CounterEngine::DeadlineWheel)
        .build()
        .expect("valid configuration")
}

/// Runs the scenario and returns the link after the transaction retired.
fn run_single_write() -> GuardedLink<MemSub> {
    let mem = MemConfig {
        b_latency: 3,
        r_warmup: 1,
        r_beat_gap: 0,
        max_inflight: 4,
    };
    let mut link = GuardedLink::new(single_write_pattern(), fc_cfg(), MemSub::new(mem), 11);
    link.enable_telemetry(TelemetryConfig {
        sample_every: 8,
        ..TelemetryConfig::default()
    });
    let done = link.run_until(2_000, |l| l.mgr.stats().total_completed() >= 1);
    assert!(done, "the single write must complete");
    // A few drain cycles so the dequeue has definitely committed.
    link.run_until(16, |_| false);
    link
}

#[test]
fn multi_burst_write_span_tiles_and_nests_in_chrome_trace() {
    let link = run_single_write();
    let spans = link
        .tmu
        .telemetry()
        .spans()
        .expect("span collection enabled")
        .spans()
        .iter()
        .cloned()
        .collect::<Vec<_>>();
    assert_eq!(spans.len(), 1, "exactly one monitored transaction");
    let span = &spans[0];
    assert_eq!(span.id, AXI_ID);
    assert_eq!(span.beats, BEATS);
    assert!(!span.aborted, "a healthy write must retire, not abort");
    assert!(span.end > span.begin, "span must cover at least one cycle");

    // The per-phase slices tile [begin, end) exactly: first slice starts
    // at the span begin, each slice ends where the next begins, the last
    // slice ends at the span end, and phase indices only move forward.
    assert!(span.phases().len() >= 3, "AW, data, and response phases");
    assert_eq!(span.phases()[0].begin, span.begin);
    assert_eq!(span.phases().last().unwrap().end, span.end);
    for pair in span.phases().windows(2) {
        assert_eq!(
            pair[0].end, pair[1].begin,
            "phase slices must be contiguous"
        );
        assert!(
            pair[0].phase.index() < pair[1].phase.index(),
            "phases must advance monotonically"
        );
    }
    assert_eq!(
        span.phases().iter().map(|s| s.end - s.begin).sum::<u64>(),
        span.end - span.begin,
        "slices must sum to the span length"
    );
    assert_eq!(span.phases()[0].phase.name(), "AW-handshake");
    let names: Vec<&str> = span.phases().iter().map(|s| s.phase.name()).collect();
    assert!(
        names.contains(&"resp-wait") || names.contains(&"resp-ready"),
        "a write span must include a response phase: {names:?}"
    );

    // The exported Chrome trace carries the same cycles: the outer txn
    // slice and every nested phase slice appear with the exact ts/dur
    // computed from the span — nested because each phase interval lies
    // inside the transaction interval on the same track.
    let json = link.tmu.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains(&format!("\"name\":\"W txn id={AXI_ID}\"")));
    let outer = format!("\"ts\":{},\"dur\":{}", span.begin, span.end - span.begin);
    assert!(json.contains(&outer), "outer slice {outer} missing: {json}");
    for slice in span.phases() {
        assert!(
            slice.begin >= span.begin && slice.end <= span.end,
            "phase slice must nest inside the transaction slice"
        );
        let nested = format!(
            "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{},\"dur\":{}",
            slice.phase.name(),
            slice.begin,
            slice.end - slice.begin
        );
        assert!(
            json.contains(&nested),
            "nested slice {nested} missing: {json}"
        );
    }

    // The same run also produced periodic metrics samples with the
    // monitor's gauges (sampling and spans share one hub).
    let jsonl = link.tmu.metrics_jsonl();
    assert!(jsonl.contains("tmu.outstanding"));
}

/// Mixed read/write traffic that keeps the link busy indefinitely.
fn busy_pattern() -> TrafficPattern {
    TrafficPattern {
        write_ratio: 0.5,
        burst_lens: vec![1, 4, 8],
        ids: vec![0, 1, 2, 3],
        addr_base: 0x4000,
        addr_span: 0x1000,
        max_outstanding: 4,
        issue_gap: 0,
        total_txns: None,
        verify_data: false,
    }
}

/// A busy link with telemetry bounded to `retain` spans and samples.
fn busy_link(retain: usize, cycles: u64) -> GuardedLink<MemSub> {
    let mut link = GuardedLink::new(
        busy_pattern(),
        fc_cfg(),
        MemSub::new(MemConfig::default()),
        3,
    );
    link.enable_telemetry(TelemetryConfig {
        sample_every: 8,
        max_spans: retain,
        max_samples: retain,
        ..TelemetryConfig::default()
    });
    link.run(cycles);
    link
}

#[test]
fn bounded_rings_keep_the_newest_records_in_order() {
    const RETAIN: usize = 8;
    const CYCLES: u64 = 4_000;
    // Telemetry never changes the simulation, so a run with room for
    // every record is the reference for what the small rings must hold.
    let full = busy_link(1 << 20, CYCLES);
    let ring = busy_link(RETAIN, CYCLES);
    let full_hub = full.tmu.telemetry();
    let ring_hub = ring.tmu.telemetry();

    let all_spans = full_hub.spans().expect("spans on").spans();
    let spans = ring_hub.spans().expect("spans on");
    assert_eq!(
        full_hub.spans().expect("spans on").dropped_spans(),
        0,
        "the reference run keeps everything"
    );
    assert!(
        all_spans.len() > 50 * RETAIN,
        "many evictions: {} spans retired",
        all_spans.len()
    );
    assert_eq!(spans.spans().len(), RETAIN);
    assert_eq!(
        spans.dropped_spans() + spans.spans().len() as u64,
        all_spans.len() as u64,
        "every retired span is either retained or counted as dropped"
    );
    assert!(
        spans
            .spans()
            .iter()
            .eq(all_spans.iter().skip(all_spans.len() - RETAIN)),
        "the ring holds the newest spans in retirement order"
    );

    let all_samples = full_hub.metrics().samples();
    let metrics = ring_hub.metrics();
    assert_eq!(full_hub.metrics().samples_dropped(), 0);
    assert!(all_samples.len() > 50 * RETAIN);
    assert_eq!(metrics.samples().len(), RETAIN);
    assert_eq!(
        metrics.samples_dropped() + metrics.samples().len() as u64,
        all_samples.len() as u64
    );
    assert!(metrics
        .samples()
        .iter()
        .eq(all_samples.iter().skip(all_samples.len() - RETAIN)));

    // The exports carry exactly the retained records, oldest first.
    let json = ring.tmu.chrome_trace_json();
    assert_eq!(json.matches("\"cat\":\"txn\"").count(), RETAIN);
    let phases: usize = spans.spans().iter().map(|s| s.phases().len()).sum();
    assert_eq!(json.matches("\"cat\":\"phase\"").count(), phases);
    let mut at = 0;
    for span in spans.spans() {
        let outer = format!(
            "\"name\":\"{} txn id={}\",\"cat\":\"txn\",\"ph\":\"X\",\"ts\":{},\"dur\":{}",
            span.dir.letter(),
            span.id,
            span.begin,
            span.cycles()
        );
        at += json[at..]
            .find(&outer)
            .unwrap_or_else(|| panic!("{outer} missing or out of order: {json}"));
    }
    let lines: Vec<String> = metrics
        .samples()
        .iter()
        .map(MetricsSample::to_json)
        .collect();
    assert_eq!(ring.tmu.metrics_jsonl().lines().collect::<Vec<_>>(), lines);
}
