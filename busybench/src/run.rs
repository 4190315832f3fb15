//! The untraced end-to-end run, the traced per-layer run, the
//! determinism guard they both start with, and the result line.

use std::time::{Duration, Instant};

use crate::host::{speed_factor, Reference};
use crate::rig::Probe;
use crate::spans::{Layer, SpanTimer};
use crate::stats::{fastest, median, ratio};
use crate::workload::{warm_up, Model, Outcome, Workload, DEFAULT_SEED, MODEL_CYCLES};

/// Harness builds plus warm-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Spans plus glue must tile the traced wall time to within this share.
const TILING_TOLERANCE: f64 = 0.02;

/// One reported metric.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything that makes the run incorrect.
    pub problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        if !value.is_finite() {
            self.problems.push(format!("{name} is not finite"));
        }
        self.metrics.push(Metric { name, unit, value });
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Replays [`DEFAULT_SEED`] on the harness and lists every difference
/// from the workload's pinned outcome.
///
/// # Errors
///
/// Returns a message if the workload does not become steady.
pub fn guard(workload: Workload) -> Result<Vec<String>, String> {
    let mut harness = workload.harness(DEFAULT_SEED);
    warm_up(workload, &mut harness)?;
    harness.run(MODEL_CYCLES);
    Ok(workload
        .pin()
        .mismatches(&harness.outcome())
        .into_iter()
        .map(|m| format!("determinism guard (seed {DEFAULT_SEED}): {m}"))
        .collect())
}

/// Per-kcycle rate of a count taken over [`MODEL_CYCLES`].
fn per_kcycle(count: u64) -> f64 {
    count as f64 * 1000.0 / MODEL_CYCLES as f64
}

/// Throughput over the chunks at `picked`: the units they processed per
/// microsecond of their summed time.
fn per_us(picked: &[usize], chunk_ns: &[f64], units: impl Fn(usize) -> f64) -> f64 {
    let ns: f64 = picked.iter().map(|&i| chunk_ns[i]).sum();
    picked.iter().map(|&i| units(i)).sum::<f64>() / ns * 1e3
}

/// The untraced run: `setup_s`, then timed chunks for `seconds`, plus the
/// modelled statistics over the first [`MODEL_CYCLES`]. Host times are
/// scaled to the nominal host by reference chunks run beside them.
///
/// # Errors
///
/// Returns a message if the workload does not become steady.
pub fn end_to_end(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report {
        problems: guard(workload)?,
        ..Report::default()
    };

    let mut reference = Reference::new();
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut harness = None;
    for _ in 0..SETUP_REPS {
        drop(harness.take());
        let before = reference.chunk_ns();
        let start = Instant::now();
        let mut h = workload.harness(seed);
        warm_up(workload, &mut h)?;
        let took = start.elapsed().as_secs_f64();
        setup.push(took / speed_factor(&[before, reference.chunk_ns()]));
        harness = Some(h);
    }
    let mut harness = harness.expect("at least one set-up");

    let chunk = workload.chunk_cycles();
    assert_eq!(MODEL_CYCLES % chunk, 0, "chunks end on the model window");
    let start = harness.outcome();
    let mut model = None;
    let mut chunk_ns = Vec::new();
    let mut chunk_txns = Vec::new();
    let mut reference_ns = Vec::new();
    let mut completed = start.total_completed();
    let budget = Duration::from_secs_f64(seconds);
    let begin = Instant::now();
    while begin.elapsed() < budget || model.is_none() {
        let t = Instant::now();
        harness.run(chunk);
        chunk_ns.push(t.elapsed().as_nanos() as f64);
        let now = harness.outcome();
        chunk_txns.push((now.total_completed() - completed) as f64);
        completed = now.total_completed();
        if chunk_ns.len() as u64 * chunk == MODEL_CYCLES {
            model = Some(now);
        }
        reference_ns.push(reference.chunk_ns());
    }
    let model = model.expect("the loop runs past the model window");
    let end = harness.outcome();
    report.attempted = end.total_issued() - start.total_issued();
    report.failed = end.failures();
    eprintln!(
        "{}: seed {seed}, {} chunks of {chunk} cycles, outcome {end:?}",
        workload.name(),
        chunk_ns.len()
    );

    let fast = fastest(&chunk_ns);
    let fast_reference: Vec<f64> = fastest(&reference_ns)
        .into_iter()
        .map(|i| reference_ns[i])
        .collect();
    let factor = speed_factor(&fast_reference);
    let mcycles = per_us(&fast, &chunk_ns, |_| chunk as f64);
    eprintln!(
        "{}: {mcycles:.3} Mcycles/s on this host, host speed factor {factor:.3}",
        workload.name()
    );
    report.metric("sim_mcycles_per_s", "Mcycles/s", mcycles * factor);
    report.metric(
        "sim_ktxns_per_s",
        "ktxns/s",
        per_us(&fast, &chunk_ns, |i| chunk_txns[i]) * 1e3 * factor,
    );
    report.metric("setup_s", "s", median(&mut setup));
    report.metric(
        "txns_per_kcycle",
        "txns/kcycle",
        per_kcycle(model.total_completed() - start.total_completed()),
    );
    report.metric("write_lat_p99_cycles", "cycles", model.write_p99 as f64);
    report.metric("read_lat_p99_cycles", "cycles", model.read_p99 as f64);
    Ok(report)
}

/// The traced run. Rounds of four equal chunks run the harness twice
/// and the workload's component loop twice, once untimed and once traced,
/// in rotating order so drift hits every side alike. The harness and the
/// loop start from the same seed and warm-up, so they must end in the
/// same simulated outcome.
///
/// Host times come from the fastest tenth of each side's chunks. The
/// timer's cost is calibrated in place, as the traced minus the untimed
/// loop per span; subtracting it per span leaves each layer's self time,
/// and all self times together equal the untimed loop's time.
///
/// # Errors
///
/// Returns a message if the workload does not become steady.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report {
        problems: guard(workload)?,
        ..Report::default()
    };
    let mut harness = workload.harness(seed);
    let warm = warm_up(workload, &mut harness)?;
    let mut rig = workload.rig(seed);
    rig.run(warm);

    #[derive(Clone, Copy)]
    enum Side {
        Harness,
        Untimed,
        Traced,
    }
    const ROUND: [Side; 4] = [Side::Harness, Side::Traced, Side::Harness, Side::Untimed];
    let chunk = workload.chunk_cycles();
    assert_eq!(
        MODEL_CYCLES % (2 * chunk),
        0,
        "rounds end on the model window"
    );
    let (start_probe, start) = (rig.probe(), rig.outcome());
    let mut window: Option<(Probe, Outcome)> = None;
    let (mut harness_ns, mut untimed_ns, mut traced_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let mut rounds = 0;
    let budget = Duration::from_secs_f64(seconds);
    let begin = Instant::now();
    while begin.elapsed() < budget || window.is_none() {
        for i in 0..ROUND.len() {
            let t = Instant::now();
            match ROUND[(i + rounds) % ROUND.len()] {
                Side::Harness => {
                    harness.run(chunk);
                    harness_ns.push(t.elapsed().as_nanos() as f64);
                }
                Side::Untimed => {
                    rig.run(chunk);
                    untimed_ns.push(t.elapsed().as_nanos() as f64);
                }
                Side::Traced => {
                    let mut timer = SpanTimer::new(t);
                    rig.run_with(chunk, &mut timer);
                    traced_ns.push(t.elapsed().as_nanos() as f64);
                    spans.push(timer);
                }
            }
        }
        rounds += 1;
        if rounds as u64 * 2 * chunk == MODEL_CYCLES {
            window = Some((rig.probe(), rig.outcome()));
        }
    }

    let (harness_end, rig_end) = (harness.outcome(), rig.outcome());
    if harness_end != rig_end {
        report.problems.push(format!(
            "component loop diverged from the harness:\n  harness {harness_end:?}\n  loop    {rig_end:?}"
        ));
    }
    let raw: f64 = spans.iter().map(|t| t.raw_total() as f64).sum();
    let traced_total: f64 = traced_ns.iter().sum();
    if (raw - traced_total).abs() > TILING_TOLERANCE * traced_total {
        report.problems.push(format!(
            "spans cover {raw:.0} ns of {traced_total:.0} ns traced"
        ));
    }
    report.attempted = rig_end.total_issued() - start.total_issued();
    report.failed = rig_end.failures();

    // Per-chunk means over each side's fastest chunks. Every chunk of a
    // workload closes the same spans, so the marks of any one chunk serve.
    let mean = |picked: &[usize], value: &dyn Fn(usize) -> f64| {
        picked.iter().map(|&i| value(i)).sum::<f64>() / picked.len() as f64
    };
    let fast_traced = fastest(&traced_ns);
    let traced_chunk = mean(&fast_traced, &|i| traced_ns[i]);
    let untimed_chunk = mean(&fastest(&untimed_ns), &|i| untimed_ns[i]);
    let harness_chunk = mean(&fastest(&harness_ns), &|i| harness_ns[i]);
    let marks = &spans[0].marks;
    let timer_ns = (traced_chunk - untimed_chunk) / spans[0].total_marks() as f64;
    let self_ns = |layer: Layer| {
        let l = layer as usize;
        let raw = mean(&fast_traced, &|i| spans[i].ns[l] as f64);
        (raw - marks[l] as f64 * timer_ns).max(0.0)
    };
    let net = untimed_chunk - self_ns(Layer::Probe);
    let measured_layers = Layer::ALL
        .into_iter()
        .filter(|l| !matches!(l, Layer::Glue | Layer::Probe));
    let glue = (net - measured_layers.clone().map(self_ns).sum::<f64>()).max(0.0);
    let per_cycle = |ns: f64| ns / chunk as f64;
    for layer in measured_layers {
        report.metric(
            format!("{}.ns_per_cycle", layer.name()),
            "ns/cycle",
            per_cycle(self_ns(layer)),
        );
    }
    report.metric("glue.ns_per_cycle", "ns/cycle", per_cycle(glue));
    let share = |layers: &[Layer]| ratio(layers.iter().map(|&l| self_ns(l)).sum(), net);
    let shares: [(&str, &[Layer]); 8] = [
        ("manager", &[Layer::Manager]),
        ("mux", &[Layer::Mux]),
        ("demux", &[Layer::Demux]),
        ("memory", &[Layer::Memory]),
        ("ethernet", &[Layer::Ethernet]),
        (
            "tmu",
            &[Layer::TmuForward, Layer::TmuObserve, Layer::TmuCommit],
        ),
        (
            "regulator",
            &[Layer::RegForward, Layer::RegObserve, Layer::RegCommit],
        ),
        ("reset", &[Layer::Reset]),
    ];
    for (name, layers) in shares {
        report.metric(format!("{name}.share"), "ratio", share(layers));
    }
    report.metric("glue.share", "ratio", ratio(glue, net));
    report.metric(
        "trace.overhead_ratio",
        "ratio",
        traced_chunk / harness_chunk,
    );
    report.metric("trace.total_ns_per_cycle", "ns/cycle", per_cycle(net));
    report.metric("trace.timer_ns", "ns", timer_ns);

    let (probe, at) = window.expect("the loop runs past the model window");
    let d = |end: u64, begin: u64| end - begin;
    let (grants, denies) = (d(at.grants, start.grants), d(at.denies, start.denies));
    report.metric(
        "manager.txns_issued_per_kcycle",
        "1/kcycle",
        per_kcycle(d(at.total_issued(), start.total_issued())),
    );
    report.metric(
        "manager.addr_wait_share",
        "ratio",
        ratio(
            d(probe.addr_waited, start_probe.addr_waited) as f64,
            d(probe.addr_offered, start_probe.addr_offered) as f64,
        ),
    );
    report.metric(
        "tmu.outstanding_mean",
        "txns",
        d(probe.outstanding_sum, start_probe.outstanding_sum) as f64 / MODEL_CYCLES as f64,
    );
    report.metric(
        "memory.beats_per_kcycle",
        "1/kcycle",
        per_kcycle(d(at.mem_beats, start.mem_beats)),
    );
    report.metric(
        "ethernet.beats_per_kcycle",
        "1/kcycle",
        per_kcycle(d(at.eth_beats, start.eth_beats)),
    );
    report.metric(
        "regulator.grants_per_kcycle",
        "1/kcycle",
        per_kcycle(grants),
    );
    report.metric(
        "regulator.denies_per_kcycle",
        "1/kcycle",
        per_kcycle(denies),
    );
    report.metric(
        "regulator.grant_ratio",
        "ratio",
        ratio(grants as f64, (grants + denies) as f64),
    );
    report.metric(
        "telemetry.events_per_kcycle",
        "1/kcycle",
        per_kcycle(d(at.events, start.events)),
    );
    eprintln!(
        "{}: seed {seed}, {} chunks of {chunk} cycles traced, timer {timer_ns:.1} ns/span, outcome {rig_end:?}",
        workload.name(),
        traced_ns.len()
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the harness and the workload's component loop from the same
    /// seed to the same cycle, untimed; returns both outcomes.
    fn lockstep(workload: Workload, seed: u64, cycles: u64) -> (Outcome, Outcome) {
        let mut harness = workload.harness(seed);
        let warm = warm_up(workload, &mut harness).expect("steady");
        let mut rig = workload.rig(seed);
        rig.run(warm);
        harness.run(cycles);
        rig.run(cycles);
        (harness.outcome(), rig.outcome())
    }

    /// Short enough for a test, long enough to cross several regulator
    /// windows and telemetry samples.
    const SHORT: u64 = 20_000;

    #[test]
    fn short_runs_are_healthy_repeatable_and_match_the_component_loop() {
        for workload in Workload::ALL {
            let (harness, rig) = lockstep(workload, 3, SHORT);
            assert_eq!(harness.failures(), 0, "{}: {harness:?}", workload.name());
            assert!(harness.total_completed() > 0, "{}", workload.name());
            assert_eq!(harness, rig, "{}: differential", workload.name());
            let (again, _) = lockstep(workload, 3, SHORT);
            assert_eq!(harness, again, "{}: repeatable", workload.name());
        }
    }

    #[test]
    fn default_seed_matches_its_pins() {
        for workload in Workload::ALL {
            let mismatches = guard(workload).expect("steady");
            assert!(mismatches.is_empty(), "{}: {mismatches:?}", workload.name());
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut report = Report {
            attempted: 5,
            ..Report::default()
        };
        report.metric("setup_s", "s", 0.25);
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        report.metric("bad", "s", f64::NAN);
        assert!(!report.correct());
    }
}
