//! Hot-path engine benchmark: measures the deadline-wheel engine and the
//! event-driven fast-forward against the per-cycle reference on the
//! saturated total-stall scenario, the telemetry layer's overhead on
//! that scenario and on busy Fig. 10 traffic, its cost per recorded
//! event, and the traffic regulator's overhead. Prints a table and
//! writes the measured numbers to `BENCH_hotpath.json` at the
//! repository root.

use std::hint::black_box;
use std::time::Instant;

use soc::system::System;
use tmu::{CounterEngine, TelemetryConfig, TelemetryHub, TmuVariant};
use tmu_bench::hotpath::{
    busy_event_mix, busy_system, passthrough_link, run_overload_isolation, run_saturated_stall,
    run_saturated_stall_fastforward, stall_link, telemetry_stall_link, EventMix, PassthroughLink,
    StallLink, StallRun, BUSY_CYCLES, HOTPATH_BUDGET, HOTPATH_OUTSTANDING, REGULATE_CYCLES,
};
use tmu_bench::table::Table;

/// Repetitions per timed measurement.
const REPS: u32 = 7;

/// Times `f` `REPS` times and reports the minimum, to shave scheduler
/// noise.
fn time_min<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(r);
    }
    (best, result.expect("at least one repetition"))
}

/// Cycles per chunk of an interleaved measurement.
const CHUNK: u64 = 2_000;

/// Times the links `build` returns against each other, `REPS` times over
/// fresh links, and returns each link's time for one run: the sum, over
/// its chunks, of each chunk's fastest repetition.
///
/// A run of these scenarios is only milliseconds long, far below the
/// timescale of the host's throughput swings, which scatter any
/// back-to-back ratio by around +/-8%. The links are therefore advanced
/// by `advance` in alternating chunks of [`CHUNK`] cycles until each has
/// run `cycles`, so every slow host regime taxes all of them almost
/// equally. A scheduler stall still lands in one chunk of one link, and
/// on a link that runs a few milliseconds a 1 ms stall moves a mean by a
/// fifth; each chunk's minimum over the repetitions drops it. The
/// simulations are deterministic, so a chunk does the same work in every
/// repetition. `check` asserts each repetition's outcome.
fn time_interleaved<L, const N: usize>(
    mut build: impl FnMut() -> [L; N],
    cycles: u64,
    mut advance: impl FnMut(&mut L, u64),
    mut check: impl FnMut(&[L; N]),
) -> [f64; N] {
    let chunks = cycles.div_ceil(CHUNK);
    let mut fastest = [(); N].map(|()| vec![f64::INFINITY; chunks as usize]);
    for rep in 0..REPS as usize {
        let mut links = build();
        for chunk_index in 0..chunks {
            let chunk = CHUNK.min(cycles - chunk_index * CHUNK);
            let c = chunk_index as usize;
            // Rotate which link leads so periodic background load cannot
            // alias onto one of them.
            for k in 0..N {
                let i = (rep + c + k) % N;
                let start = Instant::now();
                advance(&mut links[i], chunk);
                fastest[i][c] = fastest[i][c].min(start.elapsed().as_secs_f64());
            }
        }
        check(&links);
    }
    fastest.map(|chunk_times| chunk_times.iter().sum())
}

struct StallMeasurement {
    variant: TmuVariant,
    per_cycle_s: f64,
    wheel_s: f64,
    fastforward_s: f64,
    run: StallRun,
    fast: StallRun,
}

/// Fast-forward runs per batch. One run takes ~1/60 of a per-cycle
/// chunk, so a batch lasts at least about one chunk.
const FF_BATCH: u64 = 64;

/// One side of the total-stall measurement: a stepped link, or
/// fast-forward runs timed in batches of [`FF_BATCH`].
enum StallBench {
    Stepped(Box<StallLink>),
    FastForward(TmuVariant),
}

/// The total-stall scenario under both engines and under fast-forward,
/// all three timed against each other by [`time_interleaved`]. A
/// fast-forward run (130 harness steps) is far shorter than a chunk, so
/// each of its chunks is a batch of [`FF_BATCH`] back-to-back runs: it
/// is timed at the same moments as the stepped links it is divided
/// into, and its time per run is its total over the batched runs.
fn measure_stall(variant: TmuVariant) -> StallMeasurement {
    let reference = run_saturated_stall(variant, CounterEngine::PerCycle, HOTPATH_BUDGET);
    let wheel = run_saturated_stall(variant, CounterEngine::DeadlineWheel, HOTPATH_BUDGET);
    assert_eq!(
        (reference.first_fault_cycle, reference.inflight_cycles),
        (wheel.first_fault_cycle, wheel.inflight_cycles),
        "{variant:?}: engines diverged"
    );
    let fast = run_saturated_stall_fastforward(variant, HOTPATH_BUDGET);
    assert_eq!(
        (reference.first_fault_cycle, reference.inflight_cycles),
        (fast.first_fault_cycle, fast.inflight_cycles),
        "{variant:?}: fast-forward diverged"
    );
    let [per_cycle_s, wheel_s, batches_s] = time_interleaved(
        || {
            [
                StallBench::Stepped(Box::new(stall_link(
                    variant,
                    CounterEngine::PerCycle,
                    HOTPATH_BUDGET,
                ))),
                StallBench::Stepped(Box::new(stall_link(
                    variant,
                    CounterEngine::DeadlineWheel,
                    HOTPATH_BUDGET,
                ))),
                StallBench::FastForward(variant),
            ]
        },
        reference.steps_executed,
        |bench, chunk| match bench {
            StallBench::Stepped(link) => link.run(chunk),
            StallBench::FastForward(variant) => {
                for _ in 0..FF_BATCH {
                    black_box(run_saturated_stall_fastforward(*variant, HOTPATH_BUDGET));
                }
            }
        },
        |benches| {
            for bench in benches {
                if let StallBench::Stepped(l) = bench {
                    let fault = l.tmu.last_fault().expect("fault recorded");
                    assert_eq!(
                        (fault.cycle, fault.inflight_cycles),
                        (reference.first_fault_cycle, reference.inflight_cycles),
                        "{variant:?}: a timed run diverged"
                    );
                }
            }
        },
    );
    let ff_runs = reference.steps_executed.div_ceil(CHUNK) * FF_BATCH;
    StallMeasurement {
        variant,
        per_cycle_s,
        wheel_s,
        fastforward_s: batches_s / ff_runs as f64,
        run: reference,
        fast,
    }
}

/// Nanoseconds per [`TelemetryHub::record`] call on `mix`, with every
/// sink on (default configuration): the fastest of `REPS` passes over
/// the mix, after one pass that fills the rings. Each pass shifts the
/// cycles past the previous one, so spans stay well formed.
fn record_ns_per_event(mix: &EventMix) -> f64 {
    let mut hub = TelemetryHub::enabled_with(TelemetryConfig::default());
    let span = mix.last().map_or(0, |&(cycle, _, _)| cycle + 1);
    let mut offset = 0;
    let mut pass = || {
        for &(cycle, source, event) in mix {
            hub.record(cycle + offset, source, black_box(event));
        }
        offset += span;
    };
    pass();
    let (best_s, ()) = time_min(pass);
    best_s * 1e9 / mix.len() as f64
}

fn json_f(value: f64) -> String {
    format!("{value:.6}")
}

fn main() {
    println!(
        "hot-path engine benchmark: {HOTPATH_OUTSTANDING} outstanding writes, \
         budget {HOTPATH_BUDGET} cycles, per-chunk min of {REPS} reps\n"
    );

    let stalls: Vec<StallMeasurement> = [TmuVariant::TinyCounter, TmuVariant::FullCounter]
        .into_iter()
        .map(measure_stall)
        .collect();

    let mut table = Table::new(
        "saturated total-stall scenario",
        &[
            "variant",
            "per-cycle (ms)",
            "wheel (ms)",
            "wheel speedup",
            "fast-fwd (ms)",
            "fast-fwd speedup",
        ],
    );
    for m in &stalls {
        table.row_owned(vec![
            format!("{:?}", m.variant),
            format!("{:.3}", m.per_cycle_s * 1e3),
            format!("{:.3}", m.wheel_s * 1e3),
            format!("{:.2}x", m.per_cycle_s / m.wheel_s),
            format!("{:.3}", m.fastforward_s * 1e3),
            format!("{:.2}x", m.per_cycle_s / m.fastforward_s),
        ]);
    }
    println!("{}", table.render());
    for m in &stalls {
        println!(
            "{:?}: fault at cycle {}, {} harness steps stepped vs {} fast-forwarded",
            m.variant, m.run.first_fault_cycle, m.run.steps_executed, m.fast.steps_executed
        );
    }

    // Telemetry overhead on the wheel engine. The baseline and the
    // telemetry-disabled link are the same program (a default hub is
    // disabled), so their ratio is an A/A reading of the interleaved
    // timer's noise, not a cost; the enabled ratio is the cost. Each
    // link runs to the wheel run's first fault and must reproduce it.
    let tel_variant = TmuVariant::FullCounter;
    let wheel = stalls
        .iter()
        .find(|m| m.variant == tel_variant)
        .expect("FullCounter measured above")
        .run;
    let [wheel_baseline_s, tel_off_s, tel_on_s] = time_interleaved(
        || [false, false, true].map(|on| telemetry_stall_link(tel_variant, HOTPATH_BUDGET, on)),
        wheel.steps_executed,
        StallLink::run,
        |links| {
            for l in links {
                let fault = l.tmu.last_fault().expect("fault recorded");
                assert_eq!(
                    (fault.cycle, fault.inflight_cycles),
                    (wheel.first_fault_cycle, wheel.inflight_cycles),
                    "telemetry changed the benchmark outcome"
                );
            }
        },
    );
    let disabled_ratio = tel_off_s / wheel_baseline_s;
    let enabled_ratio = tel_on_s / tel_off_s;
    println!(
        "\ntelemetry overhead ({tel_variant:?}, wheel engine, per-chunk min of {REPS}): baseline {:.3} ms, \
         disabled {:.3} ms ({disabled_ratio:.3}x), enabled {:.3} ms ({enabled_ratio:.2}x)",
        wheel_baseline_s * 1e3,
        tel_off_s * 1e3,
        tel_on_s * 1e3,
    );

    // Enabled telemetry on busy traffic: the Fig. 10 system with the
    // Ethernet TMU recording against the same system with it off. Both
    // must complete the same transactions.
    let [busy_off_s, busy_on_s] = time_interleaved(
        || [false, true].map(busy_system),
        BUSY_CYCLES,
        System::run,
        |systems| {
            let done =
                |s: &System| s.cpu_stats().total_completed() + s.dma_stats().total_completed();
            assert_eq!(
                done(&systems[0]),
                done(&systems[1]),
                "telemetry changed the busy system's traffic"
            );
        },
    );
    let busy_ratio = busy_on_s / busy_off_s;
    let mix = busy_event_mix(BUSY_CYCLES);
    let record_ns = record_ns_per_event(&mix);
    println!(
        "busy Fig. 10 system ({BUSY_CYCLES} cycles, Ethernet TMU telemetry, per-chunk min of {REPS}): \
         off {:.3} ms, on {:.3} ms ({busy_ratio:.3}x); record {record_ns:.2} ns/event over {} events",
        busy_off_s * 1e3,
        busy_on_s * 1e3,
        mix.len(),
    );

    // Traffic regulation: the disabled regulator must be a free
    // pass-through (wire copies plus one branch per channel), so the
    // regulated run must sit within noise of the bare fabric (the
    // acceptance bound is a 1.05x ratio). The overload_isolation
    // scenario times the full sever-and-ride-through story.
    const REG_BENCH_CYCLES: u64 = 5 * REGULATE_CYCLES;
    let [bare_s, passthrough_s] = time_interleaved(
        || [passthrough_link(false), passthrough_link(true)],
        REG_BENCH_CYCLES,
        PassthroughLink::run,
        |links| {
            let checksum =
                |l: &PassthroughLink| l.stats(0).total_completed() + l.stats(1).total_completed();
            assert_eq!(
                checksum(&links[0]),
                checksum(&links[1]),
                "a disabled regulator perturbed the traffic"
            );
        },
    );
    let passthrough_ratio = passthrough_s / bare_s;
    let (overload_s, overload) = time_min(run_overload_isolation);
    assert_eq!(
        overload.trunk_faults, 0,
        "wire-legal greed must not register as a protocol fault"
    );
    println!(
        "\nregulator pass-through ({REG_BENCH_CYCLES} cycles, 2 managers, per-chunk min of {REPS}): \
         bare {:.3} ms, disabled-regulator {:.3} ms ({passthrough_ratio:.3}x)",
        bare_s * 1e3,
        passthrough_s * 1e3,
    );
    println!(
        "overload_isolation: {:.3} ms; offender severed at cycle {}, \
         victim completed {} txns, offender {} txns, trunk faults {}",
        overload_s * 1e3,
        overload.isolated_at,
        overload.victim_completed,
        overload.offender_completed,
        overload.trunk_faults
    );

    // The offline workspace has no serialisation crate, so the JSON
    // summary is assembled by hand.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"scenario\": {{\"outstanding\": {HOTPATH_OUTSTANDING}, \"budget_cycles\": {HOTPATH_BUDGET}, \"reps\": {REPS}}},\n"
    ));
    json.push_str("  \"total_stall\": [\n");
    for (i, m) in stalls.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"variant\": \"{:?}\", \"per_cycle_s\": {}, \"wheel_s\": {}, \"wheel_speedup\": {}, \"fastforward_s\": {}, \"fastforward_speedup\": {}, \"first_fault_cycle\": {}, \"steps_stepped\": {}, \"steps_fastforward\": {}}}{}\n",
            m.variant,
            json_f(m.per_cycle_s),
            json_f(m.wheel_s),
            json_f(m.per_cycle_s / m.wheel_s),
            json_f(m.fastforward_s),
            json_f(m.per_cycle_s / m.fastforward_s),
            m.run.first_fault_cycle,
            m.run.steps_executed,
            m.fast.steps_executed,
            if i + 1 < stalls.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"telemetry\": {{\"variant\": \"{tel_variant:?}\", \"wheel_baseline_s\": {}, \"disabled_s\": {}, \"enabled_s\": {}, \"disabled_overhead_ratio\": {}, \"enabled_overhead_ratio\": {}, \"busy_cycles\": {BUSY_CYCLES}, \"busy_disabled_s\": {}, \"busy_enabled_s\": {}, \"busy_enabled_overhead_ratio\": {}, \"busy_events\": {}, \"record_ns_per_event\": {}}},\n",
        json_f(wheel_baseline_s),
        json_f(tel_off_s),
        json_f(tel_on_s),
        json_f(disabled_ratio),
        json_f(enabled_ratio),
        json_f(busy_off_s),
        json_f(busy_on_s),
        json_f(busy_ratio),
        mix.len(),
        json_f(record_ns)
    ));
    json.push_str(&format!(
        "  \"regulator\": {{\"passthrough_cycles\": {REG_BENCH_CYCLES}, \"passthrough_reps\": {REPS}, \"overload_cycles\": {REGULATE_CYCLES}, \"bare_s\": {}, \"passthrough_s\": {}, \"passthrough_overhead_ratio\": {}, \"overload_isolation_s\": {}, \"isolated_at_cycle\": {}, \"victim_completed\": {}, \"offender_completed\": {}, \"trunk_faults\": {}}}\n",
        json_f(bare_s),
        json_f(passthrough_s),
        json_f(passthrough_ratio),
        json_f(overload_s),
        overload.isolated_at,
        overload.victim_completed,
        overload.offender_completed,
        overload.trunk_faults
    ));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, json).expect("write BENCH_hotpath.json");
    println!("\nwrote {path}");
}
