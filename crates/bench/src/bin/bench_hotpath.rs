//! Hot-path engine benchmark: measures the deadline-wheel engine and the
//! event-driven fast-forward against the per-cycle reference on the
//! saturated total-stall scenario, and times the serial Fig. 9 campaign
//! (checking the parallel runner reproduces it). Prints a table and
//! writes the measured numbers to `BENCH_hotpath.json` at the repository
//! root.

use std::time::Instant;

use faults::FaultClass;
use tmu::{CounterEngine, TmuVariant};
use tmu_bench::hotpath::{
    passthrough_link, run_overload_isolation, run_saturated_stall, run_saturated_stall_fastforward,
    run_saturated_stall_with_telemetry, PassthroughLink, StallRun, HOTPATH_BUDGET,
    HOTPATH_OUTSTANDING, REGULATE_CYCLES,
};
use tmu_bench::parallel::{default_threads, fig9_parallel};
use tmu_bench::table::Table;

/// Repetitions per timed measurement; the minimum is reported to shave
/// scheduler noise.
const REPS: u32 = 3;

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

struct StallMeasurement {
    variant: TmuVariant,
    per_cycle_s: f64,
    wheel_s: f64,
    fastforward_s: f64,
    run: StallRun,
    fast: StallRun,
}

fn measure_stall(variant: TmuVariant) -> StallMeasurement {
    let (per_cycle_s, reference) =
        time_min(|| run_saturated_stall(variant, CounterEngine::PerCycle, HOTPATH_BUDGET));
    let (wheel_s, wheel) =
        time_min(|| run_saturated_stall(variant, CounterEngine::DeadlineWheel, HOTPATH_BUDGET));
    let (fastforward_s, fast) =
        time_min(|| run_saturated_stall_fastforward(variant, HOTPATH_BUDGET));
    assert_eq!(
        (reference.first_fault_cycle, reference.inflight_cycles),
        (wheel.first_fault_cycle, wheel.inflight_cycles),
        "{variant:?}: engines diverged"
    );
    assert_eq!(
        (reference.first_fault_cycle, reference.inflight_cycles),
        (fast.first_fault_cycle, fast.inflight_cycles),
        "{variant:?}: fast-forward diverged"
    );
    StallMeasurement {
        variant,
        per_cycle_s,
        wheel_s,
        fastforward_s,
        run: reference,
        fast,
    }
}

fn json_f(value: f64) -> String {
    format!("{value:.6}")
}

fn main() {
    println!(
        "hot-path engine benchmark: {HOTPATH_OUTSTANDING} outstanding writes, \
         budget {HOTPATH_BUDGET} cycles, min of {REPS} reps\n"
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

    // Telemetry overhead on the wheel engine: a disabled hub must cost
    // one branch per record call, so the telemetry-disabled run must sit
    // within noise of the plain wheel run (target ratio ~1.0; on a
    // constrained 1-CPU host individual runs scatter roughly +/-10%).
    let tel_variant = TmuVariant::FullCounter;
    let (tel_off_s, tel_off) =
        time_min(|| run_saturated_stall_with_telemetry(tel_variant, HOTPATH_BUDGET, false));
    let (tel_on_s, tel_on) =
        time_min(|| run_saturated_stall_with_telemetry(tel_variant, HOTPATH_BUDGET, true));
    assert_eq!(
        (tel_off.first_fault_cycle, tel_off.inflight_cycles),
        (tel_on.first_fault_cycle, tel_on.inflight_cycles),
        "telemetry changed the benchmark outcome"
    );
    let wheel_baseline_s = stalls
        .iter()
        .find(|m| m.variant == tel_variant)
        .expect("FullCounter measured above")
        .wheel_s;
    let disabled_ratio = tel_off_s / wheel_baseline_s;
    let enabled_ratio = tel_on_s / tel_off_s;
    println!(
        "\ntelemetry overhead ({tel_variant:?}, wheel engine): baseline {:.3} ms, \
         disabled {:.3} ms ({disabled_ratio:.3}x), enabled {:.3} ms ({enabled_ratio:.2}x)",
        wheel_baseline_s * 1e3,
        tel_off_s * 1e3,
        tel_on_s * 1e3,
    );

    // Traffic regulation: the disabled regulator must be a free
    // pass-through (wire copies plus one branch per channel), so the
    // regulated run must sit within noise of the bare fabric (the
    // acceptance bound is a 1.05x ratio). The overload_isolation
    // scenario times the full sever-and-ride-through story.
    // A pass-through run is only tens of milliseconds — far below the
    // timescale of the host's throughput swings, which scatter any
    // back-to-back ratio by around +/-8%. The two links are therefore
    // advanced in alternating sub-millisecond chunks, so every slow
    // host regime taxes both sides almost equally, and the ratio is
    // taken between the summed chunk times.
    const REG_BENCH_CYCLES: u64 = 5 * REGULATE_CYCLES;
    const REG_CHUNK: u64 = 2_000;
    const REG_REPS: u32 = 3;
    let mut bare_total = 0.0f64;
    let mut passthrough_total = 0.0f64;
    for rep in 0..REG_REPS {
        let mut bare = passthrough_link(false);
        let mut passthrough = passthrough_link(true);
        for chunk in 0..REG_BENCH_CYCLES / REG_CHUNK {
            // Alternate which link leads so periodic background load
            // cannot alias onto one side.
            let bare_leads = (rep + chunk as u32).is_multiple_of(2);
            for lead_bare in [bare_leads, !bare_leads] {
                let start = Instant::now();
                if lead_bare {
                    bare.run(REG_CHUNK);
                    bare_total += start.elapsed().as_secs_f64();
                } else {
                    passthrough.run(REG_CHUNK);
                    passthrough_total += start.elapsed().as_secs_f64();
                }
            }
        }
        let checksum =
            |l: &PassthroughLink| l.stats(0).total_completed() + l.stats(1).total_completed();
        assert_eq!(
            checksum(&bare),
            checksum(&passthrough),
            "a disabled regulator perturbed the traffic"
        );
    }
    let bare_s = bare_total / f64::from(REG_REPS);
    let passthrough_s = passthrough_total / f64::from(REG_REPS);
    let passthrough_ratio = passthrough_total / bare_total;
    let (overload_s, overload) = time_min(run_overload_isolation);
    assert_eq!(
        overload.trunk_faults, 0,
        "wire-legal greed must not register as a protocol fault"
    );
    println!(
        "\nregulator pass-through ({REG_BENCH_CYCLES} cycles, 2 managers, mean of {REG_REPS}): \
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

    let threads = default_threads();
    let classes: Vec<FaultClass> = FaultClass::WRITE_CLASSES
        .iter()
        .chain(FaultClass::READ_CLASSES.iter())
        .copied()
        .collect();
    let sweep = |threads: usize| {
        let tc = fig9_parallel(TmuVariant::TinyCounter, &classes, threads);
        let fc = fig9_parallel(TmuVariant::FullCounter, &classes, threads);
        (tc, fc)
    };
    let (serial_s, serial_rows) = time_min(|| sweep(1));
    assert_eq!(serial_rows, sweep(threads), "parallel sweep diverged");
    println!(
        "\nfig9 sweep (2 variants x {} classes): serial {:.3} ms",
        classes.len(),
        serial_s * 1e3,
    );

    // The vendored serde derive is a no-op stand-in, so the JSON summary
    // is assembled by hand.
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
        "  \"telemetry\": {{\"variant\": \"{tel_variant:?}\", \"wheel_baseline_s\": {}, \"disabled_s\": {}, \"enabled_s\": {}, \"disabled_overhead_ratio\": {}, \"enabled_overhead_ratio\": {}}},\n",
        json_f(wheel_baseline_s),
        json_f(tel_off_s),
        json_f(tel_on_s),
        json_f(disabled_ratio),
        json_f(enabled_ratio)
    ));
    json.push_str(&format!(
        "  \"regulator\": {{\"passthrough_cycles\": {REG_BENCH_CYCLES}, \"passthrough_reps\": {REG_REPS}, \"overload_cycles\": {REGULATE_CYCLES}, \"bare_s\": {}, \"passthrough_s\": {}, \"passthrough_overhead_ratio\": {}, \"overload_isolation_s\": {}, \"isolated_at_cycle\": {}, \"victim_completed\": {}, \"offender_completed\": {}, \"trunk_faults\": {}}},\n",
        json_f(bare_s),
        json_f(passthrough_s),
        json_f(passthrough_ratio),
        json_f(overload_s),
        overload.isolated_at,
        overload.victim_completed,
        overload.offender_completed,
        overload.trunk_faults
    ));
    json.push_str(&format!(
        "  \"fig9_sweep\": {{\"variants\": 2, \"classes\": {}, \"host_cpus\": {}, \"threads\": {}, \"serial_s\": {}}}\n",
        classes.len(),
        default_threads(),
        threads,
        json_f(serial_s)
    ));
    json.push_str("}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    std::fs::write(path, json).expect("write BENCH_hotpath.json");
    println!("\nwrote {path}");
}
