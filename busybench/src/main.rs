//! Busy-traffic benchmark of the AXI TMU reproduction.
//!
//! `busybench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! simulates one workload and prints one JSON object as its last line of
//! standard output:
//!
//! * `--trace 0` runs the public harness untraced and reports the
//!   end-to-end metrics (simulator throughput, set-up time, modelled
//!   throughput and latency);
//! * `--trace 1` runs the harness and a component loop of the same
//!   workload side by side, times every component call in the loop, and
//!   reports host time and work counts per layer.
//!
//! Every run first replays the default seed and compares its simulated
//! outcome with the pinned one; a mismatch, a failed operation, or a
//! component loop that diverges from the harness makes the run report
//! `"correct": false` and exit with code 1. See `README.md` for the
//! metrics and the workloads.

#![forbid(unsafe_code)]

mod host;
mod rig;
mod run;
mod spans;
mod stats;
mod workload;

use std::process::ExitCode;

use workload::Workload;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: busybench --workload <link_deep|soc_fig10|regulated_4mgr> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(workload::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run::traced(args.workload, args.seed, args.seconds)
    } else {
        run::end_to_end(args.workload, args.seed, args.seconds)
    };
    match report {
        Ok(report) => {
            for problem in &report.problems {
                eprintln!("{}: {problem}", args.workload.name());
            }
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("{}: {err}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload soc_fig10 --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::SocFig10);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope").is_err());
        assert!(args("--workload link_deep --trace 2").is_err());
        assert!(args("--workload link_deep --seconds 0").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload link_deep --seed").is_err());
    }
}
