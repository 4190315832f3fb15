#!/usr/bin/env python3
"""Time-sliced A/B comparison of two busybench binaries.

Each pair runs side A and side B at once, as two child processes that
take turns on the host: every SLICE_MS (25) milliseconds the script
stops the running child with SIGSTOP and continues the other with
SIGCONT, so both see the same host conditions within a few slices.
Which side starts alternates from pair to pair. The script acts only on
its own children: it sets no CPU affinity, governor or cgroup.

    python3 scripts/ab.py --a A/busybench --b B/busybench \\
        --workloads regulated_4mgr --pairs 10 --seconds 5

builds nothing and compares two given binaries. With --build-a and
--build-b it first builds busybench (release, offline) from two source
trees whose absolute paths have the same length, each into its own
`.ab_build` directory, since embedded paths shift the code. --floor
adds A/A pairs (side A against itself) per workload: the noise floor
the A/B ratio must beat. --json writes every pair and summary.

Every run uses seed SEED (1). Per workload it prints the median of the
raw B/A ratios of `sim_mcycles_per_s` (the host's own rate, before
busybench scales it by its reference kernel), their min-max and IQR,
and how many pairs B won; the scaled ratio's median is printed beside
it. It exits non-zero when a run fails or when `txns_per_kcycle` or
either p99 latency differs between the two sides of a pair: those are
deterministic per seed.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("link_deep", "soc_fig10", "regulated_4mgr")
DETERMINISTIC = ("txns_per_kcycle", "write_lat_p99_cycles", "read_lat_p99_cycles")
RAW_RATE = re.compile(r"([0-9.]+) Mcycles/s on this host")
SLICE_MS = 25
SEED = 1


def host():
    """The host's CPU model and count, for the record."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count()}


def build(tree):
    """Builds busybench from source tree `tree`; returns the binary."""
    target = os.path.join(tree, ".ab_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(tree, "busybench", "Cargo.toml"),
        "--target-dir", target,
    ]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    return os.path.join(target, "release", "busybench")


class Side:
    """One busybench child with its output files."""

    def __init__(self, name, binary, args):
        self.name = name
        self.out = tempfile.TemporaryFile(mode="w+")
        self.err = tempfile.TemporaryFile(mode="w+")
        self.proc = subprocess.Popen(
            [binary] + args, stdout=self.out, stderr=self.err, text=True)
        self.signal(signal.SIGSTOP)

    def signal(self, sig):
        if self.proc.poll() is None:
            try:
                self.proc.send_signal(sig)
            except ProcessLookupError:
                pass

    def running(self):
        return self.proc.poll() is None

    def result(self):
        """The run's metrics and raw rate, or an error string."""
        self.out.seek(0)
        self.err.seek(0)
        out, err = self.out.read(), self.err.read()
        lines = out.splitlines()
        if self.proc.returncode != 0 or not lines:
            return None, f"{self.name}: exit {self.proc.returncode}: {err.strip()[-400:]}"
        try:
            result = json.loads(lines[-1])
        except ValueError:
            return None, f"{self.name}: no result line"
        if not result.get("correct", False):
            return None, f"{self.name}: run reported incorrect: {lines[-1]}"
        raw = RAW_RATE.search(err)
        if raw is None:
            return None, f"{self.name}: no raw rate on stderr"
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        metrics["raw_mcycles_per_s"] = float(raw.group(1))
        return metrics, None

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def run_pair(a, b, args, workload, a_first):
    """Runs one time-sliced pair; returns (metrics_a, metrics_b, error)."""
    run_args = ["--workload", workload, "--seed", str(SEED),
                "--seconds", str(args.seconds), "--trace", "0"]
    order = [Side("A", a, run_args), Side("B", b, run_args)]
    sides = dict((s.name, s) for s in order)
    if not a_first:
        order.reverse()
    try:
        turn = 0
        while any(s.running() for s in order):
            side = order[turn % 2]
            turn += 1
            if not side.running():
                continue
            side.signal(signal.SIGCONT)
            time.sleep(SLICE_MS / 1000.0)
            side.signal(signal.SIGSTOP)
    finally:
        for side in order:
            side.signal(signal.SIGCONT)
            side.kill()
    ma, err_a = sides["A"].result()
    mb, err_b = sides["B"].result()
    return ma, mb, err_a or err_b


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(a, b, args, workload, label):
    """Runs the pairs of one workload; returns its record and problems."""
    pairs, problems = [], []
    for i in range(args.pairs):
        ma, mb, err = run_pair(a, b, args, workload, a_first=(i % 2 == 0))
        if err:
            problems.append(f"{label} {workload} pair {i}: {err}")
            continue
        for key in DETERMINISTIC:
            if ma[key] != mb[key]:
                problems.append(
                    f"{label} {workload} pair {i}: {key} differs: "
                    f"A {ma[key]} vs B {mb[key]}")
        pairs.append({
            "a_first": i % 2 == 0,
            "a": ma,
            "b": mb,
            "raw_ratio": mb["raw_mcycles_per_s"] / ma["raw_mcycles_per_s"],
            "scaled_ratio": mb["sim_mcycles_per_s"] / ma["sim_mcycles_per_s"],
        })
        print(f"  {label} {workload} pair {i}: A {ma['raw_mcycles_per_s']:.3f} "
              f"B {mb['raw_mcycles_per_s']:.3f} Mcycles/s raw, "
              f"B/A {pairs[-1]['raw_ratio']:.4f}", file=sys.stderr)
    record = {"pairs": pairs}
    if pairs:
        raw = [p["raw_ratio"] for p in pairs]
        scaled = [p["scaled_ratio"] for p in pairs]
        q1, med, q3 = quartiles(raw)
        record["summary"] = {
            "n": len(raw),
            "raw_ratio_median": med,
            "raw_ratio_min": min(raw),
            "raw_ratio_max": max(raw),
            "raw_ratio_iqr": q3 - q1,
            "b_wins": sum(r > 1.0 for r in raw),
            "scaled_ratio_median": quartiles(scaled)[1],
        }
        s = record["summary"]
        print(f"{label} {workload}: B/A raw median {s['raw_ratio_median']:.4f} "
              f"(min {s['raw_ratio_min']:.4f}, max {s['raw_ratio_max']:.4f}, "
              f"IQR {s['raw_ratio_iqr']:.4f}), B won {s['b_wins']}/{s['n']}; "
              f"scaled median {s['scaled_ratio_median']:.4f}")
    return record, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", help="side A binary")
    parser.add_argument("--b", help="side B binary")
    parser.add_argument("--build-a", help="source tree to build side A from")
    parser.add_argument("--build-b", help="source tree to build side B from")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--floor", action="store_true",
                        help="also run A/A pairs per workload")
    parser.add_argument("--json", help="write every pair and summary here")
    args = parser.parse_args()

    workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--pairs must be >= 1")
    if args.build_a or args.build_b:
        if not (args.build_a and args.build_b):
            parser.error("--build-a and --build-b go together")
        trees = [os.path.abspath(t) for t in (args.build_a, args.build_b)]
        if len(trees[0]) != len(trees[1]):
            parser.error(f"source trees need paths of equal length: {trees}")
        args.a, args.b = build(trees[0]), build(trees[1])
        labels = [os.path.basename(t) for t in trees]
    elif not (args.a and args.b):
        parser.error("give --a and --b, or --build-a and --build-b")
    else:
        labels = [args.a, args.b]

    doc = {
        "method": {
            "slice_ms": SLICE_MS,
            "seconds": args.seconds,
            "seed": SEED,
            "pairs": args.pairs,
            "ratio": "B/A of sim_mcycles_per_s; raw = before busybench's host scaling",
        },
        "host": host(),
        "a": labels[0],
        "b": labels[1],
        "floor": {},
        "ab": {},
    }
    problems = []
    for workload in workloads:
        if args.floor:
            doc["floor"][workload], found = compare(args.a, args.a, args, workload, "A/A")
            problems += found
        doc["ab"][workload], found = compare(args.a, args.b, args, workload, "A/B")
        problems += found
    if args.json:
        with open(args.json, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    for problem in problems:
        print(f"ab: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
