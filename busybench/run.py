#!/usr/bin/env python3
"""Builds and runs the busy-traffic benchmark.

Run from the repository root:

    python3 busybench/run.py --workload link_deep --seed 1 --seconds 10 --trace 0

The benchmark binary is built from source with cargo (release profile,
offline) into $CARGO_TARGET_DIR, or .bench_build when that is unset. The
binary's last line of standard output is one JSON object; with --trace 0
this script adds the binary's peak resident memory (`peak_rss_mib`) to its
metrics and prints it again as the last line. The exit code is the
binary's, or 2 when the build fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("link_deep", "soc_fig10", "regulated_4mgr")


def build(target_dir):
    """Builds the benchmark; returns the binary's path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "--target-dir", target_dir,
    ]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        return None
    return os.path.join(target_dir, "release", "busybench")


def run(binary, args):
    """Runs the binary; returns (exit code, stdout, peak RSS in KiB)."""
    child = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    out = child.stdout.read()
    child.stdout.close()
    # wait4 reaps the child and returns its own resource usage, which
    # excludes the build above.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out, usage.ru_maxrss


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(target_dir)
    if binary is None:
        print("busybench: build failed", file=sys.stderr)
        return 2

    code, out, rss_kib = run(binary, args)
    lines = out.splitlines()
    if not lines:
        print("busybench: no result line", file=sys.stderr)
        return code or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(out, file=sys.stderr)
        return code or 1
    if args.trace == 0:
        result["metrics"]["peak_rss_mib"] = {"value": rss_kib / 1024, "unit": "MiB"}
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
