#!/usr/bin/env python3
"""Builds the SuperFE benchmark from this checkout's sources and runs it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload flowstats-mawi --seed 1 --seconds 10 --trace 0

Workloads: flowstats-mawi, kitsune-campus, daemon-enterprise. --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones (see
perfbench/README.md). The last line of standard output is the result, one
JSON object with the keys correct, attempted, failed and metrics.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), and
the traced run's spans to $CARGO_TARGET_DIR/perfbench-spans. Build output
goes to standard error.
"""
import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("flowstats-mawi", "kitsune-campus", "daemon-enterprise")
# A run measures for --seconds plus a few seconds of set-up; anything near
# this is a hang.
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the sources the benchmark builds (git SHA stand-in)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "examples" / "policies" / "basic_stats.sfe"]
    for top in (ROOT / "src", BENCH):
        files += sorted(p for p in top.rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no SuperFE sources under {ROOT}", file=sys.stderr)
        return 2
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    build_dir = target / "perfbench"
    spans_dir = target / "perfbench-spans"
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    spans_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--root", str(ROOT),
           "--source-digest", source_digest(),
           "--spans-dir", str(spans_dir)]
    try:
        # The binary prints the result line last; nothing is printed after it.
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
