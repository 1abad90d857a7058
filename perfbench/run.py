#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_random --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds perfbench/ (and the hfpu libraries
it measures) into .bench_build/perfbench; later calls only check that
the build is current. Build output goes to stderr. The benchmark's own
output goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --self-test

runs every workload at a tiny size, traced and untraced, and checks
that every metric BENCHMARK.json names is reported, that exact counts
repeat between two traced runs, and that a perturbed pinned digest
fails the run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
DIGESTS = HERE / "digests.txt"
WORKLOADS = ["batch_random", "paper_reduced", "batch_chaos", "paper_trace"]

_child = None


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
    sys.exit(128 + signum)


def run(cmd, timeout, stdout=None):
    """Run cmd in its own process group; kill the whole group on timeout."""
    global _child
    _child = subprocess.Popen(cmd, cwd=ROOT, stdout=stdout,
                              stderr=sys.stderr, text=True,
                              start_new_session=True)
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()
        sys.exit(f"perfbench: {cmd[0]} timed out after {timeout} s")
    code = _child.returncode
    _child = None
    return code, out


def build():
    if not (ROOT / "src" / "srv" / "batch.h").is_file():
        sys.exit(f"perfbench: hfpu sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        code, _ = run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300,
                      stdout=sys.stderr)
        if code != 0:
            sys.exit("perfbench: cmake configure failed")
    code, _ = run(["cmake", "--build", str(BUILD), "--target", "perfbench",
                   "-j", jobs], 840, stdout=sys.stderr)
    if code != 0:
        sys.exit("perfbench: build failed")


def bench(args, capture=False):
    """Run the benchmark binary; returns (exit code, stdout text)."""
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--digests", str(args.digests)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    code, out = run(cmd, args.seconds + 150,
                    stdout=subprocess.PIPE)
    if not capture:
        sys.stdout.write(out)
        sys.stdout.flush()
    return code, out


def result_of(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def note(out, prefix):
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []

    def tiny(workload, trace, seed=2007, digests=DIGESTS):
        ns = argparse.Namespace(workload=workload, seed=seed, seconds=1,
                                trace=trace, tiny=True, digests=digests)
        return bench(ns, capture=True)

    for workload in WORKLOADS:
        exact = []
        for trace in (0, 1, 1):
            code, out = tiny(workload, trace)
            res = result_of(out)
            if code != 0 or not res or res.get("correct") is not True:
                problems.append(f"{workload} trace={trace}: exit {code}")
                continue
            for m in want[trace]:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append(
                        f"{workload} trace={trace}: missing {m['name']}")
            if trace:
                exact.append(note(out, "digest exact"))
        if len(exact) == 2 and exact[0] != exact[1]:
            problems.append(f"{workload}: exact counts differ between "
                            f"traced runs ({exact[0]} vs {exact[1]})")
        # A seed other than the pinned one takes the serial-replay path.
        code, out = tiny(workload, 0, seed=11)
        res = result_of(out)
        if code != 0 or not res or res.get("correct") is not True:
            problems.append(f"{workload} seed 11: exit {code}")

    # Negative case: a perturbed pinned digest must fail the run.
    perturbed = ROOT / ".bench_build" / "perturbed-digests.txt"
    lines = DIGESTS.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("batch_random tiny outputs "):
            digit = line[-1]
            lines[i] = line[:-1] + ("0" if digit != "0" else "1")
    perturbed.write_text("\n".join(lines) + "\n")
    code, out = tiny("batch_random", 0, digests=perturbed)
    res = result_of(out)
    if code == 0 or not res or res.get("correct") is not False:
        problems.append("perturbed digest did not fail the run")

    for p in problems:
        print(f"self-test: FAIL {p}")
    print(f"self-test: {'FAIL' if problems else 'ok'} "
          f"({len(WORKLOADS)} workloads, {len(problems)} problems)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2007)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    args.tiny = False
    args.digests = DIGESTS
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in [1, 3600]")
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    build()
    if args.self_test:
        return self_test()
    code, _ = bench(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
