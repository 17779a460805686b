#!/usr/bin/env python3
"""Builds oltp_bench from this checkout and runs it on one workload.

usage: python3 bench/oltp/run.py --workload NAME --seed N --seconds S --trace 0|1

S is the measured time of the whole run: each of the two engines gets half
of it (with --trace 1, half of that untraced and half traced).

The benchmark's own lines (`name workload value unit`) pass through to
stdout. The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; metrics holds the end_to_end metrics named
in BENCHMARK.json (--trace 0) or its per_layer metrics (--trace 1). The exit
code is 0 only when the run finished and every correctness check passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "oltp"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

child = None  # the running subprocess, killed with its group on exit


def stop_child():
    if child is not None and child.poll() is None:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()


def fail(msg):
    stop_child()
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def on_signal(signum, _frame):
    stop_child()
    sys.exit(128 + signum)


def call(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns its exit code."""
    global child
    child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{Path(cmd[0]).name} did not finish within {timeout} s")
    finally:
        stop_child()
        child = None


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no repository sources to build")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "oltp_bench",
                  "-j", jobs])
    for cmd in steps:
        if call(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            fail("build failed")
    return BUILD / "oltp_bench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        binary = build()
    except OSError as e:
        fail(f"build failed: {e}")

    tag = f"{args.workload}-{args.seed}-{args.trace}"
    out = BUILD / f"out-{tag}.json"
    if out.exists():
        out.unlink()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / 2),
           "--out", str(out)]
    if args.trace:
        # One trace per workload, overwritten by each traced run.
        cmd += ["--trace", str(BUILD / f"trace-{args.workload}.json")]
    code = call(cmd, RUN_TIMEOUT_S)
    if not out.is_file():
        fail(f"oltp_bench exited {code} without results")

    result = json.loads(out.read_text())["results"][0]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"oltp_bench reported no {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} is in {got['unit']}, BENCHMARK.json says "
                 f"{m['unit']}")
        metrics[m["name"]] = got
    correct = result["correct"] and code == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
