#!/usr/bin/env python3
"""Compares two sets of oltp_bench --out files metric by metric.

usage: python3 bench/oltp/agree.py A_DIR B_DIR

Every *.json file in a directory is one oltp_bench --out file. For each
(metric, workload) pair the script prints each set's median and quartiles
(statistics.quantiles(values, n=4)) and the relative difference of the
medians. For the end_to_end metrics of BENCHMARK.json it exits 1 when the
medians differ, in either direction, by more than the metric's bound, or
when one set lacks the pair. Per-layer metrics are printed, not gated.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load(directory):
    values = {}
    files = sorted(Path(directory).glob("*.json"))
    if not files:
        sys.exit(f"agree.py: no .json files in {directory}")
    for f in files:
        for result in json.loads(f.read_text())["results"]:
            for name, m in result["metrics"].items():
                values.setdefault((name, result["workload"]), []).append(
                    m["value"])
    return values


def summary(v):
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return statistics.median(v), q[0], q[2]


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bounds = {m["name"]: m["bound"]
              for m in json.loads(SPEC.read_text())["end_to_end"]}
    a, b = load(sys.argv[1]), load(sys.argv[2])
    failures = 0
    print(f"{'metric':34} {'workload':14} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'diff':>8} {'bound':>6}")
    for key in sorted(set(a) | set(b)):
        name, workload = key
        bound = bounds.get(name)
        if key not in a or key not in b:
            status = "MISSING" if bound is not None else ""
            failures += bound is not None
            print(f"{name:34} {workload:14} only in "
                  f"{'A' if key in a else 'B'} {status}")
            continue
        ma, qa1, qa3 = summary(a[key])
        mb, qb1, qb3 = summary(b[key])
        diff = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else
                                                float("inf"))
        status = ""
        bound_s = ""
        if bound is not None:
            ok = abs(diff) <= bound
            failures += not ok
            status = "ok" if ok else "DISAGREE"
            bound_s = f"{bound:.0%}"
        cell_a = f"{ma:.5g} [{qa1:.5g}, {qa3:.5g}]"
        cell_b = f"{mb:.5g} [{qb1:.5g}, {qb3:.5g}]"
        print(f"{name:34} {workload:14} {cell_a:>32} {cell_b:>32} "
              f"{diff:+8.2%} {bound_s:>6} {status}")
    print(f"{failures} gated pair(s) disagree" if failures else
          "all gated pairs agree")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
