"""Compare two suite result files; reports only, never fails.

    python3 bench/compare.py PARENT.json CHANGE.json

One row per workload and metric: each side's median with quartiles, the
ratio change/parent with its base, and the share of seed-matched
parent/change pairs the change won (ties count for neither side).  The
verdict follows the benchmark's rules: ``unresolved`` when the parent's
run-to-run spread (quartile distance over median) exceeds the metric's
bound and the two sides' ranges overlap; ``regressed`` when the change's
median is worse by more than the bound; ``gain`` when the change won at
least nine pairs in ten and the medians differ by more than the parent's
quartile distance, unless the change failed more problems on the
workload than the parent, which reads ``more failures`` instead.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


def load(path):
    """({(workload, metric): {seed: value}}, {workload: problems failed})."""
    runs = json.loads(pathlib.Path(path).read_text("utf-8"))["runs"]
    values, failed = {}, {}
    for r in runs:
        w = r["workload"]
        failed[w] = failed.get(w, 0) + r["result"]["failed"]
        for name, m in r["result"]["metrics"].items():
            values.setdefault((w, name), {})[r["seed"]] = m["value"]
    return values, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def row(workload, metric, parent, change, more_failures):
    lower = metric["better"] == "lower"
    bound = metric.get("bound")
    p_vals, c_vals = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds
               if (change[s] < parent[s]) == lower and change[s] != parent[s])
    win = wins / len(seeds) if seeds else 0.0
    ratio = cm / pm if pm else float("nan")
    worse = (ratio - 1) if lower else (1 - ratio)
    overlap = (min(c_vals) <= max(p_vals)) and (min(p_vals) <= max(c_vals))
    verdict = ""
    if bound is not None and pm and (p3 - p1) / pm > bound and overlap:
        verdict = "unresolved"
    elif bound is not None and worse > bound:
        verdict = "regressed"
    elif win >= 0.9 and abs(cm - pm) > (p3 - p1):
        verdict = "more failures" if more_failures else "gain"
    return (f"{workload:<15} {metric['name']:<30} "
            f"{pm:.6g} [{p1:.6g}, {p3:.6g}] -> {cm:.6g} [{c1:.6g}, {c3:.6g}]"
            f" {metric['unit']}  ratio {ratio:.3f} (base {pm:.6g})"
            f"  wins {wins}/{len(seeds)}  {verdict}")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (parent, p_failed), (change, c_failed) = load(argv[0]), load(argv[1])
    for workload in [w["name"] for w in BENCH["workloads"]]:
        more_failures = c_failed.get(workload, 0) > p_failed.get(workload, 0)
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            key = (workload, metric["name"])
            if key in parent and key in change:
                print(row(workload, metric, parent[key], change[key],
                          more_failures))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
