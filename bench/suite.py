"""Run every workload and print every metric with its unit.

    python3 bench/suite.py [--runs N] [--seed0 S] [--out FILE]
                           [--baseline PARENT_CHECKOUT]

Runs ``run.py`` on each workload N times untraced (seeds S, S+1, ...)
and once traced (seed S), each for BENCHMARK.json's ``run_seconds``,
from the current directory, then prints per
workload and metric the median with quartiles and the spread (quartile
distance over median) against the metric's bound, the correctness
verdict, and the traced run's per-layer numbers with the accounting
check: layer self times add up to the traced time, which exceeds the
untraced time by the tracing overhead.

With ``--baseline`` every run is made on both checkouts with the same
seed, alternating which goes first; the parent's results go to
``FILE`` with ``.parent`` before the suffix, ready for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


def run_once(tree, workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCH["run_seconds"]),
         "--trace", str(int(trace))],
        cwd=tree, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{workload} seed {seed} in {tree} failed "
                         f"({proc.returncode}): {proc.stderr[-2000:]}")
    info = next((json.loads(line[5:]) for line in lines
                 if line.startswith("info ")), {})
    for line in proc.stderr.splitlines():
        print(f"  {workload} seed {seed}: {line}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "info": info}


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def print_report(runs):
    bounds = {m["name"]: m.get("bound") for m in BENCH["end_to_end"]}
    units = {m["name"]: m["unit"]
             for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for workload in [w["name"] for w in BENCH["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        attempted = sum(r["result"]["attempted"] for r in mine)
        failed = sum(r["result"]["failed"] for r in mine)
        ok = all(r["result"]["correct"] for r in mine)
        print(f"\n== {workload}: correct={ok} attempted={attempted} "
              f"failed={failed} fail_share={failed / attempted:.4g}")
        untraced = [r for r in mine if not r["trace"]]
        if untraced:
            print(f"  {len(untraced)} untraced runs, seeds "
                  f"{[r['seed'] for r in untraced]}, latency samples "
                  f"{[r['info'].get('samples') for r in untraced]}")
            for m in BENCH["end_to_end"]:
                vals = [r["result"]["metrics"][m["name"]]["value"]
                        for r in untraced]
                med, q1, q3, sp = spread(vals)
                flag = "" if sp <= m["bound"] / 3 else "  <- spread"
                print(f"  {m['name']:<16} {med:12.6g} {units[m['name']]:<6}"
                      f" q1 {q1:.6g} q3 {q3:.6g} spread {sp:.3f}"
                      f" (bound {bounds[m['name']]}){flag}")
        for r in (r for r in mine if r["trace"]):
            vals = {k: v["value"] for k, v in r["result"]["metrics"].items()}
            print(f"  traced run, seed {r['seed']}:")
            for name, value in vals.items():
                print(f"    {name:<32} {value:14.6g} {units[name]}")
            layers = sum(v for k, v in vals.items() if k.endswith(".self_s"))
            print(f"    sum of layer self times {layers:.4f} s = traced "
                  f"{vals['trace.traced_s']:.4f} s = untraced "
                  f"{vals['trace.untraced_s']:.4f} s + overhead "
                  f"{vals['trace.overhead_s']:.4f} s")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv)

    trees = {"change": pathlib.Path.cwd()}
    if args.baseline:
        trees["parent"] = pathlib.Path(args.baseline).resolve()
    runs = {name: [] for name in trees}
    workloads = [w["name"] for w in BENCH["workloads"]]
    plan = [(w, args.seed0 + i, False) for i in range(args.runs)
            for w in workloads]
    plan += [(w, args.seed0, True) for w in workloads]
    for n, (workload, seed, trace) in enumerate(plan):
        order = list(trees)
        if n % 2:
            order.reverse()
        for name in order:
            print(f"[{n + 1}/{len(plan)}] {name} {workload} seed {seed}"
                  f"{' traced' if trace else ''}", file=sys.stderr)
            runs[name].append(run_once(trees[name], workload, seed, trace))
    for name, mine in runs.items():
        if len(trees) > 1:
            print(f"\n######## {name}: {trees[name]}")
        print_report(mine)
        if args.out:
            out = pathlib.Path(args.out)
            if name == "parent":
                out = out.with_name(f"{out.stem}.parent{out.suffix}")
            out.write_text(json.dumps({"side": name,
                                       "nproc": os.cpu_count(),
                                       "runs": mine}, indent=1) + "\n",
                           "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
