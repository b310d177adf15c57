"""Run one workload of the arcmeasure benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is ``src/`` of
the current directory, the benchmark is this directory.  Problems are
generated from the seed into ``.bench_work/`` (removed afterwards), run
by ``worker.py`` in a fresh interpreter, and every output is checked by
``check.py``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Exit status 2 means the benchmark could not run here.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import calib
import check
import gen

HERE = pathlib.Path(__file__).resolve().parent
SETUP_PROBES = 10    # fresh interpreters timed to ready, besides the worker
DEADLINE_S = 170     # the whole run, including generation and checking


class BenchError(RuntimeError):
    pass


def write_inputs(problems, work):
    entries = []
    for p in problems:
        entry = {"id": p["id"], "call": p["call"]}
        if p["call"] == "cli":
            path = work / f"p{p['id']}.json"
            path.write_text(json.dumps(p["doc"]), encoding="utf-8")
            p["file"] = str(path)
            entry.update(file=p["file"], flags=p["flags"])
        else:
            entry["args"] = p["args"]
        entries.append(entry)
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps({"problems": entries}), encoding="utf-8")
    return manifest


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("deadline exceeded")
    return left


def start_worker(args, deadline):
    """Spawn worker.py; return (process, seconds until it printed ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not start: {proc.stderr.read()[-2000:]}")
    return proc, ready


def finish(proc, deadline):
    try:
        _, err = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    if proc.returncode:
        raise BenchError(f"worker exited {proc.returncode}: {err[-2000:]}")


def cold_run(problem, root, deadline):
    """One ``python -m arcmeasure.cli`` subprocess: (seconds, code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "arcmeasure.cli", problem["file"],
             *problem["flags"]], cwd=root, env=env, capture_output=True,
            text=True, timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("cold run timed out")
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def judge(problems, outputs, inconsistent, digests):
    """Status per problem id, with reasons for every failure."""
    status, reasons = {}, []
    for pid, (code, stdout, stderr) in outputs.items():
        st, why = check.check(problems[pid]["spec"], code, stdout, digests)
        if pid in inconsistent:
            st, why = "fail", "output changed between repeats"
        status[pid] = st
        if st == "fail":
            kind = problems[pid].get("doc", {}).get("kind", "ord_jac")
            reasons.append(f"problem {pid} ({kind}): {why} "
                           f"{stderr.strip()[-200:]}")
    return status, reasons


def run(workload, seed, seconds, trace, root, work, deadline):
    problems = gen.generate(workload, seed)
    manifest = write_inputs(problems, work)
    result_path = work / "result.json"

    setup = []  # (seconds to ready, bare start just before)
    if not trace:
        finish(start_worker([str(manifest), "--setup-only"], deadline)[0],
               deadline)  # warm-up: bytecode caches, file system
        for _ in range(SETUP_PROBES):
            start = calib.start_s()
            proc, ready = start_worker([str(manifest), "--setup-only"],
                                       deadline)
            finish(proc, deadline)
            setup.append((ready, start))
    args = [str(manifest), str(result_path)]
    if trace:
        args += ["--trace", "--passes", str(gen.TRACE_PASSES[workload])]
        proc, _ = start_worker(args, deadline)
    else:
        args += ["--seconds", str(seconds)]
        start = calib.start_s()
        proc, ready = start_worker(args, deadline)
        setup.append((ready, start))
    finish(proc, deadline)
    report = json.loads(result_path.read_text("utf-8"))

    outputs = {int(k): v for k, v in report["outputs"].items()}
    runs = [(pid, s) for pid, s, _ in report["runs"]]
    cold = []
    if not trace:
        for pid in gen.cold_sample(problems, workload, seed):
            start = calib.start_s()
            secs, code, stdout = cold_run(problems[pid], root, deadline)
            cold.append((pid, secs, code, stdout, start))

    digests = json.loads((HERE / "digests.json").read_text("utf-8"))
    status, reasons = judge(problems, outputs, set(report["inconsistent"]),
                            digests)
    verdicts = [status[pid] for pid, _ in runs]
    if trace:  # the traced passes
        verdicts += [status[p["id"]] for p in problems] * gen.TRACE_PASSES[
            workload]
    for pid, _, code, stdout, _ in cold:
        st, why = check.check(problems[pid]["spec"], code, stdout, digests)
        if st != "fail" and [code, stdout] != outputs[pid][:2]:
            st, why = "fail", "differs from the in-process output"
        if st == "fail":
            reasons.append(f"cold run of problem {pid}: {why}")
        verdicts.append(st)
    failed = verdicts.count("fail")
    decided = verdicts.count("ok")

    # times at the reference speed (see calib.py): each timed call is
    # scaled by the kernel slices taken around it, the traced run's
    # totals by all of them, each subprocess time by the bare interpreter
    # start taken just before it
    speed = calib.factor(report["cal"])
    if trace:
        values = {k: v * speed if k.endswith("_s") else v
                  for k, v in report["trace"].items()}
    else:
        latencies = [s for _, s in runs]
        scaled = [s * f for s, f in zip(latencies, calib.local_factors(
            report["cal"], [m for _, _, m in report["runs"]]))]
        raw = {"setup_s": statistics.median(t for t, _ in setup),
               "cold_p50_ms": statistics.median(c[1] for c in cold) * 1e3,
               "start_ms": statistics.median(
                   [s for _, s in setup] + [c[4] for c in cold]) * 1e3}
        values = {
            "problems_per_s": len(scaled) / sum(scaled),
            "latency_p50_ms": statistics.median(scaled) * 1e3,
            "latency_p90_ms": statistics.quantiles(
                scaled, n=10, method="inclusive")[8] * 1e3,
            "decided_share": decided / len(verdicts),
            "setup_s": statistics.median(
                t / s for t, s in setup) * calib.START_NOMINAL_S,
            "cold_p50_ms": statistics.median(
                c[1] / c[4] for c in cold) * calib.START_NOMINAL_S * 1e3,
            "peak_rss_mb": report["peak_rss_kb"] / 1024,
        }
        raw.update(problems_per_s=len(latencies) / sum(latencies),
                   latency_p50_ms=statistics.median(latencies) * 1e3)
    info = {"samples": len(runs), "cold_samples": len(cold),
            "setup_samples": len(setup), "fail_share": failed / len(verdicts),
            "speed": speed, "calibration_slices": len(report["cal"])}
    if trace:
        info["spans"] = report["spans"]
    else:
        info["raw"] = raw
    return {"correct": failed == 0, "attempted": len(verdicts),
            "failed": failed}, values, info, reasons


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "arcmeasure" / "cli.py").is_file():
        print(f"error: {root} has no src/arcmeasure to benchmark",
              file=sys.stderr)
        return 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        head, values, info, reasons = run(
            args.workload, args.seed, args.seconds, bool(args.trace), root,
            work, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    for reason in reasons:
        print(f"FAIL {reason}", file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    head["metrics"] = {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]} for m in wanted}
    print(json.dumps(head))
    return 0


if __name__ == "__main__":
    sys.exit(main())
