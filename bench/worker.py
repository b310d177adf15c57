"""The benchmark's worker process: one client, closed loop, no threads.

Started by ``run.py`` as a fresh interpreter inside the checkout under
test.  It imports ``arcmeasure.cli``, loads the problem manifest, prints
``ready`` (the end of set-up) and then runs the stream in process:
a ``cli`` problem is ``arcmeasure.cli.main([file, *flags])`` with stdout
and stderr captured, an ``ord_jac`` problem parses its arguments and
calls ``arcmeasure.series.ord_jac_along``.  Latency runs from the
problem file to the captured stdout and exit code.

Usage: worker.py MANIFEST RESULT (--seconds S | --trace --passes N)
       worker.py MANIFEST --setup-only

Without ``--trace`` whole passes over the stream repeat until the timed
calls add up to at least S seconds.  With ``--trace`` it makes N passes
over the whole stream and runs each problem once untraced and once
traced, so counts repeat exactly for a seed and the difference between
the two sides is the tracing overhead.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import arcmeasure.cli as cli  # noqa: E402
from arcmeasure import polynomials, series  # noqa: E402

import calib  # noqa: E402


def run_one(problem):
    """(exit code or None on a crash, stdout, error text)."""
    if problem["call"] == "ord_jac":
        args = problem["args"]
        try:
            sigma = [polynomials.parse_poly(s, args["variables"])
                     for s in args["sigma"]]
            arc = series.ArcJet.from_coeffs(
                [[Fraction(c) for c in row] for row in args["arc"]],
                args["cap"])
            return 0, str(series.ord_jac_along(sigma, arc, args["d"])), ""
        except Exception as exc:  # a crash is a failed problem, not ours
            return None, "", repr(exc)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([problem["file"], *problem["flags"]])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else None
    except Exception as exc:
        return None, out.getvalue(), repr(exc)
    return code, out.getvalue(), err.getvalue()


class Log:
    """Latencies of timed calls, each problem's first output, and the
    calibration slices taken between calls."""

    def __init__(self):
        self.runs = []          # [problem id, seconds, slices so far]
        self.outputs = {}       # problem id -> [code, stdout, stderr]
        self.inconsistent = []  # ids whose repeat output differed
        self.cal = [calib.slice_s()]
        self.since_cal = 0.0

    def record(self, problem, seconds, result):
        pid = problem["id"]
        if seconds is not None:
            self.runs.append([pid, seconds, len(self.cal)])
        first = self.outputs.setdefault(pid, list(result))
        if first[:2] != list(result[:2]):
            self.inconsistent.append(pid)

    def calibrate(self, seconds):
        """Take a calibration slice after every EVERY_S of work."""
        self.since_cal += seconds
        if self.since_cal >= calib.EVERY_S:
            self.cal.append(calib.slice_s())
            self.since_cal = 0.0


def timed_call(problem, log):
    """Run one problem; return the seconds timed."""
    t0 = time.perf_counter()
    result = run_one(problem)
    dt = time.perf_counter() - t0
    log.record(problem, dt, result)
    log.calibrate(dt)
    return dt


def traced_call(problem, log, rec, on, off):
    """Run one problem with the span wrappers in place."""
    on()
    try:
        rec.problem = problem["id"]
        span = rec.open("bench.problem")
        result = run_one(problem)
        rec.close(span)
    finally:
        off()
    log.record(problem, None, result)
    log.calibrate(span[4] - span[3])


def main(argv):
    manifest = json.loads(open(argv[0], encoding="utf-8").read())
    problems = manifest["problems"]
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0
    import resource  # after ready: set-up is the program's imports alone

    result_path = argv[1]
    log = Log()
    report = {}
    if "--trace" in argv:
        from spans import Recorder, patcher, summarize

        passes = int(argv[argv.index("--passes") + 1])
        rec = Recorder()
        on, off = patcher(rec)
        untraced = 0.0
        for _ in range(passes):
            for n, problem in enumerate(problems):
                # each problem runs once each way, the side that goes
                # first alternating, so drift hits both sides alike
                if n % 2:
                    traced_call(problem, log, rec, on, off)
                untraced += timed_call(problem, log)
                if not n % 2:
                    traced_call(problem, log, rec, on, off)
        metrics, table = summarize(rec.spans)
        traced = sum(s[4] - s[3] for s in rec.spans if s[1] < 0)
        metrics["trace.spans"] = len(rec.spans)
        metrics["trace.untraced_s"] = untraced
        metrics["trace.traced_s"] = traced
        metrics["trace.overhead_s"] = traced - untraced
        report.update(trace=metrics, spans=table)
    else:
        seconds = float(argv[argv.index("--seconds") + 1])
        spent = 0.0
        while spent < seconds:  # whole passes: every run has the same mix
            spent += sum(timed_call(problem, log) for problem in problems)
    report.update(runs=log.runs, outputs=log.outputs, cal=log.cal,
                  inconsistent=log.inconsistent,
                  peak_rss_kb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
