"""Rewrite digests.json: stdout digests of every catalog problem.

    python3 bench/record_digests.py

Run from the root of a checkout whose output is the reference, i.e. the
seed implementation; the digests then pin ``jets``, ``hx`` and
``ord_jac_along`` output byte for byte in every later run.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

import check
import gen
import worker

HERE = pathlib.Path(__file__).resolve().parent


def main():
    work = pathlib.Path.cwd() / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for problem in gen.digest_problems():
            if problem["call"] == "cli":
                path = work / "problem.json"
                path.write_text(json.dumps(problem["doc"]), "utf-8")
                problem["file"] = str(path)
            code, stdout, err = worker.run_one(problem)
            if code != 0:
                what = problem.get("doc", problem.get("args"))
                print(f"exit {code} on {what}: {err}", file=sys.stderr)
                return 1
            digests[problem["spec"]["key"]] = check.digest(stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it
    (HERE / "digests.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"recorded {len(digests)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
