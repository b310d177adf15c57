"""Every digest-checked benchmark problem still prints its recorded stdout.

``bench/digests.json`` holds the stdout digests of every ``jets``, ``hx``
and ``ord_jac_along`` catalog problem (and the golden ``hx`` problem),
recorded from the seed implementation.  Running the catalog here through
the benchmark's own ``worker.run_one`` makes byte-identical output of
those kinds a test-suite check, not only a benchmark-time one.  The test
reads ``bench/`` and writes only problem files under ``tmp_path``.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def test_catalog_matches_recorded_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # gen.golden_problems reads tests/golden here
    monkeypatch.syspath_prepend(str(BENCH))
    import check
    import gen
    import worker

    digests = json.loads((BENCH / "digests.json").read_text("utf-8"))
    problems = gen.digest_problems()
    assert {p["spec"]["key"] for p in problems} == set(digests)
    path = tmp_path / "problem.json"
    wrong = []
    for problem in problems:
        if problem["call"] == "cli":
            path.write_text(json.dumps(problem["doc"]), "utf-8")
            problem["file"] = str(path)
        code, stdout, err = worker.run_one(problem)
        key = problem["spec"]["key"]
        if code != 0 or check.digest(stdout) != digests[key]:
            wrong.append((key, code, err))
    assert not wrong, f"{len(wrong)} of {len(problems)} differ: {wrong[:5]}"
