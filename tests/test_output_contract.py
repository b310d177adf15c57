"""Every benchmark problem keeps its recorded exit code, stdout and stderr.

``tests/golden/contract.json`` holds, per run, the exit code and the
sha256 of stdout and of stderr of every command line problem of the
benchmark's three workloads at two seeds, in text and in JSON, and of a
few error variants of them; ``scripts/regenerate_goldens.py`` records it
and holds the code that builds and runs the problems, which this test
loads.  The problems are regenerated from ``bench/gen.py`` and run in
process; the test writes only problem files under ``tmp_path``.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "regenerate_goldens.py"


def _script():
    spec = importlib.util.spec_from_file_location("regenerate_goldens",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_problems_print_their_recorded_bytes(tmp_path, monkeypatch):
    script = _script()
    monkeypatch.chdir(ROOT)  # gen.golden_problems reads tests/golden here
    monkeypatch.syspath_prepend(str(script.BENCH))
    expected = json.loads(script.CONTRACT.read_text("utf-8"))
    got = script.contract(tmp_path)
    assert got.keys() == expected.keys()
    wrong = [(key, expected[key], got[key]) for key in sorted(expected)
             if got[key] != expected[key]]
    assert not wrong, f"{len(wrong)} of {len(expected)} differ: {wrong[:3]}"
