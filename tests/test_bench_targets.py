"""Every name the benchmark's traced run patches must still resolve.

``bench/spans.py`` looks a method up in its class ``__dict__`` (an
inherited operator would be patched on the wrong class) and a function
as a module attribute.  Resolving them here makes a renamed or moved
target fail the test suite instead of the traced benchmark run.
"""

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
WORKER = ROOT / "bench" / "worker.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(modname, target)
            for modname, targets in spans.TARGETS.values()
            for target in targets]


@pytest.mark.parametrize("modname, target", _targets())
def test_traced_target_resolves(modname, target):
    module = importlib.import_module(modname)
    owner_name, _, attr = target.rpartition(".")
    if owner_name:
        assert attr in getattr(module, owner_name).__dict__
    else:
        assert callable(getattr(module, attr))


def test_worker_set_up_loads_every_traced_module():
    # patcher() wraps a function only in the arcmeasure modules already
    # loaded when it runs, so a traced layer the worker's module-level
    # imports leave unloaded would read zero instead of failing
    tree = ast.parse(WORKER.read_text("utf-8"))
    imports = "\n".join(
        ast.unparse(node) for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and "arcmeasure" in ast.unparse(node))
    modules = sorted({modname for modname, _ in _targets()})
    code = (f"import sys\n{imports}\n"
            f"print([m for m in {modules!r} if m not in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "src",
                         capture_output=True, text=True, check=True).stdout
    assert "import arcmeasure.cli" in imports and out == "[]\n"
