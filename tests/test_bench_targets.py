"""Every name the benchmark's traced run patches must still resolve.

``bench/spans.py`` looks a method up in its class ``__dict__`` (an
inherited operator would be patched on the wrong class) and a function
as a module attribute.  Resolving them here makes a renamed or moved
target fail the test suite instead of the traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


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
