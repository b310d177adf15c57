"""Blow-up invariance: a germ's measure does not depend on its resolution.

The measure lives on the arc space of the germ, so resolution data that
describes the same germ through one more blow-up must give the same
measure, and the same integral once ``alpha`` is pulled back.  The
blow-up moves are written here on plain dicts, without the package's
arithmetic, and both data sets go through the command line.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmeasure import parse_motive
from arcmeasure.cli import main

FLOOR = -30


def add_class(strata, index, cls):
    """Add the class ``cls``, ``{exponent: coefficient}``, to the stratum
    ``index``; a stratum whose class sums to 0 goes."""
    total = dict(strata.get(index, {}))
    for e, c in cls.items():
        total[e] = total.get(e, 0) + c
    total = {e: c for e, c in total.items() if c}
    if total:
        strata[index] = total
    else:
        strata.pop(index, None)


def u_minus_1_power(m, shift):
    """``(u - 1)^m * u^shift`` as a class."""
    return {shift + m - i: (-1) ** i * comb(m, i) for i in range(m + 1)}


def times(x, y):
    """The product of two classes."""
    out = {}
    for e, c in x.items():
        for f, b in y.items():
            out[e + f] = out.get(e + f, 0) + c * b
    return {e: c for e, c in out.items() if c}


def blow_up(res, move):
    """The resolution ``res`` after one blow-up ``move``.

    ``res`` holds ``d``, the per-component ``a`` and ``alpha``, and the
    strata as ``{sorted index tuple: class}``.  ``("point", J)`` blows up
    a point of the stratum ``S_J``; ``("pair", i, j)`` blows up
    ``E_i ∩ E_j``.  The new component is numbered after the others.
    """
    d, a, alpha = res["d"], list(res["a"]), list(res["alpha"])
    strata = dict(res["strata"])
    new = len(a)
    if move[0] == "point":
        J = move[1]
        add_class(strata, J, {0: -1})  # the center leaves S_J
        a.append(sum(a[i] for i in J) + d - 1)
        alpha.append(sum(alpha[i] for i in J))
        for size in range(len(J) + 1):
            for K in combinations(J, size):
                if K != J:  # P^(d-1-|K|) minus |J|-|K| hyperplanes
                    add_class(strata, K + (new,),
                              u_minus_1_power(len(J) - size - 1, d - len(J)))
                elif size < d:  # P^(d-1-|J|)
                    add_class(strata, K + (new,),
                              {e: 1 for e in range(d - size)})
    else:
        _, i, j = move
        a.append(a[i] + a[j] + 1)
        alpha.append(alpha[i] + alpha[j])
        for J, cls in list(strata.items()):
            if i in J and j in J:
                del strata[J]
                rest = tuple(x for x in J if x not in (i, j))
                add_class(strata, rest + (new,),
                          times(cls, u_minus_1_power(1, 0)))
                for drop in (i, j):
                    add_class(strata, tuple(x for x in J if x != drop)
                              + (new,), cls)
    return {"d": d, "a": a, "alpha": alpha, "strata": strata}


def class_text(cls):
    return " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*u^{e}"
                    for e, c in sorted(cls.items()))


def resolution_json(res):
    return {"ambient_dim": res["d"], "strata": [
        {"name": f"S{n}", "index_set": list(J), "class": class_text(cls),
         "p_mults": [res["a"][i] for i in J]}
        for n, (J, cls) in enumerate(sorted(res["strata"].items()))]}


def alpha_json(res):
    return [[res["alpha"][i] for i in J] for J in sorted(res["strata"])]


@st.composite
def resolutions(draw):
    """Resolution data in dimension 1 to 3 on up to 3 components, with
    classes of any sign and ``alpha`` as low as ``-a``."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    a = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    alpha = [draw(st.integers(-x, 2)) for x in a]
    indices = [J for size in range(min(d, n) + 1)
               for J in combinations(range(n), size)]
    strata = {}
    for J in draw(st.lists(st.sampled_from(indices), min_size=1,
                           max_size=4, unique=True)):
        add_class(strata, J, draw(st.dictionaries(
            st.integers(0, d - len(J)), st.integers(-2, 3).filter(bool),
            min_size=1, max_size=2)))
    return {"d": d, "a": a, "alpha": alpha, "strata": strata}


@st.composite
def blown_up_pairs(draw):
    """A resolution, and the same one after one to three blow-ups."""
    original = res = draw(resolutions())
    for _ in range(draw(st.integers(1, 3))):
        pairs = [(i, j) for J in res["strata"] for i, j in combinations(J, 2)]
        if pairs and draw(st.booleans()):
            move = ("pair", *draw(st.sampled_from(sorted(set(pairs)))))
        else:
            move = ("point", draw(st.sampled_from(sorted(res["strata"]))))
        res = blow_up(res, move)
    return original, res


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Invoke main() on a problem; return its stdout, requiring exit 0."""
    path = tmp_path_factory.mktemp("blowup") / "problem.json"

    def _run(kind, payload, *flags):
        path.write_text(json.dumps({"schema": 1, "kind": kind,
                                    "payload": payload,
                                    "options": {"floor": FLOOR}}),
                        encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([str(path), *flags])
        assert (code, err.getvalue()) == (0, "")
        return out.getvalue()

    return _run


def known_terms(texts):
    """The coefficients both printed series know: those above the
    higher of their floors."""
    values = [parse_motive(text) for text in texts]
    floor = max(v.floor for v in values)
    return [{e: c for e, c in v.terms.items() if e > floor} for v in values]


@given(blown_up_pairs())
@settings(max_examples=60, deadline=None)
def test_blow_ups_keep_measure_and_integral(run, pair):
    left, right = (resolution_json(r) for r in pair)
    compare = {"left": {"resolution": left}, "right": {"resolution": right}}
    assert run("compare", compare) == "Equal\n"
    doc = json.loads(run("compare", compare, "--format", "json"))
    assert doc["order"] == "Equal"
    measures = [run("measure", {"resolution": r}) for r in (left, right)]
    first, second = known_terms(measures)
    assert first == second
    integrals = [run("integrate", {"resolution": resolution_json(r),
                                   "alpha": alpha_json(r)}) for r in pair]
    first, second = known_terms(integrals)
    assert first == second
