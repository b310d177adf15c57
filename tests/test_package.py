"""The package surface: lazy exports and the one immutable-value base."""

import ast
import copy
import importlib.util
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcmeasure
from arcmeasure import (NEG_INF, ONE, ArcJet, BoundednessVerdict,
                        MotiveSeries, MultiPoly, PolySystem, ResolutionData,
                        ResolutionDiagram, SeriesOrder, TheoremReport,
                        TruncSeries, parse_poly)
from arcmeasure.grothendieck import _expand_rational
from arcmeasure.measure import SNCStratum

from descriptors import (CylinderDescriptor, MeasurableDescriptor,
                         StableSetDescriptor)


@pytest.mark.parametrize("name", arcmeasure.__all__)
def test_export_is_the_defining_modules_object(name):
    module = importlib.import_module(
        f"arcmeasure.{arcmeasure._EXPORTS[name]}")
    assert getattr(arcmeasure, name) is getattr(module, name)
    assert name in dir(arcmeasure)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from arcmeasure import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(arcmeasure.__all__))
    assert len(set(arcmeasure.__all__)) == len(arcmeasure.__all__)


def test_no_export_restates_another():
    # one name per object; the benchmark's traced run (bench/spans.py)
    # patches operators under the LaurentPoly alias, which stays for now
    names = {}
    for name in arcmeasure.__all__:
        names.setdefault(id(getattr(arcmeasure, name)), []).append(name)
    assert [group for group in names.values() if len(group) > 1] \
        == [["LaurentPoly", "MotiveSeries"]]


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        arcmeasure.no_such_name


def test_package_ships_only_exporting_submodules():
    for gone in ("descriptors", "catalog"):  # test helpers, not package
        assert importlib.util.find_spec(f"arcmeasure.{gone}") is None
    for module in set(arcmeasure._EXPORTS.values()):
        assert importlib.util.find_spec(f"arcmeasure.{module}") is not None


SRC = Path(arcmeasure.__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
# modules that neither `import arcmeasure.cli` nor a measure-side run needs
UNUSED = ("dataclasses", "arcmeasure.series", "arcmeasure.polynomials",
          "fractions", "decimal")


@pytest.mark.parametrize("module", sorted(
    p.name for p in (SRC / "arcmeasure").glob("*.py")))
def test_modules_use_every_import(module):
    tree = ast.parse((SRC / "arcmeasure" / module).read_text("utf-8"))
    imported = {(alias.asname or alias.name).partition(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _fresh(code):
    """Stdout of ``code`` run in a new interpreter."""
    return subprocess.run([sys.executable, "-c", code], cwd=SRC,
                          capture_output=True, text=True, check=True).stdout


def test_exports_resolve_outside_the_test_tree():
    # pytest puts tests/ on sys.path; a fresh interpreter in src/ does not,
    # so a module importing a test helper such as descriptors fails here
    _fresh("import arcmeasure\n"
           "[getattr(arcmeasure, n) for n in arcmeasure.__all__]")


def test_cli_import_loads_no_unused_module():
    out = _fresh("import sys, arcmeasure.cli; print(sorted(m for m in "
                 f"{UNUSED!r} if m in sys.modules))")
    assert out == "[]\n"


def test_measure_side_runs_load_no_unused_module(capsys):
    from arcmeasure.cli import main

    argvs = [[str(GOLDEN / name), *flags]
             for name in ("cusp_measure.json", "cusp_line_check_map.json")
             for flags in ([], ["--format", "json"])]
    out = _fresh(
        "import contextlib, io, json, sys\n"
        "from arcmeasure.cli import main\n"
        "outs = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        outs.append((main(argv), out.getvalue()))\n"
        f"print(json.dumps([outs, [m for m in {UNUSED!r} "
        "if m in sys.modules]]))")
    outs, loaded = json.loads(out)
    assert loaded == []
    for argv, (code, text) in zip(argvs, outs):
        assert (code, text) == (main(argv), capsys.readouterr().out)
    assert outs[0][1] == (GOLDEN / "cusp_measure.out").read_text("utf-8")
    assert outs[3][1] == (GOLDEN / "cusp_line_check_map.out").read_text(
        "utf-8")


def _stratum():
    return SNCStratum("E", [0], MotiveSeries({1: 1, 0: 1}), 2)


def _stable():
    return StableSetDescriptor(level=1, class_at_level=ONE, ambient_dim=1)


VALUES = {
    "SNCStratum": _stratum,
    "ResolutionData": lambda: ResolutionData([_stratum()], [[1]]),
    "ResolutionDiagram": lambda: ResolutionDiagram([_stratum()], [[1]],
                                                   [[0]]),
    "SeriesOrder": lambda: SeriesOrder.at_least(4),
    "BoundednessVerdict": lambda: BoundednessVerdict(
        True, False, witness_below=("E", (1,))),
    "TheoremReport": lambda: TheoremReport(
        "Inconclusive", (("h", "fail", "d"),), {"witness": None}),
    "StableSetDescriptor": _stable,
    "CylinderDescriptor": lambda: CylinderDescriptor(2, ONE, 1),
    "MeasurableDescriptor": lambda: MeasurableDescriptor(((_stable(), -3),)),
    "MotiveSeries": lambda: MotiveSeries({1: 1}, -3),
    "MultiPoly": lambda: parse_poly("x*y + 1/2", ["x", "y"]),
    "TruncSeries": lambda: TruncSeries([1, 2], 3),
    "ArcJet": lambda: ArcJet.from_coeffs([[0, 1], [1]], 2),
    "PolySystem": lambda: PolySystem(["x"], [parse_poly("x", ["x"])]),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_are_immutable_and_compare_by_fields(name):
    a, b = VALUES[name](), VALUES[name]()
    assert type(a).__name__ == name and a is not b
    field = type(a).__slots__[0]
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        setattr(a, field, None)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and not a != b
    try:
        assert hash(a) == hash(b)
    except TypeError:  # a dict among the fields
        assert name in ("TheoremReport",)


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda v: pickle.loads(pickle.dumps(v))}


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_survive_copy_and_pickle(name, how):
    value = VALUES[name]()
    twin = COPIES[how](value)
    assert type(twin) is type(value) and twin is not value
    assert twin._fields() == value._fields() and repr(twin) == repr(value)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        setattr(twin, type(twin).__slots__[0], None)


def test_reprs_keep_the_field_format():
    assert repr(VALUES["BoundednessVerdict"]()) == (
        "BoundednessVerdict(bounded_above=True, bounded_below=False, "
        "witness_above=None, witness_below=('E', (1,)))")
    assert repr(VALUES["CylinderDescriptor"]()) == (
        "CylinderDescriptor(level=2, base_class=MotiveSeries('1'), "
        "ambient_dim=1, nonsingular_ambient=True)")


def test_equality_needs_the_same_type():
    verdict = VALUES["BoundednessVerdict"]()
    assert verdict != (True, False, None, ("E", (1,)))
    assert SeriesOrder(3) != SeriesOrder(3, exact=False)


_TERMS = st.dictionaries(st.integers(-6, 6), st.integers(-5, 5).filter(bool),
                         max_size=4)
_FLOORS = st.one_of(st.just(NEG_INF), st.integers(-12, 2))
_CLOSED = st.builds(
    lambda n, ks, floor: _expand_rational([(n, tuple(ks))], floor),
    _TERMS, st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.integers(-12, 2))


def _expanded(series):
    series.terms  # fills the lazy slot
    return series


VALUES_FROM_PARTS = st.one_of(
    st.builds(MotiveSeries, _TERMS, _FLOORS),
    _CLOSED,  # lazy: terms not yet expanded
    _CLOSED.map(_expanded),
    st.builds(MultiPoly, st.just(("x", "y")), st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(max_denominator=4), max_size=4)),
    st.builds(TruncSeries, st.lists(st.fractions(max_denominator=4),
                                    min_size=1, max_size=5)))


@given(VALUES_FROM_PARTS)
@settings(max_examples=200)
def test_new_rebuilds_a_value_from_its_fields(value):
    fields = value._fields()
    twin = type(value)._new(*fields)
    assert type(twin) is type(value) and twin._fields() == fields
    assert twin == value and hash(twin) == hash(value)
