"""Truncated series, arc jets, composition, orders along arcs."""

import copy
import json
import os
import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmeasure import (ArcJet, ArityMismatch, IndeterminateAtCap,
                        MultiPoly, PolySystem, SeriesOrder, TruncSeries, arc_level,
                        compose, jacobian_matrix_order, jet_equations,
                        jet_variable_names, matrix_entry_orders,
                        min_series_order, ord_jac_along, parse_poly,
                        render_poly, render_trunc, satisfies_jet_equations,
                        series_order)
from arcmeasure import series
from arcmeasure.series import _block

XY = ("x", "y")


def P(text, variables=XY):
    return parse_poly(text, variables)


def jet(rows, cap):
    return ArcJet.from_coeffs(rows, cap)


# ---------------------------------------------------------------------------
# TruncSeries basics

def test_trunc_arithmetic_respects_cap():
    arc = jet([[0, 1], [0, 0, 0, 1]], 3)  # (t, t^3)
    assert compose(P("x*y"), arc).coeffs == (0, 0, 0, 0)  # t^4 is past it
    assert compose(P("x + y"), arc).coeffs == (0, 1, 0, 1)


def test_render_trunc():
    s = TruncSeries([0, 0, 1, -1], cap=3)
    assert render_trunc(s) == "t^2 - t^3 + O(t^4)"
    assert render_trunc(TruncSeries([], cap=2)) == "O(t^3)"


@pytest.mark.parametrize("coeff", [0.1, 1.0, True, "1/2", None])
def test_trunc_series_rejects_inexact_coefficients(coeff):
    with pytest.raises(TypeError):
        TruncSeries([1, coeff], 2)


def test_trunc_series_keeps_fractions():
    s = TruncSeries([2, Fraction(1, 3)], 2)
    assert s.coeffs == (2, Fraction(1, 3), 0)
    assert all(type(c) is Fraction for c in s.coeffs)


@pytest.mark.parametrize("components", [
    (1,), (TruncSeries([1], 1), 1), ("t",)])
def test_arcjet_rejects_components_that_are_not_series(components):
    with pytest.raises(TypeError, match="components must be TruncSeries"):
        ArcJet(components)


@pytest.mark.parametrize("call, error", [
    (lambda: ArcJet(()), ValueError),
    (lambda: jet_equations(PolySystem(XY, [P("x")]), -1), ValueError),
    (lambda: arc_level(jet([[0], [0]], 2), PolySystem(XY, [])), ValueError),
    (lambda: matrix_entry_orders([], jet([[0], [0]], 2)), ArityMismatch),
    (lambda: jacobian_matrix_order([P("x")], jet([[0], [0]], 2), 3),
     ArityMismatch),
    (lambda: jacobian_matrix_order([P("x", ("x",))], jet([[0], [0]], 2), 2),
     ArityMismatch),
], ids=["empty-arc", "negative-level", "empty-system", "no-entries",
        "arc-off-chart", "component-off-chart"])
def test_series_layer_rejects_empty_or_misaligned_input(call, error):
    with pytest.raises(error):
        call()


def test_arcjet_shares_cap():
    with pytest.raises(ValueError):
        ArcJet((TruncSeries([1], 1), TruncSeries([1], 2)))


# ---------------------------------------------------------------------------
# compose

def test_compose_cusp_parametrization_vanishes():
    f = P("y^2 - x^3")
    out = compose(f, jet([[0, 0, 1], [0, 0, 0, 1]], 7))
    assert all(c == 0 for c in out.coeffs)


def test_compose_identity_coordinate():
    out = compose(P("x"), jet([[Fraction(2), Fraction(5)],
                               [Fraction(0), Fraction(0)]], 1))
    assert out.coeffs == (Fraction(2), Fraction(5))


def test_compose_diagonal_arc():
    out = compose(P("y^2 - x^3"), jet([[0, 1], [0, 1]], 3))
    assert render_trunc(out) == "t^2 - t^3 + O(t^4)"


def test_compose_checks_arity():
    with pytest.raises(ArityMismatch):
        compose(P("x"), jet([[1]], 2))


@st.composite
def poly_and_two_arcs(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.integers(-4, 4).filter(bool).map(Fraction), max_size=3))
    cap = draw(st.integers(1, 5))
    rows = [[Fraction(draw(st.integers(-3, 3))) for _ in range(cap + 1)]
            for _ in range(2)]
    return MultiPoly(XY, terms), jet(rows, cap)


@given(poly_and_two_arcs(), poly_and_two_arcs())
@settings(max_examples=150)
def test_compose_is_ring_morphism(fa, gb):
    f, arc = fa
    g, _ = gb
    fs, gs = compose(f, arc).coeffs, compose(g, arc).coeffs
    assert compose(f + g, arc).coeffs == tuple(map(add, fs, gs))
    assert compose(f * g, arc).coeffs == dense_product(fs, gs)


def dense_product(a, b):
    """The product of two coefficient rows of one cap, as Fractions."""
    return tuple(sum((Fraction(a[i]) * b[n - i] for i in range(n + 1)),
                     Fraction(0)) for n in range(len(a)))


def naive_compose(f, rows, cap):
    """Dense Fraction reference: every monomial as repeated series products."""
    out = [Fraction(0)] * (cap + 1)
    for exps, c in f.terms.items():
        term = [c] + [Fraction(0)] * cap
        for row, k in zip(rows, exps):
            for _ in range(k):
                term = [sum((term[i] * row[n - i] for i in range(n + 1)),
                            Fraction(0)) for n in range(cap + 1)]
        out = [a + b for a, b in zip(out, term)]
    return tuple(out)


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@st.composite
def poly_and_rational_arc(draw):
    n = draw(st.integers(1, 3))
    variables = ("x", "y", "z")[:n]
    terms = draw(st.one_of(
        st.just({}),
        RATIONALS.map(lambda c: {(0,) * n: c}),
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), RATIONALS,
                        max_size=5)))
    cap = draw(st.integers(0, 20))
    row = st.lists(RATIONALS, min_size=cap + 1, max_size=cap + 1)
    rows = [draw(st.one_of(st.just([Fraction(0)] * (cap + 1)), row))
            for _ in variables]
    return MultiPoly(variables, terms), rows, cap


@given(poly_and_rational_arc())
@settings(max_examples=200, deadline=None)
def test_compose_matches_dense_fraction_reference(case):
    f, rows, cap = case
    out = compose(f, jet(rows, cap))
    assert out.coeffs == naive_compose(f, rows, cap)
    assert all(type(c) is Fraction for c in out.coeffs)


# Integers at the byte edges of the packed digits (2^k near a multiple
# of 8 bits) and far past any machine word, for the width edge tests.
EDGE_INTS = st.one_of(
    st.integers(-10 ** 40, 10 ** 40),
    st.sampled_from([sign * (2 ** k + d) for k in (6, 7, 8, 14, 15, 16, 62,
                                                   63, 64, 133)
                     for d in (-1, 0, 1) for sign in (1, -1)]))
WIDE = st.builds(Fraction, EDGE_INTS, st.integers(1, 10 ** 6))
POSITIVE = st.builds(Fraction, EDGE_INTS.map(abs).filter(bool),
                     st.integers(1, 10 ** 6))


@st.composite
def wide_rows(draw, n, cap):
    """Rows of wide rationals, all-zero rows and single-entry rows."""
    single = st.builds(lambda i, c: [0] * i + [c] + [0] * (cap - i),
                       st.integers(0, cap), WIDE)
    wide = st.lists(WIDE, min_size=cap + 1, max_size=cap + 1)
    return [draw(st.one_of(st.just([0] * (cap + 1)), single, wide))
            for _ in range(n)]


@st.composite
def compose_at_width_edges(draw):
    """``(f, rows, cap, zeros)``: ``zeros`` leading result coefficients
    are known to cancel to 0.

    ``wide`` draws signed wide coefficients.  ``bound`` draws positive
    terms and constant positive rows, so the constant result coefficient
    is the bound ``B`` on which the packed width rests.  ``cancel``
    takes ``a*x^k - a*y^k`` at two rows that agree below ``t^m``.
    """
    cap = draw(st.integers(0, 12))
    shape = draw(st.sampled_from(["wide", "bound", "cancel"]))
    if shape == "cancel":
        k, m = draw(st.integers(1, 3)), draw(st.integers(0, cap + 1))
        a = draw(WIDE.filter(bool))
        row = draw(wide_rows(1, cap))[0]
        rows = [row, row[:m] + draw(wide_rows(1, cap))[0][m:]]
        return MultiPoly(XY, {(k, 0): a, (0, k): -a}), rows, cap, m
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    if shape == "bound":
        terms = draw(st.dictionaries(exps, POSITIVE, min_size=1, max_size=4))
        rows = [[draw(POSITIVE)] + [0] * cap for _ in range(n)]
    else:
        terms = draw(st.dictionaries(exps, WIDE, max_size=5))
        rows = draw(wide_rows(n, cap))
    return MultiPoly(("x", "y", "z")[:n], terms), rows, cap, 0


@given(compose_at_width_edges())
@settings(max_examples=300, deadline=None)
def test_compose_at_packed_width_edges(case):
    f, rows, cap, zeros = case
    out = compose(f, jet(rows, cap))
    assert out.coeffs == naive_compose(f, rows, cap)
    assert not any(out.coeffs[:zeros])


@given(st.integers(0, 12).flatmap(lambda cap: wide_rows(2, cap)))
@settings(max_examples=200, deadline=None)
def test_trunc_product_matches_dense_fraction_product(rows):
    cap = len(rows[0]) - 1
    dense = dense_product(*rows)
    product = compose(P("x*y"), jet(rows, cap)).coeffs
    assert product == dense == compose(P("x*y"), jet(rows[::-1], cap)).coeffs
    assert all(type(c) is Fraction for c in product)


# ---------------------------------------------------------------------------
# jet equations

def test_jet_equations_cusp_level_two():
    out = jet_equations(PolySystem(XY, [P("y^2 - x^3")]), 2)
    vs = out.variables
    assert vs == ("a_0", "a_1", "a_2", "b_0", "b_1", "b_2")
    expected = {"-a_0^3 + b_0^2",
                "-3*a_0^2*a_1 + 2*b_0*b_1",
                "-3*a_0^2*a_2 - 3*a_0*a_1^2 + 2*b_0*b_2 + b_1^2"}
    from arcmeasure import render_poly
    assert {render_poly(g) for g in out} == expected


def test_jet_equations_coordinate():
    out = jet_equations(PolySystem(("x",), [P("x", ("x",))]), 1)
    from arcmeasure import render_poly
    assert {render_poly(g) for g in out} == {"a_0", "a_1"}


def test_jet_equations_hyperplane_level_zero():
    out = jet_equations(PolySystem(XY, [P("x - y")]), 0)
    from arcmeasure import render_poly
    assert {render_poly(g) for g in out} == {"a_0 - b_0"}


@pytest.mark.parametrize("first, second, collapses", [
    ("x + 1", "x + 1/2", True),
    ("x + 1", "2*x + 1", False),
    ("x + y^2 + 1", "x + y^2 - 3/4", True),
    ("1/2*x + 1/2", "1/2*x + 1/3", True),  # x/2 over dens 2 and 6
    ("x - y", "y - x", False),
])
def test_jet_equations_collapse_past_t0_on_equal_nonconstant_parts(
        first, second, collapses):
    # past t^0, two generators give equal equations exactly when their
    # nonconstant parts agree; the first generator's equations stay
    system = PolySystem(XY, [P(first), P(second)])
    out = assert_matches_reference(system, 3).generators
    one, two = (jet_equations(PolySystem(XY, [P(g)]), 3).generators
                for g in (first, second))
    assert out == one + (two[:1] if collapses else two)


def test_jet_variable_names_past_alphabet():
    names = jet_variable_names(27, 0)
    assert names[0] == "a_0"
    assert names[-1] == "v26_0"


def reference_jet_equations(system, level):
    """The MultiPoly-list expansion: each power of a component is
    repeated truncated products of lists of jet polynomials."""
    jet_vars = jet_variable_names(len(system.variables), level)
    n = level + 1
    zero = MultiPoly(jet_vars)
    units = [tuple(int(i == k) for i in range(len(jet_vars)))
             for k in range(len(jet_vars))]
    comps = [[MultiPoly(jet_vars, {units[j * n + i]: 1}) for i in range(n)]
             for j in range(len(system.variables))]
    equations = []
    for g in system:
        acc = [zero] * n
        for exps, c in g.terms.items():
            term = [zero + c] + [zero] * level
            for comp, k in zip(comps, exps):
                for _ in range(k):
                    term = [sum((term[i] * comp[d - i] for i in range(d + 1)),
                                zero) for d in range(n)]
            acc = [a + b for a, b in zip(acc, term)]
        equations.extend(c for c in acc if c)
    return PolySystem(jet_vars, equations)


def assert_matches_reference(system, level):
    out = jet_equations(system, level)
    assert out.generators == reference_jet_equations(system, level).generators
    assert all(type(c) is Fraction for g in out for c in g.terms.values())
    return out


@st.composite
def exponent(draw, n, degree):
    """An exponent vector of total degree exactly ``degree``."""
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=n - 1,
                                max_size=n - 1)))
    bounds = [0, *cuts, degree]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def jet_systems(draw, max_level=10):
    """1-3 variables, rational generators of degree 0 (constants), 1, 3,
    4, 7 or 8, and a level.  A second generator is sometimes the first
    plus a rational constant, so that their equations past ``t^0``
    coincide."""
    n = draw(st.integers(1, 3))
    variables = ("x", "y", "z")[:n]
    generators = []
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.sampled_from([0, 1, 3, 4, 7, 8]))
        terms = {draw(exponent(n, degree)): draw(RATIONALS.filter(bool))}
        for _ in range(draw(st.integers(0, 3))):
            e = draw(exponent(n, draw(st.integers(0, degree))))
            terms[e] = draw(RATIONALS)
        generators.append(MultiPoly(variables, terms))
    if len(generators) == 2 and draw(st.booleans()):
        generators[1] = generators[0] + draw(RATIONALS.filter(bool))
    return PolySystem(variables, generators), draw(st.integers(0, max_level))


@st.composite
def shared_exponent_systems(draw):
    """2-3 variables, 1-2 generators whose terms raise each variable to 0
    or one exponent ``k``, one of them all variables to ``k``, and a
    level: each variable's block of ``x^k`` has the same level and
    exponent, and only the jet names tell the blocks apart."""
    n, k = draw(st.integers(2, 3)), draw(st.integers(1, 4))
    variables = ("x", "y", "z")[:n]
    exps = st.tuples(*[st.sampled_from([0, k])] * n)
    generators = [MultiPoly(variables, {(k,) * n: draw(RATIONALS.filter(bool)),
                                        **draw(st.dictionaries(exps, RATIONALS,
                                                               max_size=3))})
                  for _ in range(draw(st.integers(1, 2)))]
    return PolySystem(variables, generators), draw(st.integers(0, 8))


def assert_prints_its_terms(equations):
    assert [render_poly(g) for g in equations] \
        == [render_poly(MultiPoly(g.variables, g.terms)) for g in equations]


def empty_block_table(monkeypatch, weight=series._TABLE_WEIGHT):
    monkeypatch.setattr(series, "_blocks", {})
    monkeypatch.setattr(series, "_blocks_weight", 0)
    monkeypatch.setattr(series, "_TABLE_WEIGHT", weight)


def assert_block_table_holds_its_weight():
    assert all(weight == len(cut[0]) * (len(names) + 8)
               for (names, _), (cut, weight) in series._blocks.items())
    held = sum(weight for _, weight in series._blocks.values())
    assert series._blocks_weight == held <= series._TABLE_WEIGHT


@given(st.one_of(jet_systems(), shared_exponent_systems()))
@settings(max_examples=200, deadline=None)
def test_jet_equations_match_reference(case):
    # the first run fills the block table and the second reads from it
    with pytest.MonkeyPatch.context() as monkeypatch:
        empty_block_table(monkeypatch)
        for _ in range(2):
            assert_prints_its_terms(assert_matches_reference(*case))
        assert_block_table_holds_its_weight()


def test_block_rows_are_shared_tuples_cut_per_budget():
    # (a_0 + a_1 t)^2 below t^2: a_0^2 + 2*a_0*a_1*t
    cut = _block(("a_0", "a_1"), 2)
    assert cut == (((0, (2, 0), 1, "*a_0^2"), (1, (1, 1), 2, "*a_0*a_1")),
                   ((0, (2, 0), 1, "*a_0^2"),))
    assert type(cut) is tuple and all(type(rows) is tuple for rows in cut)
    assert all(type(row) is tuple for rows in cut for row in rows)
    assert _block(("a_0", "a_1"), 2) is cut


def test_block_cuts_run_in_descending_exponent_order():
    # (a_0 + a_1 t + a_2 t^2 + a_3 t^3)^2: by budget the rows run
    # a_0^2, 2a_0a_1 | 2a_0a_2, a_1^2 | 2a_0a_3, 2a_1a_2; by exponent
    # 2a_0a_3 comes before a_1^2
    names = ("a_0", "a_1", "a_2", "a_3")
    cut = _block(names, 2)
    assert [row[1] for row in cut[0]] == [
        (2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1),
        (0, 2, 0, 0), (0, 1, 1, 0)]
    for b, rows in enumerate(cut):
        assert [row[1] for row in rows] == sorted(
            [row[1] for row in rows], reverse=True)
        assert rows == tuple(row for row in cut[0] if row[0] <= 3 - b)
        assert all(any(row is kept for kept in cut[0]) for row in rows)


def test_block_table_keeps_at_most_its_weight(monkeypatch):
    # x^24 over a_0 .. a_24 has 7,338 rows, weight 242,154: too heavy for
    # the table, it is built once for both terms of g and not kept
    empty_block_table(monkeypatch)
    names = []
    monkeypatch.setattr(series, "_factors",
                        lambda n, mk, f=series._factors: names.append(n)
                        or f(n, mk))
    system = PolySystem(("x",), [P("x^24 - 2*x^24 + x", ("x",))])
    assert_prints_its_terms(jet_equations(system, 24))
    x24 = jet_variable_names(1, 24)
    assert names.count(x24) == 7338 + 25 and list(series._blocks) == [(x24, 1)]
    assert_block_table_holds_its_weight()
    # many small blocks: the oldest leave, the output stays the same; a
    # weight of 100 keeps blocks of the last generator, x^39 - y^39, alone
    empty_block_table(monkeypatch, 100)
    system = PolySystem(XY, [P(f"x^{k} - y^{k}") for k in range(1, 40)])
    first = [render_poly(g) for g in jet_equations(system, 2)]
    assert series._blocks and {k for _, k in series._blocks} <= {0, 39}
    assert_block_table_holds_its_weight()
    assert [render_poly(g) for g in jet_equations(system, 2)] == first
    assert_block_table_holds_its_weight()
    assert_matches_reference(system, 2)


def test_block_table_stays_right_under_threads(monkeypatch):
    # more threads than cores, released together, and a short switch
    # interval, so that the expansions fill and empty the table
    # interleaved: each must still print its own system, and the weight
    # the table counts must survive every interleaving
    count = 2 * (os.cpu_count() or 1) + 4
    cases = [(PolySystem(("x", "y", "z"), [
        P(f"x^{i % 3 + 2}*y - 3/2*y^{i % 3 + 2} + z^{i % 2 + 1}",
          ("x", "y", "z"))]), 3 + i % 3) for i in range(count)]
    expected = [[render_poly(MultiPoly(g.variables, g.terms))
                 for g in reference_jet_equations(*case)] for case in cases]
    start = threading.Barrier(count)

    def expand_together(case):
        start.wait(timeout=60)
        return [render_poly(g) for g in jet_equations(*case)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            empty_block_table(monkeypatch, 600)
            with ThreadPoolExecutor(count) as pool:
                texts = list(pool.map(expand_together, cases, timeout=60))
            assert texts == expected
            assert_block_table_holds_its_weight()
    finally:
        sys.setswitchinterval(old)


@pytest.mark.parametrize("degree", [1, 3, 4, 7, 8, 255, 256])
def test_jet_equations_at_field_width_edges(degree):
    # every monomial up to the degree; at degrees 255 and 256, far past
    # the level, a sparse support keeps the reference fast
    if degree <= 8:
        support = [(i, j) for i in range(degree + 1)
                   for j in range(degree + 1 - i)]
    else:
        support = [(degree, 0), (0, degree), (degree - 1, 1),
                   (1, degree - 2), (2, 1), (0, 0)]
    terms = {(i, j): Fraction(i + 1, j + 2) for i, j in support}
    assert_matches_reference(PolySystem(XY, [MultiPoly(XY, terms)]), 4)


def test_jet_equations_past_the_alphabet():
    variables = tuple(f"x{j}" for j in range(28))
    system = PolySystem(variables, [
        P("x0*x26 - 1/2*x27^3 + x13^2", variables), P("3/4", variables),
        P("x26^4 - 2/3*x27", variables)])
    out = assert_matches_reference(system, 2)
    assert out.variables[-6:] == ("v26_0", "v26_1", "v26_2",
                                  "v27_0", "v27_1", "v27_2")


def assert_membership_matches_composition(system, rows, level):
    """Membership in the jet variety == vanishing of the composition."""
    values = dict(zip(jet_variable_names(len(rows), level),
                      (c for row in rows for c in row)))
    algebraic = satisfies_jet_equations(jet_equations(system, level), values)
    arc = jet(rows, level)
    analytic = all(not compose(g, arc) for g in system)
    assert algebraic == analytic
    return algebraic


def test_satisfies_matches_composition():
    rng = random.Random(11)
    system = PolySystem(XY, [P("y^2 - x^3")])
    n = 3
    hits = 0
    for trial in range(60):
        if trial % 3 == 0:
            # on-variety jets: truncations of (t^2, t^3) scaled
            c = Fraction(rng.randint(1, 3))
            rows = [[0, 0, c ** 2, 0], [0, 0, 0, c ** 3]]
        else:
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n + 1)]
                    for _ in range(2)]
        hits += assert_membership_matches_composition(system, rows, n)
    assert hits >= 20  # the constructed family keeps the test two-sided


@given(jet_systems(max_level=6), st.data())
@settings(max_examples=80, deadline=None)
def test_satisfies_matches_composition_random(case, data):
    system, level = case
    small = st.integers(-2, 2).map(Fraction)
    rows = [data.draw(st.one_of(
        st.just([Fraction(0)] * (level + 1)),
        st.lists(small, min_size=level + 1, max_size=level + 1)))
        for _ in system.variables]
    assert_membership_matches_composition(system, rows, level)


@given(jet_systems(max_level=6), st.data())
@settings(max_examples=80, deadline=None)
def test_jet_equations_evaluate_to_the_composition(case, data):
    # the t^s equation of g, at a jet, is the t^s coefficient of g along it
    system, level = case
    n = level + 1
    rows = [data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
            for _ in system.variables]
    values = dict(zip(jet_variable_names(len(rows), level),
                      (c for row in rows for c in row)))
    arc = jet(rows, level)
    for g in system:
        got = [0] * n
        for eq in jet_equations(PolySystem(system.variables, [g]), level):
            # a_{j,i} carries weight i, and each equation has one weight
            weights = {sum(i % n * k for i, k in enumerate(e))
                       for e in eq.terms}
            assert len(weights) == 1
            got[weights.pop()] = eq.evaluate(values)
        assert got == list(compose(g, arc).coeffs)


@st.composite
def printed_jet_systems(draw):
    """1-3 variables and 1-3 rational generators, among them constants,
    zeros and a repeat of the first, and a level 0-6."""
    n = draw(st.integers(1, 3))
    variables = ("x", "y", "z")[:n]
    polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), RATIONALS,
                            max_size=4).map(lambda t: MultiPoly(variables, t))
    constants = RATIONALS.map(lambda c: MultiPoly(variables, {(0,) * n: c}))
    generators = draw(st.lists(st.one_of(polys, constants),
                               min_size=1, max_size=3))
    if len(generators) > 1 and draw(st.booleans()):
        generators[-1] = generators[0]
    return PolySystem(variables, generators), draw(st.integers(0, 6))


@given(printed_jet_systems())
@settings(max_examples=100, deadline=None)
def test_jet_equations_print_their_generic_text(case):
    # the text stored with each equation is the text of its terms
    for g in jet_equations(*case):
        assert g._text is not None
        text = render_poly(g)
        assert text == render_poly(MultiPoly(g.variables, g.terms))
        assert parse_poly(text, g.variables) == g


def test_stored_text_stays_out_of_value_semantics():
    system = PolySystem(XY, [P("1/2*y^2 - x^3 + 3"), P("-4/3*x*y")])
    for g in jet_equations(system, 3):
        twin = parse_poly(render_poly(g), g.variables)
        assert twin._text is None
        assert g == twin and hash(g) == hash(twin)
        assert PolySystem(g.variables, [g, twin]).generators == (g,)
        for how in (copy.copy, copy.deepcopy,
                    lambda v: pickle.loads(pickle.dumps(v))):
            assert repr(how(g)) == repr(g) and how(g)._text == g._text
        # what is built from g prints from its own terms
        for derived, plain in [(-g, -twin), (g + 0, twin + 0),
                               (g * 1, twin * 1), (g.diff(0), twin.diff(0))]:
            assert derived._text is None
            assert render_poly(derived) == render_poly(plain)


def map_is_built(g):
    try:
        MultiPoly._num.__get__(g)  # the slot itself, not __getattr__
    except AttributeError:
        return False
    return True


def test_unread_jet_equations_keep_value_semantics():
    # each check starts from equations whose term map was never read
    system = PolySystem(("x", "y", "z"), [
        P("1/2*y^2*z - x^3 + 3", ("x", "y", "z")),
        P("-4/3*x*y + z^4", ("x", "y", "z"))])

    def fresh():
        equations = jet_equations(system, 3).generators
        assert not any(map(map_is_built, equations))
        return equations

    twins = [parse_poly(render_poly(g), g.variables) for g in fresh()]
    point = dict(zip(twins[0].variables, range(2, 100)))
    assert list(fresh()) == twins and twins == list(fresh())
    assert [hash(g) for g in fresh()] == list(map(hash, twins))
    assert [g.terms for g in fresh()] == [t.terms for t in twins]
    assert [g.evaluate(point) for g in fresh()] \
        == [t.evaluate(point) for t in twins]
    assert [g * g - g for g in fresh()] == [t * t - t for t in twins]
    for how in (copy.copy, copy.deepcopy,
                lambda v: pickle.loads(pickle.dumps(v))):
        copies = [how(g) for g in fresh()]
        assert copies == twins and list(map(hash, copies)) \
            == list(map(hash, twins))
        assert list(map(render_poly, copies)) == list(map(render_poly, twins))


def test_printing_jet_equations_builds_no_term_map(monkeypatch, capsys,
                                                   tmp_path):
    from arcmeasure import cli
    built = []

    def kept(*args):
        built.append(jet_equations(*args))
        return built[-1]

    monkeypatch.setattr(series, "jet_equations", kept)
    path = tmp_path / "jets.json"
    path.write_text(json.dumps({
        "schema": 1, "kind": "jets", "payload": {
            "variables": ["x", "y", "z"], "level": 4,
            "generators": ["y^2 - x^3 + 2/3*z", "x*y*z - 1", "z^2"]}}))
    for flags in ([], ["--format", "json"]):
        assert cli.main([str(path), *flags]) == 0
    printed = capsys.readouterr().out
    assert [len(system) for system in built] == [15, 15]
    for g in (g for system in built for g in system):
        repr(g)
        assert render_poly(g) in printed and not map_is_built(g)


def test_jet_text_prints_every_digit_under_the_lowest_limit():
    n, m = 10 ** 699 + 7, 3 * 10 ** 699 + 1  # 700 digits, past 640
    system = PolySystem(XY, [MultiPoly(XY, {(n, 0): 1, (0, 1): -m})])
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        texts = [render_poly(g) for g in jet_equations(system, 1)]
        sys.set_int_max_str_digits(0)  # to spell out the expected digits
        assert texts == [f"a_0^{n} - {m}*b_0",
                         f"{n}*a_0^{n - 1}*a_1 - {m}*b_1"]
    finally:
        sys.set_int_max_str_digits(old)


# ---------------------------------------------------------------------------
# orders

def test_series_order_examples():
    assert series_order(TruncSeries([0, 0, 5, 1], 3)) == SeriesOrder(2)
    assert series_order(TruncSeries([], 3)) == SeriesOrder.at_least(4)
    assert str(SeriesOrder.at_least(4)) == ">=4"


@given(st.integers(0, 3), st.integers(0, 3))
def test_series_order_multiplicative(i, j):
    cap = 8
    s = [3 if k == i else 0 for k in range(cap)] + [1]  # 3*t^i + t^cap
    t = [0] * j + [-2]
    assert series_order(compose(P("x*y"), jet([s, t], cap))) \
        == SeriesOrder(i + j)


def test_min_series_order_mixing():
    assert min_series_order([SeriesOrder(3), SeriesOrder.at_least(5)]) \
        == SeriesOrder(3)
    assert min_series_order([SeriesOrder.at_least(5),
                             SeriesOrder.at_least(7)]) \
        == SeriesOrder.at_least(5)
    with pytest.raises(IndeterminateAtCap):
        # the exact value 6 could be beaten by whatever hides past cap 5
        min_series_order([SeriesOrder(6), SeriesOrder.at_least(5)])
    with pytest.raises(ValueError):
        min_series_order([])


def test_arc_level_cusp():
    h = PolySystem(XY, [P("-3*x^2"), P("2*y")])
    assert arc_level(jet([[0, 0, 1], [0, 0, 0, 1]], 6), h) == SeriesOrder(3)


def test_arc_level_nonsingular_point():
    h = PolySystem(XY, [P("1")])
    assert arc_level(jet([[1, 1], [1, 1]], 1), h) == SeriesOrder(0)


def test_arc_level_arc_inside_singular_locus():
    h = PolySystem(XY, [P("-3*x^2"), P("2*y")])
    assert arc_level(jet([[0], [0]], 5), h) == SeriesOrder.at_least(6)


def test_ord_jac_along_blowup_chart():
    # chart map (x, y) -> (x, x*y): the Jacobian determinant is x
    sigma = [P("x"), P("x*y")]
    for e in (1, 2, 3):
        arc = jet([[0] * e + [1], [Fraction(7)] + [0] * e], e + 2)
        assert ord_jac_along(sigma, arc, 2) == SeriesOrder(e)


def test_ord_jac_along_cusp_map():
    sigma = [P("x^2", ("x",)), P("x^3", ("x",))]
    for e in (1, 2):
        arc = jet([[0] * e + [1]], 6)
        assert ord_jac_along(sigma, arc, 1) == SeriesOrder(e)


def test_ord_jac_along_identity():
    sigma = [P("x"), P("y")]
    assert ord_jac_along(sigma, jet([[3, 1], [0, 2]], 1), 2) == SeriesOrder(0)


@pytest.mark.parametrize("components, d", [
    (["x", "y"], 0),
    (["x*y"], 2),             # more than the one row
    (["x", "y", "x + y"], 3),  # more than the two columns
    ([], 1),                  # no map at all
])
def test_ord_jac_along_needs_minors_of_size_d(components, d):
    sigma = [P(c) for c in components]
    with pytest.raises(ArityMismatch):
        ord_jac_along(sigma, jet([[0, 1], [0, 1]], 2), d)


def test_ord_jac_along_needs_an_arc_in_the_source_space():
    with pytest.raises(ArityMismatch):
        ord_jac_along([P("x"), P("y")], jet([[0, 1]], 2), 1)


def test_ord_jac_along_constant_map_has_no_finite_order():
    # every minor is the zero polynomial: only a bound past the cap
    sigma = [P("1"), P("2")]
    assert ord_jac_along(sigma, jet([[0, 1], [1]], 3), 1) \
        == SeriesOrder.at_least(4)


def test_ord_jac_chain_additivity():
    """Composites of blow-up charts add their Jacobian orders."""
    sigma = [P("x"), P("x*y")]          # one chart
    double = [P("x"), P("x^2*y")]       # the same chart twice
    for e in (1, 2):
        arc = jet([[0] * e + [1], [Fraction(5), 1, 1]], 3 * e + 2)
        one = ord_jac_along(sigma, arc, 2)
        two = ord_jac_along(double, arc, 2)
        assert two == SeriesOrder(one.value * 2)


# ---------------------------------------------------------------------------
# Jacobian matrix order

def test_matrix_order_polynomial_entries():
    assert jacobian_matrix_order([P("x^2", ("x",))], jet([[0, 1]], 4), 1) \
        == SeriesOrder(1)


def test_matrix_order_rational_pair_negative():
    one = P("1", ("x",))
    x = P("x", ("x",))
    out = jacobian_matrix_order([(one, x)], jet([[0, 1]], 4), 1)
    assert out == SeriesOrder(-1)


def test_matrix_order_identity():
    out = jacobian_matrix_order([P("x"), P("y")], jet([[0, 1], [0, 3]], 3), 2)
    assert out == SeriesOrder(0)


def test_entry_orders_take_the_minimum():
    arc = jet([[0, 1], [0, 0, 1]], 5)
    assert matrix_entry_orders([P("2*x"), P("3*y")], arc) == SeriesOrder(1)
    assert matrix_entry_orders([P("3*y")], arc) == SeriesOrder(2)


def test_pair_entry_denominator_vanishing_to_cap():
    one = P("1", ("x",))
    zeroish = P("x", ("x",))
    with pytest.raises(IndeterminateAtCap):
        matrix_entry_orders([(one, zeroish)], jet([[0]], 3))
    # a numerator vanishing to the cap over an exact denominator: a bound
    bound = matrix_entry_orders([(zeroish, one)], jet([[0]], 3))
    assert bound == SeriesOrder.at_least(4)
    assert repr(bound) == "SeriesOrder.at_least(4)"
    assert repr(SeriesOrder(2)) == "SeriesOrder(2)"
