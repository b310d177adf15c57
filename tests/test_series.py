"""Truncated series, arc jets, composition, orders along arcs."""

import random
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
                        render_trunc, satisfies_jet_equations, series_order)

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


def test_jet_variable_names_past_alphabet():
    names = jet_variable_names(27, 0)
    assert names[0] == "a_0"
    assert names[-1] == "v26_0"


def reference_jet_equations(system, level):
    """The MultiPoly-list expansion: each power of a component is
    repeated truncated products of lists of jet polynomials."""
    jet_vars = jet_variable_names(len(system.variables), level)
    n = level + 1
    zero = MultiPoly.zero(jet_vars)
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
    4, 7 or 8, and a level."""
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
    return PolySystem(variables, generators), draw(st.integers(0, max_level))


@given(jet_systems())
@settings(max_examples=150, deadline=None)
def test_jet_equations_match_reference(case):
    assert_matches_reference(*case)


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
