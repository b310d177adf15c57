"""Multivariate polynomials: parsing, arithmetic, minors, singular loci."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmeasure import (ArityMismatch, ConstantInput, MultiPoly, ParseError,
                        PolySystem, hypersurface_singular_ideal,
                        jacobian_minors, matrix_minors, parse_poly, poly_det,
                        render_poly)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, variables=XY):
    return parse_poly(text, variables)


# ---------------------------------------------------------------------------
# parser

def test_parse_round_trip_simple():
    for text in ("x^2 - y", "-3*x*y + 1/2", "x^3 + x^2 + x + 1",
                 "2/3*x^2*y^3 - y"):
        assert render_poly(P(text)) == text


def test_parse_rational_literals():
    p = P("1/2*x + 3")
    assert p.evaluate({"x": Fraction(4), "y": 0}) == Fraction(5)


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        P("3x")
    with pytest.raises(ParseError):
        P("x y")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ParseError):
        P("x + w")


def test_parse_error_offset():
    try:
        P("x +* y")
    except ParseError as exc:
        # the dangling operator is discovered at the '*'
        assert exc.offset == 3
    else:
        pytest.fail("expected ParseError")


def test_parse_power_binds_tighter_than_product():
    assert P("2*x^3") == MultiPoly(XY, {(0, 0): 2}) * P("x") ** 3
    assert P("2*x*3*y^2*x") == MultiPoly(XY, {(0, 0): 6}) * P("x") ** 2 \
        * P("y") ** 2


def test_parse_rejects_bad_literals_at_their_offset():
    for text, offset, message in (("x + 1/0*y", 6, "zero denominator"),
                                  ("x^-1", 0, "negative exponent"),
                                  ("2^-1*x", 2, "negative power"),
                                  ("x + O(u^2)", 4, "an O term is not a"),
                                  ("x + " + "7" * 4301, 4, "4300 digits")):
        with pytest.raises(ParseError) as info:
            P(text)
        assert info.value.offset == offset, text
        assert message in str(info.value), text


rational_polys = st.sampled_from([XY, XYZ]).flatmap(
    lambda names: st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * len(names)),
        st.fractions(max_denominator=50).filter(bool),
        max_size=6,
    ).map(lambda terms: MultiPoly(names, terms)))


@given(rational_polys)
@settings(max_examples=200)
def test_parse_render_round_trip(p):
    assert parse_poly(render_poly(p), p.variables) == p


# ---------------------------------------------------------------------------
# arithmetic

small_exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
small_polys = st.dictionaries(
    small_exps,
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
    max_size=4,
).map(lambda terms: MultiPoly(XY, terms))


def test_coefficients_stay_fractions():
    p = MultiPoly(XY, {(1, 0): 2, (0, 1): -1})
    for q in (p, p + 1, 1 - p, -p, p * p, p ** 0, p ** 3, p.diff(0),
              MultiPoly(XY, {(0, 0): 3})):
        assert q.terms
        assert all(type(c) is Fraction for c in q.terms.values())


@given(small_polys, small_polys, small_polys)
@settings(max_examples=200)
def test_poly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(small_polys, small_polys)
@settings(max_examples=200)
def test_poly_evaluation_is_a_homomorphism(a, b):
    point = {"x": Fraction(3, 2), "y": Fraction(-2)}
    assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
    assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)


def test_diff_product_rule():
    a, b = P("x^2*y - y"), P("x*y^2 + 2*x")
    lhs = (a * b).diff(0)
    assert lhs == a.diff(0) * b + a * b.diff(0)


@pytest.mark.parametrize("p", [P("x*y^2"), MultiPoly(XY)])
def test_diff_needs_a_variable_index_in_range(p):
    for index in (-1, -2, 2):
        with pytest.raises(IndexError):
            p.diff(index)
    for index in (True, 1.0):
        with pytest.raises(TypeError):
            p.diff(index)


def test_number_minus_polynomial_names_the_minus():
    with pytest.raises(TypeError) as info:
        1.5 - P("x")
    assert str(info.value) == \
        "unsupported operand type(s) for -: 'float' and 'MultiPoly'"
    assert 2 - P("x") == P("2 - x")


def test_pow_matches_repeated_product():
    p = P("x + 2*y")
    assert p ** 4 == p * p * p * p
    assert p ** 0 == MultiPoly(XY, {(0, 0): 1})


# ---------------------------------------------------------------------------
# systems, determinants, minors

def test_system_canonicalizes():
    s = PolySystem(XY, [P("x"), P("x"), P("0"), P("y - y")])
    assert len(s) == 1
    assert s == PolySystem(XY, [P("x")])
    assert s.__eq__(P("x")) is NotImplemented


def test_systems_in_another_order_hash_equal():
    s = PolySystem(XY, [P("x"), P("y - x^2"), P("1/2*x*y")])
    t = PolySystem(XY, [P("1/2*x*y"), P("x"), P("y - x^2"), P("x")])
    assert s.generators != t.generators
    assert s == t and hash(s) == hash(t)
    assert len({s, t, PolySystem(XY, [P("x")])}) == 2


def test_sums_over_other_variables_are_rejected():
    with pytest.raises(ArityMismatch):
        P("x + y") + P("x", XYZ)
    with pytest.raises(ArityMismatch):
        P("x", XYZ) - P("x")


system_pool = st.sampled_from(
    [P("x"), P("x"), P("0"), P("y - x^2"), P("1/2*x*y"), P("-x"), P("3"),
     MultiPoly(XY), MultiPoly(XY, {(0, 0): Fraction(6, 2)})])


@given(st.lists(system_pool, max_size=12))
@settings(max_examples=200)
def test_system_keeps_first_occurrences_in_order(generators):
    kept = []
    for g in generators:
        if g and all(g != k for k in kept):
            kept.append(g)
    s = PolySystem(XY, generators)
    assert len(s.generators) == len(kept)
    assert all(a is b for a, b in zip(s.generators, kept))


equal_prone = st.one_of(
    small_polys,
    small_polys.map(lambda p: parse_poly(render_poly(p), XY)),
    small_polys.map(lambda p: p * 1 + 0),
    st.integers(-2, 2),
    st.fractions(min_value=-2, max_value=2, max_denominator=2))


@given(small_polys | system_pool, equal_prone)
@settings(max_examples=300)
def test_equal_polynomials_hash_equal(p, q):
    if p == q:
        assert hash(p) == hash(q)
    for r in (p * 1, parse_poly(render_poly(p), XY)):
        assert r == p and hash(r) == hash(p)


def test_system_requires_variables():
    with pytest.raises(ValueError):
        PolySystem((), [])
    with pytest.raises(TypeError):
        PolySystem(XY, [P("x"), "y"])
    with pytest.raises(ArityMismatch):
        PolySystem(XY, [P("x"), P("x", XYZ)])


def test_evaluate_takes_a_point_by_position():
    p = P("1/2*x - y")
    assert p.evaluate([3, Fraction(1, 2)]) == 1
    with pytest.raises(ArityMismatch):
        p.evaluate([3])


def test_det_of_an_empty_matrix_is_rejected():
    with pytest.raises(ValueError):
        poly_det([])


def test_det_2x2():
    m = [[P("x"), P("y")], [P("y"), P("x")]]
    assert poly_det(m) == P("x^2 - y^2")


def test_det_3x3_sarrus_oracle():
    rows = [["x", "y", "1"], ["1", "x", "y"], ["y", "1", "x"]]
    m = [[P(t, XYZ) for t in row] for row in rows]
    # Sarrus: aei + bfg + cdh - ceg - bdi - afh
    expected = P("x^3 + y^3 + 1 - 3*x*y", XYZ)
    assert poly_det(m) == expected


def test_matrix_minors_counts():
    m = [[P("x"), P("y")], [P("1"), P("x")], [P("y"), P("1")]]
    assert len(matrix_minors(m, 2)) == 3
    assert matrix_minors(m, 2)[0] == P("x^2 - y")


def test_jacobian_minors_cusp():
    out = jacobian_minors([P("y^2 - x^3")], 2, 1)
    assert out == PolySystem(XY, [P("-3*x^2"), P("2*y")])


def test_jacobian_minors_drops_zero():
    out = jacobian_minors([P("x")], 2, 1)
    assert out == PolySystem(XY, [P("1")])
    assert len(out) == 1


def test_jacobian_minors_sphere():
    out = jacobian_minors([P("x^2 + y^2 + z^2 - 1", XYZ)], 3, 2)
    assert out == PolySystem(XYZ, [P(t, XYZ) for t in ("2*x", "2*y", "2*z")])


def test_jacobian_minors_arity_checked():
    with pytest.raises(ArityMismatch):
        jacobian_minors([P("x"), P("y")], 2, 1)
    with pytest.raises(ArityMismatch):  # two variables, dimension 3
        jacobian_minors([P("x*y")], 3, 2)


# ---------------------------------------------------------------------------
# hypersurface singular ideal

def test_singular_ideal_cusp():
    out = hypersurface_singular_ideal(P("y^2 - x^3"))
    assert out == PolySystem(XY, [P("-3*x^2"), P("2*y")])
    # common zeros with the curve: only the origin
    on_curve = [(Fraction(t) ** 2, Fraction(t) ** 3)
                for t in (-2, -1, 1, 2, 3)]
    for x, y in on_curve:
        values = {"x": x, "y": y}
        assert any(g.evaluate(values) for g in out)


def test_singular_ideal_nonsingular_line():
    out = hypersurface_singular_ideal(P("x"))
    assert out == PolySystem(XY, [P("1")])


def test_singular_ideal_umbrella_is_z_axis():
    f = P("x^2 - z*y^2", XYZ)
    out = hypersurface_singular_ideal(f)
    expected = [P(t, XYZ) for t in ("2*x", "-2*y*z", "-y^2")]
    assert out == PolySystem(XYZ, expected)
    assert out.generators == tuple(expected)  # partials in variable order
    assert out.generators == jacobian_minors([f], 3, 2).generators
    for z in (-3, 0, 2, 7):
        axis = {"x": 0, "y": 0, "z": Fraction(z)}
        assert all(g.evaluate(axis) == 0 for g in out)
        assert f.evaluate(axis) == 0
    off_axis = {"x": Fraction(2), "y": Fraction(1), "z": Fraction(4)}
    assert f.evaluate(off_axis) == 0  # on the surface
    assert any(g.evaluate(off_axis) for g in out)  # but nonsingular there


def test_singular_ideal_rejects_constant():
    with pytest.raises(ConstantInput):
        hypersurface_singular_ideal(MultiPoly(XY, {(0, 0): 5}))


def test_render_graded_lex():
    assert render_poly(P("y + x^2*y + x")) == "x^2*y + x + y"
    assert render_poly(MultiPoly(XY)) == "0"


@pytest.mark.parametrize("value", [3, -7, Fraction(5, 6), Fraction(-1, 4), 0])
def test_constant_polynomials_hash_as_their_value(value):
    for p in (MultiPoly(XY, {(0, 0): value}), P(str(value))):
        assert p == value and hash(p) == hash(value)
        assert value in {p} and p in {value}
