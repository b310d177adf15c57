"""Canonical int-over-one-denominator form of polynomials and series.

``MultiPoly`` stores ints ``_num`` over one ``den`` and ``TruncSeries``
ints ``nums`` over one ``den``.  Every result must keep ``den > 0`` and
``gcd(den, *coefficients) == 1`` (so zero has ``den == 1``), and must
equal a plain ``Fraction``-dict reference computed here.  Operands mix
denominator 1, coprime denominators and shared factors; some pairs
cancel to integers or to zero.
"""

from fractions import Fraction
from math import gcd
from operator import add

from hypothesis import given, settings
from hypothesis import strategies as st

from arcmeasure import (ArcJet, MultiPoly, PolySystem, TruncSeries, compose,
                        jet_equations, parse_poly, render_poly, render_trunc)

XY = ("x", "y")
# 1 alone, coprime pairs such as 4 and 9, shared factors such as 6 and 4
DENS = st.sampled_from([1, 1, 2, 3, 4, 6, 9, 12, 35])
RATS = st.builds(Fraction, st.integers(-9, 9), DENS)
SCALARS = st.one_of(st.integers(-4, 4), RATS)
EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2))
TERMS = st.dictionaries(EXPS, RATS, max_size=4)


def clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return clean(out)


def ref_pow(a, n, size=2):
    out = {(0,) * size: Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_diff(a, j):
    return clean({e[:j] + (e[j] - 1,) + e[j + 1:]: c * e[j]
                  for e, c in a.items() if e[j]})


def assert_poly(p, expected):
    nums = list(p._num.values())
    assert p.den > 0 and all(type(c) is int and c for c in nums)
    assert gcd(p.den, *nums) == 1
    assert p.terms == clean(expected)


def assert_trunc(s, expected):
    assert s.den > 0 and all(type(c) is int for c in s.nums)
    assert gcd(s.den, *s.nums) == 1
    assert s.coeffs == tuple(expected)


@st.composite
def operand_pairs(draw):
    """Two term maps, drawn apart or so that their sum is an integral
    polynomial, zero when its integral part is empty."""
    a = draw(TERMS)
    if draw(st.booleans()):
        return a, draw(TERMS)
    integral = draw(st.dictionaries(EXPS, st.integers(-3, 3), max_size=3))
    return a, ref_add(integral, a, -1)


@given(operand_pairs(), SCALARS, st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_ring_results_are_canonical(pair, scalar, n):
    a, b = pair
    p, q = MultiPoly(XY, a), MultiPoly(XY, b)
    assert_poly(p, a)
    assert_poly(p + q, ref_add(a, b))
    assert_poly(p - q, ref_add(a, b, -1))
    assert_poly(q - p, ref_add(b, a, -1))
    assert_poly(p * q, ref_mul(a, b))
    assert_poly(-p, {e: -c for e, c in a.items()})
    assert_poly(p ** n, ref_pow(a, n))
    assert_poly(p.diff(0), ref_diff(a, 0))
    assert_poly(p.diff(1), ref_diff(a, 1))
    scaled = {e: c * scalar for e, c in a.items()}
    assert_poly(p * scalar, scaled)
    assert_poly(scalar * p, scaled)
    assert_poly(p + scalar, ref_add(a, {(0, 0): scalar}))
    assert_poly(scalar - p, ref_add({(0, 0): scalar}, a, -1))


def poly_text(terms):
    """Each term written twice, as unreduced literals that sum to it."""
    out = []
    for (i, j), c in clean(terms).items():
        half = c / 2
        for part in (half, c - half):
            if part:
                sign = "-" if part < 0 else "+"
                out.append(f"{sign} {3 * abs(part.numerator)}/"
                           f"{3 * part.denominator}*x^{i}*y^{j}")
    return " ".join(out) or "0"


@given(TERMS)
@settings(max_examples=200, deadline=None)
def test_parsed_polynomials_are_canonical(a):
    assert_poly(parse_poly(poly_text(a), XY), a)


def ref_jets(a, level):
    """Fraction maps of the t^0 .. t^level slices of ``a(x(t), y(t))``."""
    n = level + 1
    size = 1 + 2 * n  # the power of t, then a_0 .. a_level, b_0 .. b_level

    def jet_term(j, i):  # a_i t^i for j = 0, b_i t^i for j = 1
        e = [0] * size
        e[0], e[1 + j * n + i] = i, 1
        return tuple(e)

    comps = [{jet_term(j, i): Fraction(1) for i in range(n)} for j in (0, 1)]
    total = {}
    for (k0, k1), c in a.items():
        term = ref_mul(ref_pow(comps[0], k0, size),
                       ref_pow(comps[1], k1, size))
        total = ref_add(total, {e: c * v for e, v in term.items()})
    slices = [{} for _ in range(n)]
    for e, c in total.items():
        if e[0] < n:
            slices[e[0]][e[1:]] = c
    return [s for s in slices if s]


@given(st.dictionaries(EXPS, RATS.filter(bool), min_size=1, max_size=4),
       st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_jet_slices_are_canonical(a, level):
    out = jet_equations(PolySystem(XY, [MultiPoly(XY, a)]), level)
    expected = ref_jets(a, level)
    assert len(out) == len(expected)
    for p, ref in zip(out, expected):
        assert_poly(p, ref)


@st.composite
def rows(draw, count):
    cap = draw(st.integers(0, 3))
    row = st.lists(RATS, min_size=cap + 1, max_size=cap + 1)
    return [draw(row) for _ in range(count)]


def ref_series_product(a, b):
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0))
            for m in range(len(a))]


@given(TERMS, rows(2))
@settings(max_examples=200, deadline=None)
def test_composed_series_are_canonical(a, arc):
    expected = [Fraction(0)] * len(arc[0])
    for (k0, k1), c in a.items():
        term = [c] + [Fraction(0)] * (len(arc[0]) - 1)
        for row, k in ((arc[0], k0), (arc[1], k1)):
            for _ in range(k):
                term = ref_series_product(term, row)
        expected = list(map(add, expected, term))
    arc = ArcJet.from_coeffs(arc, len(arc[0]) - 1)
    assert_trunc(compose(MultiPoly(XY, a), arc), expected)


@given(rows(2), SCALARS)
@settings(max_examples=200, deadline=None)
def test_series_sums_are_canonical(pair, scalar):
    # a sum, difference or multiple of series is compose along an arc
    a, b = pair
    cap = len(a) - 1
    assert_trunc(TruncSeries(a), a)
    for f, arc, expected in (
            ("x + y", (a, b), map(add, a, b)),
            ("x - y", (a, b), [x - y for x, y in zip(a, b)]),
            ("x - y", (a, a), [0] * len(a)),
            ("-x", (a, b), [-x for x in a])):
        assert_trunc(compose(parse_poly(f, XY), ArcJet.from_coeffs(arc, cap)),
                     expected)
    assert_trunc(compose(MultiPoly(XY, {(1, 0): scalar}),
                         ArcJet.from_coeffs(pair, cap)),
                 [x * scalar for x in a])


def ref_poly_text(terms):
    """The canonical text, printed from Fractions: graded lex order."""
    out = ""
    for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[e]
        mono = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(XY, e) if k)
        body = mono if mono and abs(c) == 1 else "*".join(
            filter(None, (str(abs(c)), mono)))
        out += f"{' - ' if c < 0 else ' + '}{body}"
    return (f"-{out[3:]}" if out[1] == "-" else out[3:]) if out else "0"


def ref_trunc_text(coeffs):
    out = ""
    for e, c in enumerate(coeffs):
        if c:
            mono = "" if e == 0 else "t" if e == 1 else f"t^{e}"
            body = mono if mono and abs(c) == 1 else "*".join(
                filter(None, (str(abs(c)), mono)))
            out += f"{' - ' if c < 0 else ' + '}{body}"
    body = (f"-{out[3:]}" if out[1] == "-" else out[3:]) if out else ""
    tail = f"O(t^{len(coeffs)})"
    return f"{body} + {tail}" if body else tail


@given(operand_pairs())
@settings(max_examples=200, deadline=None)
def test_texts_print_each_term_in_lowest_terms(pair):
    a, b = pair
    for terms in (a, ref_add(a, b), ref_mul(a, b)):
        assert render_poly(MultiPoly(XY, terms)) == ref_poly_text(clean(terms))
    row = [a.get((i, 0), Fraction(0)) for i in range(3)]
    assert render_trunc(TruncSeries(row)) == ref_trunc_text(row)
