"""Ring layer: exact Laurent arithmetic, precision floors, the order."""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmeasure import (NEG_INF, ONE, U, ZERO, ArcJet, ArityMismatch,
                        BoundViolated, LaurentPoly, MotiveSeries, MultiPoly,
                        Order, ParseError, PolySystem, PrecisionExhausted,
                        TruncSeries, geometric_sum, jet_equations, leq_order,
                        limit_of_sequence, parse_motive, parse_poly, render,
                        render_poly, render_trunc, virtual_dim)
from arcmeasure.grothendieck import _all_digits, _expand_rational

from descriptors import (InsufficientApproximants, MeasurableDescriptor,
                         measure_measurable)


def mono(e, c=1):
    return LaurentPoly({e: c})


def eval_at(p: LaurentPoly, x: Fraction) -> Fraction:
    # independent oracle: a Laurent polynomial is determined by its values
    return sum((Fraction(c) * x ** e for e, c in p.terms.items()),
               Fraction(0))


laurents = st.dictionaries(st.integers(-8, 8),
                           st.integers(-9, 9).filter(bool),
                           max_size=5).map(LaurentPoly)


# ---------------------------------------------------------------------------
# add / mul examples

def test_add_cancellation():
    assert parse_motive("u^2 + 1") + parse_motive("-1") == mono(2)


def test_add_identity():
    a = parse_motive("u^3 - 2*u")
    assert ZERO + a == a
    assert a + ZERO == a


def test_add_hand_expansion():
    assert (U - ONE) + (U + ONE) == mono(1, 2)


def test_mul_inverse_pair():
    assert U * mono(-1) == ONE


def test_mul_difference_of_squares():
    assert (U + ONE) * (U - ONE) == parse_motive("u^2 - 1")


def test_mul_series_precision():
    # (1 + u^-1 + O(u^-3)) * u: the unknown tail rises one degree
    s = MotiveSeries({0: 1, -1: 1}, -3)
    out = s * U
    assert out == MotiveSeries({1: 1, 0: 1}, -2)
    assert render(out) == "u + 1 + O(u^-2)"


def test_mul_two_unknown_tails():
    # both factors are zero-so-far; the tails still multiply
    a = MotiveSeries({}, -3)
    b = MotiveSeries({}, -4)
    assert (a * b).floor == -7


@pytest.mark.parametrize("a, b, product", [
    ("u + 1", "u - 1", "u^2 - 1"),                    # exact x exact
    ("u^2 + 1", "1 + O(u^-3)", "u^2 + 1 + O(u^-1)"),  # exact x floored
    ("u^-1", "1 + O(u^-3)", "u^-1 + O(u^-4)"),
    ("0", "1 + O(u^-3)", "0"),                         # zero x floored
    ("O(u^-3)", "u + O(u^-2)", "O(u^-2)"),
    ("u + 1 + O(u^-2)", "u^2 + O(u^-1)", "u^3 + u^2 + O(u^0)"),
])
def test_product_floors_follow_the_tail_rule(a, b, product):
    # floor = max(floor_a + top_b, floor_b + top_a, floor_a + floor_b),
    # an int, or NEG_INF when every sum has a NEG_INF part
    a, b = parse_motive(a), parse_motive(b)
    floor = max(a.floor + b.top, b.floor + a.top, a.floor + b.floor)
    for out in (a * b, b * a):
        assert render(out) == product
        assert out.floor == floor
        assert out.is_exact() or type(out.floor) is int


@given(laurents, laurents)
@settings(max_examples=300)
def test_mul_matches_evaluation_oracle(a, b):
    for x in (Fraction(2), Fraction(-3), Fraction(5, 7)):
        assert eval_at(a * b, x) == eval_at(a, x) * eval_at(b, x)
        assert eval_at(a + b, x) == eval_at(a, x) + eval_at(b, x)


def test_series_mul_floor_is_sound():
    """Interval-bookkeeping oracle for precision propagation.

    Complete each floored series with arbitrary junk below its floor,
    multiply exactly, and demand that every coefficient above the
    computed floor is independent of the junk.
    """
    rng = random.Random(20260822)
    for _ in range(200):
        fa = rng.randint(-8, -1)
        fb = rng.randint(-8, -1)
        a_known = {e: rng.randint(-5, 5) for e in range(fa + 1, 3)}
        b_known = {e: rng.randint(-5, 5) for e in range(fb + 1, 3)}
        a = MotiveSeries(a_known, fa)
        b = MotiveSeries(b_known, fb)
        out = a * b
        reference = None
        for _trial in range(4):
            tail_a = {e: rng.randint(-5, 5) for e in range(fa - 6, fa + 1)}
            tail_b = {e: rng.randint(-5, 5) for e in range(fb - 6, fb + 1)}
            full = LaurentPoly({**dict(a.terms), **tail_a}) \
                * LaurentPoly({**dict(b.terms), **tail_b})
            visible = {e: c for e, c in full.terms.items() if e > out.floor}
            if reference is None:
                reference = visible
            assert visible == reference
        assert out.terms == (reference or {})


# ---------------------------------------------------------------------------
# virtual_dim

def test_dim_leading_term():
    assert virtual_dim(parse_motive("u^2 - 3*u")) == 2


def test_dim_zero_is_neg_inf():
    assert virtual_dim(ZERO) == NEG_INF


def test_dim_negative_degrees():
    assert virtual_dim(parse_motive("u^-3 + u^-7")) == -3


def test_dim_undecidable_at_floor():
    with pytest.raises(PrecisionExhausted):
        virtual_dim(MotiveSeries({}, -5))


@given(laurents, laurents)
@settings(max_examples=300)
def test_dim_additive_and_subadditive(a, b):
    if a and b:
        assert virtual_dim(a * b) == virtual_dim(a) + virtual_dim(b)
    s = virtual_dim(a + b)
    bound = max(virtual_dim(a), virtual_dim(b))
    assert s <= bound


# ---------------------------------------------------------------------------
# leq_order

def test_order_examples():
    assert leq_order(U, U * U) == Order.LESS
    a = parse_motive("u^3 - u")
    assert leq_order(a, a) == Order.EQUAL
    s = MotiveSeries({-1: 1, -2: -1}, -9)
    assert leq_order(s, MotiveSeries({-1: 1}, -9)) == Order.LESS


def test_order_exhausts_on_vanishing_difference():
    a = MotiveSeries({-1: 1}, -6)
    b = MotiveSeries({-1: 1}, -6)
    with pytest.raises(PrecisionExhausted):
        leq_order(a, b)


@given(laurents, laurents)
@settings(max_examples=300)
def test_order_total_antisymmetric_with_sign_oracle(a, b):
    verdict = leq_order(a, b)
    flipped = leq_order(b, a)
    if a == b:
        assert verdict == Order.EQUAL == flipped
        return
    assert {verdict, flipped} == {Order.LESS, Order.GREATER}
    # leading-coefficient order == eventual sign at a large argument:
    # coefficients are bounded by 18 over at most 10 terms, so u0 = 10^4
    # is far past every sign change
    diff = eval_at(b - a, Fraction(10 ** 4))
    assert (diff > 0) == (verdict == Order.LESS)


@given(laurents, laurents, laurents)
@settings(max_examples=200)
def test_order_transitive(a, b, c):
    chain = sorted([a, b, c],
                   key=lambda p: eval_at(p, Fraction(10 ** 4)))
    assert leq_order(chain[0], chain[2]) != Order.GREATER
    if leq_order(chain[0], chain[1]) == Order.LESS \
            and leq_order(chain[1], chain[2]) == Order.LESS:
        assert leq_order(chain[0], chain[2]) == Order.LESS


# ---------------------------------------------------------------------------
# geometric_sum

def test_geometric_examples():
    assert geometric_sum(1, -4) == MotiveSeries(
        {0: 1, -1: 1, -2: 1, -3: 1}, -4)
    assert geometric_sum(2, -5) == MotiveSeries({0: 1, -2: 1, -4: 1}, -5)
    out = (ONE - mono(-2)) * geometric_sum(2, -20)
    assert out.with_floor(-19) == MotiveSeries({0: 1}, -19)


def test_geometric_inverse_identity_sweep():
    for p in range(1, 9):
        for m in range(-40, -9):
            product = (ONE - mono(-p)) * geometric_sum(p, m)
            # sharp statement: exactly 1 above the original floor
            assert product == MotiveSeries({0: 1}, m)
            # and a fortiori modulo degrees <= m + p
            assert product.with_floor(m + p) == MotiveSeries({0: 1}, m + p)


def test_geometric_rejects_bad_p():
    with pytest.raises(ValueError):
        geometric_sum(0, -5)


# ---------------------------------------------------------------------------
# limit_of_sequence

def test_limit_constant_sequence():
    c = parse_motive("u + 2")
    out = limit_of_sequence([c, c, c], [-10, -11])
    assert out == MotiveSeries.from_poly(c)  # exact, floor untouched
    assert out.is_exact()


def test_limit_constant_but_floored_inherits_bound():
    # equal stored data does not certify equal tails, so the tail
    # promise still governs the floor
    c = MotiveSeries({1: 1, 0: 2}, -9)
    out = limit_of_sequence([c, c, c], [-7, -8])
    assert out == MotiveSeries({1: 1, 0: 2}, -8)


def test_limit_singleton():
    c = MotiveSeries({2: 1}, -3)
    assert limit_of_sequence([c], []) == c


def test_limit_partial_sums_give_geometric():
    K = 7
    sums, acc = [], ZERO
    for i in range(K + 2):
        acc = acc + mono(-i)
        sums.append(acc)
    # dim of the k-th difference is -(k+1), strictly below bound -k
    out = limit_of_sequence(sums, [-k for k in range(K + 1)])
    assert out == geometric_sum(1, -K)


def test_limit_drops_terms_at_the_new_floor():
    # the declared bound -4 makes u^-5 indistinguishable from tail noise
    out = limit_of_sequence([U, U + mono(-5)], [-4])
    assert out == MotiveSeries({1: 1}, -4)
    assert -5 not in out.terms


def test_limit_with_a_final_unbounded_declaration_stays_exact():
    # a last bound of NEG_INF leaves no floor to raise to
    out = limit_of_sequence([U ** 3, U ** 3 + U, U ** 3 + U], [5, NEG_INF])
    assert out == U ** 3 + U and out.is_exact()


def test_limit_bound_violated():
    with pytest.raises(BoundViolated):
        limit_of_sequence([U, U + mono(-3)], [-3])


def test_limit_unverifiable_difference():
    # the declared bound -6 lies below what floor -4 data can certify
    a = MotiveSeries({1: 1}, -4)
    b = MotiveSeries({1: 1}, -4)
    with pytest.raises(PrecisionExhausted):
        limit_of_sequence([a, b], [-6])


def test_limit_requires_decreasing_bounds():
    with pytest.raises(ValueError):
        limit_of_sequence([ONE, ONE, ONE], [-2, -2])


# ---------------------------------------------------------------------------
# rendering and parsing

def test_render_canonical_forms():
    assert render(parse_motive("u^2 - 3*u + 1")) == "u^2 - 3*u + 1"
    assert render(ZERO) == "0"
    assert render(mono(-2) - mono(-3)) == "u^-2 - u^-3"
    assert render(MotiveSeries({-2: 1, -3: -1}, -10)) \
        == "u^-2 - u^-3 + O(u^-10)"
    assert render(MotiveSeries({}, -4)) == "O(u^-4)"


def test_parse_rejects_garbage():
    for bad in ("u +* u", "3u", "u^", "^2", "u**2", "", "*u"):
        with pytest.raises(ParseError):
            parse_motive(bad)


def test_parse_error_carries_offset():
    try:
        parse_motive("u^2 + @")
    except ParseError as exc:
        assert exc.offset == 6
    else:
        pytest.fail("expected ParseError")


def test_parse_reads_products_of_factors():
    assert parse_motive("2*u*u") == mono(2, 2)
    assert parse_motive("u*3 - 2^3") == mono(1, 3) - 8
    assert parse_motive("+u + O(u^-2)") == MotiveSeries({1: 1}, -2)
    # a p/q literal is no ring coefficient, even one worth an integer
    for text, offset in (("1/2*u", 0), ("u + 2/1*u", 4), ("3/3^0", 0),
                         ("2^-1", 2), ("u^", 2)):
        with pytest.raises(ParseError) as info:
            parse_motive(text)
        assert info.value.offset == offset, text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int digit limit")
@pytest.mark.parametrize("limit", [640, 0])
def test_parse_digit_cap_is_the_scanners_own(limit):
    # 4,300 digits read back whatever the interpreter's own limit says
    literal = "9" * 4300
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert parse_motive(literal) == 10 ** 4300 - 1
        assert parse_motive(f"u^-{literal}") == mono(1 - 10 ** 4300)
        for text, offset in ((literal + "9", 0), (f"u^{literal}9", 2),
                             (f"u + O(u^-{literal}9)", 8)):
            with pytest.raises(ParseError) as info:
                parse_motive(text)
            assert info.value.offset == offset
            assert "4300 digits" in str(info.value)
    finally:
        sys.set_int_max_str_digits(old)


def test_parse_rejects_term_at_or_below_floor():
    for text, offset in (("u^-20 + O(u^-10)", 0),
                         ("u^-2 - 3*u^-10 + O(u^-10)", 7),
                         ("u^-10 - u^-10 + O(u^-10)", 0)):
        with pytest.raises(ParseError) as info:
            parse_motive(text)
        assert info.value.offset == offset, text
        assert "floor" in str(info.value)


def test_parse_rejects_minus_before_o_term():
    for text, offset in (("-O(u^-3)", 0), ("- O(u^-3)", 0),
                         ("u^-1 - O(u^-3)", 5)):
        with pytest.raises(ParseError) as info:
            parse_motive(text)
        assert info.value.offset == offset, text


def test_parse_rejects_malformed_o_terms_at_their_offset():
    for text, offset, message in (("u + O(x^-3)", 4, "expected 'O(u^'"),
                                  ("u + O(u^-3", 10, "expected ')'"),
                                  ("u + O(u^-3)u", 11, "trailing input")):
        with pytest.raises(ParseError) as info:
            parse_motive(text)
        assert info.value.offset == offset, text
        assert message in str(info.value), text


def test_parse_offsets_count_from_the_raw_text():
    # leading blanks count, as in parse_poly; trailing blanks are dropped
    for text, offset in (("  u +", 5), ("  u +  ", 5), ("\tu @", 3),
                         (" u - O(u^-3)", 3), ("\nu", 0)):
        with pytest.raises(ParseError) as info:
            parse_motive(text)
        assert info.value.offset == offset, text
    assert parse_motive("  u - 1 \n") == parse_motive("u - 1")
    assert parse_motive(" u + O(u^-3)\t") == MotiveSeries({1: 1}, -3)


@given(laurents)
@settings(max_examples=300)
def test_poly_render_round_trip(p):
    assert parse_motive(render(p)) == p


@given(laurents, st.integers(-12, -1))
@settings(max_examples=300)
def test_series_render_round_trip(p, floor):
    s = MotiveSeries.from_poly(p, floor)
    assert parse_motive(render(s)) == s


# ---------------------------------------------------------------------------
# the three text forms against a naive renderer of the README grammar:
# terms joined by " + " and " - " (a leading "-" only), a magnitude 1
# left off a nonconstant monomial, factors name^k with ^1 left off, and
# an O tail after the terms, alone for a zero series

def naive_sum(terms):
    """The text of ``(coefficient, [(name, power), ...])`` pairs."""
    text = ""
    for c, factors in terms:
        mono = "*".join(v if k == 1 else f"{v}^{k}" for v, k in factors if k)
        mag = abs(c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else str(mag)
        if text:
            text += f" - {body}" if c < 0 else f" + {body}"
        else:
            text = f"-{body}" if c < 0 else body
    return text


def with_tail(body, tail):
    return f"{body} + {tail}" if body else tail


def naive_render(s):
    body = naive_sum([(s.terms[e], [("u", e)])
                      for e in sorted(s.terms, reverse=True)])
    if s.floor == NEG_INF:
        return body or "0"
    return with_tail(body, f"O(u^{s.floor})")


def naive_render_poly(p):
    terms = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]),
                   reverse=True)
    return naive_sum([(c, list(zip(p.variables, e)))
                      for e, c in terms]) or "0"


def naive_render_trunc(s):
    body = naive_sum([(c, [("t", e)]) for e, c in enumerate(s.coeffs) if c])
    return with_tail(body, f"O(t^{s.cap + 1})")


@contextmanager
def int_digit_limit(limit):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
        assert sys.get_int_max_str_digits() == limit  # nothing leaked
    finally:
        sys.set_int_max_str_digits(old)


HUGE = st.integers(10 ** 699, 10 ** 700 - 1)  # 700 digits, past 640


def text_values(huge):
    """Strategies for (series, polynomial, truncated series), zero ones
    included, with 700-digit coefficients and exponents when ``huge``."""
    def sized(small, signed=True):
        if not huge:
            return small
        return st.one_of(small, HUGE, *[HUGE.map(int.__neg__)] * signed)
    ints = sized(st.one_of(st.sampled_from([1, -1]),
                           st.integers(-99, 99))).filter(bool)
    rationals = st.one_of(ints, st.builds(Fraction, ints, ints.map(abs)))
    series = st.builds(
        MotiveSeries, st.dictionaries(sized(st.integers(-3, 3)), ints,
                                      max_size=5),
        st.one_of(st.just(NEG_INF), sized(st.integers(-4, 1))))
    polys = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * 2, sized(st.integers(0, 2), False)),
        rationals, max_size=5).map(lambda t: MultiPoly(("x", "y", "z"), t))
    truncs = st.lists(st.one_of(st.just(0), rationals), min_size=1,
                      max_size=5).map(TruncSeries)
    return st.tuples(series, polys, truncs)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int digit limit")
@pytest.mark.parametrize("limit", [4300, 640])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_text_forms_match_a_naive_renderer(limit, data):
    values = data.draw(text_values(huge=limit == 640))
    with int_digit_limit(0):  # the naive renderer needs str() of any int
        expected = [naive_render(values[0]), naive_render_poly(values[1]),
                    naive_render_trunc(values[2])]
    with int_digit_limit(limit):
        texts = [render(values[0]), render_poly(values[1]),
                 render_trunc(values[2])]
    assert texts == expected


def closed_forms(huge):
    """Sums of closed forms ``(N, ks)`` with a floor: tops from -4 to 3,
    floors up to 5 (above every top), and 700-digit numerator
    coefficients when ``huge``."""
    ints = st.one_of(st.sampled_from([1, -1]), st.integers(-99, 99),
                     *[HUGE, HUGE.map(int.__neg__)] * huge).filter(bool)
    parts = st.lists(st.tuples(
        st.dictionaries(st.integers(-4, 3), ints, max_size=4),
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)),
        min_size=1, max_size=3)
    return st.builds(_expand_rational, parts, st.integers(-12, 5))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int digit limit")
@pytest.mark.parametrize("limit", [4300, 640])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_closed_forms_render_as_their_terms(limit, data):
    value = data.draw(closed_forms(huge=limit == 640))
    with int_digit_limit(limit):
        text = render(value)
    assert value._terms is None  # printing built no term dict
    with int_digit_limit(0):
        expected = naive_render(value)  # reads terms
    with int_digit_limit(limit):
        assert [text, render(value)] == [expected] * 2


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int digit limit")
def test_all_digits_reraises_other_errors_and_restores_the_limit():
    limits = []

    def fails():
        limits.append(sys.get_int_max_str_digits())
        raise ValueError("not a digit limit")

    with int_digit_limit(640):
        with pytest.raises(ValueError, match="not a digit limit"):
            _all_digits(fails)
        assert limits == [640, 0]
        assert _all_digits(str, 10 ** 700) == "1" + "0" * 700


# 4,301 digits: past the default limit 4300 as well as the lowest, 640
LONG, LONG_TEXT = 10 ** 4300, "1" + "0" * 4300


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int digit limit")
@pytest.mark.parametrize("limit", [640, 4300])
@pytest.mark.parametrize("call, error, message", [
    (lambda: leq_order(*[MotiveSeries({-1: 1}, -LONG)] * 2),
     PrecisionExhausted, f"difference vanishes above floor -{LONG_TEXT} "
     "without being provably zero"),
    (lambda: limit_of_sequence([MotiveSeries({}, LONG)] * 2, [-LONG]),
     PrecisionExhausted, f"difference 0 vanishes above floor {LONG_TEXT}; "
     f"cannot certify dimension < -{LONG_TEXT}"),
    (lambda: limit_of_sequence([ZERO, MotiveSeries({LONG: 1})], [-LONG]),
     BoundViolated, f"difference 0 has dimension {LONG_TEXT}, "
     f"declared < -{LONG_TEXT}"),
    (lambda: virtual_dim(MotiveSeries({}, -LONG)), PrecisionExhausted,
     f"series vanishes above floor -{LONG_TEXT}; dimension unknown"),
    (lambda: parse_motive(f"u + O(u^{'9' * 4300})"), ParseError,
     f"term at or below the floor {'9' * 4300} at offset 0"),
    (lambda: MotiveSeries({}, LONG).with_floor(-LONG), ValueError,
     f"cannot lower floor from {LONG_TEXT} to -{LONG_TEXT}"),
    (lambda: measure_measurable(MeasurableDescriptor(()), -LONG),
     InsufficientApproximants,
     f"no approximant with error bound <= -{LONG_TEXT}"),
], ids=["leq_order", "limit-precision", "limit-bound", "virtual_dim",
        "parse_motive", "with_floor", "measure_measurable"])
def test_errors_print_long_ints_in_full(limit, call, error, message):
    with int_digit_limit(limit):
        with pytest.raises(error) as info:
            call()
    assert type(info.value) is error and str(info.value) == message


# ---------------------------------------------------------------------------
# structural invariants

@given(laurents, laurents, laurents)
@settings(max_examples=300)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO


@given(laurents, laurents)
@settings(max_examples=300)
def test_integral_domain(a, b):
    if a * b == ZERO:
        assert a == ZERO or b == ZERO


floored_series = st.builds(
    MotiveSeries,
    st.dictionaries(st.integers(-8, 8), st.integers(-9, 9).filter(bool),
                    max_size=5),
    st.one_of(st.just(NEG_INF), st.integers(-12, 4)))
multipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.fractions(min_value=-5, max_value=5, max_denominator=3).filter(bool),
    max_size=4).map(lambda terms: MultiPoly(("x", "y"), terms))

# ring type -> (values, degree, render then parse)
RINGS = {
    "LaurentPoly": (laurents, virtual_dim, lambda a: parse_motive(render(a))),
    "MotiveSeries": (floored_series, virtual_dim,
                     lambda a: parse_motive(render(a))),
    "MultiPoly": (multipolys, lambda p: max(map(sum, p.terms)),
                  lambda p: parse_poly(render_poly(p), p.variables)),
}


def agree(x, y):
    """Equal wherever both are known: above the higher of two floors."""
    if isinstance(x, MotiveSeries):
        floor = max(x.floor, y.floor)
        return x.with_floor(floor) == y.with_floor(floor)
    return x == y


@pytest.mark.parametrize("ring", sorted(RINGS))
@given(data=st.data())
@settings(max_examples=150)
def test_ring_laws(ring, data):
    values, degree, reparse = RINGS[ring]
    a, b, c = (data.draw(values) for _ in range(3))
    assert agree((a + b) + c, a + (b + c))
    assert agree((a * b) * c, a * (b * c))
    assert a + b == b + a
    assert a * b == b * a
    assert agree(a * (b + c), a * b + a * c)
    assert a - b == a + (-b) == -(b - a)
    assert 1 - a == -(a - 1)
    if a and b:
        assert degree(a * b) == degree(a) + degree(b)
    if ring != "MotiveSeries":
        assert a ** 3 == a * a * a
        assert a ** 0 == a * 0 + 1
    assert reparse(a) == a


@pytest.mark.parametrize("build, error", [
    (lambda: LaurentPoly({0.5: 1}), TypeError),
    (lambda: LaurentPoly({True: 1}), TypeError),
    (lambda: LaurentPoly({1: 2.0}), TypeError),
    (lambda: ONE + True, TypeError),
    (lambda: MotiveSeries({1: True}), TypeError),
    (lambda: MotiveSeries({1: 1}, -2.5), TypeError),
    (lambda: MotiveSeries({1: 1}, True), TypeError),
    (lambda: MotiveSeries.from_poly(ONE, "-3"), TypeError),
    (lambda: MotiveSeries({1: 1}, -2).with_floor(0.5), TypeError),
    (lambda: MultiPoly(("x",), {(-1,): 1}), ValueError),
    (lambda: MultiPoly(("x", "y"), {(1,): 1}), ArityMismatch),
    (lambda: MultiPoly(("x",), {(1,): "a"}), TypeError),
    (lambda: MultiPoly(("x",), {(0,): "1/0"}), TypeError),
    (lambda: MultiPoly(("x",), {(1,): 0.1}), TypeError),
    (lambda: MultiPoly(("x",), {(1,): True}), TypeError),
    (lambda: MultiPoly(("x",), {(1.5,): 1}), TypeError),
    (lambda: MultiPoly(("x",), {("2",): 1}), TypeError),
    (lambda: MultiPoly(("x",), {(True,): 1}), TypeError),
    (lambda: TruncSeries([1], -1), ValueError),
    (lambda: TruncSeries([1, 2, 3], 1), ValueError),
    (lambda: TruncSeries([]), ValueError),
    (lambda: TruncSeries([1, 2], True), TypeError),
    (lambda: ArcJet.from_coeffs([[1]], True), TypeError),
    (lambda: U ** -1, ValueError),
    (lambda: virtual_dim(1), TypeError),
    (lambda: leq_order(ONE, 1.5), TypeError),
    (lambda: geometric_sum(1, NEG_INF), ValueError),
    (lambda: limit_of_sequence([], []), ValueError),
    (lambda: limit_of_sequence([ONE, ONE], []), ValueError),
    (lambda: render(1), TypeError),
    (lambda: ONE ** True, TypeError),
    (lambda: MultiPoly(("x",), {(1,): 1}) ** True, TypeError),
    (lambda: U ** 2.0, TypeError),
    (lambda: jet_equations(PolySystem(("x",), [MultiPoly(("x",), {(1,): 1})]),
                           True), TypeError),
], ids=["laurent-float-exponent", "laurent-bool-exponent",
        "laurent-float-coefficient", "laurent-plus-bool",
        "series-bool-coefficient", "series-float-floor", "series-bool-floor",
        "from-poly-str-floor", "with-floor-float", "poly-negative-exponent",
        "poly-arity", "poly-bad-coefficient", "poly-bad-constant",
        "poly-float-coefficient", "poly-bool-coefficient",
        "poly-float-exponent", "poly-str-exponent", "poly-bool-exponent",
        "trunc-negative-cap", "trunc-row-past-cap", "trunc-empty",
        "trunc-bool-cap", "arc-bool-cap", "negative-power", "dim-of-int",
        "order-of-float",
        "geometric-exact-floor", "limit-of-nothing", "limit-missing-bound",
        "render-int", "series-bool-power", "poly-bool-power", "float-power",
        "jets-bool-level"])
def test_constructors_reject_malformed_terms(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("value", [
    MotiveSeries({1: 1}, -3), ONE, MultiPoly(("x",), {(0,): 1}),
    parse_poly("x + 1", ("x",))])
def test_a_bool_is_no_ring_element(value):
    # == leaves a bool to Python, which falls back to identity
    assert value.__eq__(True) is NotImplemented
    assert not value == True and value != False  # noqa: E712
    assert True not in [value] and value not in [True, False]
    with pytest.raises(TypeError):
        value + True
    with pytest.raises(TypeError):
        False * value


@pytest.mark.parametrize("operation, text", [
    (lambda: MotiveSeries({1: 1}, -3) - 1.5, "-: 'MotiveSeries' and 'float'"),
    (lambda: 1.5 - MotiveSeries({1: 1}, -3), "-: 'float' and 'MotiveSeries'"),
    (lambda: MotiveSeries({1: 1}, -3) * 1.5, "*: 'MotiveSeries' and 'float'"),
    (lambda: True - ONE, "-: 'bool' and 'MotiveSeries'"),
    (lambda: parse_poly("x + 1", ("x",)) * 1.5, "*: 'MultiPoly' and 'float'"),
], ids=["series-minus-float", "float-minus-series", "series-times-float",
        "bool-minus-one", "poly-times-float"])
def test_unsupported_operands_name_both_types(operation, text):
    with pytest.raises(TypeError) as info:
        operation()
    assert str(info.value) == f"unsupported operand type(s) for {text}"


def test_canonical_form_never_stores_zero():
    p = LaurentPoly({3: 5, 1: 0, 0: -2})
    assert 1 not in p.terms
    assert (p - p).terms == {}


def test_series_floor_invariant():
    s = MotiveSeries({-1: 1, -7: 4}, -5)
    assert s.terms == {-1: 1}  # -7 is at/below the floor, forgotten
    assert s.floor == -5
    with pytest.raises(ValueError):
        s.with_floor(-8)


# ---------------------------------------------------------------------------
# one ring type: an exact value is a series with floor NEG_INF

def test_laurent_poly_is_the_exact_series():
    assert LaurentPoly is MotiveSeries
    p = LaurentPoly({1: 1, 0: -1})
    assert p.is_exact() and p.floor == NEG_INF
    assert parse_motive("u - 1") == p and parse_motive("u - 1").is_exact()
    assert parse_motive("0") == ZERO and parse_motive("0").is_exact()
    assert repr(p) == "MotiveSeries('u - 1')"


def test_equal_values_hash_equal():
    p = LaurentPoly({1: 1, 0: -1})
    s = MotiveSeries.from_poly(p)
    assert len({p, s}) == 1
    assert s in {p: 0}
    assert len({ONE, 1}) == 1 and len({ZERO, 0}) == 1
    assert MotiveSeries({0: 3}) in {3}
    assert len({p, p.with_floor(-3)}) == 2  # different floors differ


def test_power_only_of_exact_values():
    p = parse_motive("u - 1")
    assert p ** 2 == parse_motive("u^2 - 2*u + 1")
    assert (p ** 2).is_exact()
    with pytest.raises(TypeError):
        parse_motive("u - 1 + O(u^-2)") ** 2
