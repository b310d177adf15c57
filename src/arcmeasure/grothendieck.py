"""Exact arithmetic for virtual Poincare classes.

Classes of arc-symmetric sets are represented through their virtual
Poincare polynomial, so every value in this module is one type,
:class:`MotiveSeries`: a Laurent series in ``u^-1`` with integer
coefficients and an explicit precision floor.  An exact value, a Laurent
polynomial, is the series whose floor is ``NEG_INF``.

The precision model is the whole point.  A series with floor ``m`` is
known exactly in every degree strictly above ``m``; degrees ``<= m`` are
unknown.  Arithmetic propagates floors pessimistically, so a stored
coefficient is always the true one.  When a question (dimension,
ordering) cannot be settled above the floor the functions here raise
:class:`PrecisionExhausted` instead of guessing.

Integer coefficients are Python ints, hence arbitrary precision.  No
floats enter any computation; ``NEG_INF`` appears only as the degree of
zero and as the floor of exact series.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from operator import add

NEG_INF = float("-inf")


class PrecisionExhausted(ArithmeticError):
    """A query needs information below the precision floor."""


class BoundViolated(ValueError):
    """A declared dimension bound fails on an actual difference."""


def _check_int(value, what):
    """``value`` itself if it is an int; a bool or a non-int is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} {value!r} is not an int")
    return value


def _coefficient(c) -> Fraction:
    # exact rationals only: a float, bool or string is an input error
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    raise TypeError(f"coefficient {c!r} is not an int or Fraction")


def _as_terms(exponent_map):
    # drop zero coefficients, validate integrality
    out = {}
    for e, c in exponent_map.items():
        _check_int(e, "exponent")
        if _check_int(c, "coefficient"):
            out[e] = c
    return out


# ---------------------------------------------------------------------------
# sparse-term kernel
#
# MotiveSeries and polynomials.MultiPoly both store a map
# {key: nonzero coefficient}; keys are int exponents or exponent tuples.
# These functions take maps their constructors already validated and
# return new maps without zero coefficients.

def _add_terms(a, b, sign=1):
    """``a + sign * b`` termwise, ``sign`` being 1 or -1."""
    out = dict(a)
    get = out.get
    for k, c in b.items():
        s = get(k, 0) + c if sign > 0 else get(k, 0) - c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _mul_terms(a, b, combine, above=None):
    """Product of two term maps; ``combine`` adds two keys.

    Products landing at a key ``<= above`` are dropped, unless ``above``
    is None.
    """
    out = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            k = combine(k1, k2)
            if above is None or k > above:
                out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _pow_terms(a, n, one, combine):
    """``a ** n`` by square-and-multiply; ``one`` is the unit's map."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative int")
    result = one
    while n:
        if n & 1:
            result = _mul_terms(result, a, combine)
        n >>= 1
        if n:
            a = _mul_terms(a, a, combine)
    return result


class MotiveSeries:
    """Laurent series in ``u^-1`` known exactly above a precision floor.

    ``floor`` is an int, or ``NEG_INF`` for an exact element: a Laurent
    polynomial, whose unknown tail is empty.  Every stored exponent is
    strictly above the floor, and ``terms`` maps exponent to nonzero
    coefficient.  ``top`` is the largest stored exponent, ``NEG_INF``
    when no nonzero coefficient is known yet; the true degree of the
    represented element never exceeds ``max(top, floor)``.  Instances
    are treated as immutable.

    ``closed_form`` is ``(N, ks)`` on a series expanded from the exact
    ``N / prod(1 - u^-k for k in ks)``, else ``None``.  Operators and
    :meth:`with_floor` drop it; ``==``, ``hash`` and :func:`render`
    ignore it.

    Example::

        >>> p = MotiveSeries({1: 1, 0: -1})   # u - 1
        >>> q = MotiveSeries({1: 1, 0: 1})    # u + 1
        >>> (p + q).terms
        {1: 2}
        >>> (p * q).terms == {2: 1, 0: -1}
        True
        >>> p * MotiveSeries({0: 1}, -3)
        MotiveSeries('u - 1 + O(u^-2)')
    """

    __slots__ = ("terms", "floor", "closed_form")

    def __init__(self, exponent_map=None, floor=NEG_INF):
        _check_floor(floor)
        terms = _as_terms(exponent_map or {})
        object.__setattr__(self, "terms", _above(terms, floor))
        object.__setattr__(self, "floor", floor)
        object.__setattr__(self, "closed_form", None)

    def __setattr__(self, name, value):
        raise AttributeError("MotiveSeries is immutable")

    @classmethod
    def zero(cls) -> "MotiveSeries":
        return cls({})

    @classmethod
    def one(cls) -> "MotiveSeries":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "MotiveSeries":
        return cls({exponent: coefficient})

    @classmethod
    def from_poly(cls, p: "MotiveSeries", floor=NEG_INF) -> "MotiveSeries":
        """``p`` viewed at precision ``floor``; ``p.with_floor(floor)``."""
        return p.with_floor(floor)

    @property
    def top(self):
        return max(self.terms) if self.terms else NEG_INF

    def is_exact(self) -> bool:
        return self.floor == NEG_INF

    @property
    def degree(self):
        """Maximal exponent of an exact element, NEG_INF for zero."""
        if not self.is_exact():
            raise ValueError(f"degree unknown below floor {self.floor}")
        return self.top

    def leading_coefficient(self) -> int:
        top = self.degree  # ValueError on a finite floor
        if top == NEG_INF:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[top]

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _coerce_series(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms and self.floor == other.floor

    def __hash__(self):
        if self.floor == NEG_INF and self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))  # equal to an int
        return hash((frozenset(self.terms.items()), self.floor))

    def __neg__(self):
        return _series({e: -c for e, c in self.terms.items()}, self.floor)

    def __add__(self, other):
        o = _coerce_series(other)
        if o is None:
            return NotImplemented
        return _series_sum(self, o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce_series(other)
        if o is None:
            return NotImplemented
        return _series_sum(self, o, -1)

    def __rsub__(self, other):
        o = _coerce_series(other)
        if o is None:
            return NotImplemented
        return _series_sum(o, self, -1)

    def __mul__(self, other):
        o = _coerce_series(other)
        if o is None:
            return NotImplemented
        if self.floor == o.floor == NEG_INF:
            return _series(_mul_terms(self.terms, o.terms, add), NEG_INF)
        # Unknown tails contaminate degrees up to floor+top of the other
        # factor, and the two tails contaminate floor_a+floor_b.
        floor = max(self.floor + o.top, o.floor + self.top,
                    self.floor + o.floor)
        if floor != NEG_INF:
            floor = int(floor)
        return _series(_mul_terms(self.terms, o.terms, add, floor), floor)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not self.is_exact():
            return NotImplemented
        return _series(_pow_terms(self.terms, n, {0: 1}, add), NEG_INF)

    def with_floor(self, new_floor) -> "MotiveSeries":
        """Forget information: raise the floor to ``new_floor``."""
        _check_floor(new_floor)
        if new_floor < self.floor:
            raise ValueError(
                f"cannot lower floor from {self.floor} to {new_floor}")
        return _series(_above(self.terms, new_floor), new_floor)

    def __repr__(self):
        return f"MotiveSeries({render(self)!r})"


# the exact elements, Laurent polynomials, are the series with no floor
LaurentPoly = MotiveSeries


def _check_floor(floor):
    if floor != NEG_INF:
        _check_int(floor, "floor")


def _above(terms, floor):
    # the terms a series with this floor keeps
    if floor == NEG_INF:
        return terms
    return {e: c for e, c in terms.items() if e > floor}


def _series(terms, floor, closed_form=None):
    # a MotiveSeries over trusted terms: int keys above the floor (an int
    # or NEG_INF), nonzero int values
    s = object.__new__(MotiveSeries)
    object.__setattr__(s, "terms", terms)
    object.__setattr__(s, "floor", floor)
    object.__setattr__(s, "closed_form", closed_form)
    return s


def _series_sum(a, b, sign):
    floor = max(a.floor, b.floor)
    terms = _add_terms(a.terms, b.terms, sign)
    if a.floor != b.floor:
        terms = _above(terms, floor)
    return _series(terms, floor)


def _coerce_series(x):
    if isinstance(x, MotiveSeries):
        return x
    if isinstance(x, int):
        return MotiveSeries({0: x})
    return None


# ---------------------------------------------------------------------------
# closed forms: (N, ks) is N / prod(1 - u^-k for k in ks).  Each such
# denominator is 1 plus lower terms, so the quotient has the degree and
# the leading coefficient of N.

def _closed_form(a):
    # a's closed form; a series without one is its known terms over 1
    return a.closed_form or (a.terms, ())


def _times_denominator(n, ks):
    """``n * prod(1 - u^-k for k in ks)`` for a term map ``n``."""
    for k in ks:
        n = _add_terms(n, {e - k: c for e, c in n.items()}, -1)
    return n


def _expand_rational(parts, floor):
    """The sum of the closed forms ``parts``, expanded down to ``floor``.

    The parts are summed over one denominator, which holds each k at its
    highest multiplicity in any part.  The numerator's dense
    coefficients from its degree down to ``floor + 1`` are then divided
    by each ``1 - u^-k``: the quotient's coefficients satisfy
    ``c[j] += c[j-k]`` (index j counts down from the top), a running sum
    along every residue class mod k.  Division only carries coefficients
    downward, so those above the floor are exact as computed.  With no
    k at all the sum is exact.
    """
    ks = []
    for _, part_ks in parts:
        for k in part_ks:
            if part_ks.count(k) > ks.count(k):
                ks.append(k)
    n = {}
    for part_n, part_ks in parts:
        missing = list(ks)
        for k in part_ks:
            missing.remove(k)
        n = _add_terms(_times_denominator(part_n, missing), n)
    if not ks:
        return _series(n, NEG_INF)
    top = max(n, default=floor)
    coeffs = [0] * max(top - floor, 0)
    for e, c in n.items():
        if e > floor:
            coeffs[top - e] = c
    for k in ks:
        for start in range(min(k, len(coeffs))):
            coeffs[start::k] = accumulate(coeffs[start::k])
    return _series({top - j: c for j, c in enumerate(coeffs) if c}, floor,
                   (n, tuple(ks)))


U = MotiveSeries.monomial(1)
ONE = MotiveSeries.one()
ZERO = MotiveSeries.zero()


def virtual_dim(a):
    """Degree of the virtual Poincare polynomial; the virtual dimension.

    Returns an int, or ``NEG_INF`` for (provably) zero.  A closed form
    has the degree of its numerator.  For any other series that vanishes
    down to a finite floor the dimension is undecidable and
    :class:`PrecisionExhausted` is raised.
    """
    if not isinstance(a, MotiveSeries):
        raise TypeError(f"expected MotiveSeries, got {type(a)!r}")
    n, _ = _closed_form(a)
    if n:
        return max(n)
    if a.is_exact() or a.closed_form:
        return NEG_INF
    raise PrecisionExhausted(
        f"series vanishes above floor {a.floor}; dimension unknown")


class Order:
    """Outcome of the leading-coefficient comparison."""
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


def leq_order(a, b) -> str:
    """Compare by the sign of the leading coefficient of ``b - a``.

    Returns ``Order.LESS`` when that coefficient is positive (so ``a``
    strictly precedes ``b``), ``Order.EQUAL`` when the difference is
    provably zero, ``Order.GREATER`` otherwise.  The sign is read off
    the numerator of ``b - a`` over the product of the operands'
    closed-form denominators.  That numerator is exact above the highest
    floor of an operand without a closed form; if it vanishes above
    that floor, :class:`PrecisionExhausted` is raised.  No work grows
    with a floor.
    """
    sa, sb = _coerce_series(a), _coerce_series(b)
    if sa is None or sb is None:
        raise TypeError("leq_order expects ring elements")
    (na, ka), (nb, kb) = _closed_form(sa), _closed_form(sb)
    diff = _add_terms(_times_denominator(nb, ka),
                      _times_denominator(na, kb), -1)
    floor = max((s.floor for s in (sa, sb) if s.closed_form is None),
                default=NEG_INF)
    top = max(diff, default=NEG_INF)
    if top > floor:
        return Order.LESS if diff[top] > 0 else Order.GREATER
    if floor == NEG_INF:
        return Order.EQUAL
    raise PrecisionExhausted(
        f"difference vanishes above floor {floor} "
        "without being provably zero")


def geometric_sum(p: int, floor: int) -> MotiveSeries:
    """Sum of ``u^(-p*i)`` over ``i >= 0``, truncated at ``floor``.

    Multiplying the result by ``1 - u^-p`` gives 1 modulo the floor; the
    series is the inverse of that factor at this precision.
    """
    if not isinstance(p, int) or p < 1:
        raise ValueError("p must be a positive int")
    if not isinstance(floor, int):
        raise ValueError("floor must be finite for a geometric sum")
    terms = {}
    e = 0
    while e > floor:
        terms[e] = 1
        e -= p
    return MotiveSeries(terms, floor)


def limit_of_sequence(seq, bounds) -> MotiveSeries:
    """Limit of a sequence whose differences shrink below declared bounds.

    ``bounds[k]`` declares ``virtual_dim(seq[k+1] - seq[k]) < bounds[k]``
    and must be strictly decreasing.  Each declaration is checked;
    a difference whose dimension reaches its bound raises
    :class:`BoundViolated`, and one that cannot be certified at the
    available precision raises :class:`PrecisionExhausted`.  The result
    is the last element with its floor raised to the last bound, the
    finite-precision stand-in for the completed limit.
    """
    seq = [_coerce_series(s) for s in seq]
    if not seq or any(s is None for s in seq):
        raise ValueError("seq must be a nonempty list of ring elements")
    bounds = list(bounds)
    if len(bounds) != len(seq) - 1:
        raise ValueError("need exactly one bound per consecutive difference")
    for m0, m1 in zip(bounds, bounds[1:]):
        if m1 >= m0:
            raise ValueError("bounds must be strictly decreasing")
    stationary = True
    for k, m in enumerate(bounds):
        diff = seq[k + 1] - seq[k]
        if diff.terms:
            if max(diff.terms) >= m:
                raise BoundViolated(
                    f"difference {k} has dimension {max(diff.terms)}, "
                    f"declared < {m}")
        elif not diff.is_exact() and diff.floor >= m:
            raise PrecisionExhausted(
                f"difference {k} vanishes above floor {diff.floor}; "
                f"cannot certify dimension < {m}")
        if diff.terms or not diff.is_exact():
            stationary = False
    last = seq[-1]
    if not bounds or stationary:
        # a provably constant sequence has already converged; only a
        # still-moving one inherits the declared tail bound as its floor
        return last
    new_floor = max(last.floor, bounds[-1])
    if new_floor == NEG_INF:
        return last
    return last.with_floor(int(new_floor))


# ---------------------------------------------------------------------------
# canonical text form

def _power_text(name: str, k: int) -> str:
    # ``name`` to the power k as printed in a term; "" for k = 0
    if k == 0:
        return ""
    return name if k == 1 else f"{name}^{k}"


def _signed_sum(terms) -> str:
    """``c1*m1 - c2*m2 + ...`` from ``(coefficient, monomial)`` pairs.

    The coefficients are nonzero ints or Fractions in print order; an
    empty monomial text stands for the constant term, and a coefficient
    of magnitude 1 is left off a nonconstant monomial.  Shared by every
    canonical text form of the package.
    """
    parts = []
    for c, mono in terms:
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if parts:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return "".join(parts)


def render(a) -> str:
    """Canonical text: terms by strictly decreasing exponent.

    ``u^-2 - u^-3 + O(u^-10)`` is a series with floor -10; an exact
    element has no O term and zero renders as ``0``.
    """
    if not isinstance(a, MotiveSeries):
        raise TypeError(f"cannot render {type(a)!r}")
    terms, floor = a.terms, a.floor
    body = _signed_sum([(terms[e], _power_text("u", e))
                        for e in sorted(terms, reverse=True)])
    if floor == NEG_INF:
        return body or "0"
    o_term = f"O(u^{int(floor)})"
    return f"{body} + {o_term}" if body else o_term


class ParseError(ValueError):
    """Input text rejected, with the offending character offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


RingParseError = ParseError  # one class for ring and polynomial text


# the one term scanner of ring and polynomial text
_MAX_DIGITS = 4300  # longest integer literal the scanner reads
_POWER = r"\^(-?\d*)"  # a power's exponent text
_SIGN = re.compile(r"[ \t]*([+-]?)[ \t]*")
_O_TERM = re.compile(r"O\(u" + _POWER)
# a factor with its power and the operator after it
_FACTOR = re.compile(r"(?:(\d+)(?:/(\d+))?|([^\W\d]\w*))(?:" + _POWER
                     + r")?[ \t]*([*+-]?)[ \t]*")


def _int(text, offset, what):
    """The value of ``text``, a ``-?digits`` literal found at ``offset``.

    ``int()`` reads at most 640 digits at a time, the lowest limit
    ``sys.set_int_max_str_digits`` accepts, so only ``_MAX_DIGITS``
    decides which literals are too long.
    """
    try:
        if len(text) <= 640:
            return int(text)
    except ValueError:  # "" or "-"
        raise ParseError(f"expected {what}", offset) from None
    digits = text.lstrip("-")
    if len(digits) > _MAX_DIGITS:
        raise ParseError(
            f"integer literal longer than {_MAX_DIGITS} digits", offset)
    value = 0
    for i in range(0, len(digits), 640):
        chunk = digits[i:i + 640]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


def _unexpected(s, pos):
    # the error for s[pos], where no factor or operator starts
    if pos == len(s):
        return ParseError("unexpected end of input", pos)
    if s[pos].isalnum() or s[pos] == "_":
        return ParseError("implicit multiplication is not allowed", pos)
    return ParseError(f"unexpected character {s[pos]!r}", pos)


def _scan_terms(s, names):
    """The terms of the signed sum of products in ``s``.

    A term is a product of factors joined by ``*``; a factor is an
    unsigned integer, a ``p/q`` literal or one of ``names``, with an
    optional ``^k``, and only a name takes a negative ``k``.  Spaces and
    tabs may surround the ``+``, ``-`` and ``*`` operators.

    Returns ``(terms, stop)``.  ``terms`` holds one ``(offset,
    coefficient, exponents)`` per term: the offset of its first factor,
    its signed coefficient (an int unless a ``p/q`` literal occurs in
    it) and its exponent tuple aligned with ``names``.  ``stop`` is
    ``len(s)``, or the offset of an ``O(`` standing where a term would
    start, where the scan ends.
    """
    terms = []
    m = _SIGN.match(s)
    op, pos = m.group(1), m.end()
    while True:  # one term per round, ``op`` being its sign
        if s.startswith("O(", pos):
            return terms, pos
        start = pos
        coefficient = -1 if op == "-" else 1
        exponents = [0] * len(names)
        while True:  # one factor per round
            m = _FACTOR.match(s, pos)
            if m is None:
                raise _unexpected(s, pos)
            digits, denominator, name, power, op = m.groups()
            k = 1 if power is None else _int(power, m.start(4),
                                             "integer exponent")
            if name is None:
                if k < 0:
                    raise ParseError("negative power of a number",
                                     m.start(4))
                value = _int(digits, pos, "number")
                if denominator is not None:
                    q = _int(denominator, m.start(2), "denominator")
                    if not q:
                        raise ParseError("zero denominator", m.start(2))
                    value = Fraction(value, q)
                coefficient *= value ** k
            elif name in names:
                exponents[names.index(name)] += k
            else:
                raise ParseError(f"unknown variable {name!r}", pos)
            pos = m.end()
            if op != "*":
                break
        terms.append((start, coefficient, tuple(exponents)))
        if not op:
            if pos < len(s):
                raise _unexpected(s, pos)
            return terms, pos


def parse_motive(text: str):
    """Parse ring text, such as :func:`render` output, into a series.

    Ring text is a sum of terms over the name ``u`` with integer
    coefficients and integer powers, ``u^2 - 3*u + 2*u^-1``, and an
    optional ``+ O(u^k)`` tail that sets the floor to ``k``; without
    one the value is exact.  Integer literals have at most 4,300 digits.
    A term at or below the stated floor and a minus sign before the O
    term are rejected: neither has a meaning the floor could keep.
    Offsets count from the first non-blank character.
    """
    s = text.strip()
    found, stop = _scan_terms(s, ("u",))
    floor = NEG_INF
    if stop < len(s):
        head = s[:stop].rstrip(" \t")
        if head.endswith("-"):
            raise ParseError("'-' before the O term", len(head) - 1)
        m = _O_TERM.match(s, stop)
        if m is None:
            raise ParseError("expected 'O(u^'", stop)
        floor = _int(m.group(1), m.start(1), "floor exponent")
        j = m.end()
        if not s.startswith(")", j):
            raise ParseError("expected ')'", j)
        if j + 1 < len(s):
            raise ParseError("trailing input", j + 1)
    terms = {}
    for offset, c, (e,) in found:
        if type(c) is not int:
            raise ParseError("ring coefficients are integers", offset)
        if e <= floor:
            raise ParseError(f"term at or below the floor {floor}", offset)
        terms[e] = terms.get(e, 0) + c
    return _series({e: c for e, c in terms.items() if c}, floor)
