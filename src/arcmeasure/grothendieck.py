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
import sys
from itertools import accumulate, compress
from math import gcd
from operator import add

NEG_INF = float("-inf")
DEFAULT_FLOOR = -16  # where a computed measure's printed tail stops
_U_DEPTH = 1 << 16  # how many u^-j texts render keeps, u^0 included
_U_POWERS = [""]  # render's text of u^-j at index j, to the deepest floor


class PrecisionExhausted(ArithmeticError):
    """A query needs information below the precision floor."""


class BoundViolated(ValueError):
    """A declared dimension bound fails on an actual difference."""


class _Frozen:
    """An immutable value whose fields are the names in ``__slots__``.

    A value built from outside data goes through ``__init__``, which
    checks it and stores the fields once through :meth:`_set`.  A value
    built from parts that are already valid goes through :meth:`_new`,
    which checks nothing.  ``==``, ``hash`` and ``repr`` read the fields
    in slot order, and ``==`` holds only between instances of one exact
    type.
    """

    __slots__ = ()

    @classmethod
    def _new(cls, *values):
        """The value whose fields are ``values``, one per slot in order."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __reduce__(self):
        return type(self)._new, self._fields()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__])
        return f"{type(self).__name__}({fields})"


def _check_int(value, what):
    """``value`` itself if it is an int; a bool or a non-int is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} {value!r} is not an int")
    return value


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
    if _check_int(n, "exponent") < 0:
        raise ValueError("exponent must be a nonnegative int")
    result = one
    while n:
        if n & 1:
            result = _mul_terms(result, a, combine)
        n >>= 1
        if n:
            a = _mul_terms(a, a, combine)
    return result


def _evaluate(terms, comps, mul, plus, zero):
    """Value of a polynomial at the ring elements ``comps``.

    ``terms`` maps each exponent vector to its coefficient, already a
    ring element; ``mul``, ``plus`` and ``zero`` are the ring's product,
    sum and zero: Fractions for ``MultiPoly.evaluate`` and packed ints
    modulo ``2^(w(cap+1))`` for ``series.compose``.  Powers of
    components are cached since sparse polynomials reuse them heavily.
    """
    powers = [{1: c} for c in comps]

    def power(j, k):
        cache = powers[j]
        if k not in cache:
            half = power(j, k // 2)
            sq = mul(half, half)
            cache[k] = mul(sq, comps[j]) if k % 2 else sq
        return cache[k]

    acc = zero
    for exps, term in terms.items():
        for j, k in enumerate(exps):
            if k:
                term = mul(term, power(j, k))
        acc = plus(acc, term)
    return acc


class MotiveSeries(_Frozen):
    """Laurent series in ``u^-1`` known exactly above a precision floor.

    ``floor`` is an int, or ``NEG_INF`` for an exact element: a Laurent
    polynomial, whose unknown tail is empty.  Every stored exponent is
    strictly above the floor, and ``terms`` maps exponent to nonzero
    coefficient.  ``top`` is the largest stored exponent, ``NEG_INF``
    when no nonzero coefficient is known yet; the true degree of the
    represented element never exceeds ``max(top, floor)``.  Instances
    are treated as immutable.

    ``closed_form`` is ``(N, ks)`` on the exact ``N / prod(1 - u^-k for
    k in ks)``, else ``None``.  Built from a closed form, a series leaves
    ``_terms`` at ``None`` until ``terms`` is first read; :func:`render`
    prints from the closed form.  Operators and :meth:`with_floor` drop
    it; ``==`` and ``hash`` ignore it.

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

    __slots__ = ("_terms", "floor", "closed_form")

    def __init__(self, exponent_map=None, floor=NEG_INF):
        _check_floor(floor)
        terms = _as_terms(exponent_map or {})
        self._set(_terms=_above(terms, floor), floor=floor, closed_form=None)

    # restates with_floor; kept while the benchmark's traced run
    # (bench/spans.py) patches it
    @classmethod
    def from_poly(cls, p: "MotiveSeries", floor=NEG_INF) -> "MotiveSeries":
        """``p`` viewed at precision ``floor``; ``p.with_floor(floor)``."""
        return p.with_floor(floor)

    @property
    def terms(self):
        if self._terms is None:
            exps, coeffs = _expand(*self.closed_form, self.floor)
            self._set(_terms=dict(zip(compress(exps, coeffs),
                                      filter(None, coeffs))))
        return self._terms

    @property
    def top(self):
        return max(self.terms) if self.terms else NEG_INF

    def is_exact(self) -> bool:
        return self.floor == NEG_INF

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
        return MotiveSeries._new({e: -c for e, c in self.terms.items()},
                                 self.floor, None)

    def __add__(self, other):
        return _series_sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return _series_sum(self, other, -1)

    def __rsub__(self, other):
        return _series_sum(other, self, -1)

    def __mul__(self, other):
        o = _coerce_series(other)
        if o is None:
            return NotImplemented
        # Unknown tails contaminate degrees up to floor+top of the other
        # factor, and the two tails contaminate floor_a+floor_b.  That is
        # an int, or NEG_INF when the product is exact.
        floor = max(self.floor + o.top, o.floor + self.top,
                    self.floor + o.floor)
        terms = _mul_terms(self.terms, o.terms, add,
                           None if floor == NEG_INF else floor)
        return MotiveSeries._new(terms, floor, None)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not self.is_exact():
            return NotImplemented
        return MotiveSeries._new(_pow_terms(self.terms, n, {0: 1}, add),
                                 NEG_INF, None)

    def with_floor(self, new_floor) -> "MotiveSeries":
        """Forget information: raise the floor to ``new_floor``."""
        _check_floor(new_floor)
        if new_floor < self.floor:
            raise ValueError(_all_digits("cannot lower floor from {} to {}"
                                         .format, self.floor, new_floor))
        return MotiveSeries._new(_above(self.terms, new_floor), new_floor,
                                 None)

    def __repr__(self):
        return f"MotiveSeries({render(self)!r})"


# The exact elements, Laurent polynomials, are the series with no floor.
# The alias stays while the benchmark's traced run (bench/spans.py)
# patches operators under it.
LaurentPoly = MotiveSeries


def _check_floor(floor):
    if floor != NEG_INF:
        _check_int(floor, "floor")


def _above(terms, floor):
    # the terms a series with this floor keeps
    if floor == NEG_INF:
        return terms
    return {e: c for e, c in terms.items() if e > floor}


def _series_sum(a, b, sign):
    """``a + sign * b`` for ring elements; NotImplemented for anything else."""
    a, b = _coerce_series(a), _coerce_series(b)
    if a is None or b is None:
        return NotImplemented
    floor = max(a.floor, b.floor)
    terms = _add_terms(a.terms, b.terms, sign)
    if a.floor != b.floor:
        terms = _above(terms, floor)
    return MotiveSeries._new(terms, floor, None)


def _coerce_series(x):
    # a bool is no ring element: == gives NotImplemented, + a TypeError
    if isinstance(x, MotiveSeries):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return MotiveSeries._new({0: x} if x else {}, NEG_INF, None)
    return None


# ---------------------------------------------------------------------------
# closed forms: (N, ks) is N / prod(1 - u^-k for k in ks).  Each such
# denominator is 1 plus lower terms, so the quotient has the degree and
# the leading coefficient of N.

def _closed_form(a):
    # a's closed form; a series without one is its known terms over 1
    return a.closed_form or (a.terms, ())


def _sum_closed(a, b, sign=1):
    """``a + sign * b`` for closed forms ``(n, ks)``, ``sign`` 1 or -1:
    each numerator takes the ``1 - u^-k`` that only the other's ks hold,
    as multisets, and the sum's ks are ``a``'s, then ``b``'s excess."""
    (na, ka), (nb, kb) = a, b
    only_a, only_b = list(ka), list(kb)
    for k in ka:
        if k in only_b:  # a factor both hold
            only_a.remove(k)
            only_b.remove(k)
    for k in only_a:
        nb = _add_terms(nb, {e - k: c for e, c in nb.items()}, -1)
    for k in only_b:
        na = _add_terms(na, {e - k: c for e, c in na.items()}, -1)
    return _add_terms(na, nb, sign), ka + tuple(only_b)


def _expand_rational(parts, floor):
    """The sum of the closed forms ``parts``, known above ``floor``.

    Neighbours are summed pairwise by :func:`_sum_closed` in rounds, so
    each k is held at its highest multiplicity in any part.  With no k
    the sum is exact; else :func:`_expand` fills its terms on first read.
    """
    parts = list(parts) or [({}, ())]
    while len(parts) > 1:
        parts = ([_sum_closed(a, b) for a, b in zip(parts[::2], parts[1::2])]
                 + parts[len(parts) // 2 * 2:])
    n, ks = parts[0]
    return (MotiveSeries._new(None, floor, (n, ks)) if ks
            else MotiveSeries._new(n, NEG_INF, None))


def _expand(n, ks, floor):
    """``n / prod(1 - u^-k for k in ks)`` above ``floor``, densely.

    Returns ``(exps, coeffs)``, ``coeffs[j]`` (zero or not) being the
    coefficient of ``u^exps[j]``.  ``c[j] += c[j-k]`` (j counting down
    from the top) divides by ``1 - u^-k``.  Division only carries
    coefficients downward, so those above the floor are exact.
    """
    top = max(n, default=floor)
    coeffs = [0] * max(top - floor, 0)
    for e, c in n.items():
        if e > floor:
            coeffs[top - e] = c
    for k in ks:
        for start in range(min(k, len(coeffs))):
            coeffs[start::k] = accumulate(coeffs[start::k])
    return range(top, floor, -1), coeffs


U = MotiveSeries({1: 1})
ONE = MotiveSeries({0: 1})
ZERO = MotiveSeries()


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
    raise PrecisionExhausted(_all_digits(
        "series vanishes above floor {}; dimension unknown".format, a.floor))


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
    the numerator of ``b - a`` over one denominator, each k at its higher
    multiplicity (:func:`_sum_closed`), exact above the highest floor of an
    operand without a closed form; if it vanishes there,
    :class:`PrecisionExhausted` is raised.  No work grows with a floor.
    """
    sa, sb = _coerce_series(a), _coerce_series(b)
    if sa is None or sb is None:
        raise TypeError("leq_order expects ring elements")
    diff, _ = _sum_closed(_closed_form(sb), _closed_form(sa), -1)
    floor = max((s.floor for s in (sa, sb) if s.closed_form is None),
                default=NEG_INF)
    top = max(diff, default=NEG_INF)
    if top > floor:
        return Order.LESS if diff[top] > 0 else Order.GREATER
    if floor == NEG_INF:
        return Order.EQUAL
    raise PrecisionExhausted(_all_digits(
        "difference vanishes above floor {} without being provably "
        "zero".format, floor))


def geometric_sum(p: int, floor: int) -> MotiveSeries:
    """Sum of ``u^(-p*i)`` over ``i >= 0``, truncated at ``floor``.

    Multiplying the result by ``1 - u^-p`` gives 1 modulo the floor; the
    series is the inverse of that factor at this precision.
    """
    if isinstance(p, bool) or not isinstance(p, int) or p < 1:
        raise ValueError("p must be a positive int")
    if isinstance(floor, bool) or not isinstance(floor, int):
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
                raise BoundViolated(_all_digits(
                    "difference {} has dimension {}, declared < {}".format,
                    k, max(diff.terms), m))
        elif not diff.is_exact() and diff.floor >= m:
            raise PrecisionExhausted(_all_digits(
                "difference {} vanishes above floor {}; cannot certify "
                "dimension < {}".format, k, diff.floor, m))
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

def _all_digits(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, whatever the interpreter's int digit limit.

    On a ``ValueError`` ``fn`` runs once more with
    ``sys.set_int_max_str_digits(0)``, and the old limit is restored
    afterwards, so an int of any length becomes text in full.
    """
    try:
        return fn(*args, **kwargs)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return fn(*args, **kwargs)
        finally:
            sys.set_int_max_str_digits(limit)


def _signed_sum(coeffs, monos, den=1) -> str:
    """``c1*m1 - c2*m2 + ...``, the term rule of every canonical text.

    Coefficients are nonzero ints over one ``den``, in print order, and
    print in lowest terms as ``p`` or ``p/q``; ``monos`` holds or yields
    the monomial texts, ``""`` for a constant, none with a space.  Each
    distinct coefficient's prefix, `` - 3/2*``, is formatted once.  A
    constant's ``*``, the only one at the end or before a space, is
    dropped; then so is each `` 1*``, a magnitude 1 before a monomial,
    as only a magnitude follows a space.
    """
    prefix = {}
    for c in set(coeffs):
        g = gcd(c, den) if den > 1 else 1
        x = abs(c) // g if g == den else f"{abs(c) // g}/{den // g}"
        prefix[c] = f" - {x}*" if c < 0 else f" + {x}*"
    parts = [""] * (2 * len(coeffs))
    parts[::2], parts[1::2] = map(prefix.get, coeffs), monos
    text = "".join(parts).removesuffix("*").replace("* ", " ")
    text = text.replace(" 1*", " ")
    return f"-{text[3:]}" if text[1:2] == "-" else text[3:]


def _powers(v, exps):
    """The text of ``v^e`` per ``e``: ``""`` for 0, ``v`` for 1."""
    return [f"{v}^{e}" if e < 0 or e > 1 else v if e else "" for e in exps]


def render(a) -> str:
    """Canonical text: terms by strictly decreasing exponent.

    ``u^-2 - u^-3 + O(u^-10)`` is a series with floor -10; an exact
    element has no O term and zero renders as ``0``.  A closed form
    prints from its dense expansion, any other value from ``terms``.
    A dense expansion, whose exponents are as short as its length,
    slices its ``u^-j`` texts from ``_U_POWERS``: a slice assignment
    grows it to the deepest floor printed, up to ``_U_DEPTH`` entries,
    putting ``u^-j`` at index ``j`` whatever another thread added.
    Other power texts, deeper ones included, are per call.
    """
    if not isinstance(a, MotiveSeries):
        raise TypeError(f"cannot render {type(a)!r}")
    if a.closed_form:
        exps, coeffs = _expand(*a.closed_form, a.floor)
        low, high = max(-exps.start, 0), max(-a.floor, 0)
        n, cut = len(_U_POWERS), min(high, _U_DEPTH)
        if coeffs and n < cut:
            _U_POWERS[n:cut] = _powers("u", range(-n, -cut, -1))
        monos = (_powers("u", range(exps.start, max(a.floor, 0), -1))
                 + _U_POWERS[low:cut]
                 + _powers("u", range(-max(low, cut), -high, -1)))
    else:
        exps = sorted(a.terms, reverse=True)
        coeffs = list(map(a.terms.get, exps))
        monos = _all_digits(_powers, "u", exps)
    return _all_digits(_series_text, "u", coeffs, monos, a.floor)


def _series_text(name, coeffs, monos, floor, den=1):
    """Each nonzero ``c/den`` in ``coeffs`` by its ``monos`` text, O tail."""
    body = _signed_sum(list(filter(None, coeffs)), compress(monos, coeffs),
                       den)
    if floor == NEG_INF:
        return body or "0"
    tail = f"O({name}^{floor})"
    return f"{body} + {tail}" if body else tail


class ParseError(ValueError):
    """Input text rejected, with the offending character offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# the one term scanner of ring and polynomial text
_MAX_DIGITS = 4300  # longest integer literal the scanner reads
_SAFE_DIGITS = 640  # the lowest int digit limit the interpreter takes
_POWER = r"\^(-?[0-9]*)"  # a power's exponent text
_SIGN = re.compile(r"[ \t]*([+-]?)[ \t]*")
_O_TERM = re.compile(r"O\(u" + _POWER)
_NAME = re.compile(r"[^\W\d]\w*")  # _is_name also checks its start
# a factor with its power and the operator after it
_FACTOR = re.compile(r"(?:([0-9]+)(?:/([0-9]+))?|(" + _NAME.pattern
                     + r"))(?:" + _POWER + r")?[ \t]*([*+-]?)[ \t]*")


def _int(text, offset, what):
    """The value of ``text``, a ``-?digits`` literal found at ``offset``.

    Only ``_MAX_DIGITS`` decides which literals are too long, whatever
    the interpreter's int digit limit.
    """
    try:
        if len(text) <= _SAFE_DIGITS:
            return int(text)
    except ValueError:  # "" or "-"
        raise ParseError(f"expected {what}", offset) from None
    if len(text.lstrip("-")) > _MAX_DIGITS:
        raise ParseError(
            f"integer literal longer than {_MAX_DIGITS} digits", offset)
    return _all_digits(int, text)


def _is_name(text):
    # a name, here and in cli: _NAME alone also takes "²" or "½" at start
    start = text[:1]
    return (start.isalpha() or start == "_") and bool(_NAME.fullmatch(text))


def _unexpected(s, pos):
    # the error for s[pos], where the scan cannot go on
    if pos == len(s):
        return ParseError("unexpected end of input", pos)
    if (m := _FACTOR.match(s, pos)) and (m[3] is None or _is_name(m[3])):
        return ParseError("implicit multiplication is not allowed", pos)
    return ParseError(f"unexpected character {s[pos]!r}", pos)


def _scan_terms(s, names):
    """The terms of the signed sum of products in ``s``.

    A term is a product of factors joined by ``*``; a factor is an
    unsigned integer, a ``p/q`` literal or one of ``names``, with an
    optional ``^k``, and only a name takes a negative ``k``.  Spaces and
    tabs may surround the ``+``, ``-`` and ``*`` operators.

    Returns ``(terms, stop)``.  ``terms`` holds one ``(offset, p, q,
    exponents)`` per term: the offset of its first factor, its signed
    coefficient ``p/q`` as ints, ``q`` None when no ``p/q`` literal
    occurs in it, and its exponent tuple aligned with ``names``.
    ``stop`` is ``len(s)``, or the offset of an ``O(`` standing where a
    term would start, where the scan ends.
    """
    terms = []
    m = _SIGN.match(s)
    op, pos = m.group(1), m.end()
    while True:  # one term per round, ``op`` being its sign
        if s.startswith("O(", pos):
            return terms, pos
        start, den = pos, None
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
                    den = (den or 1) * q ** k
                coefficient *= value ** k
            elif name in names:
                exponents[names.index(name)] += k
            elif _is_name(name):
                raise ParseError(f"unknown variable {name!r}", pos)
            else:
                raise _unexpected(s, pos)
            pos = m.end()
            if op != "*":
                break
        terms.append((start, coefficient, den, tuple(exponents)))
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
    Offsets count from the start of ``text``; trailing blanks are ignored.
    """
    s = text.rstrip()
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
    for offset, c, q, (e,) in found:
        if q is not None:
            raise ParseError("ring coefficients are integers", offset)
        if e <= floor:
            raise ParseError(_all_digits(
                "term at or below the floor {}".format, floor), offset)
        terms[e] = terms.get(e, 0) + c
    return MotiveSeries._new({e: c for e, c in terms.items() if c}, floor,
                             None)
