"""Exact arithmetic for virtual Poincare classes.

Classes of arc-symmetric sets are represented through their virtual
Poincare polynomial, so every value in this module is either a Laurent
polynomial in one variable ``u`` with integer coefficients, or a
truncated series in ``u^-1`` carrying an explicit precision floor.

The precision model is the whole point of :class:`MotiveSeries`.  A
series with floor ``m`` is known exactly in every degree strictly above
``m``; degrees ``<= m`` are unknown.  Arithmetic propagates floors
pessimistically, so a stored coefficient is always the true one.  When a
question (dimension, ordering) cannot be settled above the floor the
functions here raise :class:`PrecisionExhausted` instead of guessing.

Integer coefficients are Python ints, hence arbitrary precision.  No
floats enter any computation; ``NEG_INF`` appears only as the degree of
zero and as the floor of exact series.
"""

from __future__ import annotations

NEG_INF = float("-inf")


class PrecisionExhausted(ArithmeticError):
    """A query needs information below the precision floor."""


class BoundViolated(ValueError):
    """A declared dimension bound fails on an actual difference."""


def _as_terms(exponent_map):
    # drop zero coefficients, validate integrality
    out = {}
    for e, c in exponent_map.items():
        if not isinstance(e, int) or isinstance(e, bool):
            raise TypeError(f"exponent {e!r} is not an int")
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"coefficient {c!r} is not an int")
        if c:
            out[e] = c
    return out


class LaurentPoly:
    """Integer Laurent polynomial in ``u``.

    ``terms`` maps exponent to nonzero coefficient; the zero polynomial
    is the empty map.  Instances are treated as immutable.

    Example::

        >>> p = LaurentPoly({1: 1, 0: -1})   # u - 1
        >>> q = LaurentPoly({1: 1, 0: 1})    # u + 1
        >>> (p + q).terms
        {1: 2}
        >>> (p * q).terms == {2: 1, 0: -1}
        True
    """

    __slots__ = ("terms",)

    def __init__(self, exponent_map=None):
        object.__setattr__(self, "terms", _as_terms(exponent_map or {}))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPoly":
        return cls({exponent: coefficient})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if isinstance(other, LaurentPoly):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def _coerce(self, other):
        if isinstance(other, int):
            return LaurentPoly({0: other})
        if isinstance(other, LaurentPoly):
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    @property
    def degree(self):
        """Maximal exponent, NEG_INF for zero."""
        return max(self.terms) if self.terms else NEG_INF

    def leading_coefficient(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[max(self.terms)]

    def __repr__(self):
        return f"LaurentPoly({render(self)!r})"


U = LaurentPoly.monomial(1)
ONE = LaurentPoly.one()
ZERO = LaurentPoly.zero()


class MotiveSeries:
    """Laurent series in ``u^-1`` known exactly above a precision floor.

    ``floor`` is an int, or ``NEG_INF`` for an exact element (an embedded
    Laurent polynomial).  Every stored exponent is strictly above the
    floor.  ``top`` is the largest stored exponent, ``NEG_INF`` when no
    nonzero coefficient is known yet; the true degree of the represented
    element never exceeds ``max(top, floor)``.
    """

    __slots__ = ("terms", "floor")

    def __init__(self, exponent_map=None, floor=NEG_INF):
        if floor != NEG_INF and not isinstance(floor, int):
            raise TypeError("floor must be an int or NEG_INF")
        terms = _as_terms(exponent_map or {})
        terms = {e: c for e, c in terms.items() if e > floor}
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "floor", floor)

    def __setattr__(self, name, value):
        raise AttributeError("MotiveSeries is immutable")

    @classmethod
    def from_poly(cls, p: LaurentPoly, floor=NEG_INF) -> "MotiveSeries":
        """Embed a Laurent polynomial, exactly by default.

        Passing a finite ``floor`` forgets all coefficients at or below
        it, which models the polynomial viewed at that precision.
        """
        return cls(dict(p.terms), floor)

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
        return hash((frozenset(self.terms.items()), self.floor))

    def __neg__(self):
        return MotiveSeries({e: -c for e, c in self.terms.items()}, self.floor)

    def __add__(self, other):
        o = _coerce_series(other)
        if o is None:
            return NotImplemented
        floor = max(self.floor, o.floor)
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MotiveSeries(out, floor)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce_series(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce_series(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce_series(other)
        if o is None:
            return NotImplemented
        # Unknown tails contaminate degrees up to floor+top of the other
        # factor, and the two tails contaminate floor_a+floor_b.
        floor = max(self.floor + o.top, o.floor + self.top,
                    self.floor + o.floor)
        if floor != NEG_INF:
            floor = int(floor)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                if e <= floor:
                    continue
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MotiveSeries(out, floor)

    __rmul__ = __mul__

    def with_floor(self, new_floor) -> "MotiveSeries":
        """Forget information: raise the floor to ``new_floor``."""
        if new_floor < self.floor:
            raise ValueError(
                f"cannot lower floor from {self.floor} to {new_floor}")
        return MotiveSeries(self.terms, new_floor)

    def __repr__(self):
        return f"MotiveSeries({render(self)!r})"


def _coerce_series(x):
    if isinstance(x, MotiveSeries):
        return x
    if isinstance(x, LaurentPoly):
        return MotiveSeries.from_poly(x)
    if isinstance(x, int):
        return MotiveSeries({0: x})
    return None


def virtual_dim(a):
    """Degree of the virtual Poincare polynomial; the virtual dimension.

    Returns an int, or ``NEG_INF`` for (provably) zero.  For a series
    that vanishes down to a finite floor the dimension is undecidable
    and :class:`PrecisionExhausted` is raised.
    """
    if isinstance(a, LaurentPoly):
        return a.degree
    if isinstance(a, MotiveSeries):
        if a.terms:
            return max(a.terms)
        if a.is_exact():
            return NEG_INF
        raise PrecisionExhausted(
            f"series vanishes above floor {a.floor}; dimension unknown")
    raise TypeError(f"expected LaurentPoly or MotiveSeries, got {type(a)!r}")


class Order:
    """Outcome of the leading-coefficient comparison."""
    LESS = "Less"
    EQUAL = "Equal"
    GREATER = "Greater"


def leq_order(a, b) -> str:
    """Compare by the sign of the leading coefficient of ``b - a``.

    Returns ``Order.LESS`` when that coefficient is positive (so ``a``
    strictly precedes ``b``), ``Order.EQUAL`` when the difference is
    provably zero, ``Order.GREATER`` otherwise.  A difference that
    vanishes down to a finite floor without being provably zero raises
    :class:`PrecisionExhausted` rather than returning a guess.
    """
    sa, sb = _coerce_series(a), _coerce_series(b)
    if sa is None or sb is None:
        raise TypeError("leq_order expects ring elements")
    diff = sb - sa
    if diff.terms:
        lead = diff.terms[max(diff.terms)]
        return Order.LESS if lead > 0 else Order.GREATER
    if diff.is_exact():
        return Order.EQUAL
    raise PrecisionExhausted(
        f"difference vanishes above floor {diff.floor} "
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

def _render_term(e: int, c: int, lead: bool) -> str:
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    if e == 0:
        body = str(mag)
    elif e == 1:
        body = "u" if mag == 1 else f"{mag}*u"
    else:
        body = f"u^{e}" if mag == 1 else f"{mag}*u^{e}"
    if lead:
        return body if c > 0 else f"-{body}"
    return f" {sign} {body}"


def render(a) -> str:
    """Canonical text: terms by strictly decreasing exponent.

    ``u^-2 - u^-3 + O(u^-10)`` is a series with floor -10; an exact
    element has no O term and zero renders as ``0``.
    """
    if isinstance(a, LaurentPoly):
        terms, floor = a.terms, NEG_INF
    elif isinstance(a, MotiveSeries):
        terms, floor = a.terms, a.floor
    else:
        raise TypeError(f"cannot render {type(a)!r}")
    parts = []
    for i, e in enumerate(sorted(terms, reverse=True)):
        parts.append(_render_term(e, terms[e], lead=(i == 0)))
    body = "".join(parts)
    if floor == NEG_INF:
        return body or "0"
    o_term = f"O(u^{int(floor)})"
    return f"{body} + {o_term}" if body else o_term


class RingParseError(ValueError):
    """Text does not match the canonical Laurent/series grammar."""

    def __init__(self, message, offset):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


def parse_motive(text: str):
    """Parse the canonical form back into a value.

    Returns a :class:`LaurentPoly` when no O term is present, otherwise
    a :class:`MotiveSeries` with the floor the O term states.  Accepts
    the exact grammar :func:`render` produces, plus fully explicit
    variants like ``1*u^1``.  A term at or below the stated floor and a
    minus sign before the O term are rejected: neither has a meaning
    the floor could keep.
    """
    s = text.strip()
    if s == "0":
        return LaurentPoly.zero()
    pos = 0
    n = len(s)

    def skip_ws(i):
        while i < n and s[i] == " ":
            i += 1
        return i

    def parse_int(i, what):
        j = i
        if j < n and s[j] == "-":
            j += 1
        k = j
        while k < n and s[k].isdigit():
            k += 1
        if k == j:
            raise RingParseError(f"expected {what}", i)
        return int(s[i:k]), k

    terms = {}
    starts = {}  # exponent -> offset of its first term
    floor = None
    sign = 1
    pos = skip_ws(pos)
    sign_pos = pos
    if pos < n and s[pos] == "-":
        sign = -1
        pos += 1
        pos = skip_ws(pos)
    while True:
        if s.startswith("O(u^", pos):
            if sign < 0:
                raise RingParseError("'-' before the O term", sign_pos)
            val, j = parse_int(pos + 4, "floor exponent")
            if j >= n or s[j] != ")":
                raise RingParseError("expected ')'", j)
            floor = val
            pos = skip_ws(j + 1)
            break
        # one term: coefficient and/or power of u
        start = pos
        coeff = 1
        exponent = 0
        saw_u = False
        if pos < n and s[pos].isdigit():
            coeff, pos = parse_int(pos, "coefficient")
            if pos < n and s[pos] == "*":
                pos += 1
                if not s.startswith("u", pos):
                    raise RingParseError("expected 'u' after '*'", pos)
                saw_u = True
                pos += 1
        elif pos < n and s[pos] == "u":
            saw_u = True
            pos += 1
        else:
            raise RingParseError("expected term", pos)
        if saw_u:
            if pos < n and s[pos] == "^":
                exponent, pos = parse_int(pos + 1, "exponent")
            else:
                exponent = 1
        c = sign * coeff
        terms[exponent] = terms.get(exponent, 0) + c
        starts.setdefault(exponent, start)
        pos = skip_ws(pos)
        if pos >= n:
            break
        if s[pos] == "+":
            sign = 1
        elif s[pos] == "-":
            sign = -1
        else:
            raise RingParseError("expected '+', '-' or end", pos)
        sign_pos = pos
        pos = skip_ws(pos + 1)
        if pos >= n:
            raise RingParseError("dangling operator", pos)
    if pos != n:
        raise RingParseError("trailing input", pos)
    if floor is None:
        return LaurentPoly(terms)
    buried = [starts[e] for e in terms if e <= floor]
    if buried:
        raise RingParseError(
            f"term at or below the floor {floor}", min(buried))
    return MotiveSeries(terms, floor)
