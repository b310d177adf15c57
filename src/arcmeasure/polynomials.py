"""Sparse multivariate polynomials with rational coefficients.

A polynomial is stored as ints over one positive denominator: ``_num``
maps each exponent vector, aligned with an ordered tuple of variable
names, to a nonzero int, and ``den`` is kept so that ``gcd(den,
*coefficients) == 1`` (1 for zero).  ``terms`` is a ``Fraction`` view
rebuilt on every read.
"""

from __future__ import annotations

from itertools import combinations, compress
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .grothendieck import (ParseError, _add_terms, _all_digits, _check_int,
                           _evaluate, _Frozen, _mul_terms, _pow_terms,
                           _scan_terms, _signed_sum)


class ArityMismatch(ValueError):
    """Dimensions of the supplied data do not line up."""


class ConstantInput(ValueError):
    """A nonconstant polynomial was required."""


def _coefficient(c):
    # exact rationals only: a float, bool or string is an input error
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return c
    raise TypeError(f"coefficient {c!r} is not an int or Fraction")


def _over_lcm(values):
    """Ints and Fractions ``values`` as canonical ints over their lcm."""
    den = lcm(*[c.denominator for c in values])
    return [c.numerator * (den // c.denominator) for c in values], den


class MultiPoly(_Frozen):
    """Polynomial in the given variables over the rationals."""

    __slots__ = ("variables", "_num", "den")

    def __init__(self, variables, terms=None):
        variables = tuple(variables)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(_check_int(e, "exponent") for e in exps)
            if len(exps) != len(variables):
                raise ArityMismatch(
                    f"exponent vector {exps} does not match "
                    f"{len(variables)} variables")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in polynomial")
            if _coefficient(c):
                clean[exps] = c
        nums, den = _over_lcm(list(clean.values()))
        self._set(variables=variables, _num=dict(zip(clean, nums)), den=den)

    @classmethod
    def _reduced(cls, variables, num, den) -> "MultiPoly":
        """The polynomial ``num/den``, brought to lowest terms."""
        g = 1 if den == 1 else gcd(den, *num.values())
        if g != 1:
            num, den = {e: c // g for e, c in num.items()}, den // g
        return cls._new(variables, num, den)

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @property
    def terms(self):
        """Exponent vector to ``Fraction`` coefficient, built on each read."""
        return {e: Fraction(c, self.den) for e, c in self._num.items()}

    def __bool__(self):
        return bool(self._num)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._num)

    def __eq__(self, other):
        if isinstance(other, bool):  # no ring element, as for MotiveSeries
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        return _Frozen.__eq__(self, other)

    def __hash__(self):
        if self.is_constant():  # equal to its value
            return hash(Fraction(sum(self._num.values()), self.den))
        return hash((self.variables, frozenset(self._num.items()), self.den))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.variables,
                             {(0,) * len(self.variables): other})
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ArityMismatch("polynomials over different variables")
            return other
        return None

    def _sum(self, other, sign):
        """``self + sign * other`` over the lcm of the denominators."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = lcm(self.den, o.den)
        a, b = (p._num if p.den == den else
                {e: c * (den // p.den) for e, c in p._num.items()}
                for p in (self, o))
        return MultiPoly._reduced(self.variables, _add_terms(a, b, sign), den)

    def __neg__(self):
        return MultiPoly._new(self.variables,
                              {e: -c for e, c in self._num.items()}, self.den)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._reduced(
            self.variables, _mul_terms(self._num, o._num, _add_exponents),
            self.den * o.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        # Gauss's lemma: the content of a power is the power of the content
        one = {(0,) * len(self.variables): 1}
        return MultiPoly._new(
            self.variables, _pow_terms(self._num, n, one, _add_exponents),
            self.den ** n)

    def diff(self, index: int) -> "MultiPoly":
        """Partial derivative with respect to ``variables[index]``."""
        if not 0 <= _check_int(index, "index") < len(self.variables):
            raise IndexError(f"no variable at index {index}")
        out = {}
        for e, c in self._num.items():
            k = e[index]
            if k:  # distinct terms differentiate to distinct exponents
                out[e[:index] + (k - 1,) + e[index + 1:]] = c * k
        return MultiPoly._reduced(self.variables, out, self.den)

    def evaluate(self, values) -> Fraction:
        """Value at a rational point, given per variable name or position."""
        if isinstance(values, dict):
            point = [_coefficient(values[v]) for v in self.variables]
        else:
            point = [_coefficient(v) for v in values]
            if len(point) != len(self.variables):
                raise ArityMismatch("point has wrong number of coordinates")
        return _evaluate(self._num, point, mul, add, Fraction(0)) / self.den

    def __repr__(self):
        return f"MultiPoly({render_poly(self)!r}, vars={self.variables})"


def _add_exponents(e1, e2):
    return tuple(map(add, e1, e2))


def render_poly(p: MultiPoly) -> str:
    """Deterministic text form with explicit ``*`` between factors."""
    return _all_digits(_poly_text, p)


def _poly_text(p):
    terms = sorted(zip(map(sum, p._num), p._num, p._num.values()),
                   reverse=True)  # graded lexicographic, largest first
    # a factor per variable of nonzero power, in variable order
    monos = ["*".join([f"{v}^{k}" if k > 1 else v for v, k in
                       zip(compress(p.variables, e), filter(None, e))])
             for _, e, _ in terms]
    # each monomial is one factor to the power 1, the constant's to 0
    return _signed_sum([c for _, _, c in terms], monos, map(bool, monos),
                       p.den) or "0"


def parse_poly(text: str, variables) -> MultiPoly:
    """Parse an expanded polynomial over the declared variables.

    Polynomial text is a sum of terms over ``variables`` with integer or
    ``p/q`` coefficients (no spaces around the ``/``) and nonnegative
    powers, such as ``y^2 - x^3`` or ``3/2*x*y``.  Integer literals have
    at most 4,300 digits; a zero denominator, implicit multiplication
    and parentheses are rejected.
    """
    variables = tuple(variables)
    found, stop = _scan_terms(text, variables)
    if stop < len(text):
        raise ParseError("an O term is not a polynomial", stop)
    terms = {}
    for offset, p, q, exponents in found:
        if min(exponents, default=0) < 0:
            raise ParseError("negative exponent in a polynomial", offset)
        c = p if q is None else Fraction(p, q)
        terms[exponents] = terms.get(exponents, 0) + c
    terms = {e: c for e, c in terms.items() if c}
    nums, den = _over_lcm(list(terms.values()))
    return MultiPoly._new(variables, dict(zip(terms, nums)), den)


class PolySystem(_Frozen):
    """Finite generating set over a common variable tuple.

    Zero generators are dropped, and duplicates, by ``==`` and hash,
    collapse to their first occurrence, kept in input order.
    """

    __slots__ = ("variables", "generators")

    def __init__(self, variables, generators):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a system needs at least one variable")
        unique = {}
        for g in generators:
            if not isinstance(g, MultiPoly):
                raise TypeError("generators must be MultiPoly")
            if g.variables != variables:
                raise ArityMismatch("generator over a different variable set")
            if g:
                unique.setdefault(g)
        self._set(variables=variables, generators=tuple(unique))

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        if isinstance(other, PolySystem):
            return (self.variables == other.variables
                    and set(self.generators) == set(other.generators))
        return NotImplemented

    def __hash__(self):
        return hash((self.variables, frozenset(self.generators)))

    def __repr__(self):
        inner = ", ".join(render_poly(g) for g in self.generators)
        return f"PolySystem[{inner}]"


def poly_det(matrix) -> MultiPoly:
    """Determinant of a square matrix of polynomials, Laplace expansion."""
    size = len(matrix)
    if size == 0:
        raise ValueError("empty matrix")
    variables = matrix[0][0].variables
    if size == 1:
        return matrix[0][0]
    total = MultiPoly.zero(variables)
    for j in range(size):
        entry = matrix[0][j]
        if not entry:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        cofactor = entry * poly_det(minor)
        total = total + (cofactor if j % 2 == 0 else -cofactor)
    return total


def matrix_minors(matrix, size: int):
    """All ``size x size`` minor determinants, row subsets before columns."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if size < 1 or size > rows or size > cols:
        raise ArityMismatch(
            f"no {size}x{size} minors of a {rows}x{cols} matrix")
    out = []
    for ri in combinations(range(rows), size):
        for ci in combinations(range(cols), size):
            sub = [[matrix[r][c] for c in ci] for r in ri]
            out.append(poly_det(sub))
    return out


def jacobian_minors(fs, ambient_dim: int, variety_dim: int) -> PolySystem:
    """Maximal minors of the Jacobian of a codimension ``N - d`` system.

    ``fs`` must consist of exactly ``ambient_dim - variety_dim``
    polynomials in ``ambient_dim`` variables; the result collects every
    ``(N-d) x (N-d)`` minor of their Jacobian matrix, canonicalized.
    """
    fs = list(fs)
    codim = ambient_dim - variety_dim
    if codim < 1 or len(fs) != codim:
        raise ArityMismatch(
            f"expected {codim} defining polynomials, got {len(fs)}")
    variables = fs[0].variables
    if len(variables) != ambient_dim:
        raise ArityMismatch(
            f"polynomials have {len(variables)} variables, "
            f"ambient dimension is {ambient_dim}")
    return _jacobian_ideal(fs, codim)


def _jacobian_ideal(fs, size: int) -> PolySystem:
    """Every ``size x size`` minor of the matrix of partials of ``fs``."""
    variables = fs[0].variables
    jac = [[f.diff(j) for j in range(len(variables))] for f in fs]
    return PolySystem(variables, matrix_minors(jac, size))


def hypersurface_singular_ideal(f: MultiPoly) -> PolySystem:
    """Generators cutting out the singular locus of a hypersurface.

    For one defining equation these are just the partial derivatives,
    the codimension-1 case of :func:`jacobian_minors`.  Higher
    codimension input needs user-supplied generators instead; a
    constant polynomial has no hypersurface attached and is rejected.
    """
    if f.is_constant():
        raise ConstantInput("defining polynomial must be nonconstant")
    n = len(f.variables)
    return jacobian_minors([f], n, n - 1)
