"""Sparse multivariate polynomials with rational coefficients.

Terms are stored as a map from exponent vector to coefficient, with the
exponent vector aligned to an explicit ordered tuple of variable names.
Nothing here is clever; the point is exactness and a deterministic text
form shared with the command line tools.
"""

from __future__ import annotations

from itertools import combinations, compress
from fractions import Fraction
from operator import add, mul

from .grothendieck import (ParseError, _add_terms, _check_int, _coefficient,
                           _evaluate, _Frozen, _mul_terms, _pow_terms,
                           _power_text, _scan_terms, _signed_sum)


class ArityMismatch(ValueError):
    """Dimensions of the supplied data do not line up."""


class ConstantInput(ValueError):
    """A nonconstant polynomial was required."""


class MultiPoly(_Frozen):
    """Polynomial in the given variables over the rationals."""

    __slots__ = ("variables", "terms")

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
            c = _coefficient(c)
            if c:
                clean[exps] = c
        self._set(variables=variables, terms=clean)

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value) -> "MultiPoly":
        variables = tuple(variables)
        value = _coefficient(value)
        return cls._new(variables, {(0,) * len(variables): value} if value
                        else {})

    @classmethod
    def variable(cls, variables, index: int) -> "MultiPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[index] = 1
        return cls._new(variables, {tuple(exps): Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def __eq__(self, other):
        if isinstance(other, bool):  # no ring element, as for MotiveSeries
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.variables, other)
        if isinstance(other, MultiPoly):
            return self.variables == other.variables and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.variables, other)
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ArityMismatch("polynomials over different variables")
            return other
        return None

    def __neg__(self):
        return MultiPoly._new(self.variables,
                              {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._new(self.variables, _add_terms(self.terms, o.terms))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._new(self.variables,
                              _add_terms(self.terms, o.terms, -1))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._new(self.variables,
                              _add_terms(o.terms, self.terms, -1))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return MultiPoly._new(self.variables,
                              _mul_terms(self.terms, o.terms, _add_exponents))

    __rmul__ = __mul__

    def __pow__(self, n):
        one = {(0,) * len(self.variables): Fraction(1)}
        return MultiPoly._new(self.variables,
                              _pow_terms(self.terms, n, one, _add_exponents))

    def diff(self, index: int) -> "MultiPoly":
        """Partial derivative with respect to ``variables[index]``."""
        out = {}
        for e, c in self.terms.items():
            k = e[index]
            if k:  # distinct terms differentiate to distinct exponents
                out[e[:index] + (k - 1,) + e[index + 1:]] = c * k
        return MultiPoly._new(self.variables, out)

    def evaluate(self, values) -> Fraction:
        """Value at a rational point, given per variable name or position."""
        if isinstance(values, dict):
            point = [_coefficient(values[v]) for v in self.variables]
        else:
            point = [_coefficient(v) for v in values]
            if len(point) != len(self.variables):
                raise ArityMismatch("point has wrong number of coordinates")
        return _evaluate(self.terms, point, mul, add, Fraction(0))

    def __repr__(self):
        return f"MultiPoly({render_poly(self)!r}, vars={self.variables})"


def _add_exponents(e1, e2):
    return tuple(map(add, e1, e2))


def render_poly(p: MultiPoly) -> str:
    """Deterministic text form with explicit ``*`` between factors."""
    terms = sorted(zip(map(sum, p.terms), p.terms, p.terms.values()),
                   reverse=True)  # graded lexicographic, largest first
    # an integral coefficient goes in as an int, which prints faster
    coeffs = [c.numerator if c.denominator == 1 else c for _, _, c in terms]
    try:  # a factor per variable of nonzero power, in variable order
        monos = ["*".join([f"{v}^{k}" if k > 1 else v for v, k in
                           zip(compress(p.variables, e), filter(None, e))])
                 for _, e, _ in terms]
    except ValueError:  # over the interpreter's int digit limit
        monos = ["*".join(filter(None, map(_power_text, p.variables, e)))
                 for _, e, _ in terms]
    return _signed_sum(coeffs, monos) or "0"


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
    for offset, c, exponents in found:
        if min(exponents, default=0) < 0:
            raise ParseError("negative exponent in a polynomial", offset)
        terms[exponents] = terms.get(exponents, 0) + c
    return MultiPoly._new(variables,
                          {e: Fraction(c) for e, c in terms.items() if c})


class PolySystem(_Frozen):
    """Finite generating set over a common variable tuple.

    Zero generators are dropped and duplicates collapse; input order of
    the survivors is preserved.
    """

    __slots__ = ("variables", "generators")

    def __init__(self, variables, generators):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a system needs at least one variable")
        seen = []
        for g in generators:
            if not isinstance(g, MultiPoly):
                raise TypeError("generators must be MultiPoly")
            if g.variables != variables:
                raise ArityMismatch("generator over a different variable set")
            if g and g not in seen:
                seen.append(g)
        self._set(variables=variables, generators=tuple(seen))

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        if isinstance(other, PolySystem):
            return (self.variables == other.variables
                    and set(self.generators) == set(other.generators))
        return NotImplemented

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
