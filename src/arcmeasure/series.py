"""Truncated power series in t and the order calculus built on them.

An arc is represented by its jet: one truncated series per ambient
coordinate, all sharing a cap.  Composition of a polynomial with a jet
is exact modulo ``t^(cap+1)``, so every vanishing order computed here is
either exact or reported as a lower bound, never silently truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import ArityMismatch, MultiPoly, PolySystem, matrix_minors


class IndeterminateAtCap(ArithmeticError):
    """The truncation cap is too small to settle the requested order."""


class TruncSeries:
    """Rational coefficients ``c_0 .. c_n`` of a series modulo ``t^(n+1)``."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs, cap=None):
        coeffs = [Fraction(c) for c in coeffs]
        if cap is not None:
            if cap < 0:
                raise ValueError("cap must be nonnegative")
            if len(coeffs) > cap + 1:
                raise ValueError("more coefficients than the cap allows")
            coeffs += [Fraction(0)] * (cap + 1 - len(coeffs))
        elif not coeffs:
            raise ValueError("need at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def monomial(cls, exponent: int, cap: int, coefficient=1) -> "TruncSeries":
        if exponent > cap:
            return cls([], cap)
        coeffs = [Fraction(0)] * (cap + 1)
        coeffs[exponent] = Fraction(coefficient)
        return cls(coeffs)

    @property
    def cap(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, TruncSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def _check_cap(self, other):
        if not isinstance(other, TruncSeries):
            raise TypeError("expected TruncSeries")
        if other.cap != self.cap:
            raise ArityMismatch("series caps differ")

    def __add__(self, other):
        self._check_cap(other)
        return TruncSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_cap(other)
        return TruncSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return TruncSeries([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncSeries([c * other for c in self.coeffs])
        self._check_cap(other)
        out = _list_mul(self.coeffs, other.coeffs, self.cap, Fraction(0))
        return TruncSeries(out)

    __rmul__ = __mul__

    def __repr__(self):
        return f"TruncSeries({render_trunc(self)!r})"


def render_trunc(s: TruncSeries) -> str:
    """Ascending powers of t, explicit cap: ``t^2 - t^3 + O(t^4)``."""
    parts = []
    for e, c in enumerate(s.coeffs):
        if not c:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = "t" if mag == 1 else f"{mag}*t"
        else:
            body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {'+' if c > 0 else '-'} {body}")
    tail = f"O(t^{s.cap + 1})"
    return f"{''.join(parts)} + {tail}" if parts else tail


class ArcJet:
    """Tuple of component series sharing one truncation cap."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("an arc needs at least one component")
        cap = components[0].cap
        for c in components:
            if not isinstance(c, TruncSeries):
                raise TypeError("components must be TruncSeries")
            if c.cap != cap:
                raise ArityMismatch("components must share a cap")
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("ArcJet is immutable")

    @classmethod
    def from_coeffs(cls, rows, cap: int) -> "ArcJet":
        return cls(tuple(TruncSeries(list(r), cap) for r in rows))

    @property
    def cap(self) -> int:
        return self.components[0].cap

    def __len__(self):
        return len(self.components)

    def __eq__(self, other):
        if isinstance(other, ArcJet):
            return self.components == other.components
        return NotImplemented

    def __repr__(self):
        return f"ArcJet({', '.join(render_trunc(c) for c in self.components)})"


@dataclass(frozen=True)
class SeriesOrder:
    """Vanishing order in t, possibly only known as a lower bound.

    ``exact`` distinguishes a genuine order from ``at_least(cap + 1)``,
    the report that every coefficient up to the cap vanished.
    """

    value: int
    exact: bool = True

    @classmethod
    def at_least(cls, bound: int) -> "SeriesOrder":
        return cls(bound, exact=False)

    def __str__(self):
        return str(self.value) if self.exact else f">={self.value}"

    def __repr__(self):
        if self.exact:
            return f"SeriesOrder({self.value})"
        return f"SeriesOrder.at_least({self.value})"


def series_order(s: TruncSeries) -> SeriesOrder:
    """Index of the first nonzero coefficient, or a cap+1 lower bound."""
    for i, c in enumerate(s.coeffs):
        if c:
            return SeriesOrder(i)
    return SeriesOrder.at_least(s.cap + 1)


def min_series_order(orders) -> SeriesOrder:
    """Minimum of several orders, honest about lower bounds.

    A finite order wins only when it does not exceed every unresolved
    lower bound; otherwise the true minimum might hide beyond a cap and
    :class:`IndeterminateAtCap` is raised.  With no exact entries the
    result is the smallest lower bound, still marked inexact.
    """
    orders = list(orders)
    if not orders:
        raise ValueError("no orders to minimize")
    exact = [o.value for o in orders if o.exact]
    bounds = [o.value for o in orders if not o.exact]
    if not bounds:
        return SeriesOrder(min(exact))
    if not exact:
        return SeriesOrder.at_least(min(bounds))
    lo = min(exact)
    if lo <= min(bounds):
        return SeriesOrder(lo)
    raise IndeterminateAtCap(
        f"minimum order undecidable: exact candidate {lo} exceeds "
        f"an unresolved bound >= {min(bounds)}")


# ---------------------------------------------------------------------------
# composition

def _list_mul(a, b, cap, zero):
    out = [zero] * (cap + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        top = cap + 1 - i
        for j in range(min(len(b), top)):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def _evaluate_at_lists(f: MultiPoly, comps, cap, zero, lift):
    """Value of f at component coefficient lists, over any coefficient ring.

    ``lift`` embeds a Fraction coefficient of f into the target ring;
    ``zero`` is that ring's zero.  Powers of components are cached since
    sparse polynomials reuse them heavily.
    """
    powers = [{1: list(c)} for c in comps]

    def power(j, k):
        cache = powers[j]
        if k not in cache:
            half = power(j, k // 2)
            sq = _list_mul(half, half, cap, zero)
            cache[k] = _list_mul(sq, comps[j], cap, zero) if k % 2 else sq
        return cache[k]

    acc = [zero] * (cap + 1)
    for exps, coeff in f.terms.items():
        term = [lift(coeff)] + [zero] * cap
        for j, k in enumerate(exps):
            if k:
                term = _list_mul(term, power(j, k), cap, zero)
        acc = [x + y for x, y in zip(acc, term)]
    return acc


def compose(f: MultiPoly, arc: ArcJet) -> TruncSeries:
    """Exact value of ``f`` along the arc, modulo ``t^(cap+1)``."""
    if len(f.variables) != len(arc):
        raise ArityMismatch(
            f"{len(f.variables)} variables but {len(arc)} arc components")
    out = _evaluate_at_lists(f, [c.coeffs for c in arc.components],
                             arc.cap, Fraction(0), Fraction)
    return TruncSeries(out)


# ---------------------------------------------------------------------------
# jet equations

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def jet_variable_names(n_vars: int, level: int):
    """Coefficient variable names, grouped by source variable.

    The first source variable contributes ``a_0 .. a_n``, the second
    ``b_0 .. b_n`` and so on; past 26 source variables the group prefix
    falls back to ``v26``, ``v27``, ...
    """
    names = []
    for j in range(n_vars):
        prefix = _LETTERS[j] if j < len(_LETTERS) else f"v{j}"
        names.extend(f"{prefix}_{i}" for i in range(level + 1))
    return tuple(names)


def jet_equations(system: PolySystem, level: int) -> PolySystem:
    """Equations cutting out the level-n jets of a variety.

    Substituting ``x_j = sum_i a_{j,i} t^i`` into each generator and
    collecting powers of t up to ``t^level`` yields polynomials in the
    jet coefficients; identically zero ones are dropped.
    """
    if level < 0:
        raise ValueError("level must be nonnegative")
    n_vars = len(system.variables)
    jet_vars = jet_variable_names(n_vars, level)
    zero = MultiPoly.zero(jet_vars)

    def lift(c):
        return MultiPoly.constant(jet_vars, c)

    comps = []
    for j in range(n_vars):
        comps.append([MultiPoly.variable(jet_vars, j * (level + 1) + i)
                      for i in range(level + 1)])
    equations = []
    for g in system:
        coeffs = _evaluate_at_lists(g, comps, level, zero, lift)
        equations.extend(c for c in coeffs if c)
    return PolySystem(jet_vars, equations)


def satisfies_jet_equations(equations: PolySystem, jet_values) -> bool:
    """Evaluate a jet system at concrete coefficients (name to value)."""
    return all(not g.evaluate(jet_values) for g in equations)


# ---------------------------------------------------------------------------
# contact levels and Jacobian orders

def arc_level(arc: ArcJet, system: PolySystem) -> SeriesOrder:
    """Minimal vanishing order of the system's generators along the arc."""
    if not len(system):
        raise ValueError("empty system has no level")
    return min_series_order(series_order(compose(g, arc)) for g in system)


def ord_jac_along(sigma, arc: ArcJet, d: int) -> SeriesOrder:
    """Order of the Jacobian ideal of a polynomial map along an arc.

    ``sigma`` lists the target coordinates of a map from the arc's
    space; the order is the minimum over all ``d x d`` minors of the
    Jacobian matrix, composed with the arc.
    """
    sigma = list(sigma)
    if not sigma:
        raise ArityMismatch("empty map")
    variables = sigma[0].variables
    source_dim = len(variables)
    if len(arc) != source_dim:
        raise ArityMismatch("arc does not live in the source space")
    if d < 1 or d > source_dim or d > len(sigma):
        raise ArityMismatch(f"no {d}x{d} minors for this map")
    jac = [[comp.diff(j) for j in range(source_dim)] for comp in sigma]
    minors = PolySystem(variables, matrix_minors(jac, d))
    if not len(minors):
        # every minor is the zero polynomial
        return SeriesOrder.at_least(arc.cap + 1)
    return min_series_order(series_order(compose(m, arc)) for m in minors)


# Former name of polynomials.matrix_minors, still looked up by the
# benchmark's traced run (bench/spans.py).
matrix_minors_list = matrix_minors


def _entry_order(entry, arc: ArcJet) -> SeriesOrder:
    """Order of one matrix entry along the arc.

    An entry is a polynomial or a (numerator, denominator) pair of
    polynomials; the pair's order is the difference of orders and may be
    negative.  A denominator vanishing past the cap leaves the entry
    unbounded below and is therefore indeterminate.
    """
    if isinstance(entry, MultiPoly):
        return series_order(compose(entry, arc))
    num, den = entry
    num_ord = series_order(compose(num, arc))
    den_ord = series_order(compose(den, arc))
    if not den_ord.exact:
        raise IndeterminateAtCap(
            "denominator vanishes up to the cap; entry order unbounded")
    if num_ord.exact:
        return SeriesOrder(num_ord.value - den_ord.value)
    return SeriesOrder.at_least(num_ord.value - den_ord.value)


def matrix_entry_orders(entries, arc: ArcJet) -> SeriesOrder:
    """Minimal order over explicit matrix entries along an arc."""
    entries = list(entries)
    if not entries:
        raise ArityMismatch("no matrix entries")
    return min_series_order(_entry_order(e, arc) for e in entries)


def jacobian_matrix_order(f, arc: ArcJet, chart_dim: int) -> SeriesOrder:
    """Minimal order over all first partial derivatives of a map.

    Components of ``f`` given as polynomials are differentiated in each
    of the ``chart_dim`` chart variables; components supplied as
    (numerator, denominator) pairs are taken to be matrix entries
    already in final form, with order the difference of orders.  This is
    the entrywise bound, not the minor ideal of :func:`ord_jac_along`.
    """
    if len(arc) != chart_dim:
        raise ArityMismatch("arc does not match the chart dimension")
    entries = []
    for comp in f:
        if isinstance(comp, MultiPoly):
            if len(comp.variables) != chart_dim:
                raise ArityMismatch(
                    "component variables do not match the chart dimension")
            entries.extend(comp.diff(j) for j in range(chart_dim))
        else:
            entries.append(comp)
    return matrix_entry_orders(entries, arc)
