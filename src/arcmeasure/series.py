"""Truncated power series in t and the order calculus built on them.

An arc is represented by its jet: one truncated series per ambient
coordinate, all sharing a cap.  A series is stored as ints over one
denominator, in lowest terms; ``coeffs`` is a ``Fraction`` view rebuilt
on every read.  Composition of a polynomial with a jet is exact modulo
``t^(cap+1)``, so every vanishing order computed here is either exact or
reported as a lower bound, never silently truncated.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, prod
from operator import add
from threading import Lock

from .grothendieck import (_all_digits, _check_int, _evaluate, _Frozen,
                           _powers, _series_text, _signed_sum)
from .polynomials import (ArityMismatch, MultiPoly, PolySystem, _coefficient,
                          _factors, _jacobian_ideal, _over_lcm, matrix_minors)


class IndeterminateAtCap(ArithmeticError):
    """The truncation cap is too small to settle the requested order."""


class TruncSeries(_Frozen):
    """Rational coefficients ``c_0 .. c_n`` of a series modulo ``t^(n+1)``."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs, cap=None):
        coeffs = [_coefficient(c) for c in coeffs]
        if cap is not None:
            if _check_int(cap, "cap") < 0:
                raise ValueError("cap must be nonnegative")
            if len(coeffs) > cap + 1:
                raise ValueError("more coefficients than the cap allows")
            coeffs += [0] * (cap + 1 - len(coeffs))
        elif not coeffs:
            raise ValueError("need at least the constant coefficient")
        nums, den = _over_lcm(coeffs)
        self._set(nums=tuple(nums), den=den)

    @classmethod
    def _reduced(cls, nums, den) -> "TruncSeries":
        """The series ``nums/den``, brought to lowest terms."""
        g = 1 if den == 1 else gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        return cls._new(tuple(nums), den)

    @property
    def coeffs(self):
        """The ``Fraction`` coefficients, built on each read."""
        return tuple([Fraction(c, self.den) for c in self.nums])

    @property
    def cap(self) -> int:
        return len(self.nums) - 1

    def __bool__(self):
        return any(self.nums)

    def __repr__(self):
        return f"TruncSeries({render_trunc(self)!r})"


def render_trunc(s: TruncSeries) -> str:
    """Ascending powers of t, explicit cap: ``t^2 - t^3 + O(t^4)``."""
    return _all_digits(_series_text, "t", s.nums,
                       _powers("t", range(len(s.nums))), s.cap + 1, s.den)


class ArcJet(_Frozen):
    """Tuple of component series sharing one truncation cap."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("an arc needs at least one component")
        for c in components:
            if not isinstance(c, TruncSeries):
                raise TypeError("components must be TruncSeries")
            if c.cap != components[0].cap:
                raise ArityMismatch("components must share a cap")
        self._set(components=components)

    @classmethod
    def from_coeffs(cls, rows, cap: int) -> "ArcJet":
        return cls(tuple(TruncSeries(list(r), cap) for r in rows))

    @property
    def cap(self) -> int:
        return self.components[0].cap

    def __len__(self):
        return len(self.components)

    def __repr__(self):
        return f"ArcJet({', '.join(render_trunc(c) for c in self.components)})"


class SeriesOrder(_Frozen):
    """Vanishing order in t, possibly only known as a lower bound.

    ``exact`` distinguishes a genuine order from ``at_least(cap + 1)``,
    the report that every coefficient up to the cap vanished.
    """

    __slots__ = ("value", "exact")

    def __init__(self, value, exact=True):
        self._set(value=value, exact=exact)

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
    for i, c in enumerate(s.nums):
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

def compose(f: MultiPoly, arc: ArcJet) -> TruncSeries:
    """Exact value of ``f`` along the arc, modulo ``t^(cap+1)``.

    The components are brought to the lcm ``D`` of their denominators
    and term ``a_e*prod x_j^k_j`` of ``f = sum a_e x^e / F`` scaled by
    ``D^(d-|e|)``, ``d = deg f``, so the result is an integer series
    over ``F*D^d``.  It is computed in one int: ``t -> 2^w`` maps
    ``Z[t]/(t^(cap+1))`` to ``Z/2^(w(cap+1))``, so a series product is
    one big-int multiply, which may wrap.  ``B = sum |a_e| prod
    ||X_j^k_j||``, ``||y||`` summing y's coefficient sizes below the cap,
    bounds every digit of the result, and ``w >= bit_length(B) + 2``
    reads them back exactly.
    """
    if len(f.variables) != len(arc):
        raise ArityMismatch(
            f"{len(f.variables)} variables but {len(arc)} arc components")
    d = lcm(*[c.den for c in arc.components])
    comps = [[x * (d // c.den) for x in c.nums] for c in arc.components]
    degree = max(map(sum, f._num), default=0)
    terms = {exps: a * d ** (degree - sum(exps))
             for exps, a in f._num.items()}
    cap = arc.cap
    sizes = [(abs(c[0]), sum(map(abs, c[1:]))) for c in comps]
    # past the cap, (h + r)^k keeps only its terms up to r^cap
    bound = sum(abs(a) * prod((h + r) ** k if k <= cap
                              else h ** k * (1 + k * r) ** cap
                              for (h, r), k in zip(sizes, exps))
                for exps, a in terms.items())
    size, n = (bound.bit_length() + 9) // 8, cap + 1  # bytes per digit
    w, half = 8 * size, 1 << 8 * size - 1
    mask = (1 << w * n) - 1
    acc = _evaluate(terms, [sum([c << w * i for i, c in enumerate(x)])
                            for x in comps],
                    lambda x, y: x * y & mask, add, 0)
    # 2^(w-1) added to every field moves each digit into [0, 2^w)
    acc += int.from_bytes(half.to_bytes(size, "little") * n, "little")
    buf = (acc & mask).to_bytes(size * n, "little")
    return TruncSeries._reduced(
        [int.from_bytes(buf[i:i + size], "little") - half
         for i in range(0, size * n, size)], f.den * d ** degree)


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
    jet coefficients; identically zero ones are dropped.  Two generators
    give equal equations only past ``t^0``, when their nonconstant parts
    are equal (each term ``c*x^e``, ``e != 0``, adds its own monomials to
    every ``t^s``; the constant reaches only ``t^0``): those equations
    are kept once, from the first of the two.

        >>> from arcmeasure.polynomials import parse_poly, render_poly
        >>> cusp = parse_poly("y^2 - x^3", ("x", "y"))
        >>> for g in jet_equations(PolySystem(cusp.variables, [cusp]), 2):
        ...     print(render_poly(g))
        -a_0^3 + b_0^2
        -3*a_0^2*a_1 + 2*b_0*b_1
        -3*a_0^2*a_2 - 3*a_0*a_1^2 + 2*b_0*b_2 + b_1^2
    """
    if _check_int(level, "level") < 0:
        raise ValueError("level must be nonnegative")
    jet_vars = jet_variable_names(len(system.variables), level)
    equations, seen = [], set()
    for g in system:
        slices = _all_digits(_jet_expansion, g, level, jet_vars)
        nonconstant = frozenset(t for t in g.terms.items() if any(t[0]))
        equations.extend(slices[:1] if nonconstant in seen else slices)
        seen.add(nonconstant)
    return PolySystem._new(jet_vars, tuple(equations))


def _jet_expansion(g: MultiPoly, level: int, jet_vars):
    """Nonzero coefficients of ``t^0 .. t^level`` in ``g(sum_i a_{j,i} t^i)``.

    A term ``c*x^e`` of ``g``, ``c`` an int over ``g``'s denominator,
    joins the blocks of its variables' powers by their rows cut to the
    budget left, so no product passes ``t^level``.  Distinct variables
    own disjoint jet variables and the block of ``x_j`` has total degree
    ``e_j``, so every combination is a distinct monomial: nothing is
    summed or cancelled.  Each block and its text is built once per
    process, in a bounded table, and looked up once per ``g``.  A
    monomial keeps its exponents as the shared rows they come from, the
    front blocks' as a tuple and the last block's apart: all are
    ``level + 1`` long, so they sort as their concatenation would.  Its
    text joins its blocks' texts, and each slice stores the text that
    ``render_poly`` prints and builds its term map on first read.
    """
    step = level + 1  # the jet names a_0 .. a_level of each variable
    blocks = {(j, k): _block(jet_vars[j * step:(j + 1) * step], k)
              for j, k in {jk for e in g._num for jk in enumerate(e)}}
    by_t = [[] for _ in range(level + 1)]
    for e, c in g._num.items():
        partial = [(0, (), c, "")]
        *front, cut = map(blocks.__getitem__, enumerate(e))
        for block in front:
            partial = [(s + r, m + (mk,), a * b, x + y)
                       for s, m, a, x in partial for r, mk, b, y in block[s]]
        d = sum(e)
        for s, m, a, x in partial:
            for r, mk, b, y in cut[s]:
                by_t[s + r].append((d, m, mk, a * b, (x + y)[1:]))
    slices = []
    for terms in filter(None, by_t):
        terms.sort(reverse=True)  # graded lexicographic, as _poly_text
        _, fronts, lasts, nums, monos = zip(*terms)
        h = gcd(g.den, *nums)  # lowest terms; _signed_sum reduces its own
        slices.append(MultiPoly._jet(
            jet_vars, g.den // h, _signed_sum(nums, monos, g.den),
            (fronts, lasts, nums if h == 1 else [c // h for c in nums])))
    return slices


# (names, k) -> (_block(names, k), its weight), oldest first.  A row of
# jet level L weighs L + 9, and a unit of weight takes 12-52 bytes
# (tracemalloc, levels 0-40), so the table holds 7 MB at most
_TABLE_WEIGHT = 1 << 17
_blocks, _blocks_weight, _blocks_lock = {}, 0, Lock()


def _block(names, k):
    """The power ``x^k`` over the jet names ``a_0 .. a_level``, per budget.

    By the multinomial theorem the power sums, over the partitions of
    each ``s <= level`` into ``p <= k`` parts, ``m_i`` of them equal to
    ``i``, the rows ``(s, (k - p, m_1 .. m_level), comb(k, p) * p!/prod
    m_i!, text)``.  Parts are added one per round, up to ``min(level,
    k)``, in nondecreasing order: each partition comes once and a round
    stays in descending order of m, so the rows run in descending order
    of their exponents.  Entry ``b`` keeps, in that order, the rows with
    ``s <= level - b``, filtered from entry ``b - 1``: tuples that every
    caller shares.  A term of g then fills each slice in one descending
    run, and one sort per slice merges the runs of g's terms.  A new
    block that fits the table is kept and pushes out the oldest ones.
    """
    global _blocks_weight
    kept = _blocks.get((names, k))
    if kept:
        return kept[0]
    level = len(names) - 1
    rows = last = [(0, (0,) * level, 0, 1, 1)]  # s, m, p, p!/prod m_i!, top
    for _ in range(min(level, k)):
        last = [(s + j, m[:j - 1] + (m[j - 1] + 1,) + m[j:], p + 1,
                 r * (p + 1) // (m[j - 1] + 1), j)
                for s, m, p, r, top in last for j in range(top, level + 1 - s)]
        rows = rows + last
    cut = [tuple([(s, mk := (k - p,) + m, comb(k, p) * r, _factors(names, mk))
                  for s, m, p, r, _ in rows])]
    for b in range(level):  # each budget filters the one above it
        cut.append(tuple([row for row in cut[b] if row[0] < level - b]))
    cut = tuple(cut)
    weight = len(cut[0]) * (level + 9)
    with _blocks_lock:  # another thread may have stored this key meanwhile
        if weight <= _TABLE_WEIGHT and (names, k) not in _blocks:
            _blocks[names, k] = cut, weight
            _blocks_weight += weight
            while _blocks_weight > _TABLE_WEIGHT:
                _blocks_weight -= _blocks.pop(next(iter(_blocks)))[1]
    return cut


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
    if len(arc) != len(sigma[0].variables):
        raise ArityMismatch("arc does not live in the source space")
    minors = _jacobian_ideal(sigma, d)
    if not len(minors):
        # every minor is the zero polynomial
        return SeriesOrder.at_least(arc.cap + 1)
    return arc_level(arc, minors)


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
