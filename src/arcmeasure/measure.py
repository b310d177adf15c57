"""Germ measures and integrals from normal-crossing resolution data.

The input is bookkeeping extracted from a resolution: the strata of the
exceptional locus, each with its class, the divisor components through
it, and the vanishing multiplicities of the relevant Jacobian along
those components.  Arcs are grouped by their contact orders with the
divisor components; a stratum with index set I contributes, for contact
vector e, its class times ``(u-1)^|I| * u^(-sum(e)-d)``.

Summing the contributions over all contact vectors stratum by stratum
gives a rational function of ``u``: with ``k_i = 1 + a_i + alpha_i``,
a stratum contributes ``[S] u^-d prod_i (u-1) u^-k_i / (1 - u^-k_i)``
(the rationality of motivic measures, Denef-Loeser 1999).
:func:`motivic_integral` expands that closed form down to the floor,
one pass of the recurrence ``c[j] += c[j-k]`` per denominator factor.
The direct enumeration over contact tuples is kept alongside as
:func:`motivic_integral_by_enumeration` and the two are held equal in
the test suite, so the algebraic shortcut never drifts from the
definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .grothendieck import (NEG_INF, LaurentPoly, MotiveSeries, Order,
                           leq_order, parse_motive, render)


class BadContact(ValueError):
    """Contact orders with a divisor component must be at least 1."""


class IndexMismatch(ValueError):
    """A vector does not line up with a stratum's index set."""


class DivergentExponent(ArithmeticError):
    """A contact series fails to converge: some ``1 + a_i + alpha_i <= 0``."""


@dataclass(frozen=True)
class MultiplicityVector:
    """Nonnegative vanishing orders, one per divisor component of a stratum."""

    values: tuple

    def __init__(self, values):
        values = tuple(int(v) for v in values)
        if any(v < 0 for v in values):
            raise ValueError("multiplicities must be nonnegative")
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class SNCStratum:
    """Stratum of the divisor stratification in a d-dimensional space.

    ``index_set`` names the divisor components containing the stratum;
    ``stratum_class`` is the class of the stratum itself, nonzero since
    empty strata are simply omitted.
    """

    name: str
    index_set: tuple
    stratum_class: LaurentPoly
    ambient_dim: int

    def __init__(self, name, index_set, stratum_class, ambient_dim):
        index_set = tuple(index_set)
        if len(set(index_set)) != len(index_set):
            raise ValueError("repeated divisor component in index set")
        ambient_dim = int(ambient_dim)
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        if len(index_set) > ambient_dim:
            raise ValueError(
                "more divisor components than the ambient dimension")
        if not isinstance(stratum_class, LaurentPoly) or not stratum_class:
            raise ValueError("stratum class must be a nonzero LaurentPoly")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "stratum_class", stratum_class)
        object.__setattr__(self, "ambient_dim", ambient_dim)


def contact_stratum_measure(stratum: SNCStratum, contacts) -> LaurentPoly:
    """Measure of the arcs with prescribed contact orders at the stratum.

    One factor ``(u-1)`` and one scaling ``u^-e_i`` per component, on
    top of the generic ``u^-d`` for arcs through a d-dimensional space.
    """
    contacts = tuple(int(e) for e in contacts)
    if len(contacts) != len(stratum.index_set):
        raise IndexMismatch(
            f"{len(contacts)} contact orders for "
            f"{len(stratum.index_set)} components")
    if any(e < 1 for e in contacts):
        raise BadContact("contact orders must be at least 1")
    shift = -sum(contacts) - stratum.ambient_dim
    factor = (LaurentPoly({1: 1, 0: -1}) ** len(contacts))
    return stratum.stratum_class * factor * LaurentPoly.monomial(shift)


def ord_jac_on_stratum(mults, contacts) -> int:
    """Order of a monomial Jacobian along an arc with these contacts."""
    mults = list(mults)
    contacts = list(contacts)
    if len(mults) != len(contacts):
        raise IndexMismatch(
            f"{len(mults)} multiplicities for {len(contacts)} contacts")
    return sum(int(m) * int(e) for m, e in zip(mults, contacts))


@dataclass(frozen=True)
class ResolutionData:
    """Strata plus the Jacobian multiplicities of one resolution map."""

    strata: tuple
    jac_mults: tuple

    def __init__(self, strata, jac_mults):
        strata = tuple(strata)
        jac_mults = tuple(MultiplicityVector(m) if not isinstance(
            m, MultiplicityVector) else m for m in jac_mults)
        _validate_strata(strata, jac_mults)
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "jac_mults", jac_mults)

    @property
    def ambient_dim(self) -> int:
        return self.strata[0].ambient_dim

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "strata": [
                {"name": s.name, "index_set": list(s.index_set),
                 "class": render(s.stratum_class), "p_mults": list(m)}
                for s, m in zip(self.strata, self.jac_mults)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ResolutionData":
        strata, p_mults, _ = _strata_from_json(data, want_q=False)
        return cls(strata, p_mults)


@dataclass(frozen=True)
class ResolutionDiagram:
    """Strata with the multiplicities of both legs of a resolved map.

    ``p_mults`` belongs to the resolution of the source germ and
    ``q_mults`` to the composite map into the target; both are indexed
    by the same divisor components stratum by stratum.
    """

    strata: tuple
    p_mults: tuple
    q_mults: tuple

    def __init__(self, strata, p_mults, q_mults):
        strata = tuple(strata)
        p_mults = tuple(MultiplicityVector(m) if not isinstance(
            m, MultiplicityVector) else m for m in p_mults)
        q_mults = tuple(MultiplicityVector(m) if not isinstance(
            m, MultiplicityVector) else m for m in q_mults)
        _validate_strata(strata, p_mults)
        _validate_strata(strata, q_mults)
        object.__setattr__(self, "strata", strata)
        object.__setattr__(self, "p_mults", p_mults)
        object.__setattr__(self, "q_mults", q_mults)

    @property
    def ambient_dim(self) -> int:
        return self.strata[0].ambient_dim

    def source_data(self) -> ResolutionData:
        return ResolutionData(self.strata, self.p_mults)

    def target_data(self) -> ResolutionData:
        return ResolutionData(self.strata, self.q_mults)

    def stratum_named(self, name: str):
        for s, p, q in zip(self.strata, self.p_mults, self.q_mults):
            if s.name == name:
                return s, p, q
        raise KeyError(f"no stratum named {name!r}")

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "strata": [
                {"name": s.name, "index_set": list(s.index_set),
                 "class": render(s.stratum_class),
                 "p_mults": list(p), "q_mults": list(q)}
                for s, p, q in zip(self.strata, self.p_mults, self.q_mults)],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ResolutionDiagram":
        strata, p_mults, q_mults = _strata_from_json(data, want_q=True)
        return cls(strata, p_mults, q_mults)


def _validate_strata(strata, mults):
    if not strata:
        raise ValueError("need at least one stratum")
    if len(mults) != len(strata):
        raise IndexMismatch("one multiplicity vector per stratum required")
    d = strata[0].ambient_dim
    names = set()
    for s, m in zip(strata, mults):
        if s.ambient_dim != d:
            raise ValueError("strata must share the ambient dimension")
        if s.name in names:
            raise ValueError(f"duplicate stratum name {s.name!r}")
        names.add(s.name)
        if len(m) != len(s.index_set):
            raise IndexMismatch(
                f"stratum {s.name!r}: {len(m)} multiplicities for "
                f"{len(s.index_set)} components")


def _strata_from_json(data, want_q):
    d = int(data["ambient_dim"])
    strata, p_mults, q_mults = [], [], []
    for entry in data["strata"]:
        cls_poly = parse_motive(entry["class"])
        if not isinstance(cls_poly, LaurentPoly):
            raise ValueError(
                f"stratum {entry.get('name')!r}: class must be exact")
        strata.append(SNCStratum(entry["name"], entry["index_set"],
                                 cls_poly, d))
        p_mults.append(MultiplicityVector(entry["p_mults"]))
        if want_q:
            if "q_mults" not in entry:
                raise ValueError(
                    f"stratum {entry.get('name')!r}: q_mults required")
            q_mults.append(MultiplicityVector(entry["q_mults"]))
    return tuple(strata), tuple(p_mults), tuple(q_mults)


# ---------------------------------------------------------------------------
# integration

def _contact_exponents(stratum, mults, alpha):
    if alpha is None:
        alpha = (0,) * len(stratum.index_set)
    alpha = tuple(int(x) for x in alpha)
    if len(alpha) != len(stratum.index_set):
        raise IndexMismatch(
            f"stratum {stratum.name!r}: alpha vector length "
            f"{len(alpha)} does not match the index set")
    ks = tuple(1 + int(a) + x for a, x in zip(mults, alpha))
    for k in ks:
        if k <= 0:
            raise DivergentExponent(
                f"stratum {stratum.name!r}: exponent 1+a+alpha = {k} <= 0")
    return ks


def _stratum_closed_form(stratum, ks, floor: int) -> MotiveSeries:
    # The stratum contributes the rational function
    #     [S] u^-d  prod_i (u-1) u^-k_i / (1 - u^-k_i).
    # Expand the polynomial prefactor densely from its degree down to
    # floor + 1, then divide by each 1 - u^-k: the quotient's
    # coefficients satisfy c[j] += c[j-k] (index j counts down from the
    # top), a running sum along every residue class mod k.  Division
    # only carries coefficients downward, so those above the floor are
    # exact as computed.
    prefactor = stratum.stratum_class \
        * LaurentPoly({1: 1, 0: -1}) ** len(ks) \
        * LaurentPoly.monomial(-stratum.ambient_dim - sum(ks))
    if not ks:
        return MotiveSeries.from_poly(prefactor)
    top = int(prefactor.degree)
    coeffs = [0] * max(top - floor, 0)
    for e, c in prefactor.terms.items():
        if e > floor:
            coeffs[top - e] = c
    for k in ks:
        for start in range(min(k, len(coeffs))):
            coeffs[start::k] = accumulate(coeffs[start::k])
    return MotiveSeries({top - j: c for j, c in enumerate(coeffs) if c},
                        floor)


def motivic_integral(data: ResolutionData, alpha_mults, floor: int
                     ) -> MotiveSeries:
    """Integral of ``u^-alpha`` over the arcs seen through a resolution.

    ``alpha_mults`` gives, stratum by stratum, the monomial exponents of
    the integrand along the divisor components; ``None`` means alpha = 0
    everywhere, which is the plain measure.  The result is exact above
    ``floor``.  Entries may be negative as long as every combined
    exponent ``1 + a_i + alpha_i`` stays positive; otherwise the contact
    series diverges and :class:`DivergentExponent` is raised.
    """
    if alpha_mults is None:
        alpha_mults = [None] * len(data.strata)
    if len(alpha_mults) != len(data.strata):
        raise IndexMismatch("one alpha vector per stratum required")
    total = None
    for stratum, mults, alpha in zip(data.strata, data.jac_mults,
                                     alpha_mults):
        ks = _contact_exponents(stratum, mults, alpha)
        part = _stratum_closed_form(stratum, ks, floor)
        total = part if total is None else total + part
    return total


def motivic_integral_by_enumeration(data: ResolutionData, alpha_mults,
                                    floor: int, max_total_contact=None
                                    ) -> MotiveSeries:
    """Same integral, summed contact tuple by contact tuple.

    The default cutoff is derived from the floor and provably discards
    only contributions below it.  ``max_total_contact`` instead bounds
    ``sum(e_i)`` directly, for cross-checks; when that cutoff drops
    tuples whose contributions reach above ``floor``, the result's floor
    is raised to the highest exponent a dropped tuple can reach, so
    every returned coefficient is still exact.
    """
    if alpha_mults is None:
        alpha_mults = [None] * len(data.strata)
    if len(alpha_mults) != len(data.strata):
        raise IndexMismatch("one alpha vector per stratum required")
    total = LaurentPoly.zero()
    result_floor = floor
    for stratum, mults, alpha in zip(data.strata, data.jac_mults,
                                     alpha_mults):
        ks = _contact_exponents(stratum, mults, alpha)
        weights = tuple(k - 1 for k in ks)  # a_i + alpha_i
        r = len(ks)
        if r == 0:
            total = total + stratum.stratum_class * LaurentPoly.monomial(
                -stratum.ambient_dim)
            continue
        # a tuple contributes in degrees <= top - sum(k_i e_i), so those
        # with sum(k_i e_i) >= budget sit at or below floor
        top = int(stratum.stratum_class.degree) + r - stratum.ambient_dim
        budget = top - floor
        if max_total_contact is not None:
            # the highest dropped tuple puts every contact beyond the
            # cutoff on the component with the smallest k_i
            extra = max(max_total_contact + 1 - r, 0)
            result_floor = max(result_floor,
                               top - sum(ks) - extra * min(ks))

        def tuples(prefix, remaining):
            i = len(prefix)
            if i == r:
                yield prefix
                return
            e = 1
            while True:
                if max_total_contact is not None:
                    if sum(prefix) + e + (r - 1 - i) > max_total_contact:
                        break
                else:
                    spent = sum(k * x for k, x in zip(ks, prefix))
                    tail_min = sum(ks[i + 1:])
                    if spent + ks[i] * e + tail_min > budget:
                        break
                yield from tuples(prefix + (e,), remaining)
                e += 1

        for contacts in tuples((), None):
            twist = -ord_jac_on_stratum(weights, contacts)
            total = total + contact_stratum_measure(
                stratum, contacts) * LaurentPoly.monomial(twist)
    return MotiveSeries.from_poly(total, result_floor)


def germ_measure(data: ResolutionData, floor: int) -> MotiveSeries:
    """Measure of the arcs centered in the resolved germ."""
    return motivic_integral(data, None, floor)


def image_measure(diagram: ResolutionDiagram, floor: int) -> MotiveSeries:
    """Measure of the image arcs, computed through the target leg."""
    return motivic_integral(diagram.target_data(), None, floor)


def compare_germ_measures(a: MotiveSeries, b: MotiveSeries) -> str:
    """Order two germ measures computed at a common precision."""
    fa = a.floor if isinstance(a, MotiveSeries) else NEG_INF
    fb = b.floor if isinstance(b, MotiveSeries) else NEG_INF
    if fa != NEG_INF and fb != NEG_INF and fa != fb:
        raise ValueError(
            f"floors {fa} and {fb} differ; recompute at a common floor")
    return leq_order(a, b)
