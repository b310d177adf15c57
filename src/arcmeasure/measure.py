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
:func:`motivic_integral` sums the strata pairwise, over one denominator,
and keeps that exact rational function, so two resolutions of one germ
compare ``Equal``.  The sum is expanded down to the floor, one pass of
the recurrence ``c[j] += c[j-k]`` per denominator factor, only when its
terms are first read, which is when they are printed.
The direct enumeration over contact tuples is kept alongside as
:func:`motivic_integral_by_enumeration` and the two are held equal in
the test suite, so the algebraic shortcut never drifts from the
definition.
"""

from __future__ import annotations

from math import comb
from operator import add

from .grothendieck import (NEG_INF, ZERO, MotiveSeries, ParseError,
                           _all_digits, _check_int, _expand_rational, _Frozen,
                           _mul_terms, leq_order, parse_motive, virtual_dim)


class BadContact(ValueError):
    """Contact orders with a divisor component must be at least 1."""


class IndexMismatch(ValueError):
    """A vector does not line up with a stratum's index set."""


class DivergentExponent(ArithmeticError):
    """A contact series fails to converge: some ``1 + a_i + alpha_i <= 0``."""


class SchemaError(ValueError):
    """Outside data rejected; the message starts with the field's path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class MultiplicityVector(tuple):
    """Nonnegative vanishing orders, one per divisor component of a stratum."""

    __slots__ = ()

    def __new__(cls, values):
        if type(values) is cls:  # immutable and already checked
            return values
        values = tuple(_check_int(v, "multiplicity") for v in values)
        if any(v < 0 for v in values):
            raise ValueError("multiplicities must be nonnegative")
        return super().__new__(cls, values)


class SNCStratum(_Frozen):
    """Stratum of the divisor stratification in a d-dimensional space.

    ``index_set`` names the divisor components containing the stratum;
    ``stratum_class`` is the class of the stratum itself, nonzero since
    empty strata are simply omitted.
    """

    __slots__ = ("name", "index_set", "stratum_class", "ambient_dim")

    def __init__(self, name, index_set, stratum_class, ambient_dim):
        index_set = tuple(_check_int(i, "index") for i in index_set)
        if len(set(index_set)) != len(index_set):
            raise ValueError("repeated divisor component in index set")
        if _check_int(ambient_dim, "ambient dimension") < 1:
            raise ValueError("ambient dimension must be positive")
        if len(index_set) > ambient_dim:
            raise ValueError(
                "more divisor components than the ambient dimension")
        if not isinstance(stratum_class, MotiveSeries) or not stratum_class:
            raise ValueError(f"stratum {name!r}: class must be nonzero")
        if not stratum_class.is_exact():
            raise ValueError(f"stratum {name!r}: class must be exact")
        self._set(name=str(name), index_set=index_set,
                  stratum_class=stratum_class, ambient_dim=ambient_dim)


def contact_stratum_measure(stratum: SNCStratum, contacts) -> MotiveSeries:
    """Measure of the arcs with prescribed contact orders at the stratum.

    One factor ``(u-1)`` and one scaling ``u^-e_i`` per component, on
    top of the generic ``u^-d`` for arcs through a d-dimensional space.
    """
    contacts = tuple(_check_int(e, "contact order") for e in contacts)
    if len(contacts) != len(stratum.index_set):
        raise IndexMismatch(
            f"{len(contacts)} contact orders for "
            f"{len(stratum.index_set)} components")
    if any(e < 1 for e in contacts):
        raise BadContact("contact orders must be at least 1")
    r, shift = len(contacts), -sum(contacts) - stratum.ambient_dim
    # (u-1)^r * u^shift, highest power first as the ring's product has it
    row = {shift + r - i: (-1) ** i * comb(r, i) for i in range(r + 1)}
    return MotiveSeries._new(
        _mul_terms(stratum.stratum_class.terms, row, add), NEG_INF, None)


def ord_jac_on_stratum(mults, contacts) -> int:
    """Order of a monomial Jacobian along an arc with these contacts."""
    mults = list(mults)
    contacts = list(contacts)
    if len(mults) != len(contacts):
        raise IndexMismatch(
            f"{len(mults)} multiplicities for {len(contacts)} contacts")
    return sum(_check_int(m, "multiplicity") * _check_int(e, "contact order")
               for m, e in zip(mults, contacts))


class ResolutionData(_Frozen):
    """Strata plus the Jacobian multiplicities of one resolution map."""

    __slots__ = ("strata", "jac_mults")

    def __init__(self, strata, jac_mults):
        strata = tuple(strata)
        (jac_mults,) = _legs(strata, jac_mults)
        self._set(strata=strata, jac_mults=jac_mults)

    @classmethod
    def from_json(cls, data: dict, path="resolution") -> "ResolutionData":
        """Read from JSON; bad data raises :class:`SchemaError` with the
        offending field's path below ``path``."""
        return _resolution_from_json(cls, data, path, ("p_mults",))


class ResolutionDiagram(_Frozen):
    """Strata with the multiplicities of both legs of a resolved map.

    ``p_mults`` belongs to the resolution of the source germ and
    ``q_mults`` to the composite map into the target; both are indexed
    by the same divisor components stratum by stratum.
    """

    __slots__ = ("strata", "p_mults", "q_mults")

    def __init__(self, strata, p_mults, q_mults):
        strata = tuple(strata)
        p_mults, q_mults = _legs(strata, p_mults, q_mults)
        self._set(strata=strata, p_mults=p_mults, q_mults=q_mults)

    def source_data(self) -> ResolutionData:
        return ResolutionData(self.strata, self.p_mults)

    def target_data(self) -> ResolutionData:
        return ResolutionData(self.strata, self.q_mults)

    def stratum_named(self, name: str):
        for s, p, q in zip(self.strata, self.p_mults, self.q_mults):
            if s.name == name:
                return s, p, q
        raise KeyError(f"no stratum named {name!r}")

    @classmethod
    def from_json(cls, data: dict, path="diagram") -> "ResolutionDiagram":
        """Read from JSON; bad data raises :class:`SchemaError` with the
        offending field's path below ``path``."""
        return _resolution_from_json(cls, data, path, ("p_mults", "q_mults"))


def _legs(strata, *legs):
    """Each leg as one :class:`MultiplicityVector` per stratum, sized to
    the stratum's index set; the strata are checked along with each."""
    legs = [tuple(map(MultiplicityVector, leg)) for leg in legs]
    for mults in legs:
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
    return legs


_RULES = {"nonempty": bool, "positive": lambda v: v > 0,
          "nonnegative": lambda v: v >= 0}


def _get(obj, path, key, typ, type_name, rule=None):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = obj[key]
    if typ is int and isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", "expected an integer")
    if not isinstance(value, typ):
        raise SchemaError(f"{path}.{key}", f"expected {type_name}")
    if rule and not _RULES[rule](value):
        raise SchemaError(f"{path}.{key}", f"must be {rule}")
    return value


def _int_list(value, path, rule=None):
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of integers")
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"{path}[{i}]", "expected an integer")
        if rule and not _RULES[rule](v):
            raise SchemaError(f"{path}[{i}]", f"must be {rule}")
    return value


def _parsed(path, parse, *args):
    """``parse(*args)``, a :class:`ParseError` reported against ``path``."""
    try:
        return parse(*args)
    except ParseError as exc:
        raise SchemaError(path, str(exc))


def _resolution_from_json(cls, data, path, legs):
    """``cls(strata, *multiplicity lists)`` from the JSON form.

    Every field is checked, with its path, before any stratum is built;
    a stratum that fails to build is reported against ``path`` itself.
    ``legs`` names the multiplicity fields each stratum entry carries.
    """
    d = _get(data, path, "ambient_dim", int, "an integer", "positive")
    entries = _get(data, path, "strata", list, "a list", "nonempty")
    fields, mults = [], []
    for i, entry in enumerate(entries):
        p = f"{path}.strata[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(p, "expected an object")
        name = _get(entry, p, "name", str, "a string")
        index_set = _int_list(_get(entry, p, "index_set", list, "a list"),
                              f"{p}.index_set")
        cls_value = _parsed(f"{p}.class", parse_motive,
                            _get(entry, p, "class", str, "a class string"))
        fields.append((name, index_set, cls_value))
        mults.append([_int_list(_get(entry, p, leg, list, "a list"),
                                f"{p}.{leg}", "nonnegative")
                      for leg in legs])
    try:
        strata = [SNCStratum(name, index_set, cls_value, d)
                  for name, index_set, cls_value in fields]
        return cls(strata, *zip(*mults))  # one tuple per leg
    except ValueError as exc:
        raise SchemaError(path, str(exc))


# ---------------------------------------------------------------------------
# integration

def _alpha_rows(data, alpha_mults):
    # one alpha vector (None for alpha = 0) per stratum
    if alpha_mults is None:
        return [None] * len(data.strata)
    if len(alpha_mults) != len(data.strata):
        raise IndexMismatch("one alpha vector per stratum required")
    return alpha_mults


def _contact_exponents(stratum, mults, alpha):
    if alpha is None:
        alpha = (0,) * len(stratum.index_set)
    alpha = tuple(_check_int(x, "alpha") for x in alpha)
    if len(alpha) != len(stratum.index_set):
        raise IndexMismatch(
            f"stratum {stratum.name!r}: alpha vector length "
            f"{len(alpha)} does not match the index set")
    ks = tuple(1 + a + x for a, x in zip(mults, alpha))
    for k in ks:
        if k <= 0:
            raise DivergentExponent(_all_digits(
                "stratum {!r}: exponent 1+a+alpha = {} <= 0".format,
                stratum.name, k))
    return ks


def motivic_integral(data: ResolutionData, alpha_mults, floor: int
                     ) -> MotiveSeries:
    """Integral of ``u^-alpha`` over the arcs seen through a resolution.

    ``alpha_mults`` gives, stratum by stratum, the monomial exponents of
    the integrand along the divisor components; ``None`` means alpha = 0
    everywhere, which is the plain measure.  The result keeps its closed
    form; its terms, exact above ``floor``, are expanded from it on
    their first read.  Entries may be negative as long as every combined
    exponent ``1 + a_i + alpha_i`` stays positive; otherwise the contact
    series diverges and :class:`DivergentExponent` is raised.
    """
    _check_int(floor, "floor")
    parts = []
    for stratum, mults, alpha in zip(data.strata, data.jac_mults,
                                     _alpha_rows(data, alpha_mults)):
        ks = _contact_exponents(stratum, mults, alpha)
        parts.append((contact_stratum_measure(stratum, ks).terms, ks))
    return _expand_rational(parts, floor)


def motivic_integral_by_enumeration(data: ResolutionData, alpha_mults,
                                    floor: int) -> MotiveSeries:
    """Same integral, summed contact tuple by contact tuple.

    The cutoff is derived from the floor and provably discards only
    contributions below it, so every returned coefficient is exact.
    """
    total = ZERO
    for stratum, mults, alpha in zip(data.strata, data.jac_mults,
                                     _alpha_rows(data, alpha_mults)):
        ks = _contact_exponents(stratum, mults, alpha)
        weights = tuple(k - 1 for k in ks)  # a_i + alpha_i
        r = len(ks)
        if r == 0:
            total = total + stratum.stratum_class * MotiveSeries(
                {-stratum.ambient_dim: 1})
            continue
        # a tuple contributes in degrees <= top - sum(k_i e_i), so those
        # with sum(k_i e_i) >= budget sit at or below floor
        top = virtual_dim(stratum.stratum_class) + r - stratum.ambient_dim
        budget = top - floor

        def tuples(prefix):
            i = len(prefix)
            if i == r:
                yield prefix
                return
            # sum(k_j e_j) over the prefix, plus its least value over
            # the components after i, whose e_j are at least 1
            rest = sum(k * x for k, x in zip(ks, prefix)) + sum(ks[i + 1:])
            e = 1
            while rest + ks[i] * e <= budget:
                yield from tuples(prefix + (e,))
                e += 1

        for contacts in tuples(()):
            twist = -ord_jac_on_stratum(weights, contacts)
            total = total + contact_stratum_measure(
                stratum, contacts) * MotiveSeries({twist: 1})
    return total.with_floor(floor)


def germ_measure(data: ResolutionData, floor: int) -> MotiveSeries:
    """Measure of the arcs centered in the resolved germ."""
    return motivic_integral(data, None, floor)


def image_measure(diagram: ResolutionDiagram, floor: int) -> MotiveSeries:
    """Measure of the image arcs, computed through the target leg."""
    return motivic_integral(diagram.target_data(), None, floor)


def compare_germ_measures(a: MotiveSeries, b: MotiveSeries) -> str:
    """Order two germ measures; computed ones compare exactly."""
    return leq_order(a, b)
