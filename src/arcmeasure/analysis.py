"""Boundedness checks and certified verdicts about resolved maps.

Everything here consumes the combinatorial shadow of a resolved map:
per stratum, the multiplicity vectors of the two Jacobians.  Their
difference paired with a contact vector gives the Jacobian order of the
map along any arc with those contacts, so boundedness of the Jacobian
reduces to componentwise comparisons, and the measure statements reduce
to order comparisons in the coefficient ring.

Reports never output a positive conclusion on partial evidence.  Each
hypothesis is checked and recorded; one failure downgrades the verdict
to Inconclusive with the failing certificate attached.
"""

from __future__ import annotations

from .grothendieck import DEFAULT_FLOOR, Order, _Frozen, leq_order
from .measure import ResolutionDiagram, image_measure, ord_jac_on_stratum


class Conclusion:
    INVERSE_ARC_ANALYTIC = "InverseArcAnalytic"
    MEASURE_INEQUALITY = "MeasureInequality"
    INCONCLUSIVE = "Inconclusive"


def ord_jac_f(diagram: ResolutionDiagram, stratum_name: str,
              contacts) -> int:
    """Jacobian order of the map along arcs with the given contacts.

    The chain rule splits the order into target minus source leg, and on
    monomial data both legs are dot products with the contact vector.
    """
    _, p, q = diagram.stratum_named(stratum_name)
    contacts = list(contacts)
    return ord_jac_on_stratum(q, contacts) - ord_jac_on_stratum(p, contacts)


class BoundednessVerdict(_Frozen):
    """Outcome of the two boundedness questions, with counterexamples.

    A witness is a ``(stratum name, contact vector)`` pair on which
    :func:`ord_jac_f` has the offending sign; it is present exactly when
    the corresponding flag is False.
    """

    __slots__ = ("bounded_above", "bounded_below", "witness_above",
                 "witness_below")

    def __init__(self, bounded_above, bounded_below, witness_above=None,
                 witness_below=None):
        if bounded_above == (witness_above is not None):
            raise ValueError("witness_above must accompany a failed bound")
        if bounded_below == (witness_below is not None):
            raise ValueError("witness_below must accompany a failed bound")
        self._set(bounded_above=bounded_above, bounded_below=bounded_below,
                  witness_above=witness_above, witness_below=witness_below)


def _violating_contacts(deltas, position):
    """Contact vector making a single sign violation dominate.

    ``deltas[position]`` has the wrong sign; the remaining components
    are held at contact 1 and the violating one is scaled until it
    outweighs their combined contribution.
    """
    opposing = sum(d for i, d in enumerate(deltas)
                   if i != position and d * deltas[position] < 0)
    scale = 1 + abs(opposing) // abs(deltas[position])
    return tuple(scale if i == position else 1
                 for i in range(len(deltas)))


def check_boundedness(diagram: ResolutionDiagram) -> BoundednessVerdict:
    """Decide both Jacobian bounds from the multiplicity data.

    Bounded above means the order is nonnegative along every arc, which
    on monomial data is the componentwise comparison p <= q over every
    stratum; bounded below is the reverse comparison.  The witnesses
    returned on failure are explicit contact vectors, checkable through
    :func:`ord_jac_f`.
    """
    witness_above = witness_below = None
    for s, p, q in zip(diagram.strata, diagram.p_mults, diagram.q_mults):
        deltas = [qi - pi for pi, qi in zip(p, q)]
        for i, d in enumerate(deltas):
            if d < 0 and witness_above is None:
                witness_above = (s.name, _violating_contacts(deltas, i))
            if d > 0 and witness_below is None:
                witness_below = (s.name, _violating_contacts(deltas, i))
        if witness_above and witness_below:
            break
    return BoundednessVerdict(bounded_above=witness_above is None,
                              bounded_below=witness_below is None,
                              witness_above=witness_above,
                              witness_below=witness_below)


class TheoremReport(_Frozen):
    """Verdict plus the full account of what was checked to reach it.

    Measure certificates are series, rendered only when printed: dump
    :meth:`to_json` with ``json.dumps(..., default=render)``.
    """

    __slots__ = ("conclusion", "hypotheses_checked", "certificates")

    def __init__(self, conclusion, hypotheses_checked, certificates):
        self._set(conclusion=conclusion,
                  hypotheses_checked=hypotheses_checked,
                  certificates=certificates)

    def to_json(self) -> dict:
        return {
            "conclusion": self.conclusion,
            "hypotheses": [
                {"name": n, "status": st, "detail": d}
                for n, st, d in self.hypotheses_checked],
            "certificates": dict(sorted(self.certificates.items())),
        }


def _bound_hypothesis(verdict, side, hypotheses, certificates):
    """Record the Jacobian bound on ``side`` ("below" or "above").

    A failed bound also records its witness; returns whether it holds.
    """
    ok = getattr(verdict, f"bounded_{side}")
    rule = "q <= p" if side == "below" else "p <= q"
    hypotheses.append((f"jacobian_bounded_{side}", "pass" if ok else "fail",
                       f"componentwise {rule} on every stratum" if ok
                       else "violating contact vector recorded"))
    if not ok:
        name, contacts = getattr(verdict, f"witness_{side}")
        certificates[f"witness_{side}"] = {"stratum": name,
                                           "contacts": list(contacts)}
    return ok


def inverse_mapping_report(diagram: ResolutionDiagram, mu_x, mu_y,
                           floor=DEFAULT_FLOOR) -> TheoremReport:
    """Certify that the inverse of a measure-preserving map behaves.

    Requires equality of the two germ measures and a Jacobian bounded
    below.  On top of the hypotheses, two internal certificates must
    come out right: the image measure computed through the target leg
    must reproduce the target measure, and the Jacobian must also be
    bounded above.  Any failure yields Inconclusive and names the
    failing item; a comparison that a floored literal measure cannot
    settle raises :class:`PrecisionExhausted` instead of concluding.
    The image measure keeps its exact closed form, so ``floor`` only
    sets where its printed certificate stops.
    """
    hypotheses = []
    certificates = {"mu_x": mu_x, "mu_y": mu_y}
    verdict = check_boundedness(diagram)
    order = leq_order(mu_x, mu_y)
    certificates["measure_order"] = order

    equal = order == Order.EQUAL
    hypotheses.append(("measures_equal", "pass" if equal else "fail",
                       f"leq_order returned {order}"))
    bounded = _bound_hypothesis(verdict, "below", hypotheses, certificates)
    conclusion = Conclusion.INCONCLUSIVE
    if equal and bounded:
        image = image_measure(diagram, floor)
        certificates["image_measure"] = image
        image_order = leq_order(image, mu_y)
        ok = image_order == Order.EQUAL
        hypotheses.append(("image_measure_matches_target",
                           "pass" if ok else "fail",
                           f"leq_order returned {image_order}"))
        if ok and _bound_hypothesis(verdict, "above", hypotheses,
                                    certificates):
            conclusion = Conclusion.INVERSE_ARC_ANALYTIC
    return TheoremReport(conclusion, tuple(hypotheses), certificates)


def measure_comparison_report(diagram: ResolutionDiagram, mu_x, mu_y
                              ) -> TheoremReport:
    """Certify the measure inequality forced by a bounded-below Jacobian.

    With the Jacobian bounded below, the source measure cannot exceed
    the target measure.  A comparison coming out Greater therefore
    contradicts the supplied data and is reported as such rather than
    glossed over.
    """
    hypotheses = []
    certificates = {"mu_x": mu_x, "mu_y": mu_y}
    verdict = check_boundedness(diagram)
    conclusion = Conclusion.INCONCLUSIVE
    if _bound_hypothesis(verdict, "below", hypotheses, certificates):
        order = leq_order(mu_x, mu_y)
        certificates["measure_order"] = order
        ok = order in (Order.LESS, Order.EQUAL)
        hypotheses.append(("measures_comparable", "pass" if ok else "fail",
                           f"leq_order returned {order}"))
        if ok:
            conclusion = Conclusion.MEASURE_INEQUALITY
        else:
            certificates["contradiction"] = (
                "source measure exceeds target measure although the "
                "Jacobian is bounded below; the supplied data is "
                "inconsistent")
    return TheoremReport(conclusion, tuple(hypotheses), certificates)


def inner_lipschitz_probe(entries, arcs) -> int | None:
    """Sample the entrywise Jacobian bound along supplied test arcs.

    ``entries`` are the chart Jacobian matrix entries, polynomials or
    (numerator, denominator) pairs.  Returns the index of the first arc
    along which some entry has negative exact order, which disproves
    boundedness above, or ``None`` when every probe is nonnegative.
    ``None`` is evidence only, not a verdict: this is a sampling
    semi-decision, and arcs must avoid the loci where the entries are
    undefined.  Certified bounds come from :func:`check_boundedness`.
    """
    from .series import matrix_entry_orders  # only this probe needs it
    arcs = list(arcs)
    if not arcs:
        raise ValueError("need at least one probe arc")
    for idx, arc in enumerate(arcs):
        order = matrix_entry_orders(entries, arc)
        # an inexact result is a bound >= 1, so only exact orders disprove
        if order.exact and order.value < 0:
            return idx
    return None
