"""Worked examples wired up once for the tests.

Everything here is desk-checkable: the germ of a line, the cuspidal
cubic with its normalization, point blow-ups of affine space, and the
maps between them given as resolution diagrams.
"""

from __future__ import annotations

from arcmeasure.grothendieck import ONE, MotiveSeries
from arcmeasure.measure import ResolutionData, ResolutionDiagram, SNCStratum


def line_data() -> ResolutionData:
    """The germ of a line through its identity resolution.

    One divisor point at the origin, no Jacobian vanishing; summing the
    contact strata telescopes to the measure ``u^-1``.
    """
    origin = SNCStratum("origin", (0,), ONE, 1)
    return ResolutionData((origin,), ((0,),))


def cusp_data() -> ResolutionData:
    """The cusp germ seen through its normalization.

    The parameter line maps onto the curve with Jacobian vanishing to
    order one at the preimage of the singular point.
    """
    origin = SNCStratum("origin", (0,), ONE, 1)
    return ResolutionData((origin,), ((1,),))


def identity_data(dim: int) -> ResolutionData:
    """A d-dimensional germ resolved by nothing at all.

    The center is a single point carrying no divisor constraint, so the
    measure is read off exactly as ``u^-d``.
    """
    center = SNCStratum("center", (), ONE, dim)
    return ResolutionData((center,), ((),))


def blowup_data(dim: int) -> ResolutionData:
    """Point blow-up of d-space: one exceptional divisor.

    The divisor is a projective space of dimension d-1, class
    ``1 + u + ... + u^(d-1)``, and the Jacobian vanishes on it to order
    d-1.  For d = 1 this degenerates to the identity picture.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    cls = MotiveSeries({i: 1 for i in range(dim)})
    e = SNCStratum("E", (0,), cls, dim)
    return ResolutionData((e,), ((dim - 1,),))


def double_blowup_data() -> ResolutionData:
    """Two successive point blow-ups of the plane.

    Three strata: the first exceptional curve minus the second center,
    the second exceptional curve minus the intersection point, and the
    normal crossing point of the two curves.  Jacobian orders 1 and 2 on
    the two divisors.
    """
    d = 2
    u = MotiveSeries.monomial(1)
    strata = (
        SNCStratum("E1_open", (0,), u, d),
        SNCStratum("E2_open", (1,), u, d),
        SNCStratum("E1_E2", (0, 1), ONE, d),
    )
    return ResolutionData(strata, ((1,), (2,), (1, 2)))


def _with_q(data: ResolutionData, q_vectors) -> ResolutionDiagram:
    return ResolutionDiagram(data.strata, data.jac_mults, q_vectors)


def identity_diagram(dim: int) -> ResolutionDiagram:
    """Identity map of a d-dimensional germ, both legs trivial."""
    return _with_q(identity_data(dim), ((),))


def cusp_normalization_diagram() -> ResolutionDiagram:
    """The normalization line -> cusp: source leg trivial, target order 1."""
    return _with_q(line_data(), ((1,),))


def cusp_to_line_diagram() -> ResolutionDiagram:
    """The inverse direction cusp -> line: Jacobian bounded below."""
    return _with_q(cusp_data(), ((0,),))
