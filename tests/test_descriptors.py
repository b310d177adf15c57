"""Stable sets, cylinders, measurable sets and their measures."""

import random

import pytest

from arcmeasure import (LaurentPoly, MotiveSeries, germ_measure, parse_motive,
                        virtual_dim)

import catalog
from descriptors import (CylinderDescriptor, InsufficientApproximants,
                         MeasurableDescriptor, SingularAmbient,
                         StableSetDescriptor, disjoint_union_measure,
                         measure_cylinder, measure_measurable, measure_stable,
                         re_level, stable_dim)


def mono(e, c=1):
    return LaurentPoly({e: c})


def test_measure_point_germ():
    # arcs through the origin of R^2, seen at level n: class u^(2n)
    for n in range(4):
        a = StableSetDescriptor(n, mono(2 * n), 2)
        assert measure_stable(a) == mono(-2)


def test_measure_whole_space():
    a = StableSetDescriptor(0, mono(1), 1)
    assert measure_stable(a) == LaurentPoly.one()


def test_measure_empty_set():
    a = StableSetDescriptor(3, LaurentPoly.zero(), 2)
    assert measure_stable(a) == LaurentPoly.zero()


def test_re_level_keeps_measure():
    a = StableSetDescriptor(2, mono(4), 2)
    b = re_level(a, 3)
    assert b.class_at_level == mono(6)
    assert measure_stable(a) == measure_stable(b) == mono(-2)


def test_re_level_identity_and_two_steps():
    a = StableSetDescriptor(1, (mono(1) - 1) * mono(1), 1)
    assert re_level(a, 1) == a
    assert re_level(a, 3).class_at_level == (mono(1) - 1) * mono(3)


def test_re_level_cannot_lower():
    with pytest.raises(ValueError):
        re_level(StableSetDescriptor(2, mono(1), 1), 1)


def test_re_level_invariance_randomized():
    rng = random.Random(404)
    for _ in range(50):
        d = rng.randint(1, 3)
        n = rng.randint(0, 4)
        cls = LaurentPoly({rng.randint(0, 6): rng.randint(-4, 4)
                           for _ in range(3)})
        a = StableSetDescriptor(n, cls, d)
        for shift in range(1, 11):
            assert measure_stable(re_level(a, n + shift)) \
                == measure_stable(a)


def test_stable_dim_formula():
    a = StableSetDescriptor(2, parse_motive("u^5 + u"), 3)
    assert stable_dim(a) == 5 - 9
    assert virtual_dim(measure_stable(a)) == stable_dim(a)


@pytest.mark.parametrize("bad", [1.9, 1.0, True, "1", None])
@pytest.mark.parametrize("field", ["level", "dim"])
def test_descriptor_rejects_non_int_level_and_dim(field, bad):
    # these were truncated or accepted: level 1.9 built level 1
    data = {"level": 1, "dim": 1, field: bad}
    with pytest.raises(TypeError):
        StableSetDescriptor(data["level"], mono(1), data["dim"])
    with pytest.raises(TypeError):
        CylinderDescriptor(data["level"], mono(1), data["dim"]).as_stable()


@pytest.mark.parametrize("build, error", [
    (lambda: StableSetDescriptor(-1, mono(1), 1), ValueError),
    (lambda: StableSetDescriptor(1, mono(1), 0), ValueError),
    (lambda: MeasurableDescriptor([(mono(1), -3)]), TypeError),
    (lambda: catalog.blowup_data(0), ValueError),
], ids=["negative-level", "zero-dim", "approximant-not-stable",
        "blowup-of-no-space"])
def test_descriptors_reject_out_of_range_input(build, error):
    with pytest.raises(error):
        build()


# ---------------------------------------------------------------------------
# cylinders

def test_cylinder_origin_level_zero():
    c = CylinderDescriptor(0, LaurentPoly.one(), 1)
    assert measure_cylinder(c) == mono(-1)


def test_cylinder_order_exactly_one():
    c = CylinderDescriptor(1, mono(1) - 1, 1)
    assert measure_cylinder(c) == (mono(1) - 1) * mono(-2)


def test_cylinder_full_base():
    n, d = 3, 2
    c = CylinderDescriptor(n, mono((n + 1) * d), d)
    assert measure_cylinder(c) == LaurentPoly.one()


def test_cylinder_level_presentation_invariance():
    c = CylinderDescriptor(1, mono(1) - 1, 1)
    pulled = CylinderDescriptor(2, (mono(1) - 1) * mono(1), 1)
    assert measure_cylinder(c) == measure_cylinder(pulled)


def test_cylinder_singular_ambient_refused():
    c = CylinderDescriptor(0, LaurentPoly.one(), 1,
                           nonsingular_ambient=False)
    with pytest.raises(SingularAmbient):
        measure_cylinder(c)


# ---------------------------------------------------------------------------
# measurable sets

def test_measurable_from_stable():
    a = StableSetDescriptor(0, LaurentPoly.one(), 1)
    m = MeasurableDescriptor.wrap_stable(a, -50)
    assert measure_measurable(m, -8) == MotiveSeries({-1: 1}, -8)


def test_measurable_needs_deep_enough_approximant():
    a = StableSetDescriptor(0, LaurentPoly.one(), 1)
    m = MeasurableDescriptor.wrap_stable(a, -4)
    with pytest.raises(InsufficientApproximants):
        measure_measurable(m, -5)  # only certified down to -4


def test_measurable_empty_list():
    m = MeasurableDescriptor(())
    with pytest.raises(InsufficientApproximants):
        measure_measurable(m, -5)


def test_measurable_accepts_any_iterable_and_hashes():
    a = StableSetDescriptor(0, LaurentPoly.one(), 1)
    b = StableSetDescriptor(1, mono(1), 1)
    pairs = [(a, -3), (b, -6)]
    m = MeasurableDescriptor(x for x in pairs)
    assert m == MeasurableDescriptor(pairs)
    assert hash(m) == hash(MeasurableDescriptor(pairs))
    assert measure_measurable(m, -5) == measure_measurable(
        MeasurableDescriptor(pairs), -5) == MotiveSeries({-1: 1}, -5)


def test_measurable_bounds_must_decrease():
    a = StableSetDescriptor(0, LaurentPoly.one(), 1)
    with pytest.raises(ValueError):
        MeasurableDescriptor(((a, -3), (a, -3)))


def test_measurable_cusp_exhaustion_matches_resolution():
    """Partial contact-strata sums converge to the resolution measure.

    The level-3k approximant covers contacts e <= k and errs only in
    dimensions at or below -(2k+2).
    """
    floor = -12
    partial = LaurentPoly.zero()
    approximants = []
    for e in range(1, 8):
        # contact-e arcs through the cusp normalization, pushed forward
        partial = partial + (mono(1) - 1) * mono(-2 * e - 1)
        level = 3 * e
        cls = partial * mono(level + 1)
        # the missing tail starts at degree -2e-2, strictly below -2e-1
        approximants.append((StableSetDescriptor(level, cls, 1),
                             -(2 * e + 1)))
    m = MeasurableDescriptor(tuple(approximants))
    assert measure_measurable(m, floor) \
        == germ_measure(catalog.cusp_data(), floor)


# ---------------------------------------------------------------------------
# disjoint unions

def test_union_of_two_stable_sets():
    a = MeasurableDescriptor.wrap_stable(
        StableSetDescriptor(0, LaurentPoly.one(), 1), -40)
    b = MeasurableDescriptor.wrap_stable(
        StableSetDescriptor(1, mono(1) - 1, 1), -40)
    out = disjoint_union_measure([a, b], -6)
    assert out == MotiveSeries.from_poly(
        mono(-1) + (mono(1) - 1) * mono(-2), -6)


def test_union_contact_strata_telescope():
    # C_e strata of arcs at the origin of the line, e = 1..K
    floor = -10
    parts = []
    for e in range(1, 12):
        stable = StableSetDescriptor(e, mono(1) - 1, 1)
        parts.append(MeasurableDescriptor.wrap_stable(stable, -40))
    out = disjoint_union_measure(parts, floor)
    assert out == MotiveSeries({-1: 1}, floor)


def test_union_single_part():
    a = MeasurableDescriptor.wrap_stable(
        StableSetDescriptor(0, mono(2), 2), -30)
    assert disjoint_union_measure([a], -5) \
        == MotiveSeries.from_poly(mono(0), -5)


def test_union_additivity_randomized():
    rng = random.Random(99)
    for _ in range(30):
        floor = -rng.randint(5, 12)
        parts = []
        total = LaurentPoly.zero()
        for _ in range(rng.randint(1, 4)):
            cls = LaurentPoly({rng.randint(0, 5): rng.randint(-3, 3)
                               for _ in range(2)})
            n, d = rng.randint(0, 3), rng.randint(1, 2)
            stable = StableSetDescriptor(n, cls, d)
            parts.append(MeasurableDescriptor.wrap_stable(stable, floor - 1))
            total = total + measure_stable(stable)
        assert disjoint_union_measure(parts, floor) \
            == MotiveSeries.from_poly(total, floor)
