"""Descriptors for arc sets whose measure is determined at a finite level.

A stable set is pinned down by its image at some truncation level n
together with the class of that image; deeper levels fiber over it with
affine fibers, so the measure is the class rescaled by ``u^-(n+1)d``.
Measurable sets carry a list of stable approximants with declared error
dimensions.  The calculus here only manipulates declared data; it never
verifies set containment, which is the caller's geometry.  No command
line kind reaches this bookkeeping; the tests keep it to check the
measure calculus against stable-set presentations.
"""

from __future__ import annotations

from arcmeasure.grothendieck import (MotiveSeries, _all_digits, _check_int,
                                    _Frozen, virtual_dim)


class SingularAmbient(ValueError):
    """Cylinder measure requested without a nonsingular ambient space."""


class InsufficientApproximants(ValueError):
    """No recorded approximant reaches the requested precision."""


class StableSetDescriptor(_Frozen):
    """Arc set determined at truncation level ``level``.

    ``class_at_level`` is the class of the level-n image; ``ambient_dim``
    the dimension of the ambient nonsingular space the arcs live in.
    """

    __slots__ = ("level", "class_at_level", "ambient_dim")

    def __init__(self, level, class_at_level, ambient_dim):
        if _check_int(level, "level") < 0:
            raise ValueError("level must be nonnegative")
        if _check_int(ambient_dim, "ambient dimension") < 1:
            raise ValueError("ambient dimension must be positive")
        self._set(level=level, class_at_level=class_at_level,
                  ambient_dim=ambient_dim)


def measure_stable(a: StableSetDescriptor) -> MotiveSeries:
    """Class at level n rescaled by the fiber count, ``u^-(n+1)d``."""
    shift = -(a.level + 1) * a.ambient_dim
    return a.class_at_level * MotiveSeries({shift: 1})


def re_level(a: StableSetDescriptor, new_level: int) -> StableSetDescriptor:
    """Present the same stable set at a deeper truncation level.

    Each level step multiplies the image class by ``u^d``, one affine
    fiber per ambient coordinate, so the measure is unchanged.
    """
    if new_level < a.level:
        raise ValueError("cannot lower the level of a stable set")
    factor = MotiveSeries({a.ambient_dim * (new_level - a.level): 1})
    return StableSetDescriptor(level=new_level,
                               class_at_level=a.class_at_level * factor,
                               ambient_dim=a.ambient_dim)


def stable_dim(a: StableSetDescriptor):
    """Virtual dimension of the stable set's measure."""
    return virtual_dim(measure_stable(a))


class CylinderDescriptor(_Frozen):
    """Preimage of a constructible set of finite jets.

    ``nonsingular_ambient`` records the hypothesis under which the
    cylinder is stable; without it no measure is assigned here.
    """

    __slots__ = ("level", "base_class", "ambient_dim", "nonsingular_ambient")

    def __init__(self, level, base_class, ambient_dim,
                 nonsingular_ambient=True):
        self._set(level=level, base_class=base_class, ambient_dim=ambient_dim,
                  nonsingular_ambient=nonsingular_ambient)

    def as_stable(self) -> StableSetDescriptor:
        if not self.nonsingular_ambient:
            raise SingularAmbient(
                "cylinder over a singular ambient space need not be stable")
        return StableSetDescriptor(level=self.level,
                                   class_at_level=self.base_class,
                                   ambient_dim=self.ambient_dim)


def measure_cylinder(c: CylinderDescriptor) -> MotiveSeries:
    return measure_stable(c.as_stable())


class MeasurableDescriptor(_Frozen):
    """Stable approximants with strictly decreasing error dimensions.

    Each entry pairs a stable descriptor with an integer bound strictly
    above the dimension of the symmetric-difference error it leaves.
    """

    __slots__ = ("approximants",)

    def __init__(self, approximants):
        # an empty tuple is a legal descriptor; it just cannot be measured
        approximants = tuple(approximants)
        bounds = [b for _, b in approximants]
        for m0, m1 in zip(bounds, bounds[1:]):
            if m1 >= m0:
                raise ValueError("error bounds must strictly decrease")
        for a, _ in approximants:
            if not isinstance(a, StableSetDescriptor):
                raise TypeError("approximants must be stable descriptors")
        self._set(approximants=approximants)

    @classmethod
    def wrap_stable(cls, a: StableSetDescriptor,
                    error_dim_bound: int) -> "MeasurableDescriptor":
        """A stable set is measurable with any error bound at all."""
        return cls(approximants=((a, error_dim_bound),))


def measure_measurable(m: MeasurableDescriptor, floor: int) -> MotiveSeries:
    """Measure to the requested precision floor.

    The bounds strictly decrease, so the final approximant's bound is at
    or below the floor whenever any bound is, and it is the one used.
    Coefficients above the floor agree for every such approximant.
    """
    if not m.approximants or m.approximants[-1][1] > floor:
        raise InsufficientApproximants(_all_digits(
            "no approximant with error bound <= {}".format, floor))
    return measure_stable(m.approximants[-1][0]).with_floor(floor)


def disjoint_union_measure(parts, floor: int) -> MotiveSeries:
    """Sum of the parts' measures at a common precision floor."""
    total = MotiveSeries({}, floor)
    for part in parts:
        total = total + measure_measurable(part, floor)
    return total
