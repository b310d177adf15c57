"""Resolution-data integrals: closed form against brute enumeration."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmeasure import (BadContact, DivergentExponent, IndexMismatch,
                        LaurentPoly, MotiveSeries, MultiplicityVector, Order,
                        ResolutionData, ResolutionDiagram, SNCStratum,
                        compare_germ_measures, contact_stratum_measure,
                        geometric_sum, germ_measure, image_measure,
                        motivic_integral, motivic_integral_by_enumeration,
                        ord_jac_on_stratum, parse_motive, render, virtual_dim)
from arcmeasure import catalog


def mono(e, c=1):
    return LaurentPoly({e: c})


def cusp_series(floor):
    terms = {}
    i = 0
    while -2 - 2 * i > floor:
        terms[-2 - 2 * i] = 1
        if -3 - 2 * i > floor:
            terms[-3 - 2 * i] = -1
        i += 1
    return MotiveSeries(terms, floor)


# ---------------------------------------------------------------------------
# contact strata

def test_contact_measure_point_on_line():
    s = SNCStratum("origin", (0,), LaurentPoly.one(), 1)
    for e in (1, 2, 5):
        assert contact_stratum_measure(s, (e,)) \
            == (mono(1) - 1) * mono(-e - 1)


def test_contact_measure_exceptional_curve():
    s = SNCStratum("E", (0,), mono(1) + 1, 2)
    assert contact_stratum_measure(s, (3,)) \
        == (mono(1) + 1) * (mono(1) - 1) * mono(-5)


def test_contact_measure_free_center():
    s = SNCStratum("U", (), mono(2, 5), 2)
    assert contact_stratum_measure(s, ()) == mono(0, 5)


def test_contact_measure_brute_jet_count():
    """Free-coefficient count at a finite level reproduces the formula.

    At level n, arcs with contact e to each of the |I| divisor
    directions fix e leading zeros and one unit in those coordinates and
    leave everything else free.
    """
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(1, 3)
        r = rng.randint(0, d)
        e = tuple(rng.randint(1, 4) for _ in range(r))
        s = SNCStratum("s", tuple(range(r)), LaurentPoly.one(), d)
        n = max(e, default=0) + rng.randint(1, 3)
        # jets at level n: (u-1)u^(n-e_i) per contact direction,
        # u^n per transverse direction times the class
        cls = LaurentPoly.one()
        for ei in e:
            cls = cls * (mono(1) - 1) * mono(n - ei)
        cls = cls * mono(n * (d - r))
        assert contact_stratum_measure(s, e) \
            == cls * mono(-(n + 1) * d)


def test_contact_rejects_low_contact():
    s = SNCStratum("s", (0,), LaurentPoly.one(), 1)
    with pytest.raises(BadContact):
        contact_stratum_measure(s, (0,))
    with pytest.raises(IndexMismatch):
        contact_stratum_measure(s, (1, 2))


def test_ord_jac_on_stratum_dot_product():
    assert ord_jac_on_stratum(MultiplicityVector((1,)), (3,)) == 3
    assert ord_jac_on_stratum(MultiplicityVector((2, 1)), (1, 4)) == 6
    assert ord_jac_on_stratum(MultiplicityVector((0,)), (9,)) == 0


# ---------------------------------------------------------------------------
# stratum data validation

def test_stratum_validation():
    with pytest.raises(ValueError):
        SNCStratum("s", (0, 0), LaurentPoly.one(), 2)  # repeated divisor
    with pytest.raises(ValueError):
        SNCStratum("s", (0, 1), LaurentPoly.one(), 1)  # |I| > d
    with pytest.raises(ValueError):
        SNCStratum("s", (0,), LaurentPoly.zero(), 1)  # empty stratum


def test_resolution_data_validation():
    s = SNCStratum("s", (0,), LaurentPoly.one(), 1)
    with pytest.raises(IndexMismatch):
        ResolutionData((s,), (MultiplicityVector((1, 2)),))
    t = SNCStratum("s", (0,), LaurentPoly.one(), 2)
    with pytest.raises(ValueError):  # duplicate names
        ResolutionData((t, t), (MultiplicityVector((1,)),) * 2)


def test_resolution_json_round_trip():
    data = catalog.double_blowup_data()
    again = ResolutionData.from_json(data.to_json())
    assert again == data


def test_diagram_json_round_trip():
    diag = catalog.cusp_to_line_diagram()
    again = ResolutionDiagram.from_json(diag.to_json())
    assert again == diag
    assert diag.to_json()["strata"][0]["q_mults"] == [0]


# ---------------------------------------------------------------------------
# integrals: catalog closed forms

def test_line_measure():
    assert germ_measure(catalog.line_data(), -10) \
        == MotiveSeries({-1: 1}, -10)


def test_cusp_measure_alternating_series():
    for floor in (-6, -10, -30):
        assert germ_measure(catalog.cusp_data(), floor) \
            == cusp_series(floor)


def test_identity_measure_is_exact():
    for d in (1, 2, 3, 4):
        out = germ_measure(catalog.identity_data(d), -40)
        assert out == MotiveSeries({-d: 1})
        assert out.is_exact()


def test_blowup_measure_matches_identity():
    for d in (1, 2, 3, 4):
        out = germ_measure(catalog.blowup_data(d), -40)
        assert out == MotiveSeries({-d: 1}, -40)


def test_double_blowup_still_u_minus_two():
    assert germ_measure(catalog.double_blowup_data(), -25) \
        == MotiveSeries({-2: 1}, -25)


def test_catalog_measure_dims():
    # dim of the germ measure is minus the dimension of the space the
    # germ sits in: the cusp curve lives in the plane, hence -2 even
    # though its normalization is a line
    cases = [(catalog.line_data(), 1), (catalog.cusp_data(), 2),
             (catalog.identity_data(3), 3), (catalog.blowup_data(2), 2),
             (catalog.double_blowup_data(), 2)]
    for data, d in cases:
        assert virtual_dim(germ_measure(data, -20)) == -d


def test_stratum_additivity():
    a = SNCStratum("a", (0,), LaurentPoly.one(), 1)
    b = SNCStratum("b", (1,), mono(0, 2), 1)
    joint = ResolutionData(
        (a, b), (MultiplicityVector((1,)), MultiplicityVector((0,))))
    parts = [ResolutionData((a,), (MultiplicityVector((1,)),)),
             ResolutionData((b,), (MultiplicityVector((0,)),))]
    floor = -15
    split = sum((germ_measure(p, floor) for p in parts),
                MotiveSeries({}, floor))
    assert germ_measure(joint, floor) == split


# ---------------------------------------------------------------------------
# integrals with alpha twists

def test_integral_with_positive_alpha():
    # alpha = 1 on the line's divisor point: sum over e of
    # (u-1)u^(-e-1) * u^(-2e), leading term (u-1)u^-4... = u^-2 - ...
    out = motivic_integral(catalog.line_data(), [[1]], -12)
    brute = motivic_integral_by_enumeration(catalog.line_data(), [[1]], -12)
    assert out == brute
    assert virtual_dim(out) == -2


def test_integral_negative_alpha_can_converge():
    # combined exponent 1 + 1 + (-1) = 1 stays positive
    out = motivic_integral(catalog.cusp_data(), [[-1]], -10)
    assert out == germ_measure(catalog.line_data(), -10)


def test_integral_divergence_detected():
    with pytest.raises(DivergentExponent):
        motivic_integral(catalog.line_data(), [[-1]], -10)
    with pytest.raises(DivergentExponent):
        motivic_integral(catalog.cusp_data(), [[-2]], -10)


def test_integral_alpha_arity_checked():
    with pytest.raises(IndexMismatch):
        motivic_integral(catalog.line_data(), [[1], [2]], -10)
    with pytest.raises(IndexMismatch):
        motivic_integral(catalog.line_data(), [[1, 2]], -10)


# ---------------------------------------------------------------------------
# the dual route: closed form vs tuple enumeration

def test_enumeration_matches_closed_form_on_catalog():
    floor = -30
    for data in (catalog.line_data(), catalog.cusp_data(),
                 catalog.identity_data(2), catalog.blowup_data(3),
                 catalog.double_blowup_data()):
        closed = germ_measure(data, floor).with_floor(floor)
        brute = motivic_integral_by_enumeration(data, None, floor)
        assert closed == brute


def test_enumeration_with_explicit_cutoff():
    floor = -18
    closed = germ_measure(catalog.cusp_data(), floor)
    brute = motivic_integral_by_enumeration(
        catalog.cusp_data(), None, floor, max_total_contact=40)
    assert closed == brute


def test_enumeration_cutoff_raises_floor():
    # e = 3 is the first dropped contact; it reaches u^-6
    floor = -16
    brute = motivic_integral_by_enumeration(
        catalog.cusp_data(), None, floor, max_total_contact=2)
    assert render(brute) == "u^-2 - u^-3 + u^-4 - u^-5 + O(u^-6)"
    assert brute == germ_measure(catalog.cusp_data(), floor).with_floor(-6)


def test_enumeration_cutoff_below_index_set_size():
    # no tuple fits: the floor sits at the top of the smallest tuple
    data = catalog.double_blowup_data()
    brute = motivic_integral_by_enumeration(data, None, -30,
                                            max_total_contact=0)
    closed = germ_measure(data, -30)
    assert brute == closed.with_floor(brute.floor)


def test_enumeration_matches_closed_form_randomized():
    rng = random.Random(7341)
    floor = -20
    for _ in range(60):
        d = rng.randint(1, 4)
        strata, mults = [], []
        for k in range(rng.randint(1, 3)):
            r = rng.randint(0, min(2, d))
            cls = LaurentPoly({rng.randint(0, 5): rng.randint(-4, 4)
                               for _ in range(rng.randint(1, 3))})
            if not cls:
                cls = LaurentPoly.one()
            strata.append(SNCStratum(f"s{k}", tuple(range(r)), cls, d))
            mults.append(MultiplicityVector(
                tuple(rng.randint(0, 4) for _ in range(r))))
        data = ResolutionData(tuple(strata), tuple(mults))
        alpha = [tuple(rng.randint(-1, 2) for _ in s.index_set)
                 for s in data.strata]
        try:
            closed = motivic_integral(data, alpha, floor).with_floor(floor)
        except DivergentExponent:
            continue
        brute = motivic_integral_by_enumeration(data, alpha, floor)
        assert closed == brute


# ---------------------------------------------------------------------------
# germ and image measures through diagrams

def test_image_equals_germ_when_mults_agree():
    diag = catalog.identity_diagram(2)
    assert image_measure(diag, -14) == germ_measure(diag.source_data(), -14)


def test_cusp_parametrization_image():
    diag = catalog.cusp_normalization_diagram()
    assert image_measure(diag, -16) == cusp_series(-16)
    assert germ_measure(diag.source_data(), -16) == MotiveSeries({-1: 1}, -16)


def test_unramified_target():
    diag = catalog.cusp_to_line_diagram()
    assert image_measure(diag, -9) == MotiveSeries({-1: 1}, -9)


def test_compare_cusp_with_line():
    floor = -13
    cusp = germ_measure(catalog.cusp_data(), floor)
    line = germ_measure(catalog.line_data(), floor)
    assert compare_germ_measures(cusp, line) == Order.LESS
    assert compare_germ_measures(line, cusp) == Order.GREATER


def test_compare_trivial_cases():
    a = germ_measure(catalog.identity_data(2), -10)
    assert compare_germ_measures(a, a) == Order.EQUAL
    assert compare_germ_measures(MotiveSeries({-2: 1}),
                                 MotiveSeries({-1: 1})) == Order.LESS


def test_compare_requires_common_floor():
    a = germ_measure(catalog.cusp_data(), -8)
    b = germ_measure(catalog.cusp_data(), -12)
    with pytest.raises(ValueError):
        compare_germ_measures(a, b)


# ---------------------------------------------------------------------------
# the closed form against the product of truncated geometric sums

def product_closed_form(data, alpha_mults, floor):
    """Each stratum's prefactor times one truncated geometric sum per k."""
    if alpha_mults is None:
        alpha_mults = [None] * len(data.strata)
    total = None
    for stratum, mults, alpha in zip(data.strata, data.jac_mults,
                                     alpha_mults):
        alpha = alpha or (0,) * len(mults)
        ks = [1 + a + x for a, x in zip(mults, alpha)]
        prefactor = stratum.stratum_class * mono(-stratum.ambient_dim)
        for k in ks:
            prefactor = prefactor * (mono(1) - 1) * mono(-k)
        part = MotiveSeries.from_poly(prefactor)
        if ks:
            # deep enough that the prefactor keeps the tail below floor
            working = min(floor - int(prefactor.degree), -1)
            for k in ks:
                part = part * geometric_sum(k, working)
            part = part.with_floor(floor)
        total = part if total is None else total + part
    return total


@st.composite
def resolutions(draw):
    """Resolution data and an alpha with every 1 + a_i + alpha_i >= 1."""
    d = draw(st.integers(1, 3))
    strata, mults, alpha = [], [], []
    for i in range(draw(st.integers(1, 4))):
        r = draw(st.integers(0, min(3, d)))
        # class degrees reach past d
        cls = LaurentPoly(draw(st.dictionaries(
            st.integers(-2, d + 3), st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)),
            min_size=1, max_size=3)))
        a = [draw(st.integers(0, 3)) for _ in range(r)]
        strata.append(SNCStratum(f"s{i}", tuple(range(r)), cls, d))
        mults.append(MultiplicityVector(a))
        alpha.append(tuple(draw(st.integers(-x, 2)) for x in a))
    return ResolutionData(tuple(strata), tuple(mults)), alpha


@settings(max_examples=60, deadline=None)
@given(resolutions(), st.integers(-60, -1))
def test_closed_form_matches_product_and_enumeration(res, floor):
    data, alpha = res
    closed = motivic_integral(data, alpha, floor)
    assert closed == product_closed_form(data, alpha, floor)
    brute = motivic_integral_by_enumeration(data, alpha, floor)
    assert closed.with_floor(floor) == brute


@settings(max_examples=60, deadline=None)
@given(resolutions(), st.integers(-60, -1), st.integers(0, 6))
def test_enumeration_cutoff_keeps_printed_terms(res, floor, e_max):
    data, alpha = res
    brute = motivic_integral_by_enumeration(data, alpha, floor,
                                            max_total_contact=e_max)
    assert brute.floor >= floor
    assert motivic_integral(data, alpha, floor).with_floor(
        brute.floor) == brute


def test_closed_form_prefactor_at_or_below_floor():
    # [S] u^-d (u-1) u^-k has degree -5 here, below the floor -4
    s = SNCStratum("p", (0,), LaurentPoly.one(), 2)
    data = ResolutionData((s,), (MultiplicityVector((3,)),))
    for floor in (-4, -5):
        closed = germ_measure(data, floor)
        assert closed == MotiveSeries({}, floor)
        assert closed == product_closed_form(data, None, floor)
        assert closed == motivic_integral_by_enumeration(data, None, floor)


def test_closed_form_deep_floor_matches_product():
    triple = ResolutionData(
        (SNCStratum("o", (0, 1, 2), LaurentPoly.one(), 3),
         SNCStratum("c", (0, 1), mono(1) - 1, 3),
         SNCStratum("e", (0,), mono(2) - 2 * mono(1) + 1, 3)),
        ((1, 2, 3), (1, 2), (1,)))
    floor = -1600
    for data in (catalog.double_blowup_data(), triple):
        closed = germ_measure(data, floor)
        assert closed == product_closed_form(data, None, floor)
        assert closed.floor == floor
