"""Resolution-data integrals: closed form against brute enumeration."""

import copy
import json
import pickle
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmeasure import (NEG_INF, ONE, ZERO, BadContact, DivergentExponent,
                        IndexMismatch, LaurentPoly, MotiveSeries,
                        MultiplicityVector, Order,
                        PrecisionExhausted, ResolutionData, ResolutionDiagram,
                        SNCStratum, compare_germ_measures,
                        contact_stratum_measure, geometric_sum, germ_measure,
                        image_measure, leq_order, motivic_integral,
                        motivic_integral_by_enumeration, ord_jac_on_stratum,
                        parse_motive, render, virtual_dim)
from arcmeasure.measure import _contact_exponents

import catalog


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
    s = SNCStratum("origin", (0,), ONE, 1)
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
        s = SNCStratum("s", tuple(range(r)), ONE, d)
        n = max(e, default=0) + rng.randint(1, 3)
        # jets at level n: (u-1)u^(n-e_i) per contact direction,
        # u^n per transverse direction times the class
        cls = ONE
        for ei in e:
            cls = cls * (mono(1) - 1) * mono(n - ei)
        cls = cls * mono(n * (d - r))
        assert contact_stratum_measure(s, e) \
            == cls * mono(-(n + 1) * d)


def test_contact_rejects_low_contact():
    s = SNCStratum("s", (0,), ONE, 1)
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
        SNCStratum("s", (0, 0), ONE, 2)  # repeated divisor
    with pytest.raises(ValueError):
        SNCStratum("s", (0, 1), ONE, 1)  # |I| > d
    with pytest.raises(ValueError):
        SNCStratum("s", (0,), ZERO, 1)  # empty stratum
    with pytest.raises(ValueError):
        SNCStratum("s", (0,), 1, 1)  # not a ring value
    with pytest.raises(ValueError, match="class must be exact"):
        SNCStratum("s", (0,), parse_motive("1 + O(u^-3)"), 1)


@pytest.mark.parametrize("build, error", [
    (lambda: MultiplicityVector((1, -1)), ValueError),
    (lambda: SNCStratum("s", (), ONE, 0), ValueError),
    (lambda: ord_jac_on_stratum([1, 2], [1]), IndexMismatch),
    (lambda: ResolutionData((), ()), ValueError),
    (lambda: ResolutionData(catalog.line_data().strata, ()), IndexMismatch),
    (lambda: ResolutionData(
        (SNCStratum("a", (0,), ONE, 1),
         SNCStratum("b", (0,), ONE, 2)), ((0,), (0,))),
     ValueError),
], ids=["negative-mult", "zero-dim", "ord-lengths", "no-strata",
        "missing-mults", "mixed-dims"])
def test_measure_layer_rejects_out_of_range_data(build, error):
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("build", [
    lambda: MultiplicityVector((1.5, 2)),
    lambda: MultiplicityVector(("2",)),
    lambda: MultiplicityVector((True,)),
    lambda: SNCStratum("s", (0,), ONE, 2.9),
    lambda: SNCStratum("s", (0,), ONE, True),
    lambda: contact_stratum_measure(
        SNCStratum("s", (0,), ONE, 1), (1.0,)),
    lambda: contact_stratum_measure(
        SNCStratum("s", (0,), ONE, 1), (True,)),
    lambda: ord_jac_on_stratum([1.9], [2]),
    lambda: ord_jac_on_stratum([1], [2.2]),
    lambda: ord_jac_on_stratum([True], [2]),
    lambda: germ_measure(ResolutionData(
        (SNCStratum("s", (0,), ONE, 1),), ((0.9,),)), -10),
    lambda: motivic_integral(catalog.line_data(), [[0.5]], -10),
    lambda: motivic_integral_by_enumeration(catalog.line_data(), [["1"]],
                                            -10),
    lambda: SNCStratum("s", (0.5,), ONE, 1),
    lambda: SNCStratum("s", (True,), ONE, 1),
    lambda: germ_measure(catalog.cusp_data(), 2.5),
    lambda: germ_measure(catalog.cusp_data(), True),
    lambda: germ_measure(catalog.cusp_data(), NEG_INF),
], ids=["mult-float", "mult-str", "mult-bool", "dim-float", "dim-bool",
        "contact-float", "contact-bool", "ord-mult-float",
        "ord-contact-float", "ord-mult-bool", "germ-mult-float",
        "alpha-float", "alpha-str", "index-float", "index-bool",
        "floor-float", "floor-bool", "floor-neg-inf"])
def test_measure_layer_rejects_non_ints(build):
    with pytest.raises(TypeError):
        build()


def test_resolution_data_validation():
    s = SNCStratum("s", (0,), ONE, 1)
    with pytest.raises(IndexMismatch):
        ResolutionData((s,), (MultiplicityVector((1, 2)),))
    t = SNCStratum("s", (0,), ONE, 2)
    with pytest.raises(ValueError):  # duplicate names
        ResolutionData((t, t), (MultiplicityVector((1,)),) * 2)


def golden_payload(name):
    path = Path(__file__).resolve().parent / "golden" / name
    return json.loads(path.read_text("utf-8"))["payload"]


def double_blowup_json():
    """``catalog.double_blowup_data()`` in its problem-file JSON form."""
    return {"ambient_dim": 2, "strata": [
        {"name": "E1_open", "index_set": [0], "class": "u", "p_mults": [1]},
        {"name": "E2_open", "index_set": [1], "class": "u", "p_mults": [2]},
        {"name": "E1_E2", "index_set": [0, 1], "class": "1",
         "p_mults": [1, 2]}]}


def test_resolution_json_round_trip():
    assert ResolutionData.from_json(double_blowup_json()) \
        == catalog.double_blowup_data()
    # a golden problem file holds a catalog value in its JSON form
    data = golden_payload("blowup_plane_measure.json")["resolution"]
    assert ResolutionData.from_json(data) == catalog.blowup_data(2)


def test_resolution_json_names_the_bad_field():
    data = double_blowup_json()
    data["strata"][1]["class"] = "u +* 1"
    with pytest.raises(ValueError,
                       match=r"^resolution\.strata\[1\]\.class: "):
        ResolutionData.from_json(data)
    data["strata"][1]["class"] = "1 + O(u^-4)"
    with pytest.raises(ValueError, match=r"^x: stratum .*must be exact"):
        ResolutionData.from_json(data, "x")


def test_diagram_json_round_trip():
    payload = golden_payload("cusp_line_check_map.json")
    assert ResolutionDiagram.from_json(payload["diagram"]) \
        == catalog.cusp_to_line_diagram()
    assert ResolutionData.from_json(payload["mu_x"]["resolution"]) \
        == catalog.cusp_data()
    assert ResolutionData.from_json(payload["mu_y"]["resolution"]) \
        == catalog.line_data()


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
    a = SNCStratum("a", (0,), ONE, 1)
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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="interpreter has no int digit limit")
@pytest.mark.parametrize("limit", [640, 4300])
@pytest.mark.parametrize("call", [
    lambda data, alpha: _contact_exponents(data.strata[0],
                                           data.jac_mults[0], alpha[0]),
    lambda data, alpha: motivic_integral(data, alpha, -10),
], ids=["contact_exponents", "motivic_integral"])
def test_divergence_prints_a_long_exponent_in_full(limit, call):
    # the line's a = 0, so 1 + a + alpha = -10^4300: 4,301 digits, past
    # either limit
    data = catalog.line_data()
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        with pytest.raises(DivergentExponent) as info:
            call(data, [[-10 ** 4300 - 1]])
    finally:
        sys.set_int_max_str_digits(old)
    assert str(info.value) == ("stratum 'origin': exponent 1+a+alpha = "
                               f"-1{'0' * 4300} <= 0")


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
                cls = ONE
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


def test_compare_across_floors_is_exact():
    a = germ_measure(catalog.cusp_data(), -8)
    b = germ_measure(catalog.cusp_data(), -12)
    assert compare_germ_measures(a, b) == Order.EQUAL


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
            working = min(floor - virtual_dim(prefactor), -1)
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


@pytest.mark.parametrize("data, d", [
    (catalog.blowup_data(2), 2),
    (catalog.blowup_data(3), 3),
    (catalog.double_blowup_data(), 2),
])
def test_blowups_equal_the_identity_exactly(data, d):
    identity = germ_measure(catalog.identity_data(d), -8)
    for floor in (-3, -8, -40):
        assert compare_germ_measures(germ_measure(data, floor),
                                     identity) == Order.EQUAL


def test_literal_with_far_floor_compares_without_expansion():
    # nothing is expanded down to the literal's floor, so this is instant
    literal = parse_motive("u^-1 + O(u^-1000000)")
    cusp = germ_measure(catalog.cusp_data(), -16)
    assert compare_germ_measures(literal, cusp) == Order.GREATER
    assert compare_germ_measures(cusp, literal) == Order.LESS


def test_closed_form_is_kept_only_by_the_integral():
    cusp = germ_measure(catalog.cusp_data(), -8)
    n, ks = cusp.closed_form
    assert (n, ks) == ({-2: 1, -3: -1}, (2,))
    assert virtual_dim(cusp) == -2
    for derived in (cusp + 0, cusp * 1, -(-cusp), cusp.with_floor(-8)):
        assert derived == cusp and hash(derived) == hash(cusp)
        assert derived.closed_form is None
    # exact values need no closed form
    assert germ_measure(catalog.identity_data(2), -8).closed_form is None


def unread(series):
    """Whether ``series`` has not filled its terms yet."""
    return series._terms is None


def test_lazy_terms_need_no_attribute_hook():
    # a class-level __getattr__ slows every attribute read on the class
    assert "__getattr__" not in vars(MotiveSeries)


@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copying_a_closed_form_leaves_its_terms_unexpanded(how):
    cusp = germ_measure(catalog.cusp_data(), -8)
    twin = {"copy": copy.copy, "deepcopy": copy.deepcopy,
            "pickle": lambda v: pickle.loads(pickle.dumps(v))}[how](cusp)
    assert unread(cusp) and unread(twin)
    assert twin.closed_form == cusp.closed_form and twin.floor == -8
    assert twin.terms == germ_measure(catalog.cusp_data(), -8).terms


@settings(max_examples=100, deadline=None)
@given(resolutions(), st.integers(-60, -1))
def test_terms_read_late_or_early_give_the_same_results(res, floor):
    def computed():
        s = motivic_integral(*res, floor)
        # only an exact sum, with no k at all, has its terms already
        assert unread(s) == (s.closed_form is not None)
        return s

    read, other = computed(), computed()
    closed_form = read.closed_form
    read.terms, other.terms
    assert read.closed_form == closed_form
    assert computed() == read and read == computed()
    for check in (lambda s, t: s.terms, lambda s, t: hash(s),
                  lambda s, t: repr(s), lambda s, t: render(s),
                  lambda s, t: virtual_dim(s),
                  lambda s, t: s.with_floor(floor // 2),
                  lambda s, t: s == t, lambda s, t: s + t,
                  lambda s, t: s - mono(-1), lambda s, t: 1 - s,
                  lambda s, t: s * t, lambda s, t: s * mono(2),
                  lambda s, t: s.closed_form):
        assert check(computed(), computed()) == check(read, other)


def test_dimension_and_zero_below_the_floor():
    # degree -5 lies below the floor -4: only the closed form knows it
    s = SNCStratum("p", (0,), ONE, 2)
    deep = germ_measure(ResolutionData((s,), (MultiplicityVector((3,)),)),
                        -4)
    assert deep.terms == {} and virtual_dim(deep) == -5
    with pytest.raises(PrecisionExhausted):
        virtual_dim(deep.with_floor(-4))
    t = SNCStratum("q", (0,), -ONE, 2)
    zero = germ_measure(ResolutionData((s, t), ((3,), (3,))), -4)
    assert virtual_dim(zero) == NEG_INF
    assert compare_germ_measures(zero, 0) == Order.EQUAL


@settings(max_examples=300, deadline=None)
@given(resolutions(), resolutions(), st.integers(-60, -1))
def test_exact_order_matches_series_order(res_a, res_b, floor):
    a = motivic_integral(*res_a, floor)
    b = motivic_integral(*res_b, floor)
    exact = leq_order(a, b)
    try:
        # with_floor drops the closed forms
        series = leq_order(a.with_floor(a.floor), b.with_floor(b.floor))
    except PrecisionExhausted:
        return
    assert exact == series


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
    s = SNCStratum("p", (0,), ONE, 2)
    data = ResolutionData((s,), (MultiplicityVector((3,)),))
    for floor in (-4, -5):
        closed = germ_measure(data, floor)
        assert closed == MotiveSeries({}, floor)
        assert closed == product_closed_form(data, None, floor)
        assert closed == motivic_integral_by_enumeration(data, None, floor)


def test_closed_form_deep_floor_matches_product():
    triple = ResolutionData(
        (SNCStratum("o", (0, 1, 2), ONE, 3),
         SNCStratum("c", (0, 1), mono(1) - 1, 3),
         SNCStratum("e", (0,), mono(2) - 2 * mono(1) + 1, 3)),
        ((1, 2, 3), (1, 2), (1,)))
    floor = -1600
    for data in (catalog.double_blowup_data(), triple):
        closed = germ_measure(data, floor)
        assert closed == product_closed_form(data, None, floor)
        assert closed.floor == floor
