"""Boundedness verdicts and certificate-checked theorem reports."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from arcmeasure import (ArcJet, Conclusion, LaurentPoly, MotiveSeries,
                        MultiplicityVector, Order, PrecisionExhausted,
                        ResolutionDiagram, SNCStratum, check_boundedness,
                        germ_measure, inner_lipschitz_probe,
                        inverse_mapping_report, measure_comparison_report,
                        ord_jac_f, parse_poly, render)

import catalog


def diagram(entries, d=2):
    """Build a diagram from [(name, p_vec, q_vec), ...] rows."""
    strata, ps, qs = [], [], []
    for name, p, q in entries:
        r = len(p)
        strata.append(SNCStratum(name, tuple(range(r)),
                                 LaurentPoly.one(), d))
        ps.append(MultiplicityVector(tuple(p)))
        qs.append(MultiplicityVector(tuple(q)))
    return ResolutionDiagram(tuple(strata), tuple(ps), tuple(qs))


# ---------------------------------------------------------------------------
# ord_jac_f

def test_ord_jac_f_examples():
    assert ord_jac_f(diagram([("s", (1,), (1,))]), "s", (5,)) == 0
    assert ord_jac_f(catalog.cusp_normalization_diagram(),
                     "origin", (3,)) == 3
    assert ord_jac_f(diagram([("s", (2,), (1,))]), "s", (1,)) == -1


def test_ord_jac_f_linear_in_contacts():
    rng = random.Random(3)
    d = diagram([("s", (2, 0), (1, 3))], d=3)
    for _ in range(25):
        e1 = tuple(rng.randint(1, 5) for _ in range(2))
        e2 = tuple(rng.randint(1, 5) for _ in range(2))
        summed = tuple(a + b for a, b in zip(e1, e2))
        assert ord_jac_f(d, "s", summed) \
            == ord_jac_f(d, "s", e1) + ord_jac_f(d, "s", e2)


def test_ord_jac_f_unknown_stratum():
    with pytest.raises(KeyError):
        ord_jac_f(diagram([("s", (1,), (1,))]), "t", (1,))


# ---------------------------------------------------------------------------
# boundedness

def test_bounded_both_ways():
    v = check_boundedness(diagram([("s", (1,), (1,))]))
    assert v.bounded_above and v.bounded_below
    assert v.witness_above is None and v.witness_below is None


def test_cusp_diagram_unbounded_below():
    v = check_boundedness(catalog.cusp_normalization_diagram())
    assert v.bounded_above
    assert not v.bounded_below
    assert v.witness_below == ("origin", (1,))


def test_mixed_strata_unbounded_both():
    v = check_boundedness(diagram([("s", (2, 0), (1, 1))]))
    assert not v.bounded_above
    assert not v.bounded_below
    name, e = v.witness_above
    assert ord_jac_f(diagram([("s", (2, 0), (1, 1))]), name, e) < 0
    name, e = v.witness_below
    assert ord_jac_f(diagram([("s", (2, 0), (1, 1))]), name, e) > 0


def test_witnesses_actually_violate():
    rng = random.Random(2024)
    for _ in range(120):
        rows = []
        for k in range(rng.randint(1, 3)):
            r = rng.randint(0, 3)
            rows.append((f"s{k}",
                         tuple(rng.randint(0, 4) for _ in range(r)),
                         tuple(rng.randint(0, 4) for _ in range(r))))
        diag = diagram(rows, d=3)
        v = check_boundedness(diag)
        if not v.bounded_above:
            name, e = v.witness_above
            assert ord_jac_f(diag, name, e) < 0
        if not v.bounded_below:
            name, e = v.witness_below
            assert ord_jac_f(diag, name, e) > 0


def test_verdict_structural_invariant():
    from arcmeasure import BoundednessVerdict
    with pytest.raises(ValueError):
        BoundednessVerdict(bounded_above=False, bounded_below=True)
    with pytest.raises(ValueError):
        BoundednessVerdict(bounded_above=True, bounded_below=False)
    with pytest.raises(ValueError):
        BoundednessVerdict(bounded_above=True, bounded_below=True,
                           witness_above=("s", (1,)))


def test_boundedness_matches_exhaustive_small_contacts():
    """Componentwise verdicts vs sign sweeps over e in {1,2,3}^r.

    With at most two divisors per stratum and multiplicities up to 2,
    any componentwise violation already shows up at contacts <= 3, so
    the two characterizations provably coincide on this family.
    """
    rng = random.Random(515)
    for _ in range(200):
        rows = []
        for k in range(rng.randint(1, 3)):
            r = rng.randint(0, 2)
            rows.append((f"s{k}",
                         tuple(rng.randint(0, 2) for _ in range(r)),
                         tuple(rng.randint(0, 2) for _ in range(r))))
        diag = diagram(rows, d=2)
        v = check_boundedness(diag)
        sweep_above, sweep_below = True, True
        for stratum in diag.strata:
            name = stratum.name
            r = len(stratum.index_set)
            grids = [()]
            for _ in range(r):
                grids = [g + (e,) for g in grids for e in (1, 2, 3)]
            for e in grids:
                val = ord_jac_f(diag, name, e)
                if val < 0:
                    sweep_above = False
                if val > 0:
                    sweep_below = False
        assert v.bounded_above == sweep_above
        assert v.bounded_below == sweep_below


# ---------------------------------------------------------------------------
# inverse mapping reports

def test_identity_diagram_affirms():
    mu = germ_measure(catalog.identity_data(2), -10)
    report = inverse_mapping_report(catalog.identity_diagram(2), mu, mu)
    assert report.conclusion == Conclusion.INVERSE_ARC_ANALYTIC
    statuses = {h["name"]: h["status"] for h in report.to_json()["hypotheses"]}
    assert statuses == {"measures_equal": "pass",
                        "jacobian_bounded_below": "pass",
                        "image_measure_matches_target": "pass",
                        "jacobian_bounded_above": "pass"}


def test_parametrization_with_unequal_measures_is_inconclusive():
    diag = catalog.cusp_normalization_diagram()
    mu_x = MotiveSeries({-1: 1})
    mu_y = germ_measure(catalog.cusp_data(), -16)
    report = inverse_mapping_report(diag, mu_x, mu_y)
    assert report.conclusion == Conclusion.INCONCLUSIVE
    statuses = {h["name"]: h["status"] for h in report.to_json()["hypotheses"]}
    assert statuses["measures_equal"] == "fail"


def test_equal_measures_but_unbounded_below():
    # fabricate equal exact measures over a diagram that ramps q above p
    diag = diagram([("s", (0,), (2,))], d=1)
    mu = MotiveSeries({-1: 1})
    report = inverse_mapping_report(diag, mu, mu)
    assert report.conclusion == Conclusion.INCONCLUSIVE
    statuses = {h["name"]: h["status"] for h in report.to_json()["hypotheses"]}
    assert statuses["measures_equal"] == "pass"
    assert statuses["jacobian_bounded_below"] == "fail"
    assert "witness_below" in report.certificates


def test_image_certificate_can_fail():
    # p = q = 0 keeps both bounds, but the image measure u^-1 is not
    # the claimed mu_y
    diag = diagram([("s", (0,), (0,))], d=1)
    mu = MotiveSeries({-2: 1})
    report = inverse_mapping_report(diag, mu, mu)
    assert report.conclusion == Conclusion.INCONCLUSIVE
    statuses = {h["name"]: h["status"] for h in report.to_json()["hypotheses"]}
    assert statuses["image_measure_matches_target"] == "fail"
    assert "image_measure" in report.certificates


def test_equal_finite_floor_measures_are_inverse_arc_analytic():
    # computed measures keep their closed forms, so Equal is decided
    diag = catalog.identity_diagram(1)
    mu_a = germ_measure(catalog.line_data(), -8)
    mu_b = germ_measure(catalog.line_data(), -8)
    report = inverse_mapping_report(diag, mu_a, mu_b)
    assert report.conclusion == Conclusion.INVERSE_ARC_ANALYTIC


# ---------------------------------------------------------------------------
# measure comparison reports

def test_cusp_to_line_inequality():
    diag = catalog.cusp_to_line_diagram()
    floor = -14
    mu_x = germ_measure(diag.source_data(), floor)
    mu_y = MotiveSeries({-1: 1}, floor)
    report = measure_comparison_report(diag, mu_x, mu_y)
    assert report.conclusion == Conclusion.MEASURE_INEQUALITY
    assert report.certificates["measure_order"] == Order.LESS


def test_equal_measures_accepted():
    diag = catalog.identity_diagram(3)
    mu = MotiveSeries({-3: 1})
    report = measure_comparison_report(diag, mu, mu)
    assert report.conclusion == Conclusion.MEASURE_INEQUALITY
    assert report.certificates["measure_order"] == Order.EQUAL


def test_contradictory_inputs_flagged():
    diag = catalog.identity_diagram(1)
    report = measure_comparison_report(
        diag, MotiveSeries({-1: 1}), MotiveSeries({-2: 1}))
    assert report.conclusion == Conclusion.INCONCLUSIVE
    assert "contradiction" in report.certificates
    statuses = {h["name"]: h["status"] for h in report.to_json()["hypotheses"]}
    assert statuses["measures_comparable"] == "fail"


def test_comparison_requires_bounded_below():
    diag = catalog.cusp_normalization_diagram()  # q > p: not bounded below
    report = measure_comparison_report(
        diag, MotiveSeries({-2: 1}), MotiveSeries({-1: 1}))
    assert report.conclusion == Conclusion.INCONCLUSIVE


def test_comparison_randomized_consistency():
    """Theorem-shaped inputs never produce a contradiction verdict.

    Any diagram with p >= q componentwise integrates to mu_x <= mu_y
    when mu_y comes from the q side, so the report must affirm.
    """
    rng = random.Random(88)
    floor = -18
    for _ in range(40):
        rows = []
        for k in range(rng.randint(1, 2)):
            r = rng.randint(0, 2)
            q = tuple(rng.randint(0, 2) for _ in range(r))
            p = tuple(qi + rng.randint(0, 2) for qi in q)
            rows.append((f"s{k}", p, q))
        diag = diagram(rows, d=2)
        mu_x = germ_measure(diag.source_data(), floor)
        mu_y = germ_measure(diag.target_data(), floor)
        try:
            report = measure_comparison_report(diag, mu_x, mu_y)
        except PrecisionExhausted:
            continue  # p == q everywhere: equality undecidable at floor
        assert report.conclusion == Conclusion.MEASURE_INEQUALITY


# ---------------------------------------------------------------------------
# inner Lipschitz probe

def P1(text):
    return parse_poly(text, ("x",))


def test_probe_needs_an_arc():
    with pytest.raises(ValueError):
        inner_lipschitz_probe([P1("1")], [])


def test_probe_identity_chart():
    arcs = [ArcJet.from_coeffs([[0, 1]], 5),
            ArcJet.from_coeffs([[0, 2, 1]], 5)]
    assert inner_lipschitz_probe([P1("1")], arcs) is None


def test_probe_finds_pole():
    # the probe names the arc; it returns no verdict type
    arcs = [ArcJet.from_coeffs([[0, 1]], 5)]
    assert inner_lipschitz_probe([(P1("1"), P1("x"))], arcs) == 0


def test_probe_positive_orders_are_evidence_only():
    xy = ("x", "y")
    entries = [parse_poly("2*x", xy), parse_poly("3*y", xy)]
    arcs = [ArcJet.from_coeffs([[0, 1], [0, 0, 1]], 6)]
    assert inner_lipschitz_probe(entries, arcs) is None


# ---------------------------------------------------------------------------
# the worked example

def test_worked_example_prints_the_measures_as_certificates(tmp_path):
    # run away from the checkout root: the script finds its problem file
    # next to itself, not in the working directory
    tests = Path(__file__).resolve().parent
    root = tests.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "cusp_vs_line.py")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == (tests / "cusp_vs_line.out").read_text("utf-8")
    report = json.loads(result.stdout.split(
        "report for the map from the cusp germ to the line germ:\n")[1])
    certificates = report["certificates"]
    assert certificates["mu_x"] == render(
        germ_measure(catalog.cusp_data(), -20))
    assert certificates["mu_y"] == render(
        germ_measure(catalog.line_data(), -20))
