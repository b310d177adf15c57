"""Acceptance gate: one test per shipped guarantee, one printed line each.

Every test drives the public API at the stated scale and tolerance,
computes its verdict, prints a single ``criterion NN: PASS/FAIL`` line
on the real terminal, and then asserts.  Tolerances are exact unless a
precision floor is part of the statement itself.
"""

import itertools
import json
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

from arcmeasure import (ONE, ArcJet, LaurentPoly, MotiveSeries, MultiPoly,
                        NEG_INF, PolySystem, PrecisionExhausted,
                        ResolutionData, ResolutionDiagram, SNCStratum,
                        check_boundedness, compare_germ_measures, compose,
                        geometric_sum, germ_measure, image_measure,
                        inverse_mapping_report, jet_equations,
                        jet_variable_names, leq_order, motivic_integral,
                        motivic_integral_by_enumeration, ord_jac_f,
                        satisfies_jet_equations, virtual_dim)
from arcmeasure.analysis import Conclusion

import catalog
from descriptors import StableSetDescriptor, measure_stable, re_level

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def eval_at(p: LaurentPoly, u0: Fraction) -> Fraction:
    return sum((c * u0 ** e for e, c in p.terms.items()), Fraction(0))


def rand_laurent(rng, lo=-8, hi=8, max_terms=4, nonzero=False):
    terms = {}
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        terms[rng.randint(lo, hi)] = rng.randint(-9, 9) or 1
    if nonzero and not terms:
        terms[0] = 1
    return LaurentPoly(terms)


# ---------------------------------------------------------------------------

def test_criterion_01_ring_suite(capsys):
    rng = random.Random(1001)
    started = time.perf_counter()
    checks = 0
    u0 = Fraction(10 ** 4)
    for _ in range(1250):
        a, b, c = (rand_laurent(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        checks += 4
        na, nb = (rand_laurent(rng, nonzero=True) for _ in range(2))
        assert na * nb != LaurentPoly({})
        assert virtual_dim(na * nb) == virtual_dim(na) + virtual_dim(nb)
        checks += 2
        order = leq_order(na, nb)
        assert order in ("Less", "Equal", "Greater")
        sign = eval_at(na, u0) - eval_at(nb, u0)
        assert order == ("Greater" if sign > 0 else
                         "Less" if sign < 0 else "Equal")
        checks += 2
    elapsed = time.perf_counter() - started
    report(capsys, 1, checks == 10_000 and elapsed < 10.0,
           f"{checks} randomized ring checks in {elapsed:.2f}s")


def test_criterion_02_completion_identity(capsys):
    bad = []
    for p in range(1, 9):
        product = (ONE - LaurentPoly.monomial(-p)) * geometric_sum(p, -40)
        stated = MotiveSeries({0: 1}, -40 + p)
        if product.terms != {0: 1} or product.floor > -40 + p \
                or product.with_floor(-40 + p) != stated:
            bad.append(p)
    report(capsys, 2, not bad,
           "inverse of 1 - u^-p recovered to the stated tail for p = 1..8"
           if not bad else f"failed for p in {bad}")


def _random_multipoly(rng, variables):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(rng.randint(0, 2) for _ in variables)
        terms[exps] = Fraction(rng.randint(-3, 3))
    poly = MultiPoly(variables, terms)
    return poly if poly else _first_variable(variables)


def _first_variable(variables):
    return MultiPoly(variables, {(1,) + (0,) * (len(variables) - 1): 1})


def test_criterion_03_jet_equation_oracle(capsys):
    rng = random.Random(3003)
    started = time.perf_counter()
    hits = misses = 0
    for trial in range(200):
        n_vars = rng.randint(1, 3)
        variables = ("x", "y", "z")[:n_vars]
        level = rng.randint(0, 6)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(level + 1)]
                for _ in range(n_vars)]
        gens = [_random_multipoly(rng, variables)
                for _ in range(rng.randint(1, 2))]
        if trial % 3 == 0:
            # freeze the first arc component at a constant and make every
            # generator a multiple of (x - c): composition vanishes
            c = Fraction(rng.randint(-2, 2))
            rows[0] = [c] + [Fraction(0)] * level
            factor = _first_variable(variables) - c
            gens = [factor * g for g in gens]
        system = PolySystem(variables, gens)
        arc = ArcJet.from_coeffs(rows, level)
        oracle = all(not compose(g, arc) for g in system)
        names = jet_variable_names(n_vars, level)
        values = dict(zip(names, itertools.chain.from_iterable(rows)))
        predicted = satisfies_jet_equations(jet_equations(system, level),
                                            values)
        assert predicted == oracle, (variables, gens, rows, level)
        hits += oracle
        misses += not oracle
    elapsed = time.perf_counter() - started
    report(capsys, 3,
           hits >= 40 and misses >= 40 and elapsed < 5.0,
           f"200 jet-membership oracles ({hits} satisfied / {misses} not) "
           f"in {elapsed:.2f}s")


def test_criterion_04_cylinder_invariance(capsys):
    rng = random.Random(4004)
    checks = 0
    for _ in range(50):
        base = StableSetDescriptor(level=rng.randint(0, 6),
                                   class_at_level=rand_laurent(rng, 0, 8),
                                   ambient_dim=rng.randint(1, 4))
        expected = measure_stable(base)
        for shift in range(1, 11):
            relevelled = re_level(base, base.level + shift)
            assert measure_stable(relevelled) == expected
            checks += 1
    report(capsys, 4, checks == 500,
           f"{checks} re-leveled descriptors kept their measure exactly")


def _random_resolution(rng):
    d = rng.randint(1, 4)
    n_strata = rng.randint(1, 2)
    strata, mults, alpha = [], [], []
    for i in range(n_strata):
        r = rng.randint(0, min(2, d))
        cls = rand_laurent(rng, 0, 5, nonzero=True)
        strata.append(SNCStratum(f"s{i}", tuple(range(r)), cls, d))
        mults.append(tuple(rng.randint(0, 4) for _ in range(r)))
        alpha.append(tuple(rng.randint(0, 2) for _ in range(r)))
    data = ResolutionData(tuple(strata), tuple(mults))
    return data, (alpha if rng.random() < 0.5 else None)


def test_criterion_05_change_of_variables_oracle(capsys):
    started = time.perf_counter()
    floor = -30
    catalog_data = [catalog.line_data(), catalog.cusp_data(),
                    catalog.identity_data(1), catalog.identity_data(2),
                    catalog.identity_data(3), catalog.blowup_data(2),
                    catalog.blowup_data(3), catalog.blowup_data(4),
                    catalog.double_blowup_data()]
    cases = 0
    for data in catalog_data:
        closed = motivic_integral(data, None, floor)
        brute = motivic_integral_by_enumeration(data, None, floor,
                                                max_total_contact=60)
        assert closed.with_floor(floor) == brute.with_floor(floor), data
        cases += 1
    rng = random.Random(5005)
    while cases < 9 + 100:
        data, alpha = _random_resolution(rng)
        closed = motivic_integral(data, alpha, floor)
        brute = motivic_integral_by_enumeration(data, alpha, floor,
                                                max_total_contact=60)
        assert closed.with_floor(floor) == brute.with_floor(floor), data
        cases += 1
    elapsed = time.perf_counter() - started
    report(capsys, 5, elapsed < 30.0,
           f"{cases} closed-form integrals match contact enumeration "
           f"in {elapsed:.2f}s")


def test_criterion_06_blowup_identity(capsys):
    blowup = germ_measure(catalog.blowup_data(2), -40)
    ok = blowup == MotiveSeries({-2: 1}, -40)
    trivial_ok = []
    for d in range(1, 5):
        measure = germ_measure(catalog.identity_data(d), -40)
        trivial_ok.append(measure.is_exact()
                          and measure.terms == {-d: 1})
    report(capsys, 6, ok and all(trivial_ok),
           "plane blow-up gives u^-2 at floor -40; "
           "trivial germs give u^-d exactly for d = 1..4")


def test_criterion_07_cusp_germ(capsys):
    floor = -30
    expected = MotiveSeries(
        {e: (1 if e % 2 == 0 else -1) for e in range(-29, -1)}, floor)
    cusp = germ_measure(catalog.cusp_data(), floor)
    line = germ_measure(catalog.line_data(), floor)
    ok = cusp == expected and compare_germ_measures(cusp, line) == "Less"
    report(capsys, 7, ok,
           "cusp measure matches the alternating series at floor -30 "
           "and is Less than the line measure")


def _random_diagram(rng):
    d = 2
    n_strata = rng.randint(1, 2)
    strata, p_mults, q_mults = [], [], []
    for i in range(n_strata):
        r = rng.randint(0, 2)
        strata.append(SNCStratum(f"s{i}", tuple(range(r)), ONE, d))
        p_mults.append(tuple(rng.randint(0, 2) for _ in range(r)))
        q_mults.append(tuple(rng.randint(0, 2) for _ in range(r)))
    return ResolutionDiagram(tuple(strata), tuple(p_mults), tuple(q_mults))


def test_criterion_08_boundedness_equivalence(capsys):
    rng = random.Random(8008)
    for _ in range(500):
        diagram = _random_diagram(rng)
        verdict = check_boundedness(diagram)
        sweep_above = sweep_below = True
        for s in diagram.strata:
            for contacts in itertools.product((1, 2, 3),
                                              repeat=len(s.index_set)):
                value = ord_jac_f(diagram, s.name, contacts)
                sweep_above &= value >= 0
                sweep_below &= value <= 0
        assert verdict.bounded_above == sweep_above, diagram
        assert verdict.bounded_below == sweep_below, diagram
        if verdict.witness_above is not None:
            assert ord_jac_f(diagram, *verdict.witness_above) < 0
        if verdict.witness_below is not None:
            assert ord_jac_f(diagram, *verdict.witness_below) > 0
    report(capsys, 8, True,
           "500 diagrams agree with the exhaustive contact sweep, "
           "witnesses verified")


def test_criterion_09_theorem_gating(capsys):
    rng = random.Random(9009)
    floor = -20
    affirmed = other = skipped = 0
    violations = 0
    for trial in range(1000):
        style = rng.random()
        if style < 1 / 3:
            d = rng.randint(1, 3)
            diagram = catalog.identity_diagram(d)
            mu_x = mu_y = germ_measure(catalog.identity_data(d), floor)
        elif style < 2 / 3:
            diagram = _random_diagram(rng)
            mu_x = germ_measure(diagram.source_data(), floor)
            pick = rng.random()
            if pick < 1 / 3:
                mu_y = germ_measure(diagram.target_data(), floor)
            elif pick < 2 / 3:
                mu_y = mu_x
            else:
                mu_y = image_measure(diagram, floor)
        else:
            diagram = _random_diagram(rng)
            mu_x = germ_measure(catalog.identity_data(rng.randint(1, 3)),
                                floor)
            mu_y = germ_measure(catalog.identity_data(rng.randint(1, 3)),
                                floor)
        try:
            rep = inverse_mapping_report(diagram, mu_x, mu_y)
        except PrecisionExhausted:
            skipped += 1
            continue
        if rep.conclusion != Conclusion.INVERSE_ARC_ANALYTIC:
            other += 1
            continue
        affirmed += 1
        statuses = {h["name"]: h["status"]
                    for h in rep.to_json()["hypotheses"]}
        if not (statuses.get("measures_equal") == "pass"
                and statuses.get("jacobian_bounded_below") == "pass"
                and statuses.get("jacobian_bounded_above") == "pass"):
            violations += 1
    report(capsys, 9,
           violations == 0 and affirmed >= 100,
           f"1000 diagrams: {affirmed} affirmative / {other} other / "
           f"{skipped} precision-limited, {violations} gating violations")


def test_criterion_10_cli_determinism(capsys):
    manifest = json.loads((GOLDEN / "manifest.json").read_text("utf-8"))
    stable = 0
    for case in manifest["cases"]:
        want = (GOLDEN / case["expected"]).read_text("utf-8")
        outputs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-m", "arcmeasure.cli",
                 str(GOLDEN / case["problem"]), *case["flags"]],
                capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1] == want, case["problem"]
        stable += 1
    report(capsys, 10, stable == 5,
           f"{stable} golden outputs byte-identical across repeated runs")
