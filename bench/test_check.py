"""Tests of the benchmark's own checker and generator.

    python3 -m pytest bench/test_check.py

The checker must accept right answers and flag wrong ones; it never
imports arcmeasure, so these tests do not either.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402

CUSP = {"strata": [{"cls": [(0, 1)], "d": 1, "ks": [2]}]}
LINE = {"strata": [{"cls": [(0, 1)], "d": 1, "ks": [1]}]}
CUSP_M10 = ("u^-2 - u^-3 + u^-4 - u^-5 + u^-6 - u^-7 + u^-8 - u^-9"
            " + O(u^-10)")
SERIES = {"check": "series", "floor": -10, "strata": CUSP["strata"]}


def test_series_accepts_the_closed_form():
    assert check.check(SERIES, 0, CUSP_M10 + "\n") == ("ok", "")


def test_series_flags_a_corrupted_coefficient():
    status, why = check.check(SERIES, 0, CUSP_M10.replace("- u^-5",
                                                          "+ u^-5"))
    assert status == "fail" and "u^-5" in why


def test_series_flags_a_missing_term_and_a_wrong_floor():
    assert check.check(SERIES, 0, CUSP_M10.replace(" - u^-9", ""))[0] \
        == "fail"
    assert check.check(SERIES, 0, CUSP_M10.replace("O(u^-10)",
                                                   "O(u^-12)"))[0] == "fail"


def test_series_flags_a_wrong_exit_code():
    assert check.check(SERIES, 2, CUSP_M10)[0] == "fail"
    assert check.check(SERIES, None, "")[0] == "fail"


def test_order_verdicts():
    spec = {"check": "order", "left": CUSP, "right": LINE}
    assert check.check(spec, 0, "Less\n")[0] == "ok"
    assert check.check(spec, 0, "Greater\n")[0] == "fail"
    assert check.check(spec, 0, "Equal\n")[0] == "fail"
    assert check.check(spec, 5, "")[0] == "undecided"
    assert check.check(spec, 2, "")[0] == "fail"


def test_blow_ups_have_the_measure_of_the_identity():
    for d in (1, 2, 3):
        for steps in (1, 2, 3):
            _, spec = gen.blown_up(d, steps)
            assert check.exact_order(spec, {"poly": [(-d, 1)]}) \
                == check.EQUAL


CUSP_LINE_MAP = {
    "check": "check-map",
    "diagram": {"d": 1, "strata": [{"cls": [(0, 1)], "p": [1], "q": [0]}]},
    "mu_x": CUSP, "mu_y": LINE}
CUSP_LINE_OUT = """{
  "conclusion": "MeasureInequality",
  "reports": {
    "inverse_mapping": {"conclusion": "Inconclusive",
                        "certificates": {"measure_order": "Less"}},
    "measure_comparison": {"conclusion": "MeasureInequality",
                           "certificates": {"measure_order": "Less"}}
  }
}"""


def test_check_map_verdicts_and_exit_codes():
    assert check.check(CUSP_LINE_MAP, 0, CUSP_LINE_OUT)[0] == "ok"
    assert check.check(CUSP_LINE_MAP, 4, CUSP_LINE_OUT)[0] == "fail"
    assert check.check(CUSP_LINE_MAP, 5, "")[0] == "undecided"
    wrong = CUSP_LINE_OUT.replace('"measure_order": "Less"',
                                  '"measure_order": "Equal"')
    assert check.check(CUSP_LINE_MAP, 0, wrong)[0] == "fail"
    inconclusive = CUSP_LINE_OUT.replace('"conclusion": "MeasureInequality",\n'
                                         '  "reports"',
                                         '"conclusion": "Inconclusive",\n'
                                         '  "reports"')
    assert check.check(CUSP_LINE_MAP, 4, inconclusive)[0] == "fail"


def test_compose_against_the_naive_product():
    spec = {"check": "compose", "cap": 4, "f": [([2, 0], "1"), ([0, 1], "-1/2")],
            "arc": [["0", "1", "1"], ["3"]]}
    # x = t + t^2, y = 3: x^2 - y/2 = -3/2 + t^2 + 2*t^3 + t^4
    good = "-3/2 + t^2 + 2*t^3 + t^4 + O(t^5)"
    assert check.check(spec, 0, good)[0] == "ok"
    assert check.check(spec, 0, good.replace("2*t^3", "3*t^3"))[0] == "fail"
    assert check.check(spec, 0, good.replace("O(t^5)", "O(t^6)"))[0] == "fail"
    assert check.check(spec, 3, good)[0] == "fail"


def test_digest_mismatch_and_unknown_key():
    spec = {"check": "digest", "key": "k"}
    digests = {"k": check.digest("2*x\n")}
    assert check.check(spec, 0, "2*x\n", digests)[0] == "ok"
    assert check.check(spec, 0, "2*y\n", digests)[0] == "fail"
    assert check.check(spec, 2, "2*x\n", digests)[0] == "fail"
    assert check.check({"check": "digest", "key": "x"}, 0, "", digests)[0] \
        == "fail"


def test_rendered_classes_parse_back():
    terms = {2: 1, 1: -3, 0: 2, -4: -1}
    assert check.parse_series(gen.render_laurent(terms)) == (terms, None)


def test_streams_are_seeded_and_avoid_e_max_override():
    for workload in gen.WORKLOADS:
        a, b = gen.generate(workload, 3), gen.generate(workload, 3)
        assert a == b
        assert a != gen.generate(workload, 4)
        assert not any("e_max_override" in p.get("doc", {}).get(
            "options", {}) for p in a)
