"""End-to-end tests for the problem-file command line front end."""

import contextlib
import copy
import importlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcmeasure import ResolutionData, germ_measure, render
from arcmeasure.cli import _rational, _rationals, main
from arcmeasure.measure import SchemaError

# ---------------------------------------------------------------------------
# shared problem fixtures (JSON bodies, written to tmp files per test)

CUSP_RES = {"ambient_dim": 1,
            "strata": [{"name": "origin", "index_set": [0],
                        "class": "1", "p_mults": [1]}]}
LINE_RES = {"ambient_dim": 1,
            "strata": [{"name": "origin", "index_set": [0],
                        "class": "1", "p_mults": [0]}]}
BLOWUP2_RES = {"ambient_dim": 2,
               "strata": [{"name": "E", "index_set": [0],
                           "class": "u + 1", "p_mults": [1]}]}
IDENT_DIAG = {"ambient_dim": 1,
              "strata": [{"name": "center", "index_set": [],
                          "class": "1", "p_mults": [], "q_mults": []}]}
CUSP_TO_LINE_DIAG = {"ambient_dim": 1,
                     "strata": [{"name": "origin", "index_set": [0],
                                 "class": "1", "p_mults": [1],
                                 "q_mults": [0]}]}

CUSP_MEASURE_M10 = ("u^-2 - u^-3 + u^-4 - u^-5 + u^-6 - u^-7 + u^-8 "
                    "- u^-9 + O(u^-10)")


@pytest.fixture
def run(tmp_path, capsys):
    """Invoke main() on a problem dict; return (exit code, stdout, stderr)."""

    def _run(doc, *flags):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main([str(path), *flags])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def problem(kind, payload, **options):
    doc = {"schema": 1, "kind": kind, "payload": payload}
    if options:
        doc["options"] = options
    return doc


def test_readme_command_line_example(run):
    # the problem and the output printed under README "Command line"
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    shell = section.split("```sh\n", 1)[1].split("```", 1)[0]
    command, printed = shell.split("\n", 1)
    assert command == "$ arcmeasure problem.json"
    assert run(doc) == (0, printed, "")


# ---------------------------------------------------------------------------
# jets

def test_jets_cusp_three_equations(run):
    code, out, _ = run(problem("jets", {"variables": ["x", "y"],
                                        "generators": ["y^2 - x^3"],
                                        "level": 2}))
    assert code == 0
    assert out == ("-3*a_0^2*a_1 + 2*b_0*b_1\n"
                   "-3*a_0^2*a_2 - 3*a_0*a_1^2 + 2*b_0*b_2 + b_1^2\n"
                   "-a_0^3 + b_0^2\n")


def test_jets_equations_sorted(run):
    code, out, _ = run(problem("jets", {"variables": ["x", "y"],
                                        "generators": ["y^2 - x^3"],
                                        "level": 2}))
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)


def test_jets_single_variable_level_zero(run):
    code, out, _ = run(problem("jets", {"variables": ["x"],
                                        "generators": ["x"],
                                        "level": 0}))
    assert code == 0
    assert out == "a_0\n"


def test_jets_of_any_degree(run):
    # 2^64 needs a field of 9 bytes per jet variable
    code, out, err = run(problem("jets", {"variables": ["x", "y"],
                                          "generators": [f"x^{2 ** 64} - y"],
                                          "level": 0}))
    assert (code, out, err) == (0, "a_0^18446744073709551616 - b_0\n", "")


def test_jets_generators_sharing_a_nonconstant_part(run):
    # x + 1 and x + 2 differ only at t^0: their t^1 and t^2 equations
    # are both a_1 and a_2, and each prints once
    code, out, err = run(problem("jets", {"variables": ["x"],
                                          "generators": ["x + 1", "x + 2"],
                                          "level": 2}))
    assert (code, out, err) == (0, "a_0 + 1\na_0 + 2\na_1\na_2\n", "")


HUGE_DEGREE_JETS = [
    "18446744073709551616*a_0^18446744073709551615*a_1 - b_1",
    "18446744073709551616*a_0^18446744073709551615*a_2 + "
    "170141183460469231722463931679029329920*a_0^18446744073709551614*a_1^2"
    " - b_2",
    "a_0^18446744073709551616 - b_0"]


@pytest.mark.parametrize("digit_limit", [4300, 640], indirect=True)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_jets_of_huge_degree_at_a_positive_level(run, digit_limit, fmt):
    # the expansion of x^(2^64) takes as many steps as the level allows,
    # whatever the degree
    code, out, err = run(problem("jets", {"variables": ["x", "y"],
                                          "generators": [f"x^{2 ** 64} - y"],
                                          "level": 2}), "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "text":
        assert out == "\n".join(HUGE_DEGREE_JETS) + "\n"
    else:
        assert json.loads(out)["equations"] == HUGE_DEGREE_JETS


def test_jets_malformed_polynomial_exits_2_with_offset(run):
    code, out, err = run(problem("jets", {"variables": ["x", "y"],
                                          "generators": ["x +* y"],
                                          "level": 1}))
    assert code == 2
    assert out == ""
    assert "payload.generators[0]" in err
    assert "offset 3" in err


@pytest.mark.parametrize("kind, payload, field", [
    ("jets", {"variables": ["x"], "generators": ["1/0*x"], "level": 1},
     "payload.generators[0]"),
    ("hx", {"variables": ["x", "y"], "f": "1/0*x"}, "payload.f"),
    ("compose", {"variables": ["x"], "f": "1/0*x", "arc": [[0, 1]]},
     "payload.f"),
])
def test_zero_denominator_exits_2_with_offset(run, kind, payload, field):
    code, out, err = run(problem(kind, payload))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: zero denominator at offset 2")


LONG_LITERAL = "7" * 4400


@pytest.mark.parametrize("kind, payload, field", [
    ("jets", {"variables": ["x"], "generators": [f"{LONG_LITERAL}*x"],
              "level": 1}, "payload.generators[0]"),
    ("measure", {"resolution": {
        "ambient_dim": 1,
        "strata": [{"name": "o", "index_set": [0], "class": LONG_LITERAL,
                    "p_mults": [1]}]}}, "payload.resolution.strata[0].class"),
])
def test_overlong_literal_exits_2_with_field_path(run, kind, payload, field):
    code, out, err = run(problem(kind, payload))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field}: integer literal longer than "
                          "4300 digits at offset 0")


def test_jets_json_format_lists_jet_variables(run):
    code, out, _ = run(problem("jets", {"variables": ["x", "y"],
                                        "generators": ["y^2 - x^3"],
                                        "level": 2}),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "jets"
    assert doc["jet_variables"] == ["a_0", "a_1", "a_2",
                                    "b_0", "b_1", "b_2"]
    assert len(doc["equations"]) == 3


# ---------------------------------------------------------------------------
# hx / compose

def test_hx_handle_surface_generators(run):
    code, out, _ = run(problem("hx", {"variables": ["x", "y", "z"],
                                      "f": "x^2 - z*y^2"}))
    assert code == 0
    assert out == "2*x\n-2*y*z\n-y^2\n"


def test_compose_cusp_arc_vanishes_to_cap(run):
    code, out, _ = run(problem("compose",
                               {"variables": ["x", "y"],
                                "f": "y^2 - x^3",
                                "arc": [[0, 0, 1], [0, 0, 0, 1]]},
                               cap=7))
    assert code == 0
    assert out == "O(t^8)\n"


def test_compose_arc_row_count_checked(run):
    code, _, err = run(problem("compose",
                               {"variables": ["x", "y"],
                                "f": "y^2 - x^3",
                                "arc": [[0, 0, 1]]}))
    assert code == 2
    assert "payload.arc" in err


def test_compose_accepts_integer_and_fraction_literals(run):
    code, out, _ = run(problem("compose",
                               {"variables": ["x"], "f": "x",
                                "arc": [[1, "-3/4", "22/2"]]}, cap=2))
    assert code == 0
    assert out == "1 - 3/4*t + 11*t^2 + O(t^3)\n"


@pytest.mark.parametrize("literal", [
    "1.5", "1e3", "1_000", " 1/2 ", "+1", "1/0", "1e-4000", "1e-5000"])
def test_compose_rejects_loose_rational_literals(run, literal):
    code, _, err = run(problem("compose",
                               {"variables": ["x"], "f": "x",
                                "arc": [[0, literal]]}, cap=1))
    assert code == 2
    assert err.startswith(
        f"error: payload.arc[0][1]: bad rational literal {literal!r}")


@pytest.fixture(params=[4300, 0])
def digit_limit(request):
    """The interpreter's int digit limit, by default its default and then
    none at all; restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("interpreter has no int digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    yield request.param
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(old)
    assert limit == request.param, "the int digit limit leaked"


def test_overlong_json_integer_exits_2(tmp_path, capsys, digit_limit):
    # json.dumps itself would trip the default limit, so splice the text
    path = tmp_path / "problem.json"
    doc = json.dumps(problem("compose", {"variables": ["x"], "f": "x",
                                         "arc": [[0, "ARC"]]}, cap=1))
    path.write_text(doc.replace('"ARC"', LONG_LITERAL), encoding="utf-8")
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: problem: invalid JSON: integer literal "
                            "longer than 4300 digits\n")
    # 4,300 digits are read whatever the interpreter's limit
    path.write_text(doc.replace('"ARC"', LONG_LITERAL[:4300]),
                    encoding="utf-8")
    assert main([str(path)]) == 0
    assert capsys.readouterr().out == f"{LONG_LITERAL[:4300]}*t + O(t^2)\n"


@pytest.mark.parametrize("literal", [LONG_LITERAL, f"1/{LONG_LITERAL}"],
                         ids=["integer", "denominator"])
def test_compose_rejects_overlong_arc_literal(run, digit_limit, literal):
    code, out, err = run(problem("compose",
                                 {"variables": ["x"], "f": "x",
                                  "arc": [[0, literal]]}, cap=1))
    assert code == 2
    assert out == ""
    assert err.startswith("error: payload.arc[0][1]: bad rational literal")


# arc entries read one by one: some pass the row pattern, the rest fail
# it and are read, or rejected, by _rational alone
ODD_ARC_ENTRIES = st.one_of(
    st.integers(-10 ** 6, 10 ** 6), st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["+1", " 1", "1_0", "\u0661", "1,2", "", "1/", "-",
                     "1/-2"]),
    st.sampled_from(["1/0", "-0/00", "-0/3", "007/010"]),
    st.sampled_from(["", "-", "1/"]).flatmap(lambda head: st.sampled_from(
        [head + "9" * n for n in (640, 641, 4300, 4301)])))


@st.composite
def arc_rows(draw):
    row = draw(st.lists(st.fractions(max_denominator=50).map(str),
                        max_size=6))
    for entry in draw(st.lists(ODD_ARC_ENTRIES, max_size=2)):
        row.insert(draw(st.integers(0, len(row))), entry)
    return row


@given(arc_rows())
@settings(max_examples=300, deadline=None)
def test_arc_rows_read_as_entry_by_entry(tmp_path_factory, row):
    pairs, error = [], None
    for j, v in enumerate(row):
        try:
            pairs.append(_rational(v, f"payload.arc[0][{j}]"))
        except SchemaError as exc:
            error = f"error: {exc}\n"
            break
    if error is None:
        assert _rationals(row, "payload.arc[0]") == pairs
        return
    path = tmp_path_factory.getbasetemp() / "arc_row.json"
    path.write_text(json.dumps(problem(
        "compose", {"variables": ["x"], "f": "x", "arc": [row]},
        cap=max(len(row) - 1, 0))), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([str(path)])
    assert (code, out.getvalue(), err.getvalue()) == (2, "", error)


# results longer than any int digit limit print in full: 640 is the lowest
# limit the interpreter accepts, and str() of a 700-digit int fails there;
# the expected texts are spelled out, as str() cannot make them either
N3000 = "9" * 3000
N3000_SQUARED = "9" * 2999 + "8" + "0" * 2999 + "1"  # (10^n - 1)^2
K700, K700_LESS_1 = "8" * 700, "8" * 699 + "7"
K700_MORE_1 = "8" * 699 + "9"


LONG_MEASURE = f"u^-{K700} + O(u^-{K700_MORE_1})"


@pytest.mark.parametrize("digit_limit", [4300, 640], indirect=True)
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("doc, text, shown", [
    (problem("compose", {"variables": ["x"], "f": "x^2",
                         "arc": [[0, N3000]]}, cap=2),
     f"{N3000_SQUARED}*t^2 + O(t^3)", None),
    (problem("compose", {"variables": ["x"], "f": "x",
                         "arc": [[f"1/{N3000}"]]}, cap=0),
     f"1/{N3000} + O(t^1)", None),
    (problem("hx", {"variables": ["x"], "f": f"x^{K700}"}),
     f"{K700}*x^{K700_LESS_1}", None),
    (problem("compare", {"left": LONG_MEASURE, "right": "u^-1"}),
     "Less", LONG_MEASURE),
], ids=["compose-coefficient", "compose-denominator", "hx-exponent",
        "compare-literal"])
def test_results_of_any_size_print(run, digit_limit, fmt, doc, text, shown):
    code, out, err = run(doc, "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "text":
        assert out == text + "\n"
    else:
        assert json.dumps(shown or text) in out


# a check-map whose diagram records the witness contact vector (1, A + 1)
# for a 700-digit A: JSON integers print in full under every limit too
A700, A700_PLUS_1 = "7" * 700, "7" * 699 + "8"
LONG_WITNESS_TEXT = """conclusion: Inconclusive
inverse_mapping:
  measures_equal: pass (leq_order returned Equal)
  jacobian_bounded_below: fail (violating contact vector recorded)
measure_comparison:
  jacobian_bounded_below: fail (violating contact vector recorded)
"""


@pytest.mark.parametrize("digit_limit", [4300, 640], indirect=True)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_json_integers_of_any_size_print(tmp_path, capsys, digit_limit, fmt):
    doc = json.dumps(problem("check-map", {
        "diagram": {"ambient_dim": 2, "strata": [
            {"name": "E", "index_set": [0, 1], "class": "1",
             "p_mults": ["A", 0], "q_mults": [0, 1]}]},
        "mu_x": "u^-1", "mu_y": "u^-1"}))
    path = tmp_path / "problem.json"
    path.write_text(doc.replace('"A"', A700), encoding="utf-8")
    code = main([str(path), "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, err) == (4, "")
    if fmt == "text":
        assert out == LONG_WITNESS_TEXT
        return
    witness = {"stratum": "E", "contacts": ["1", A700_PLUS_1]}
    reports = json.loads(out, parse_int=str)["reports"]
    for name in ("inverse_mapping", "measure_comparison"):
        certificates = reports[name]["certificates"]
        assert certificates["witness_below"] == witness
    assert f"\n            {A700_PLUS_1}\n" in out  # a JSON number


# the messages of exits 3 and 5 quote ints of any size in full too
N700, N700_LESS_1 = "9" * 700, "9" * 699 + "8"
LONG_FLOOR_MEASURE = f"u^-1 + O(u^-{N700})"


@pytest.mark.parametrize("digit_limit", [4300, 640], indirect=True)
@pytest.mark.parametrize("kind, payload, code, message", [
    ("compare", {"left": LONG_FLOOR_MEASURE, "right": LONG_FLOOR_MEASURE}, 5,
     f"error: precision exhausted: difference vanishes above floor -{N700} "
     "without being provably zero\n"
     f"hint: payload.left is a literal known only above O(u^-{N700}); "
     "a deeper --floor cannot help, give that operand more terms\n"),
    ("integrate", {"resolution": LINE_RES, "alpha": [["ALPHA"]]}, 3,
     "error: divergent integral: stratum 'origin': exponent 1+a+alpha = "
     f"-{N700_LESS_1} <= 0\n"),
], ids=["compare-literal-floor", "integrate-divergent-alpha"])
def test_error_messages_of_any_size_print(tmp_path, capsys, digit_limit,
                                          kind, payload, code, message):
    doc = json.dumps(problem(kind, payload))
    path = tmp_path / "problem.json"
    path.write_text(doc.replace('"ALPHA"', f"-{N700}"), encoding="utf-8")
    assert main([str(path)]) == code
    assert capsys.readouterr() == ("", message)


# ---------------------------------------------------------------------------
# measure / integrate

def test_measure_cusp_floor_minus_10(run):
    code, out, _ = run(problem("measure", {"resolution": CUSP_RES},
                               floor=-10))
    assert code == 0
    assert out == CUSP_MEASURE_M10 + "\n"


def test_measure_trivial_line_germ(run):
    code, out, _ = run(problem("measure", {"resolution": LINE_RES},
                               floor=-10))
    assert code == 0
    assert out == "u^-1 + O(u^-10)\n"


def test_measure_missing_class_field_path(run):
    broken = {"ambient_dim": 1,
              "strata": [{"name": "origin", "index_set": [0],
                          "p_mults": [1]}]}
    code, _, err = run(problem("measure", {"resolution": broken},
                               floor=-10))
    assert code == 2
    assert "payload.resolution.strata[0].class: missing required field" in err


def test_measure_floor_flag_overrides_file_options(run):
    code, out, _ = run(problem("measure", {"resolution": CUSP_RES},
                               floor=-10),
                       "--floor", "-6")
    assert code == 0
    assert out == "u^-2 - u^-3 + u^-4 - u^-5 + O(u^-6)\n"


def test_measure_json_format_reports_dimension(run):
    code, out, _ = run(problem("measure", {"resolution": CUSP_RES},
                               floor=-10),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"schema": 1, "kind": "measure",
                   "measure": CUSP_MEASURE_M10, "dim": -2}


def test_many_strata_sum_in_few_numerator_passes(run, monkeypatch):
    # 40 one-component strata with distinct k in 100..999: summed over
    # one denominator, every part took every factor it lacked (1,600
    # passes); summed pairwise, a part takes only its partner's factors
    import arcmeasure.grothendieck as grothendieck
    ks = random.Random(0).sample(range(100, 1000), 40)
    strata = [{"name": f"S{i}", "index_set": [i], "class": "1",
               "p_mults": [k - 1]} for i, k in enumerate(ks)]
    calls = []

    def counted(*args):
        calls.append(None)
        return add_terms(*args)

    add_terms = grothendieck._add_terms
    monkeypatch.setattr(grothendieck, "_add_terms", counted)
    code, out, err = run(problem("measure", {"resolution": {
        "ambient_dim": 1, "strata": strata}}, floor=-20))
    assert (code, out, err) == (0, "O(u^-20)\n", "")
    assert len(calls) < 400


def test_repeated_jets_problem_reads_its_blocks_from_the_table(
        run, monkeypatch):
    # the second run of one problem in one process builds no block and no
    # block text: every multinomial row comes from the process-wide table
    import arcmeasure.series as series
    doc = problem("jets", {"variables": ["x", "y", "z"],
                           "generators": ["x^3*y - 2*y^2*z + z^4 - x*y*z",
                                          "x^2 + y^2 + z^2 - 1"],
                           "level": 8})
    calls = []

    def counted(*args):
        calls.append(None)
        return factors(*args)

    factors = series._factors
    monkeypatch.setattr(series, "_factors", counted)
    monkeypatch.setattr(series, "_blocks", {})
    monkeypatch.setattr(series, "_blocks_weight", 0)
    first = run(doc)
    assert first[0] == 0 and calls
    kept = dict(series._blocks)
    calls.clear()
    assert run(doc) == first
    assert series._blocks == kept and calls == []


def test_measure_blowup_plane(run):
    code, out, _ = run(problem("measure", {"resolution": BLOWUP2_RES},
                               floor=-40))
    assert code == 0
    assert out == "u^-2 + O(u^-40)\n"


ZERO_RES = {"ambient_dim": 1,
            "strata": [{"name": "a", "index_set": [], "class": "1",
                        "p_mults": []},
                       {"name": "b", "index_set": [], "class": "-1",
                        "p_mults": []}]}


@pytest.mark.parametrize("kind, payload", [
    ("measure", {"resolution": ZERO_RES}),
    ("integrate", {"resolution": ZERO_RES, "alpha": [[], []]}),
])
def test_strata_cancelling_to_zero_measure(run, kind, payload):
    assert run(problem(kind, payload)) == (0, "0\n", "")
    code, out, err = run(problem(kind, payload), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"schema": 1, "kind": kind,
                               "measure": "0", "dim": None}


def test_measure_dimension_below_the_floor_is_decided(run):
    # u^-30 (u - 1) u^-1 / (1 - u^-30) has degree -30, below the floor
    res = {"ambient_dim": 1,
           "strata": [{"name": "o", "index_set": [0], "class": "1",
                       "p_mults": [29]}]}
    code, out, _ = run(problem("measure", {"resolution": res}),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["measure"] == "O(u^-16)"
    assert json.loads(out)["dim"] == -30


def test_measure_rejects_enumeration_override(run):
    code, out, err = run(problem("measure", {"resolution": CUSP_RES},
                                 floor=-16, e_max_override=2))
    assert (code, out) == (2, "")
    assert "problem.options.e_max_override: unknown option" in err


def test_integrate_negative_twist_recovers_line(run):
    code, out, _ = run(problem("integrate",
                               {"resolution": CUSP_RES,
                                "alpha": [[-1]]},
                               floor=-10))
    assert code == 0
    assert out == "u^-1 + O(u^-10)\n"


def test_integrate_divergent_twist_exits_3(run):
    code, _, err = run(problem("integrate",
                               {"resolution": LINE_RES,
                                "alpha": [[-1]]},
                               floor=-10))
    assert code == 3
    assert "divergent" in err


def test_integrate_alpha_arity_checked(run):
    code, _, err = run(problem("integrate",
                               {"resolution": LINE_RES,
                                "alpha": [[0, 0]]},
                               floor=-10))
    assert code == 2
    assert "payload.alpha[0]" in err


# ---------------------------------------------------------------------------
# compare

def test_compare_cusp_less_than_line(run):
    code, out, _ = run(problem("compare",
                               {"left": {"resolution": CUSP_RES},
                                "right": {"resolution": LINE_RES}},
                               floor=-12))
    assert code == 0
    assert out == "Less\n"


def test_compare_literal_measure_strings(run):
    code, out, _ = run(problem("compare",
                               {"left": "u^-2", "right": "u^-1"}))
    assert code == 0
    assert out == "Less\n"


def test_compare_equal_floored_measures_exit_0_equal(run):
    code, out, err = run(problem("compare",
                                 {"left": {"resolution": CUSP_RES},
                                  "right": {"resolution": CUSP_RES}},
                                 floor=-8))
    assert (code, out, err) == (0, "Equal\n", "")


@pytest.fixture
def refuse_unprinted_work(monkeypatch):
    """Make expanding a closed form, and rendering through any module
    that binds ``render``, fail the test."""
    def refuse(*args):
        raise AssertionError("a series was expanded or rendered")

    monkeypatch.setattr("arcmeasure.grothendieck._expand", refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("arcmeasure.") and "render" in vars(module):
            monkeypatch.setattr(module, "render", refuse)


def test_text_compare_renders_only_what_it_prints(run,
                                                   refuse_unprinted_work):
    code, out, err = run(problem("compare",
                                 {"left": {"resolution": CUSP_RES},
                                  "right": {"resolution": LINE_RES}},
                                 floor=-12))
    assert (code, out, err) == (0, "Less\n", "")


def test_text_compare_expands_nothing_at_any_floor(run,
                                                   refuse_unprinted_work):
    # an expansion would fill ten million coefficients; none is allocated
    code, out, err = run(problem("compare",
                                 {"left": {"resolution": CUSP_RES},
                                  "right": {"resolution": LINE_RES}}),
                         "--floor", "-10000000")
    assert (code, out, err) == (0, "Less\n", "")


def test_compare_literal_floor_names_operand_in_hint(run):
    code, out, err = run(problem("compare",
                                 {"left": "u^-1 + O(u^-7)",
                                  "right": "u^-1"}), "--floor", "-7")
    assert code == 5
    assert out == ""
    assert "precision exhausted" in err
    assert "payload.left" in err and "O(u^-7)" in err
    assert "--floor -14" not in err


def test_check_map_literal_floor_names_operand_in_hint(run):
    code, out, err = run(problem("check-map",
                                 {"diagram": IDENT_DIAG,
                                  "mu_x": "u^-1",
                                  "mu_y": "u^-1 + O(u^-5)"}))
    assert code == 5
    assert out == ""
    assert "payload.mu_y" in err and "O(u^-5)" in err
    assert "--floor -32" not in err


def test_compare_rejects_term_below_literal_floor(run):
    code, out, err = run(problem("compare",
                                 {"left": "u^-20 + O(u^-10)",
                                  "right": "-O(u^-3)"}))
    assert code == 2
    assert out == ""
    assert "payload.left" in err and "offset 0" in err


def test_compare_literal_offsets_count_from_the_raw_text(run):
    code, out, err = run(problem("compare", {"left": "  u +", "right": "u"}))
    assert code == 2
    assert out == ""
    assert err.startswith(
        "error: payload.left: unexpected end of input at offset 5")


@pytest.mark.parametrize("doc, message", [
    (problem("compare", {"left": {"resolution": CUSP_RES}, "right": 7}),
     "payload.right: expected a measure string or a resolution"),
    (problem("check-map", {"diagram": CUSP_TO_LINE_DIAG,
                           "mu_x": {"resolution": CUSP_RES},
                           "mu_y": {"resolution": {**LINE_RES,
                                                   "ambient_dim": 0}}}),
     "payload.mu_y.resolution.ambient_dim: must be positive"),
], ids=["compare", "check-map"])
def test_no_measure_is_computed_before_every_operand_is_read(run, monkeypatch,
                                                             doc, message):
    calls = []
    monkeypatch.setattr("arcmeasure.cli.germ_measure",
                        lambda *args: calls.append(args))
    assert run(doc) == (2, "", f"error: {message}\n")
    assert calls == []


# ---------------------------------------------------------------------------
# check-map

def test_check_map_exact_measures_use_the_floor_flag(run):
    # the image measure starts at u^-20, below the default floor; its
    # closed form decides the verdict at either floor
    diag = {"ambient_dim": 1,
            "strata": [{"name": "s", "index_set": [0], "class": "1",
                        "p_mults": [19], "q_mults": [19]}]}
    doc = problem("check-map", {"diagram": diag, "mu_x": "0", "mu_y": "0"})
    code, out, _ = run(doc, "--floor", "-40")
    assert code == 0
    assert out.splitlines()[0] == "conclusion: MeasureInequality"
    assert ("  image_measure_matches_target: fail "
            "(leq_order returned Greater)") in out.splitlines()
    # the default floor -16 prints a shorter image tail, same verdict
    assert run(doc) == (code, out, "")


@pytest.mark.parametrize("kind, payload", [
    ("compare", {"left": {"resolution": CUSP_RES},
                 "right": {"resolution": CUSP_RES}}),
    ("compare", {"left": {"resolution": BLOWUP2_RES}, "right": "u^-2"}),
    ("compare", {"left": {"resolution": CUSP_RES},
                 "right": {"resolution": LINE_RES}}),
    ("check-map", {"diagram": {"ambient_dim": 2,
                               "strata": [{"name": "E", "index_set": [0],
                                           "class": "u + 1",
                                           "p_mults": [1], "q_mults": [1]}]},
                   "mu_x": "u^-2", "mu_y": "u^-2"}),
    ("check-map", {"diagram": CUSP_TO_LINE_DIAG,
                   "mu_x": {"resolution": CUSP_RES},
                   "mu_y": {"resolution": LINE_RES}}),
])
def test_floor_changes_only_printed_tails(run, kind, payload):
    doc = problem(kind, payload)
    # the text form holds the verdict and no series
    shallow = run(doc, "--floor", "-3")
    assert shallow == run(doc, "--floor", "-40")
    assert shallow[0] in (0, 4) and shallow[2] == ""
    shallow_json = run(doc, "--floor", "-3", "--format", "json")
    deep_json = run(doc, "--floor", "-40", "--format", "json")
    assert shallow_json[0] == deep_json[0] == shallow[0]
    assert "O(u^-3)" in shallow_json[1] and "O(u^-40)" in deep_json[1]


def test_check_map_identity_is_inverse_arc_analytic(run):
    code, out, _ = run(problem("check-map",
                               {"diagram": IDENT_DIAG,
                                "mu_x": "u^-1", "mu_y": "u^-1"}))
    assert code == 0
    assert out.splitlines()[0] == "conclusion: InverseArcAnalytic"
    assert "jacobian_bounded_above: pass" in out


def test_check_map_identity_json_report(run):
    code, out, _ = run(problem("check-map",
                               {"diagram": IDENT_DIAG,
                                "mu_x": "u^-1", "mu_y": "u^-1"}),
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["conclusion"] == "InverseArcAnalytic"
    report = doc["reports"]["inverse_mapping"]
    assert [h["name"] for h in report["hypotheses"]] == [
        "measures_equal", "jacobian_bounded_below",
        "image_measure_matches_target", "jacobian_bounded_above"]
    assert all(h["status"] == "pass" for h in report["hypotheses"])
    assert report["certificates"]["image_measure"] == "u^-1"


def test_check_map_cusp_to_line_inequality(run):
    code, out, _ = run(problem("check-map",
                               {"diagram": CUSP_TO_LINE_DIAG,
                                "mu_x": {"resolution": CUSP_RES},
                                "mu_y": {"resolution": LINE_RES}},
                               floor=-12))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "conclusion: MeasureInequality"
    assert "measures_comparable: pass (leq_order returned Less)" in out


CUSP_TO_CUSP_DIAG = {"ambient_dim": 1,
                     "strata": [{"name": "origin", "index_set": [0],
                                 "class": "1", "p_mults": [1],
                                 "q_mults": [1]}]}


@pytest.mark.parametrize("payload, code, conclusion", [
    ({"diagram": CUSP_TO_CUSP_DIAG, "mu_x": {"resolution": CUSP_RES},
      "mu_y": {"resolution": CUSP_RES}}, 0, "InverseArcAnalytic"),
    ({"diagram": CUSP_TO_LINE_DIAG, "mu_x": {"resolution": CUSP_RES},
      "mu_y": {"resolution": LINE_RES}}, 0, "MeasureInequality"),
    ({"diagram": IDENT_DIAG, "mu_x": {"resolution": LINE_RES},
      "mu_y": {"resolution": CUSP_RES}}, 4, "Inconclusive"),
], ids=["inverse", "inequality", "inconclusive"])
def test_text_check_map_expands_and_renders_nothing(
        run, refuse_unprinted_work, payload, code, conclusion):
    got, out, err = run(problem("check-map", payload))
    assert (got, err) == (code, "")
    assert out.splitlines()[0] == f"conclusion: {conclusion}"


@pytest.mark.parametrize("doc, flags", [
    (problem("measure", {"resolution": BLOWUP2_RES}, floor=-12), ()),
    (problem("integrate", {"resolution": CUSP_RES, "alpha": [[1]]},
             floor=-12), ()),
    (problem("check-map", {"diagram": CUSP_TO_LINE_DIAG,
                           "mu_x": {"resolution": CUSP_RES},
                           "mu_y": {"resolution": LINE_RES}}, floor=-12),
     ("--format", "json")),
], ids=["measure", "integrate", "check-map-json"])
def test_printed_measures_never_build_their_terms(run, monkeypatch, doc,
                                                  flags):
    # render prints a computed measure from its closed form, so the term
    # dict that library readers get from ``terms`` stays unbuilt
    import arcmeasure.measure as measure
    computed = []

    def kept(parts, floor):
        computed.append(expand_rational(parts, floor))
        return computed[-1]

    expand_rational = measure._expand_rational
    monkeypatch.setattr(measure, "_expand_rational", kept)
    code, out, err = run(doc, *flags)
    assert (code, err) == (0, "") and "u^-" in out
    assert computed and all(s.closed_form for s in computed)
    assert all(s._terms is None for s in computed)


@pytest.mark.parametrize("digit_limit", [4300, 640], indirect=True)
def test_json_check_map_renders_each_measure_once(tmp_path, capsys,
                                                  monkeypatch, digit_limit):
    # the 701-digit witness makes the JSON dump retry under the lowest
    # limit, after the measures have been rendered once
    rendered = []

    def counted(series):
        rendered.append(series)
        return render(series)

    monkeypatch.setattr("arcmeasure.cli.render", counted)
    doc = json.dumps(problem("check-map", {
        "diagram": {"ambient_dim": 2, "strata": [
            {"name": "E", "index_set": [0, 1], "class": "1",
             "p_mults": ["A", 0], "q_mults": [0, 1]}]},
        "mu_x": {"resolution": CUSP_RES}, "mu_y": {"resolution": LINE_RES}}))
    path = tmp_path / "problem.json"
    path.write_text(doc.replace('"A"', A700), encoding="utf-8")
    code = main([str(path), "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (4, "")
    assert len(rendered) == 2 and rendered[0] is not rendered[1]
    mu_x = render(germ_measure(ResolutionData.from_json(CUSP_RES), -16))
    mu_y = render(germ_measure(ResolutionData.from_json(LINE_RES), -16))
    reports = json.loads(out, parse_int=str)["reports"]
    for name in ("inverse_mapping", "measure_comparison"):
        certificates = reports[name]["certificates"]
        assert (certificates["mu_x"], certificates["mu_y"]) == (mu_x, mu_y)


def test_check_map_contradictory_data_exit_4(run):
    code, out, _ = run(problem("check-map",
                               {"diagram": IDENT_DIAG,
                                "mu_x": "u^-1", "mu_y": "u^-2"}),
                       "--format", "json")
    assert code == 4
    doc = json.loads(out)
    assert doc["conclusion"] == "Inconclusive"
    comparison = doc["reports"]["measure_comparison"]
    assert "contradiction" in comparison["certificates"]
    assert comparison["certificates"]["measure_order"] == "Greater"


# ---------------------------------------------------------------------------
# problem-file validation

def test_missing_file_exits_2(capsys):
    code = main(["/nonexistent/problem.json"])
    assert code == 2
    assert "cannot read file" in capsys.readouterr().err


def test_no_argument_exits_2(capsys):
    code = main([])
    assert code == 2
    assert "problem file is required" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code = main([str(path)])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_non_utf8_file_exits_2_with_path(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"schema": 1, "kind": "jets\xff"}')
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: problem: invalid JSON: 'utf-8' codec "
                            "can't decode byte 0xff in position 27: "
                            "invalid start byte\n")


def test_deeply_nested_file_exits_2_with_path(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main([str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: problem: invalid JSON: maximum "
                                   "recursion depth exceeded")


USAGE = """\
usage: arcmeasure [-h] [--floor FLOOR] [--cap CAP] [--format {text,json}]
                  [problem]
"""

HELP = USAGE + """
arc-space measure calculus on problem files

positional arguments:
  problem               JSON problem file

options:
  -h, --help            show this help message and exit
  --floor FLOOR         precision floor (default -16)
  --cap CAP             series truncation cap (default 12)
  --format {text,json}
"""


def test_help_text_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP, "")


def test_usage_error_is_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([]) == 2
    assert capsys.readouterr() == (
        "", USAGE + "error: a problem file is required\n")


def test_unknown_kind_exits_2(run):
    code, _, err = run({"schema": 1, "kind": "frobnicate", "payload": {}})
    assert code == 2
    assert "problem.kind" in err and "frobnicate" in err


def test_unsupported_schema_version_exits_2(run):
    code, _, err = run({"schema": 2, "kind": "jets", "payload": {}})
    assert code == 2
    assert "problem.schema" in err


def test_unknown_option_exits_2(run):
    code, _, err = run({"schema": 1, "kind": "measure",
                        "payload": {"resolution": CUSP_RES},
                        "options": {"depth": 3}})
    assert code == 2
    assert "problem.options.depth" in err


def _jets(**fields):
    return problem("jets", {"variables": ["x", "y"],
                            "generators": ["y^2 - x^3"], "level": 2,
                            **fields})


def _compose(arc, **options):
    return problem("compose", {"variables": ["x"], "f": "x", "arc": arc},
                   **options)


def _stratum(**fields):
    return {"name": "origin", "index_set": [0], "class": "1",
            "p_mults": [1], **fields}


def _resolution(**fields):
    return problem("measure", {"resolution": {**CUSP_RES, **fields}})


# one malformed problem per rejection site: the stderr line names the
# field's path, so a rewired check that loses its path fails here
MALFORMED = [
    (_compose([[0, True]], cap=1),
     "payload.arc[0][1]: expected an integer or 'p/q' string"),
    (_compose([[0, 0.5]], cap=1),
     "payload.arc[0][1]: expected an integer or 'p/q' string"),
    (_jets(variables=[]), "payload.variables: must be nonempty"),
    (_jets(variables=["x", ""]), "payload.variables[1]: expected a name"),
    (_jets(variables=["x", "x"]), "payload.variables: names must be distinct"),
    (problem("compare", {"left": 3, "right": "u^-1"}),
     "payload.left: expected a measure string or a resolution"),
    (_jets(generators=[]), "payload.generators: must be nonempty"),
    (_jets(level=-1), "payload.level: must be nonnegative"),
    (_jets(generators=["x", 3]), "payload.generators[1]: expected a string"),
    (problem("hx", {"variables": ["x"], "f": "3"}),
     "payload.f: defining polynomial must be nonconstant"),
    (_compose([5]), "payload.arc[0]: expected a list"),
    (_compose([[0, 1, 2]], cap=1),
     "payload.arc[0]: more than cap+1 = 2 coefficients"),
    (problem("integrate", {"resolution": CUSP_RES, "alpha": []}),
     "payload.alpha: expected 1 vectors"),
    ([], "problem: expected a JSON object"),
    ({**_jets(), "options": [3]}, "problem.options: expected an object"),
    (_compose([[0]], floor=True), "problem.options.floor: expected an integer"),
    (_compose([[0]], cap="3"), "problem.options.cap: expected an integer"),
    (_compose([[0]], cap=-1), "problem.options.cap: must be nonnegative"),
    (_resolution(ambient_dim=True),
     "payload.resolution.ambient_dim: expected an integer"),
    (_resolution(strata={}), "payload.resolution.strata: expected a list"),
    (problem("integrate", {"resolution": CUSP_RES, "alpha": [5]}),
     "payload.alpha[0]: expected a list of integers"),
    (_resolution(strata=[_stratum(index_set=[0.5])]),
     "payload.resolution.strata[0].index_set[0]: expected an integer"),
    (_resolution(strata=[_stratum(p_mults=[-1])]),
     "payload.resolution.strata[0].p_mults[0]: must be nonnegative"),
    (_resolution(ambient_dim=0),
     "payload.resolution.ambient_dim: must be positive"),
    (_resolution(strata=[]), "payload.resolution.strata: must be nonempty"),
    (_resolution(strata=[3]), "payload.resolution.strata[0]: expected an object"),
    # names the polynomial scanner cannot read back as one variable
    (problem("hx", {"variables": ["2", "x"], "f": "2*x^2"}),
     "payload.variables[0]: expected a name"),
    (_jets(variables=["x y"]), "payload.variables[0]: expected a name"),
    (_jets(variables=["x*y"]), "payload.variables[0]: expected a name"),
    # digits are ASCII 0-9 in every grammar; Arabic-Indic ones are rejected
    (_jets(generators=["\u0663*x"]),
     "payload.generators[0]: unexpected character '\u0663' at offset 0"),
    (problem("hx", {"variables": ["x"], "f": "x^\u0662"}),
     "payload.f: expected integer exponent at offset 2"),
    (_resolution(strata=[_stratum(**{"class": "\u0663*u"})]),
     "payload.resolution.strata[0].class: unexpected character '\u0663' "
     "at offset 0"),
    (problem("compare", {"left": "u^-1 + O(u^-\u0665)", "right": "u^-1"}),
     "payload.left: expected floor exponent at offset 11"),
    (_compose([[0, "\u0663"]], cap=1),
     "payload.arc[0][1]: bad rational literal '\u0663'"),
    # a name starts with a letter or "_", not with a numeral that \w takes
    (_jets(variables=["\u00b2"], generators=["\u00b2^2"]),
     "payload.variables[0]: expected a name"),
    (_jets(variables=["\u00bd"]), "payload.variables[0]: expected a name"),
    (_jets(variables=["\u216b"]), "payload.variables[0]: expected a name"),
    (_jets(generators=["\u00b2*x"]),
     "payload.generators[0]: unexpected character '\u00b2' at offset 0"),
    (problem("hx", {"variables": ["x"], "f": "2\u00b2*x"}),
     "payload.f: unexpected character '\u00b2' at offset 1"),
]


@pytest.mark.parametrize("doc, message", MALFORMED)
def test_malformed_problem_names_the_field(run, doc, message):
    code, out, err = run(doc)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# where each kind's work starts; the library's own check of a constant
# ``f`` runs inside hypersurface_singular_ideal
COMPUTE = ("arcmeasure.cli.germ_measure", "arcmeasure.cli.motivic_integral",
           "arcmeasure.cli.compare_germ_measures",
           "arcmeasure.cli.inverse_mapping_report",
           "arcmeasure.series.jet_equations", "arcmeasure.series.compose",
           "arcmeasure.polynomials.hypersurface_singular_ideal")


@pytest.fixture
def computed(monkeypatch):
    """Names of the COMPUTE entry points called, in call order."""
    calls = []
    for target in COMPUTE:
        module, name = target.rsplit(".", 1)
        real = getattr(importlib.import_module(module), name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(target, spy)
    return calls


@pytest.mark.parametrize("doc, message", MALFORMED)
def test_no_kind_computes_before_every_field_is_read(run, computed, doc,
                                                     message):
    assert run(doc) == (2, "", f"error: {message}\n")
    constant_f = message.startswith("payload.f: defining polynomial")
    assert computed == (["hypersurface_singular_ideal"] if constant_f
                        else [])


@pytest.mark.parametrize("doc, entry", [
    (_jets(), "jet_equations"),
    (_compose([[0, 1]]), "compose"),
    (problem("hx", {"variables": ["x"], "f": "x^2"}),
     "hypersurface_singular_ideal"),
    (_resolution(), "germ_measure"),
    (problem("integrate", {"resolution": CUSP_RES, "alpha": [[1]]}),
     "motivic_integral"),
    (problem("compare", {"left": "u^-1", "right": "u^-2"}),
     "compare_germ_measures"),
    (problem("check-map", {"diagram": IDENT_DIAG, "mu_x": "u^-1",
                           "mu_y": "u^-1"}), "inverse_mapping_report"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_every_kind_reaches_a_recorded_entry_point(run, computed, doc,
                                                   entry):
    # the spies see each kind's work, so an empty record above means
    # that no work started
    assert run(doc)[0] in (0, 4)
    assert computed[0] == entry


# two faults in one problem: the message names the one checked first
@pytest.mark.parametrize("doc, message", [
    (problem("jets", {"variables": ["x"], "generators": ["x", 3],
                      "level": -1}),
     "payload.level: must be nonnegative"),
    (problem("jets", {"variables": ["x"], "level": -1}),
     "payload.generators: missing required field"),
    (_compose([[0.5]], cap=-1), "problem.options.cap: must be nonnegative"),
    (problem("integrate", {"resolution": {**CUSP_RES, "ambient_dim": 0},
                           "alpha": 5}),
     "payload.resolution.ambient_dim: must be positive"),
    (problem("check-map", {"diagram": {"ambient_dim": 1, "strata": []},
                           "mu_x": 3, "mu_y": "u^-1"}),
     "payload.diagram.strata: must be nonempty"),
], ids=["jets-level", "jets-generators", "compose-cap", "integrate",
        "check-map"])
def test_first_checked_fault_is_named(run, doc, message):
    assert run(doc) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("kind, first, second", [
    ("compare", "left", "right"),
    ("check-map", "mu_x", "mu_y"),
])
def test_literal_floor_tie_names_the_first_operand(run, fmt, kind, first,
                                                   second):
    payload = {first: "u^-1 + O(u^-8)", second: "u^-1 + O(u^-8)"}
    if kind == "check-map":
        payload["diagram"] = IDENT_DIAG
    assert run(problem(kind, payload), "--format", fmt) == (
        5, "", "error: precision exhausted: difference vanishes above "
        "floor -8 without being provably zero\n"
        f"hint: payload.{first} is a literal known only above O(u^-8); "
        "a deeper --floor cannot help, give that operand more terms\n")


@pytest.mark.parametrize("options", [{}, {"cap": 3}])
def test_negative_cap_flag_names_the_flag(run, options):
    code, _, err = run(_compose([[0, 1]], **options), "--cap", "-1")
    assert (code, err) == (2, "error: --cap: must be nonnegative\n")


def test_bad_class_string_reports_field_path(run):
    broken = {"ambient_dim": 1,
              "strata": [{"name": "origin", "index_set": [0],
                          "class": "u +* 1", "p_mults": [1]}]}
    code, _, err = run(problem("measure", {"resolution": broken}))
    assert code == 2
    assert "payload.resolution.strata[0].class" in err


def test_floored_class_exits_2(run):
    floored = {"ambient_dim": 1,
               "strata": [{"name": "origin", "index_set": [0],
                           "class": "1 + O(u^-3)", "p_mults": [1]}]}
    code, out, err = run(problem("measure", {"resolution": floored}))
    assert code == 2 and out == ""
    assert "payload.resolution: stratum 'origin': class must be exact" in err


# ---------------------------------------------------------------------------
# loader fuzz: mutated valid problems end in a documented exit code

GOLDEN = Path(__file__).resolve().parent / "golden"
FUZZ_SEEDS = [
    *(json.loads((GOLDEN / case["problem"]).read_text("utf-8"))
      for case in json.loads((GOLDEN / "manifest.json").read_text("utf-8"))
      ["cases"]),
    _jets(),
    _compose([[0, 1, "1/3"]], cap=3),
    problem("integrate", {"resolution": CUSP_RES, "alpha": [[1]]}),
    problem("compare", {"left": {"resolution": CUSP_RES},
                        "right": "u^-1 + O(u^-7)"}),
    problem("check-map", {"diagram": IDENT_DIAG, "mu_x": "u^-1",
                          "mu_y": "u^-1"}),
]
# replacements of another JSON type: ints stay small, strings short
OTHER_VALUES = [None, False, True, *range(-8, 9), "", "x", "u^-1", [], {}]


def _nodes(doc, path=()):
    """``(path, value)`` for every value in a JSON document."""
    yield path, doc
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _mutate(rng, doc):
    """``doc`` with one value dropped, retyped, truncated or repeated."""
    path, value = rng.choice(list(_nodes(doc)))
    ways = ["retype"]
    if isinstance(value, dict) and value:
        ways.append("drop")
    if isinstance(value, str) and value:
        ways.append("truncate")
    if isinstance(value, list) and value:
        ways.append("repeat")
    way = rng.choice(ways)
    if way == "drop":
        del value[rng.choice(sorted(value))]
        return doc
    if way == "repeat":
        i = rng.randrange(len(value))
        value.insert(i, copy.deepcopy(value[i]))
        return doc
    new = (value[:rng.randrange(len(value))] if way == "truncate" else
           copy.copy(rng.choice([v for v in OTHER_VALUES
                                 if type(v) is not type(value)])))
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


@st.composite
def mutated_problems(draw):
    # a seeded random.Random makes the choices: Hypothesis's own draws
    # would favour the first node of every document
    rng = draw(st.randoms(use_true_random=True))
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate(rng, doc)
    return doc


@given(mutated_problems())
@settings(max_examples=200, deadline=None)
def test_mutated_problems_exit_with_a_documented_code(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for flags in ([], ["--format", "json"]):
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([str(path), *flags])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3, 4, 5), (doc, flags)
        if code in (0, 4):
            assert out and err == "", (doc, flags)
        else:
            assert out == "" and err.startswith("error: "), (doc, flags)
        if code == 2:
            assert err.count("\n") == 1 and err.endswith("\n"), (doc, err)
            assert err.startswith(("error: payload", "error: problem",
                                   "error: --cap")), (doc, err)


# ---------------------------------------------------------------------------
# determinism

def test_output_is_byte_identical_across_runs(run):
    doc = problem("check-map",
                  {"diagram": CUSP_TO_LINE_DIAG,
                   "mu_x": {"resolution": CUSP_RES},
                   "mu_y": {"resolution": LINE_RES}},
                  floor=-12)
    first = run(doc, "--format", "json")
    second = run(doc, "--format", "json")
    assert first == second
    assert first[0] == 0


@pytest.mark.parametrize("doc", [
    problem("jets", {"variables": ["x", "y"], "generators": ["y^2 - x^3"],
                     "level": 2}),
    problem("hx", {"variables": ["x", "y"], "f": "1/2*y^2 - x^3"}),
    problem("compose", {"variables": ["x", "y"], "f": "y^2 - x^3",
                        "arc": [[0, 0, 1], [0, 0, 0, "1/3"]]}, cap=6),
], ids=["jets", "hx", "compose"])
def test_algebra_kinds_import_their_layers_in_a_fresh_process(run, tmp_path,
                                                              doc):
    # the command line imports the series and polynomial layers only in
    # these kinds' handlers
    want = run(doc)
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "arcmeasure.cli",
                             str(path)], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == want
    assert want[0] == 0


def test_console_entry_point_runs_in_subprocess(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem("measure",
                                       {"resolution": CUSP_RES},
                                       floor=-10)),
                    encoding="utf-8")
    results = [subprocess.run([sys.executable, "-m", "arcmeasure.cli",
                               str(path)],
                              capture_output=True, text=True)
               for _ in range(2)]
    for r in results:
        assert r.returncode == 0
        assert r.stdout == CUSP_MEASURE_M10 + "\n"
    assert results[0].stdout == results[1].stdout

