"""End-to-end tests for the problem-file command line front end."""

import json
import subprocess
import sys

import pytest

from arcmeasure.cli import main

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
@pytest.mark.parametrize("doc, message", [
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
])
def test_malformed_problem_names_the_field(run, doc, message):
    code, out, err = run(doc)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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

