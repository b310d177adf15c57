"""Command line front end.

Problems arrive as JSON files with a ``schema`` version, a ``kind`` and
a payload; results go to stdout in a canonical text or JSON form that
is byte-stable across runs.  Exit codes: 0 for a conclusive result, 2
for malformed input, 3 for a divergent integral, 4 for an inconclusive
report, 5 when the requested precision cannot settle a comparison.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from .analysis import (Conclusion, inverse_mapping_report,
                       measure_comparison_report)
from .grothendieck import (LaurentPoly, MotiveSeries, PrecisionExhausted,
                           RingParseError, leq_order, parse_motive, render,
                           virtual_dim)
from .measure import (DivergentExponent, IndexMismatch, ResolutionData,
                      ResolutionDiagram, compare_germ_measures, germ_measure,
                      motivic_integral, motivic_integral_by_enumeration)
from .polynomials import (ConstantInput, ParseError, PolySystem,
                          hypersurface_singular_ideal, parse_poly, render_poly)
from .series import ArcJet, compose, jet_equations, render_trunc

SCHEMA_VERSION = 1
DEFAULT_FLOOR = -16
DEFAULT_CAP = 12
KINDS = ("jets", "compose", "hx", "measure", "integrate", "compare",
         "check-map")


class SchemaError(ValueError):
    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class LiteralLimit(PrecisionExhausted):
    """Precision exhausted at the floor of an operand given as a literal.

    Recomputing at a deeper ``--floor`` cannot help: the literal itself
    is known only above ``floor``.
    """

    def __init__(self, exc, path, floor):
        super().__init__(str(exc))
        self.path = path
        self.floor = floor


def _literal_limit(exc, operands):
    """Turn ``exc`` into a :class:`LiteralLimit` if a literal sets the floor.

    ``operands`` lists ``(path, spec, value)`` for each measure operand.
    The comparison is limited by the highest floor among them; when a
    literal string operand has that floor, it is named.  Otherwise a
    resolution-computed operand is the limit and ``exc`` is returned.
    """
    floors = [(value.floor, path, isinstance(spec, str))
              for path, spec, value in operands
              if isinstance(value, MotiveSeries) and not value.is_exact()]
    if floors:
        top = max(f for f, _, _ in floors)
        for f, path, literal in floors:
            if f == top and literal:
                return LiteralLimit(exc, path, f)
    return exc


def _get(obj, path, key, typ, type_name):
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = obj[key]
    if typ is int and isinstance(value, bool):
        raise SchemaError(f"{path}.{key}", "expected an integer")
    if not isinstance(value, typ):
        raise SchemaError(f"{path}.{key}", f"expected {type_name}")
    return value


def _fraction(value, path) -> Fraction:
    if isinstance(value, bool):
        raise SchemaError(path, "expected an integer or 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(path, f"bad rational literal {value!r}")
    raise SchemaError(path, "expected an integer or 'p/q' string")


def _int_list(value, path, allow_negative=True):
    if not isinstance(value, list):
        raise SchemaError(path, "expected a list of integers")
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError(f"{path}[{i}]", "expected an integer")
        if not allow_negative and v < 0:
            raise SchemaError(f"{path}[{i}]", "must be nonnegative")
        out.append(v)
    return out


def _parse_poly_field(text, variables, path):
    try:
        return parse_poly(text, variables)
    except ParseError as exc:
        raise SchemaError(path, str(exc))


def _parse_motive_field(text, path):
    try:
        return parse_motive(text)
    except RingParseError as exc:
        raise SchemaError(path, str(exc))


def _variables(payload, path):
    names = _get(payload, path, "variables", list, "a list of names")
    if not names:
        raise SchemaError(f"{path}.variables", "must be nonempty")
    for i, v in enumerate(names):
        if not isinstance(v, str) or not v:
            raise SchemaError(f"{path}.variables[{i}]", "expected a name")
    if len(set(names)) != len(names):
        raise SchemaError(f"{path}.variables", "names must be distinct")
    return tuple(names)


def _resolution_json(obj, path, want_q):
    d = _get(obj, path, "ambient_dim", int, "an integer")
    if d < 1:
        raise SchemaError(f"{path}.ambient_dim", "must be positive")
    strata = _get(obj, path, "strata", list, "a list")
    if not strata:
        raise SchemaError(f"{path}.strata", "must be nonempty")
    for i, entry in enumerate(strata):
        p = f"{path}.strata[{i}]"
        if not isinstance(entry, dict):
            raise SchemaError(p, "expected an object")
        _get(entry, p, "name", str, "a string")
        _int_list(_get(entry, p, "index_set", list, "a list"),
                  f"{p}.index_set")
        _get(entry, p, "class", str, "a class string")
        _parse_motive_field(entry["class"], f"{p}.class")
        _int_list(_get(entry, p, "p_mults", list, "a list"),
                  f"{p}.p_mults", allow_negative=False)
        if want_q:
            _int_list(_get(entry, p, "q_mults", list, "a list"),
                      f"{p}.q_mults", allow_negative=False)
    try:
        if want_q:
            return ResolutionDiagram.from_json(obj)
        return ResolutionData.from_json(obj)
    except (ValueError, IndexMismatch) as exc:
        raise SchemaError(path, str(exc))


def _measure_spec(spec, path, floor):
    """A germ measure: a canonical string or a resolution object."""
    if isinstance(spec, str):
        return _parse_motive_field(spec, path)
    if isinstance(spec, dict) and "resolution" in spec:
        data = _resolution_json(
            _get(spec, path, "resolution", dict, "an object"),
            f"{path}.resolution", want_q=False)
        return germ_measure(data, floor)
    raise SchemaError(path, "expected a measure string or a resolution")


# ---------------------------------------------------------------------------
# kind handlers: return (exit_code, text_str, json_obj)

def _run_jets(payload, options):
    variables = _variables(payload, "payload")
    gens_field = _get(payload, "payload", "generators", list, "a list")
    if not gens_field:
        raise SchemaError("payload.generators", "must be nonempty")
    level = _get(payload, "payload", "level", int, "an integer")
    if level < 0:
        raise SchemaError("payload.level", "must be nonnegative")
    gens = []
    for i, g in enumerate(gens_field):
        if not isinstance(g, str):
            raise SchemaError(f"payload.generators[{i}]", "expected a string")
        gens.append(_parse_poly_field(g, variables,
                                      f"payload.generators[{i}]"))
    system = PolySystem(variables, gens)
    jets = jet_equations(system, level)
    rendered = sorted(render_poly(g) for g in jets)
    return 0, "\n".join(rendered) if rendered else "0", {
        "equations": rendered,
        "jet_variables": list(jets.variables),
    }


def _run_hx(payload, options):
    variables = _variables(payload, "payload")
    f_text = _get(payload, "payload", "f", str, "a polynomial string")
    f = _parse_poly_field(f_text, variables, "payload.f")
    try:
        system = hypersurface_singular_ideal(f)
    except ConstantInput as exc:
        raise SchemaError("payload.f", str(exc))
    rendered = [render_poly(g) for g in system]
    return 0, "\n".join(rendered) if rendered else "0", {
        "generators": rendered,
        "variables": list(variables),
    }


def _run_compose(payload, options):
    variables = _variables(payload, "payload")
    f_text = _get(payload, "payload", "f", str, "a polynomial string")
    f = _parse_poly_field(f_text, variables, "payload.f")
    arc_field = _get(payload, "payload", "arc", list, "a list of rows")
    if len(arc_field) != len(variables):
        raise SchemaError("payload.arc",
                          f"expected {len(variables)} component rows")
    cap = options["cap"]
    rows = []
    for i, row in enumerate(arc_field):
        if not isinstance(row, list):
            raise SchemaError(f"payload.arc[{i}]", "expected a list")
        if len(row) > cap + 1:
            raise SchemaError(f"payload.arc[{i}]",
                              f"more than cap+1 = {cap + 1} coefficients")
        rows.append([_fraction(v, f"payload.arc[{i}][{j}]")
                     for j, v in enumerate(row)])
    arc = ArcJet.from_coeffs(rows, cap)
    result = compose(f, arc)
    text = render_trunc(result)
    return 0, text, {"series": text, "cap": cap}


def _series_result(series):
    text = render(series)
    out = {"measure": text}
    try:
        out["dim"] = int(virtual_dim(series))
    except PrecisionExhausted:
        out["dim"] = None
    return 0, text, out


def _run_measure(payload, options):
    data = _resolution_json(
        _get(payload, "payload", "resolution", dict, "an object"),
        "payload.resolution", want_q=False)
    e_max = options.get("e_max_override")
    if e_max is not None:
        series = motivic_integral_by_enumeration(
            data, None, options["floor"], max_total_contact=e_max)
    else:
        series = germ_measure(data, options["floor"])
    return _series_result(series)


def _run_integrate(payload, options):
    data = _resolution_json(
        _get(payload, "payload", "resolution", dict, "an object"),
        "payload.resolution", want_q=False)
    alpha_field = _get(payload, "payload", "alpha", list, "a list")
    if len(alpha_field) != len(data.strata):
        raise SchemaError("payload.alpha",
                          f"expected {len(data.strata)} vectors")
    alpha = []
    for i, row in enumerate(alpha_field):
        vec = _int_list(row, f"payload.alpha[{i}]")
        if len(vec) != len(data.strata[i].index_set):
            raise SchemaError(f"payload.alpha[{i}]",
                              "length does not match the index set")
        alpha.append(vec)
    e_max = options.get("e_max_override")
    if e_max is not None:
        series = motivic_integral_by_enumeration(
            data, alpha, options["floor"], max_total_contact=e_max)
    else:
        series = motivic_integral(data, alpha, options["floor"])
    return _series_result(series)


def _run_compare(payload, options):
    left_spec = _get(payload, "payload", "left", object, "a spec")
    right_spec = _get(payload, "payload", "right", object, "a spec")
    left = _measure_spec(left_spec, "payload.left", options["floor"])
    right = _measure_spec(right_spec, "payload.right", options["floor"])
    try:
        order = compare_germ_measures(left, right)
    except ValueError as exc:
        # mismatched floors; PrecisionExhausted is not a ValueError and
        # propagates to the exit-code mapping instead
        raise SchemaError("payload", str(exc))
    except PrecisionExhausted as exc:
        raise _literal_limit(exc, [("payload.left", left_spec, left),
                                   ("payload.right", right_spec, right)])
    return 0, order, {"order": order,
                      "left": render(left), "right": render(right)}


def _run_check_map(payload, options):
    diagram = _resolution_json(
        _get(payload, "payload", "diagram", dict, "an object"),
        "payload.diagram", want_q=True)
    mu_x_spec = _get(payload, "payload", "mu_x", object, "a spec")
    mu_y_spec = _get(payload, "payload", "mu_y", object, "a spec")
    mu_x = _measure_spec(mu_x_spec, "payload.mu_x", options["floor"])
    mu_y = _measure_spec(mu_y_spec, "payload.mu_y", options["floor"])
    try:
        inverse = inverse_mapping_report(diagram, mu_x, mu_y)
        reports = {"inverse_mapping": inverse.to_json()}
        conclusion = inverse.conclusion
        if conclusion != Conclusion.INVERSE_ARC_ANALYTIC:
            comparison = measure_comparison_report(diagram, mu_x, mu_y)
            reports["measure_comparison"] = comparison.to_json()
            conclusion = comparison.conclusion
    except PrecisionExhausted as exc:
        raise _literal_limit(exc, [("payload.mu_x", mu_x_spec, mu_x),
                                   ("payload.mu_y", mu_y_spec, mu_y)])
    obj = {"conclusion": conclusion, "reports": reports}
    lines = [f"conclusion: {conclusion}"]
    for name, report in sorted(reports.items()):
        lines.append(f"{name}:")
        for h in report["hypotheses"]:
            lines.append(f"  {h['name']}: {h['status']} ({h['detail']})")
    code = 0 if conclusion != Conclusion.INCONCLUSIVE else 4
    return code, "\n".join(lines), obj


_HANDLERS = {
    "jets": _run_jets,
    "hx": _run_hx,
    "compose": _run_compose,
    "measure": _run_measure,
    "integrate": _run_integrate,
    "compare": _run_compare,
    "check-map": _run_check_map,
}


# ---------------------------------------------------------------------------

def _load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SchemaError("problem", f"cannot read file: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError("problem", f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SchemaError("problem", "expected a JSON object")
    schema = _get(doc, "problem", "schema", int, "an integer")
    if schema != SCHEMA_VERSION:
        raise SchemaError("problem.schema",
                          f"unsupported version {schema}, expected 1")
    kind = _get(doc, "problem", "kind", str, "a string")
    if kind not in KINDS:
        raise SchemaError("problem.kind",
                          f"unknown kind {kind!r}, expected one of "
                          + ", ".join(KINDS))
    payload = _get(doc, "problem", "payload", dict, "an object")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise SchemaError("problem.options", "expected an object")
    for key in options:
        if key not in ("floor", "cap", "e_max_override"):
            raise SchemaError(f"problem.options.{key}", "unknown option")
        value = options[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"problem.options.{key}", "expected an integer")
    return kind, payload, options


def _selftest(seed: int) -> int:
    rng = random.Random(seed)

    def rand_poly():
        return LaurentPoly({rng.randint(-6, 6): rng.randint(-9, 9)
                            for _ in range(rng.randint(0, 4))})

    checks = 0
    for _ in range(300):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if a and b:
            assert virtual_dim(a * b) == virtual_dim(a) + virtual_dim(b)
        text = render(a)
        assert parse_motive(text) == a, text
        checks += 5
    print(f"selftest passed: {checks} checks (seed {seed})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="arcmeasure",
        description="arc-space measure calculus on problem files")
    parser.add_argument("problem", nargs="?", help="JSON problem file")
    parser.add_argument("--floor", type=int, default=None,
                        help=f"precision floor (default {DEFAULT_FLOOR})")
    parser.add_argument("--cap", type=int, default=None,
                        help=f"series truncation cap (default {DEFAULT_CAP})")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized commands")
    parser.add_argument("--selftest", action="store_true",
                        help="run randomized internal checks and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return _selftest(args.seed)
    if args.problem is None:
        parser.print_usage(sys.stderr)
        print("error: a problem file is required", file=sys.stderr)
        return 2

    floor_hint = args.floor if args.floor is not None else DEFAULT_FLOOR
    try:
        kind, payload, options = _load_problem(args.problem)
        effective = {
            "floor": args.floor if args.floor is not None
            else options.get("floor", DEFAULT_FLOOR),
            "cap": args.cap if args.cap is not None
            else options.get("cap", DEFAULT_CAP),
            "e_max_override": options.get("e_max_override"),
        }
        floor_hint = effective["floor"]
        if effective["cap"] < 0:
            raise SchemaError("options.cap", "must be nonnegative")
        code, text, obj = _HANDLERS[kind](payload, effective)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergentExponent as exc:
        print(f"error: divergent integral: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"error: precision exhausted: {exc}", file=sys.stderr)
        if isinstance(exc, LiteralLimit):
            print(f"hint: {exc.path} is a literal known only above "
                  f"O(u^{exc.floor}); a deeper --floor cannot help, give "
                  f"that operand more terms", file=sys.stderr)
        else:
            print(f"hint: retry with a deeper floor, e.g. "
                  f"--floor {2 * floor_hint}", file=sys.stderr)
        return 5

    if args.format == "json":
        obj = {"schema": SCHEMA_VERSION, "kind": kind, **obj}
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
