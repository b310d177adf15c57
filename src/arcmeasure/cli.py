"""Command line front end.

Problems arrive as JSON files with a ``schema`` version, a ``kind`` and
a payload; results go to stdout in a canonical text or JSON form that
is byte-stable across runs.  Exit codes: 0 for a conclusive result, 2
for malformed input (a usage error, or a message that starts with the
offending field's path), 3 for a divergent integral, 4 for an
inconclusive report, 5 when a literal measure's floor cannot settle a
comparison; ``--floor`` only sets where printed tails stop.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import lcm

from .analysis import (Conclusion, inverse_mapping_report,
                       measure_comparison_report)
from .grothendieck import (_MAX_DIGITS, _NAME, _SAFE_DIGITS, DEFAULT_FLOOR,
                           NEG_INF, ParseError, PrecisionExhausted,
                           _all_digits, _int, parse_motive, render,
                           virtual_dim)
from .measure import (DivergentExponent, ResolutionData, ResolutionDiagram,
                      SchemaError, _get, _int_list, _parsed,
                      compare_germ_measures, germ_measure, motivic_integral)

SCHEMA_VERSION = 1
DEFAULT_CAP = 12


class LiteralLimit(PrecisionExhausted):
    """Precision exhausted at the floor of an operand given as a literal.

    ``operands`` lists ``(path, value)`` per measure operand.  Measures
    computed from resolutions compare exactly, so the literal with the
    highest floor is the limit, and a deeper ``--floor`` cannot help.
    """

    def __init__(self, exc, operands):
        super().__init__(str(exc))
        self.path, value = max(
            (op for op in operands if op[1].closed_form is None),
            key=lambda op: op[1].floor)
        self.floor = value.floor


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(value, path):
    """``(p, q)``, ``q > 0``, for an integer or a ``'p/q'`` string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(path, "expected an integer or 'p/q' string")
    if isinstance(value, int):
        return value, 1
    # [-]p[/q] only: no decimals, exponents, spaces or underscores
    m = _RATIONAL.fullmatch(value)
    try:
        p, q = [_int(d, 0, "digits") for d in m.groups("1")] if m else (0, 0)
    except ParseError:  # a literal over _MAX_DIGITS digits
        q = 0
    if not q:
        raise SchemaError(path, f"bad rational literal {value!r}")
    return p, q


# a row of ``[-]p[/q]`` strings that int() reads under every int digit
# limit; re compiles it on first use, not at import
_LITERAL = f"-?[0-9]{{1,{_SAFE_DIGITS}}}(?:/[0-9]{{1,{_SAFE_DIGITS}}})?"
_ROW = f"{_LITERAL}(?:,{_LITERAL})*"


def _rationals(row, path):
    """``_rational`` of each entry of ``row``, at ``path[j]``: one match
    reads a row of short literal strings; any other row, ints included,
    goes entry by entry, which names the first bad entry."""
    try:
        text = ",".join(row)
    except TypeError:  # an entry that is no string
        text = ""
    if text.count(",") == len(row) - 1 and re.fullmatch(_ROW, text):
        pairs = [(int(p), int(q or 1))
                 for p, _, q in [v.partition("/") for v in row]]
        if all(q for _, q in pairs):
            return pairs
    return [_rational(v, f"{path}[{j}]") for j, v in enumerate(row)]


def _variables(payload, path):
    names = _get(payload, path, "variables", list, "a list of names")
    if not names:
        raise SchemaError(f"{path}.variables", "must be nonempty")
    for i, v in enumerate(names):
        if not isinstance(v, str) or not _NAME.fullmatch(v):
            raise SchemaError(f"{path}.variables[{i}]", "expected a name")
    if len(set(names)) != len(names):
        raise SchemaError(f"{path}.variables", "names must be distinct")
    return tuple(names)


def _resolution(obj, path, key="resolution", cls=ResolutionData):
    return cls.from_json(_get(obj, path, key, dict, "an object"),
                         f"{path}.{key}")


def _measure_spec(payload, key):
    """The germ measure operand ``payload[key]``: the series a canonical
    string gives, or the resolution data to measure."""
    spec = _get(payload, "payload", key, object, "a spec")
    path = f"payload.{key}"
    if isinstance(spec, str):
        return _parsed(path, parse_motive, spec)
    if isinstance(spec, dict) and "resolution" in spec:
        return _resolution(spec, path)
    raise SchemaError(path, "expected a measure string or a resolution")


def _measures(payload, keys, floor):
    """The germ measures ``payload[key]``, computed once all are read."""
    specs = [_measure_spec(payload, key) for key in keys]
    return [germ_measure(spec, floor) if isinstance(spec, ResolutionData)
            else spec for spec in specs]


# ---------------------------------------------------------------------------
# kind handlers: return (exit_code, text_str, json_obj)

def _run_jets(payload, options):
    from .polynomials import PolySystem, parse_poly, render_poly
    from .series import jet_equations
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
        gens.append(_parsed(f"payload.generators[{i}]", parse_poly, g,
                            variables))
    system = PolySystem(variables, gens)
    jets = jet_equations(system, level)
    rendered = sorted(render_poly(g) for g in jets)
    return 0, "\n".join(rendered) if rendered else "0", {
        "equations": rendered,
        "jet_variables": list(jets.variables),
    }


def _run_hx(payload, options):
    from .polynomials import (ConstantInput, hypersurface_singular_ideal,
                              parse_poly, render_poly)
    variables = _variables(payload, "payload")
    f_text = _get(payload, "payload", "f", str, "a polynomial string")
    f = _parsed("payload.f", parse_poly, f_text, variables)
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
    from .polynomials import parse_poly
    from .series import ArcJet, TruncSeries, compose, render_trunc
    variables = _variables(payload, "payload")
    f_text = _get(payload, "payload", "f", str, "a polynomial string")
    f = _parsed("payload.f", parse_poly, f_text, variables)
    arc_field = _get(payload, "payload", "arc", list, "a list of rows")
    if len(arc_field) != len(variables):
        raise SchemaError("payload.arc",
                          f"expected {len(variables)} component rows")
    cap = options["cap"]
    components = []
    for i, row in enumerate(arc_field):
        if not isinstance(row, list):
            raise SchemaError(f"payload.arc[{i}]", "expected a list")
        if len(row) > cap + 1:
            raise SchemaError(f"payload.arc[{i}]",
                              f"more than cap+1 = {cap + 1} coefficients")
        pairs = _rationals(row, f"payload.arc[{i}]")
        den = lcm(*[q for _, q in pairs])  # each row over one lcm
        nums = [p * (den // q) for p, q in pairs] + [0] * (cap + 1 - len(row))
        components.append(TruncSeries._reduced(nums, den))
    result = compose(f, ArcJet(components))
    text = render_trunc(result)
    return 0, text, {"series": text, "cap": cap}


def _series_result(series):
    text = render(series)
    dim = virtual_dim(series)
    return 0, text, {"measure": text, "dim": None if dim == NEG_INF else dim}


def _run_measure(payload, options):
    data = _resolution(payload, "payload")
    return _series_result(germ_measure(data, options["floor"]))


def _run_integrate(payload, options):
    data = _resolution(payload, "payload")
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
    return _series_result(motivic_integral(data, alpha, options["floor"]))


def _run_compare(payload, options):
    left, right = _measures(payload, ("left", "right"), options["floor"])
    try:
        order = compare_germ_measures(left, right)
    except PrecisionExhausted as exc:
        raise LiteralLimit(exc, [("payload.left", left),
                                 ("payload.right", right)])
    return 0, order, {"order": order, "left": left, "right": right}


def _run_check_map(payload, options):
    diagram = _resolution(payload, "payload", "diagram", ResolutionDiagram)
    mu_x, mu_y = _measures(payload, ("mu_x", "mu_y"), options["floor"])
    try:
        inverse = inverse_mapping_report(diagram, mu_x, mu_y,
                                         floor=options["floor"])
        reports = {"inverse_mapping": inverse.to_json()}
        conclusion = inverse.conclusion
        if conclusion != Conclusion.INVERSE_ARC_ANALYTIC:
            comparison = measure_comparison_report(diagram, mu_x, mu_y)
            reports["measure_comparison"] = comparison.to_json()
            conclusion = comparison.conclusion
    except PrecisionExhausted as exc:
        raise LiteralLimit(exc, [("payload.mu_x", mu_x),
                                 ("payload.mu_y", mu_y)])
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
    "compose": _run_compose,
    "hx": _run_hx,
    "measure": _run_measure,
    "integrate": _run_integrate,
    "compare": _run_compare,
    "check-map": _run_check_map,
}
KINDS = tuple(_HANDLERS)


# ---------------------------------------------------------------------------

def _json_text(obj):
    """Indented JSON of ``obj``: series as render text, ints in full."""
    texts = {}  # id -> text: a series is rendered once, retry included

    def text(series):
        if id(series) not in texts:
            texts[id(series)] = render(series)
        return texts[id(series)]

    return _all_digits(json.dumps, obj, indent=2, sort_keys=True,
                       default=text)


def _load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=lambda t: _int(t, 0, "digits"))
    except OSError as exc:
        raise SchemaError("problem", f"cannot read file: {exc}")
    except ParseError:  # the only one _int raises on a JSON integer
        raise SchemaError("problem", "invalid JSON: integer literal longer "
                          f"than {_MAX_DIGITS} digits")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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
        if key not in ("floor", "cap"):
            raise SchemaError(f"problem.options.{key}", "unknown option")
        _get(options, "problem.options", key, int, "an integer")
    return kind, payload, options


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
    args = parser.parse_args(argv)

    if args.problem is None:
        parser.print_usage(sys.stderr)
        print("error: a problem file is required", file=sys.stderr)
        return 2

    code, out, err = _all_digits(_solve, args)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


def _solve(args):
    """``(exit code, stdout text, stderr text)`` of the problem run."""
    try:
        kind, payload, options = _load_problem(args.problem)
        effective = {
            "floor": args.floor if args.floor is not None
            else options.get("floor", DEFAULT_FLOOR),
            "cap": args.cap if args.cap is not None
            else options.get("cap", DEFAULT_CAP),
        }
        if effective["cap"] < 0:
            path = "--cap" if args.cap is not None else "problem.options.cap"
            raise SchemaError(path, "must be nonnegative")
        code, text, obj = _HANDLERS[kind](payload, effective)
    except SchemaError as exc:
        return 2, "", f"error: {exc}\n"
    except DivergentExponent as exc:
        return 3, "", f"error: divergent integral: {exc}\n"
    except LiteralLimit as exc:
        return 5, "", (f"error: precision exhausted: {exc}\n"
                       f"hint: {exc.path} is a literal known only above "
                       f"O(u^{exc.floor}); a deeper --floor cannot help, "
                       "give that operand more terms\n")
    if args.format == "json":
        text = _json_text({"schema": SCHEMA_VERSION, "kind": kind, **obj})
    return code, f"{text}\n", ""


if __name__ == "__main__":
    sys.exit(main())
