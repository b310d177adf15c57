"""Command line front end.

Problems arrive as JSON files with a ``schema`` version, a ``kind`` and
a payload; results go to stdout in a canonical text or JSON form that
is byte-stable across runs.  A run loads, then computes: ``_KINDS``
names each kind's handler and payload fields, every field is read and
checked in that order before any work starts, and the handler only
computes from the read values.  Exit codes: 0 for a conclusive result, 2
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
from .grothendieck import (_MAX_DIGITS, _SAFE_DIGITS, DEFAULT_FLOOR,
                           NEG_INF, MotiveSeries, ParseError,
                           PrecisionExhausted, _all_digits, _int, _is_name,
                           parse_motive, render, virtual_dim)
from .measure import (DivergentExponent, ResolutionData, ResolutionDiagram,
                      SchemaError, _get, _int_list, _parsed,
                      compare_germ_measures, germ_measure, motivic_integral)

SCHEMA_VERSION = 1
DEFAULT_CAP = 12


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


# ---------------------------------------------------------------------------
# field readers: reader(payload, key, inputs, cap) returns payload[key]
# checked and parsed; ``inputs`` holds the fields read before it

def _variables(payload, key, *_):
    names = _get(payload, "payload", key, list, "a list of names", "nonempty")
    for i, v in enumerate(names):
        if not (isinstance(v, str) and _is_name(v)):
            raise SchemaError(f"payload.{key}[{i}]", "expected a name")
    if len(set(names)) != len(names):
        raise SchemaError(f"payload.{key}", "names must be distinct")
    return tuple(names)


def _level(payload, key, *_):
    return _get(payload, "payload", key, int, "an integer", "nonnegative")


def _generators(payload, key, inputs, _cap):
    from .polynomials import parse_poly
    field = _get(payload, "payload", key, list, "a list", "nonempty")
    _level(payload, "level")  # a bad level is named before a bad generator
    gens = []
    for i, g in enumerate(field):
        if not isinstance(g, str):
            raise SchemaError(f"payload.{key}[{i}]", "expected a string")
        gens.append(_parsed(f"payload.{key}[{i}]", parse_poly, g,
                            inputs["variables"]))
    return gens


def _polynomial(payload, key, inputs, _cap):
    from .polynomials import parse_poly
    text = _get(payload, "payload", key, str, "a polynomial string")
    return _parsed(f"payload.{key}", parse_poly, text, inputs["variables"])


def _arc(payload, key, inputs, cap):
    """The arc rows, each over one denominator, padded to ``cap + 1``."""
    from .series import ArcJet, TruncSeries
    field = _get(payload, "payload", key, list, "a list of rows")
    n = len(inputs["variables"])
    if len(field) != n:
        raise SchemaError(f"payload.{key}", f"expected {n} component rows")
    components = []
    for i, row in enumerate(field):
        path = f"payload.{key}[{i}]"
        if not isinstance(row, list):
            raise SchemaError(path, "expected a list")
        if len(row) > cap + 1:
            raise SchemaError(path,
                              f"more than cap+1 = {cap + 1} coefficients")
        pairs = _rationals(row, path)
        den = lcm(*[q for _, q in pairs])  # each row over one lcm
        nums = [p * (den // q) for p, q in pairs] + [0] * (cap + 1 - len(row))
        components.append(TruncSeries._reduced(nums, den))
    return ArcJet(components)


def _resolution_data(obj, key, *_, path="payload"):
    cls = ResolutionDiagram if key == "diagram" else ResolutionData
    return cls.from_json(_get(obj, path, key, dict, "an object"),
                         f"{path}.{key}")


def _alpha(payload, key, inputs, _cap):
    strata = inputs["resolution"].strata
    field = _get(payload, "payload", key, list, "a list")
    if len(field) != len(strata):
        raise SchemaError(f"payload.{key}", f"expected {len(strata)} vectors")
    for i, (row, stratum) in enumerate(zip(field, strata)):
        path = f"payload.{key}[{i}]"
        if len(_int_list(row, path)) != len(stratum.index_set):
            raise SchemaError(path, "length does not match the index set")
    return field


def _measure(payload, key, *_):
    """A measure operand: a literal series, or resolution data."""
    spec = _get(payload, "payload", key, object, "a spec")
    path = f"payload.{key}"
    if isinstance(spec, str):
        return _parsed(path, parse_motive, spec)
    if isinstance(spec, dict) and "resolution" in spec:
        return _resolution_data(spec, "resolution", path=path)
    raise SchemaError(path, "expected a measure string or a resolution")


_READERS = {
    "variables": _variables, "generators": _generators, "level": _level,
    "f": _polynomial, "arc": _arc, "resolution": _resolution_data,
    "diagram": _resolution_data, "alpha": _alpha,
    **dict.fromkeys(("left", "right", "mu_x", "mu_y"), _measure),
}


# ---------------------------------------------------------------------------
# kind handlers: take the read fields and the options, only compute, and
# return (exit_code, text_str, json_obj)

def _run_jets(variables, generators, level, **_):
    from .polynomials import PolySystem, render_poly
    from .series import jet_equations
    jets = jet_equations(PolySystem(variables, generators), level)
    rendered = sorted(render_poly(g) for g in jets)
    return 0, "\n".join(rendered) if rendered else "0", {
        "equations": rendered,
        "jet_variables": list(jets.variables),
    }


def _run_hx(variables, f, **_):
    from .polynomials import (ConstantInput, hypersurface_singular_ideal,
                              render_poly)
    try:
        system = hypersurface_singular_ideal(f)
    except ConstantInput as exc:
        raise SchemaError("payload.f", str(exc))
    rendered = [render_poly(g) for g in system]
    return 0, "\n".join(rendered) if rendered else "0", {
        "generators": rendered,
        "variables": list(variables),
    }


def _run_compose(f, arc, cap, **_):
    from .series import compose, render_trunc
    text = render_trunc(compose(f, arc))
    return 0, text, {"series": text, "cap": cap}


def _series_result(series):
    text = render(series)
    dim = virtual_dim(series)
    return 0, text, {"measure": text, "dim": None if dim == NEG_INF else dim}


def _run_measure(resolution, floor, **_):
    return _series_result(germ_measure(resolution, floor))


def _run_integrate(resolution, alpha, floor, **_):
    return _series_result(motivic_integral(resolution, alpha, floor))


def _germ(spec, floor):  # a literal as read, resolution data measured
    return (spec if isinstance(spec, MotiveSeries)
            else germ_measure(spec, floor))


def _run_compare(left, right, floor, **_):
    left, right = _germ(left, floor), _germ(right, floor)
    order = compare_germ_measures(left, right)
    return 0, order, {"order": order, "left": left, "right": right}


def _run_check_map(diagram, mu_x, mu_y, floor, **_):
    mu_x, mu_y = _germ(mu_x, floor), _germ(mu_y, floor)
    inverse = inverse_mapping_report(diagram, mu_x, mu_y, floor=floor)
    reports = {"inverse_mapping": inverse.to_json()}
    conclusion = inverse.conclusion
    if conclusion != Conclusion.INVERSE_ARC_ANALYTIC:
        comparison = measure_comparison_report(diagram, mu_x, mu_y)
        reports["measure_comparison"] = comparison.to_json()
        conclusion = comparison.conclusion
    obj = {"conclusion": conclusion, "reports": reports}
    lines = [f"conclusion: {conclusion}"]
    for name, report in sorted(reports.items()):
        lines.append(f"{name}:")
        for h in report["hypotheses"]:
            lines.append(f"  {h['name']}: {h['status']} ({h['detail']})")
    code = 0 if conclusion != Conclusion.INCONCLUSIVE else 4
    return code, "\n".join(lines), obj


# each kind's handler and its payload fields, in the order they are read
_KINDS = {
    "jets": (_run_jets, ("variables", "generators", "level")),
    "compose": (_run_compose, ("variables", "f", "arc")),
    "hx": (_run_hx, ("variables", "f")),
    "measure": (_run_measure, ("resolution",)),
    "integrate": (_run_integrate, ("resolution", "alpha")),
    "compare": (_run_compare, ("left", "right")),
    "check-map": (_run_check_map, ("diagram", "mu_x", "mu_y")),
}


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
    if kind not in _KINDS:
        raise SchemaError("problem.kind",
                          f"unknown kind {kind!r}, expected one of "
                          + ", ".join(_KINDS))
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
    inputs = {}
    try:
        kind, payload, options = _load_problem(args.problem)
        floor = (args.floor if args.floor is not None
                 else options.get("floor", DEFAULT_FLOOR))
        cap = (args.cap if args.cap is not None
               else options.get("cap", DEFAULT_CAP))
        if cap < 0:
            path = "--cap" if args.cap is not None else "problem.options.cap"
            raise SchemaError(path, "must be nonnegative")
        handler, fields = _KINDS[kind]
        for key in fields:  # every field is read before any work starts
            inputs[key] = _READERS[key](payload, key, inputs, cap)
        code, text, obj = handler(**inputs, floor=floor, cap=cap)
    except SchemaError as exc:
        return 2, "", f"error: {exc}\n"
    except DivergentExponent as exc:
        return 3, "", f"error: divergent integral: {exc}\n"
    except PrecisionExhausted as exc:
        # measures of resolutions are exact: the highest literal floor,
        # the first one on a tie, is the limit
        key = max((k for k, v in inputs.items()
                   if isinstance(v, MotiveSeries)),
                  key=lambda k: inputs[k].floor)
        return 5, "", (f"error: precision exhausted: {exc}\n"
                       f"hint: payload.{key} is a literal known only above "
                       f"O(u^{inputs[key].floor}); a deeper --floor cannot "
                       "help, give that operand more terms\n")
    if args.format == "json":
        text = _json_text({"schema": SCHEMA_VERSION, "kind": kind, **obj})
    return code, f"{text}\n", ""


if __name__ == "__main__":
    sys.exit(main())
