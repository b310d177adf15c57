"""Per-layer spans around arcmeasure, patched in from outside the package.

:func:`patcher` swaps each layer's public functions and ring
operators in and out for wrappers that record one span per call: name, start,
end, parent span and problem id.  A function is patched in every
``arcmeasure`` module that binds it, because callers look names up in
their own module (``arcmeasure.cli.germ_measure`` is what the command
line calls).  Spans stay in memory; :func:`summarize` turns them into
self times and counts once the traced pass is over.

Self time is a span's duration minus the time its child spans cover, so
the self times of all layers add up to the time of the root spans, one
per problem.  A named time such as ``polynomials.det_s`` is inclusive
and counts only calls not nested in a call of the same group.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

OK, PRECISION, RAISED, NOT_IMPLEMENTED = 0, 1, 2, 3

_RING_OPS = ("__mul__", "__add__", "__sub__", "__rsub__", "__neg__",
             "__pow__")

TARGETS = {
    "cli": ("arcmeasure.cli", ["main"]),
    "grothendieck": ("arcmeasure.grothendieck", [
        *(f"LaurentPoly.{op}" for op in _RING_OPS),
        *(f"MotiveSeries.{op}" for op in _RING_OPS if op != "__pow__"),
        "MotiveSeries.with_floor", "MotiveSeries.from_poly", "virtual_dim",
        "leq_order", "geometric_sum", "limit_of_sequence", "render",
        "parse_motive"]),
    "measure": ("arcmeasure.measure", [
        "ResolutionData.from_json", "ResolutionDiagram.from_json",
        "contact_stratum_measure", "ord_jac_on_stratum", "motivic_integral",
        "motivic_integral_by_enumeration", "germ_measure", "image_measure",
        "compare_germ_measures"]),
    "series": ("arcmeasure.series", [
        "ArcJet.from_coeffs", "render_trunc", "series_order",
        "min_series_order", "compose", "jet_equations",
        "satisfies_jet_equations", "arc_level", "ord_jac_along",
        "matrix_minors_list", "matrix_entry_orders",
        "jacobian_matrix_order"]),
    "polynomials": ("arcmeasure.polynomials", [
        *(f"MultiPoly.{op}" for op in _RING_OPS), "MultiPoly.diff",
        "MultiPoly.evaluate", "PolySystem.__init__", "parse_poly",
        "render_poly", "poly_det", "matrix_minors", "jacobian_minors",
        "hypersurface_singular_ideal"]),
    "analysis": ("arcmeasure.analysis", [
        "check_boundedness", "ord_jac_f", "inverse_mapping_report",
        "measure_comparison_report", "inner_lipschitz_probe"]),
}


def _pairs(a, b):
    """|a| * |b| for a ring multiply, counted from the operand sizes.

    A ``LaurentPoly`` times a series returns NotImplemented and counts
    nothing; the series' reflected multiply that follows counts it.
    """
    if isinstance(b, int):
        return len(a.terms)
    if type(b) is type(a) or type(a).__name__ == "MotiveSeries":
        return len(a.terms) * len(getattr(b, "terms", ()))
    return 0


def _strata(data, *_):
    return len(data.strata)


def _useful(report):
    return int(report.conclusion != "Inconclusive")


WORK = {
    "grothendieck.LaurentPoly.__mul__": _pairs,
    "grothendieck.MotiveSeries.__mul__": _pairs,
    "measure.motivic_integral": _strata,
    "measure.motivic_integral_by_enumeration": _strata,
}
OUT = {
    "measure.motivic_integral": lambda s: len(s.terms),
    "measure.motivic_integral_by_enumeration": lambda s: len(s.terms),
    "series.jet_equations": lambda system: sum(len(g.terms)
                                               for g in system),
    "analysis.inverse_mapping_report": _useful,
    "analysis.measure_comparison_report": _useful,
}

GROTH_MUL = ("grothendieck.LaurentPoly.__mul__",
             "grothendieck.MotiveSeries.__mul__")
INTEGRALS = ("measure.motivic_integral",
             "measure.motivic_integral_by_enumeration")
REPORTS = ("analysis.inverse_mapping_report",
           "analysis.measure_comparison_report")

# metric -> (how, span names or layer); see summarize()
METRICS = {
    "cli.self_s": ("self", "cli"),
    "cli.problems": ("calls", ("cli.main",)),
    "grothendieck.mul_calls": ("calls", GROTH_MUL),
    "grothendieck.mul_s": ("time", GROTH_MUL),
    "grothendieck.term_pairs": ("work", GROTH_MUL),
    "grothendieck.geometric_sum_s": ("time",
                                     ("grothendieck.geometric_sum",)),
    "grothendieck.leq_order_s": ("time", ("grothendieck.leq_order",)),
    "grothendieck.render_s": ("time", ("grothendieck.render",)),
    "grothendieck.parse_motive_s": ("time", ("grothendieck.parse_motive",)),
    "grothendieck.self_s": ("self", "grothendieck"),
    "measure.self_s": ("self", "measure"),
    "measure.calls": ("entries", "measure"),
    "measure.strata": ("work", INTEGRALS),
    "measure.terms_out": ("out", INTEGRALS),
    "series.compose_s": ("time", ("series.compose",)),
    "series.compose_calls": ("calls", ("series.compose",)),
    "series.jet_equations_s": ("time", ("series.jet_equations",)),
    "series.jet_terms_out": ("out", ("series.jet_equations",)),
    "series.ord_jac_along_s": ("time", ("series.ord_jac_along",)),
    "series.self_s": ("self", "series"),
    "polynomials.mul_calls": ("calls", ("polynomials.MultiPoly.__mul__",)),
    "polynomials.mul_s": ("time", ("polynomials.MultiPoly.__mul__",)),
    "polynomials.det_s": ("time", ("polynomials.poly_det",)),
    "polynomials.parse_poly_s": ("time", ("polynomials.parse_poly",)),
    "polynomials.render_poly_s": ("time", ("polynomials.render_poly",)),
    "polynomials.self_s": ("self", "polynomials"),
    "analysis.inverse_report_s": ("time",
                                  ("analysis.inverse_mapping_report",)),
    "analysis.comparison_report_s": (
        "time", ("analysis.measure_comparison_report",)),
    "analysis.self_s": ("self", "analysis"),
    "analysis.precision_exhausted": ("raised", REPORTS),
    "analysis.conclusive_share": ("share", REPORTS),
    "bench.self_s": ("self", "bench"),
}


class Recorder:
    """Spans as lists ``[name, parent, problem, start, end, work, out,
    status]``, in the order they opened."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.problem = -1

    def open(self, name, work=0):
        span = [name, self.stack[-1] if self.stack else -1, self.problem,
                0.0, 0.0, work, 0, OK]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[3] = time.perf_counter()
        return span

    def close(self, span, status=OK):
        span[4] = time.perf_counter()
        self.stack.pop()
        span[7] = status


def _wrap(rec, name, fn, precision_exhausted):
    work, out = WORK.get(name), OUT.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(name, work(*args) if work else 0)
        try:
            result = fn(*args, **kwargs)
        except precision_exhausted:
            rec.close(span, PRECISION)
            raise
        except BaseException:
            rec.close(span, RAISED)
            raise
        if result is NotImplemented:
            rec.close(span, NOT_IMPLEMENTED)
            return result
        rec.close(span)
        if out:
            span[6] = out(result)
        return result

    return traced


def patcher(rec):
    """Find every target once; return functions ``(on, off)`` that put
    the wrappers in place and restore the originals."""
    from arcmeasure.grothendieck import PrecisionExhausted

    modules = [m for n, m in list(sys.modules.items())
               if n == "arcmeasure" or n.startswith("arcmeasure.")]
    patches = []
    for layer, (modname, targets) in TARGETS.items():
        module = importlib.import_module(modname)
        for target in targets:
            owner_name, _, attr = target.rpartition(".")
            name = f"{layer}.{target}"
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(_wrap(rec, name, raw.__func__,
                                            PrecisionExhausted))
                else:
                    new = _wrap(rec, name, raw, PrecisionExhausted)
                # aliases such as ``__rmul__ = __mul__`` share the span
                patches += [(owner, key, raw, new)
                            for key, value in vars(owner).items()
                            if value is raw]
            else:
                raw = getattr(module, attr)
                new = _wrap(rec, name, raw, PrecisionExhausted)
                patches += [(m, key, raw, new) for m in modules
                            for key, value in vars(m).items()
                            if value is raw]

    def on():
        for owner, key, _, new in patches:
            setattr(owner, key, new)

    def off():
        for owner, key, raw, _ in reversed(patches):
            setattr(owner, key, raw)

    return on, off


def summarize(spans):
    """Per-layer metrics (see METRICS) and a per-name table of the spans."""
    n = len(spans)
    dur = [s[4] - s[3] for s in spans]
    covered = [0.0] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            covered[s[1]] += dur[i]
    self_time = [dur[i] - covered[i] for i in range(n)]
    layer = [s[0].split(".", 1)[0] for s in spans]

    def nested_in(i, names):
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] in names:
                return True
            p = spans[p][1]
        return False

    metrics = {}
    for metric, (how, what) in METRICS.items():
        if how == "self":
            value = sum(t for t, lay in zip(self_time, layer) if lay == what)
        elif how == "entries":
            value = sum(1 for i, lay in enumerate(layer) if lay == what and (
                spans[i][1] < 0 or layer[spans[i][1]] != what))
        else:
            picked = [i for i, s in enumerate(spans) if s[0] in what]
            if how == "time":
                value = sum(dur[i] for i in picked
                            if not nested_in(i, what))
            elif how == "calls":
                value = sum(1 for i in picked
                            if spans[i][7] != NOT_IMPLEMENTED)
            elif how == "work":
                value = sum(spans[i][5] for i in picked)
            elif how == "out":
                value = sum(spans[i][6] for i in picked)
            elif how == "raised":
                value = sum(1 for i in picked if spans[i][7] == PRECISION)
            else:  # share of useful outcomes over attempts
                value = (sum(spans[i][6] for i in picked) / len(picked)
                         if picked else 0.0)
        metrics[metric] = value

    table = {}
    for i, s in enumerate(spans):
        row = table.setdefault(s[0], [0, 0.0, 0.0])
        row[0] += 1
        row[2] += self_time[i]
        if not nested_in(i, (s[0],)):
            row[1] += dur[i]
    return metrics, {name: {"calls": c, "inclusive_s": inc, "self_s": slf}
                     for name, (c, inc, slf) in sorted(table.items())}
