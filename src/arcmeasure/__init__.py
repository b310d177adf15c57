"""Exact arc-space measure calculus over the real numbers.

The package computes with a univariate invariant ring (Laurent
polynomials in ``u`` and their precision-floored completions), builds
jet equations for polynomial systems, evaluates germ measures through
resolution data, and checks the hypotheses of the comparison theorems
for maps presented by a double resolution diagram.

Each public name below is imported from its submodule on first use, and
every submodule serves the command line.  It imports ``grothendieck``,
``measure`` and ``analysis``; only its ``jets``, ``hx`` and ``compose``
kinds add ``polynomials`` and ``series``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in (
    ("analysis", "BoundednessVerdict Conclusion TheoremReport "
     "check_boundedness inner_lipschitz_probe inverse_mapping_report "
     "measure_comparison_report ord_jac_f"),
    ("grothendieck", "DEFAULT_FLOOR NEG_INF ONE U ZERO BoundViolated "
     "LaurentPoly MotiveSeries Order PrecisionExhausted geometric_sum "
     "leq_order limit_of_sequence parse_motive render virtual_dim"),
    ("measure", "BadContact DivergentExponent IndexMismatch "
     "MultiplicityVector ResolutionData ResolutionDiagram SNCStratum "
     "compare_germ_measures contact_stratum_measure germ_measure "
     "image_measure motivic_integral motivic_integral_by_enumeration "
     "ord_jac_on_stratum"),
    ("polynomials", "ArityMismatch ConstantInput MultiPoly ParseError "
     "PolySystem hypersurface_singular_ideal jacobian_minors matrix_minors "
     "parse_poly poly_det render_poly"),
    ("series", "ArcJet IndeterminateAtCap SeriesOrder TruncSeries arc_level "
     "compose jacobian_matrix_order jet_equations jet_variable_names "
     "matrix_entry_orders min_series_order ord_jac_along render_trunc "
     "satisfies_jet_equations series_order"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the submodule defining ``name`` and keep the value here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
