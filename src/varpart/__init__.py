"""Variance partitioning for least-squares regression.

Fits OLS models on mean-centered data and decomposes the regression sum
of squares into sequential (Type I) and partial (Type III) contributions,
residualized-predictor regressions, orthogonal-function fits, corrected
R2 and f statistics, and a Venn-region accounting that shows how much of
the response variation correlated predictors leave unattributed.

Each export below is imported from its module on first access, so
``import varpart`` alone loads neither numpy nor the numerical modules.
"""

from importlib import import_module

from . import errors

__version__ = "0.1.0"

# The public names, by the module that defines each.
_MODULES = {
    "data_io": (
        "CsvSpec", "SyntheticSpec", "center_csv", "dwaine_fixture", "exchangeable_correlation",
        "generate_synthetic", "load_csv", "save_csv",
    ),
    "decomposition": (
        "ORDERING_CAP", "DecompositionReport", "PredictorDecomposition", "ResidualizedPredictor",
        "VennRegions", "actual_model_ss", "compare_report", "corrected_f", "corrected_r2",
        "enumerate_orderings", "orthogonal_regression", "partial_ss", "residualize",
        "residualized_simple_fits", "sequential_ss", "venn_regions",
    ),
    "ols_core": (
        "RCOND_MIN", "AnovaRow", "AnovaTable", "CenteredData", "Dataset", "OlsFit", "SscpMatrix",
        "anova_table", "fit_ols", "mean_center", "sscp",
    ),
    "venn_svg": ("render_venn_svg", "solve_center_distance", "two_circle_layout"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = sorted(["errors", *_EXPORTS])


def __getattr__(name: str):
    """Import an export's module on first access and keep the value here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    return value
