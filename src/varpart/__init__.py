"""Variance partitioning for least-squares regression.

Fits OLS models on mean-centered data and decomposes the regression sum
of squares into sequential (Type I) and partial (Type III) contributions,
residualized-predictor regressions, orthogonal-function fits, corrected
R2 and f statistics, and a Venn-region accounting that shows how much of
the response variation correlated predictors leave unattributed.
"""

from . import errors
from .data_io import (
    CsvSpec,
    SyntheticSpec,
    center_csv,
    dataset_to_csv_text,
    dwaine_fixture,
    exchangeable_correlation,
    generate_synthetic,
    load_csv,
    save_csv,
)
from .decomposition import (
    ORDERING_CAP,
    DecompositionReport,
    OrderingFit,
    PredictorDecomposition,
    ResidualizedPredictor,
    VennRegions,
    actual_model_ss,
    compare_report,
    corrected_f,
    corrected_r2,
    enumerate_orderings,
    ordering_fits,
    ordering_records,
    orthogonal_regression,
    partial_ss,
    residualize,
    residualized_simple_fits,
    sequential_ss,
    venn_regions,
)
from .ols_core import (
    RCOND_MIN,
    AnovaRow,
    AnovaTable,
    CenteredData,
    Dataset,
    OlsFit,
    SscpMatrix,
    anova_table,
    fit_ols,
    mean_center,
    sscp,
)
from .venn_svg import render_venn_svg, solve_center_distance, two_circle_layout

__version__ = "0.1.0"

__all__ = [
    "AnovaRow",
    "AnovaTable",
    "CenteredData",
    "CsvSpec",
    "Dataset",
    "DecompositionReport",
    "ORDERING_CAP",
    "OlsFit",
    "OrderingFit",
    "PredictorDecomposition",
    "RCOND_MIN",
    "ResidualizedPredictor",
    "SscpMatrix",
    "SyntheticSpec",
    "VennRegions",
    "actual_model_ss",
    "anova_table",
    "center_csv",
    "compare_report",
    "corrected_f",
    "corrected_r2",
    "dataset_to_csv_text",
    "dwaine_fixture",
    "enumerate_orderings",
    "errors",
    "exchangeable_correlation",
    "fit_ols",
    "generate_synthetic",
    "load_csv",
    "mean_center",
    "ordering_fits",
    "ordering_records",
    "orthogonal_regression",
    "partial_ss",
    "render_venn_svg",
    "residualize",
    "residualized_simple_fits",
    "save_csv",
    "sequential_ss",
    "solve_center_distance",
    "sscp",
    "two_circle_layout",
    "venn_regions",
]
