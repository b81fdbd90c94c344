"""Mean-centered OLS: centering, cross-products, subset fits, ANOVA tables.

Every fit in this package runs on mean-centered columns, so the intercept is
carried implicitly and a fit on a predictor subset reduces to the normal
equations on the centered sum-of-squares-and-cross-products (SSCP) matrix.
The SSCP is small (one row per predictor), so a dense symmetric
positive-definite solve is all the linear algebra required. The solves call
LAPACK's Cholesky routines (``dpotrf``/``dpotrs``, taken from scipy once at
import) directly: with at most a few columns, scipy's per-call wrapper work
would cost more than the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterable, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    ConstantColumn,
    EmptySubset,
    InvalidDataset,
    NonFiniteValue,
    SingularDesign,
    UnknownName,
)

# Reciprocal-condition-number floor on the diagonally normalized SSCP.
# Below this the design is treated as collinear rather than merely
# ill-conditioned; legitimate high collinearity still computes.
RCOND_MIN = 1e-12

_potrf, _potrs = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), (np.empty((1, 1)),))


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Named numeric columns with one response and ordered predictors.

    Columns are stored as ``(name, values)`` pairs. All columns must have
    the same length, contain only finite values, and there must be at least
    two more observations than predictors so every fit has residual degrees
    of freedom.
    """

    columns: tuple[tuple[str, np.ndarray], ...]
    response_name: str
    predictor_names: tuple[str, ...]

    def __post_init__(self):
        cols = tuple((str(nm), _readonly(v)) for nm, v in self.columns)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "predictor_names", tuple(self.predictor_names))
        names = [nm for nm, _ in cols]
        if len(set(names)) != len(names):
            raise InvalidDataset("duplicate column names")
        lengths = {v.shape for _, v in cols}
        if not cols or len(lengths) != 1 or cols[0][1].ndim != 1:
            raise InvalidDataset("columns must be 1-d vectors of equal length")
        for nm, v in cols:
            if not np.all(np.isfinite(v)):
                raise NonFiniteValue(f"column {nm!r} contains NaN or infinity")
        if not self.predictor_names:
            raise InvalidDataset("at least one predictor is required")
        if len(set(self.predictor_names)) != len(self.predictor_names):
            raise InvalidDataset("predictor names must be distinct")
        if self.response_name in self.predictor_names:
            raise InvalidDataset("response cannot also be a predictor")
        for nm in (self.response_name, *self.predictor_names):
            if nm not in names:
                raise UnknownName(nm)
        if self.n < len(self.predictor_names) + 2:
            raise InvalidDataset(
                f"need at least p + 2 = {len(self.predictor_names) + 2} "
                f"observations, got {self.n}"
            )

    @property
    def n(self) -> int:
        return len(self.columns[0][1])

    @property
    def p(self) -> int:
        return len(self.predictor_names)

    def column(self, name: str) -> np.ndarray:
        for nm, v in self.columns:
            if nm == name:
                return v
        raise UnknownName(name)


@dataclass(frozen=True)
class CenteredData:
    """Mean-centered response and predictors with stored means and sds.

    ``means`` and ``sds`` are ordered response first, then predictors in
    ``predictor_names`` order. Sample standard deviations use divisor n - 1.
    """

    response_name: str
    predictor_names: tuple[str, ...]
    y: np.ndarray
    x: np.ndarray
    means: np.ndarray
    sds: np.ndarray

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def p(self) -> int:
        return len(self.predictor_names)

    @property
    def labels(self) -> tuple[str, ...]:
        return (self.response_name, *self.predictor_names)

    @property
    def ss_total(self) -> float:
        return float(self.y @ self.y)

    @property
    def mean_y(self) -> float:
        return float(self.means[0])

    @property
    def sd_y(self) -> float:
        return float(self.sds[0])

    @cached_property
    def _index(self) -> dict[str, int]:
        return {nm: i for i, nm in enumerate(self.predictor_names)}

    def predictor_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownName(name) from None

    def column(self, name: str) -> np.ndarray:
        """Centered column by name (response or predictor)."""
        if name == self.response_name:
            return self.y
        return self.x[:, self.predictor_index(name)]

    def mean(self, name: str) -> float:
        if name == self.response_name:
            return float(self.means[0])
        return float(self.means[1 + self.predictor_index(name)])

    def sd(self, name: str) -> float:
        if name == self.response_name:
            return float(self.sds[0])
        return float(self.sds[1 + self.predictor_index(name)])


@dataclass(frozen=True)
class SscpMatrix:
    """Symmetric matrix of cross-products over centered columns."""

    labels: tuple[str, ...]
    m: np.ndarray

    def value(self, a: str, b: str) -> float:
        """Entry for the labeled pair, e.g. value('Y', 'X1')."""
        try:
            i = self.labels.index(a)
            j = self.labels.index(b)
        except ValueError as exc:
            raise UnknownName(str(exc).split("'")[0]) from None
        return float(self.m[i, j])


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit of the centered response on a predictor subset.

    Slopes solve the normal equations on centered data; the intercept is
    reconstructed from the stored means. ``z`` rescales each slope by
    sd(predictor)/sd(response); ``t`` is slope over standard error.
    """

    predictor_subset: tuple[str, ...]
    b: np.ndarray
    intercept: float
    ss_total: float
    ss_regression: float
    ss_residual: float
    df_model: int
    df_residual: int
    r2: float
    f: float
    se: np.ndarray
    t: np.ndarray
    z: np.ndarray
    n: int

    @property
    def ms_residual(self) -> float:
        return self.ss_residual / self.df_residual

    def coefficient(self, name: str) -> float:
        try:
            return float(self.b[self.predictor_subset.index(name)])
        except ValueError:
            raise UnknownName(name) from None


@dataclass(frozen=True)
class AnovaRow:
    source: str
    ss: float
    df: int
    ms: float | None
    f: float | None


@dataclass(frozen=True)
class AnovaTable:
    """Regression/Residual/Total rows plus the coefficient of determination."""

    rows: tuple[AnovaRow, ...]
    r2: float

    def row(self, source: str) -> AnovaRow:
        for r in self.rows:
            if r.source == source:
                return r
        raise KeyError(source)


def mean_center(d: Dataset) -> CenteredData:
    """Center the response and predictor columns of ``d``.

    Records the column means and sample standard deviations (divisor n - 1)
    so that intercepts and standardized coefficients can be reconstructed.
    The input dataset is left untouched.

    Raises ConstantColumn if any selected column has zero sample sd, and
    SingularDesign if a column's sum or sum of squares overflows float64,
    as every cross-product of that column then may.
    """
    names = (d.response_name, *d.predictor_names)
    raw = [d.column(nm) for nm in names]
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.array([float(v.mean()) for v in raw])
        sds = np.array([float(v.std(ddof=1)) for v in raw])
    for nm, sd in zip(names, sds):
        if not np.isfinite(sd):
            raise SingularDesign(
                f"column {nm!r}: cross-products overflow float64 (rescale the column)"
            )
        if sd == 0.0:
            raise ConstantColumn(nm)
    centered = [v - m for v, m in zip(raw, means)]
    return CenteredData(
        response_name=d.response_name,
        predictor_names=d.predictor_names,
        y=_readonly(centered[0]),
        x=_readonly(np.column_stack(centered[1:])),
        means=_readonly(means),
        sds=_readonly(sds),
    )


def sscp(c: CenteredData, labels: Sequence[str] | None = None) -> SscpMatrix:
    """Cross-product matrix m[i][j] = sum_k col_i[k] * col_j[k].

    ``labels`` selects centered columns by name (response and/or
    predictors); the default is all of them, response first. The result is
    mirrored from its upper triangle so symmetry is bit-exact.
    """
    if labels is None:
        labels = c.labels
    labels = tuple(labels)
    cols = np.column_stack([c.column(nm) for nm in labels])
    return SscpMatrix(labels, _readonly(_gram(cols)))


@cache
def _strict_lower(k: int) -> tuple[np.ndarray, np.ndarray]:
    return np.tril_indices(k, -1)


def _gram(cols: np.ndarray) -> np.ndarray:
    """``cols.T @ cols``, mirrored from its upper triangle so symmetry is bit-exact.

    Adding +0.0 turns -0.0 entries into +0.0, so the result equals the
    triangle sum ``np.triu(m) + np.triu(m, 1).T`` bit for bit.
    """
    m = cols.T @ cols
    i, j = _strict_lower(m.shape[0])
    m[i, j] = m[j, i]
    m += 0.0
    return m


def _check_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _factor_spd(a: np.ndarray, context: str) -> np.ndarray:
    """Lower Cholesky factor of a symmetric PD matrix, for ``_potrs``.

    Guards on the reciprocal condition number of the diagonally normalized
    matrix so near-duplicate design columns fail loudly instead of
    producing garbage coefficients. Only the lower triangle of the result
    is the factor; the strict upper triangle keeps ``a``'s entries.
    """
    diag = np.diag(a)
    if np.any(diag <= 0.0):
        raise SingularDesign(f"{context}: design column with zero variation")
    scale = np.sqrt(diag)
    evals = np.linalg.eigvalsh(a / np.outer(scale, scale))
    if evals[0] <= 0.0 or evals[0] / evals[-1] < RCOND_MIN:
        raise SingularDesign(
            f"{context}: reciprocal condition number "
            f"{max(evals[0] / evals[-1], 0.0):.2e} below {RCOND_MIN:g} "
            "(collinear predictors)"
        )
    _check_finite(a)
    cf, info = _potrf(a, lower=1, clean=0, overwrite_a=0)
    if info > 0:
        raise SingularDesign(
            f"{context}: {info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise ValueError(
            f"LAPACK reported an illegal value in {-info}-th argument on entry to \"POTRF\"."
        )
    return cf


def _cho_solve(cf: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a ``_factor_spd`` factor; rhs is left untouched."""
    _check_finite(rhs)
    x, info = _potrs(cf, rhs, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


def _solve_spd(a: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    """Solve a @ b = rhs for a symmetric PD matrix, behind _factor_spd's guard."""
    return _cho_solve(_factor_spd(a, context), rhs)


def fit_centered_design(
    y: np.ndarray,
    design: np.ndarray,
    labels: Sequence[str],
    col_means: Sequence[float],
    col_sds: Sequence[float],
    mean_y: float,
    sd_y: float,
) -> OlsFit:
    """Fit centered ``y`` on the centered design columns.

    The workhorse behind fit_ols and the constructed-column fits
    (residualized and orthogonal-function regressions). ``col_means`` are
    the original-scale means of the design columns (zero for residualized
    columns) used to reconstruct the intercept; ``col_sds`` feed the
    standardized coefficients.
    """
    labels = tuple(labels)
    if design.ndim != 2 or design.shape[1] == 0:
        raise EmptySubset("at least one predictor is required")
    n, k = design.shape
    a = _gram(design)
    rhs = design.T @ y
    cf = _factor_spd(a, context=f"fit on ({', '.join(labels)})")
    b = _cho_solve(cf, rhs)
    inv = _cho_solve(cf, np.eye(k))

    residuals = y - design @ b
    ss_total = float(y @ y)
    ss_regression = float(b @ rhs)
    ss_residual = float(residuals @ residuals)
    df_model = k
    df_residual = n - k - 1
    ms_residual = ss_residual / df_residual
    se = np.sqrt(ms_residual * np.diag(inv))
    # a perfect fit has zero residual MS; report inf rather than raising
    with np.errstate(divide="ignore", invalid="ignore"):
        t = b / se
    f = (ss_regression / df_model) / ms_residual if ms_residual > 0.0 else np.inf
    col_means = np.asarray(col_means, dtype=float)
    col_sds = np.asarray(col_sds, dtype=float)
    return OlsFit(
        predictor_subset=labels,
        b=_readonly(b),
        intercept=float(mean_y - b @ col_means),
        ss_total=ss_total,
        ss_regression=ss_regression,
        ss_residual=ss_residual,
        df_model=df_model,
        df_residual=df_residual,
        r2=ss_regression / ss_total,
        f=float(f),
        se=_readonly(se),
        t=_readonly(t),
        z=_readonly(b * col_sds / sd_y),
        n=n,
    )


def fit_ols(c: CenteredData, subset: Iterable[str]) -> OlsFit:
    """OLS of the response on the named predictor subset.

    Coefficients solve the normal equations on the centered SSCP;
    ss_regression is the coefficient/cross-product inner product and
    ss_residual comes directly from the residual vector.

    Raises EmptySubset for an empty subset and SingularDesign when the
    subset SSCP is (numerically) rank deficient, e.g. a duplicated
    predictor.
    """
    subset = tuple(subset)
    if not subset:
        raise EmptySubset("fit_ols requires a non-empty predictor subset")
    idx = [c.predictor_index(nm) for nm in subset]
    return fit_centered_design(
        y=c.y,
        design=c.x[:, idx],
        labels=subset,
        col_means=c.means[1:][idx],
        col_sds=c.sds[1:][idx],
        mean_y=c.mean_y,
        sd_y=c.sd_y,
    )


def anova_table(fit: OlsFit) -> AnovaTable:
    """Classical Regression/Residual/Total table for a single fit."""
    df_total = fit.df_model + fit.df_residual
    rows = (
        AnovaRow(
            "Regression",
            fit.ss_regression,
            fit.df_model,
            fit.ss_regression / fit.df_model,
            fit.f,
        ),
        AnovaRow("Residual", fit.ss_residual, fit.df_residual, fit.ms_residual, None),
        AnovaRow("Total", fit.ss_total, df_total, fit.ss_total / df_total, None),
    )
    return AnovaTable(rows=rows, r2=fit.r2)
