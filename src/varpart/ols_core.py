"""Mean-centered OLS: centering, cross-products, subset fits, ANOVA tables.

Every fit runs on mean-centered columns, so the intercept is carried
implicitly and a fit on a predictor subset reduces to the normal equations
on the centered sum-of-squares-and-cross-products (SSCP) matrix.

The SSCP is formed exactly, by error-free splitting of the columns into
slices whose float64 gram holds only exact integers (Ozaki, Ogita, Oishi &
Rump 2012), each column on its own grid of units so that the gram reduces
per column pair and slice-index sum in int64 (``_Fold``); it does not depend
on the BLAS or the order of the rows, and is kept exactly as integers over
one denominator (``_Exact.ints``), with the column sums over one count.
Within ``ORDERING_CAP`` predictors, every statistic of a set's regression
is rounded once from exact minors of those integers, made in one
fraction-free walk over the subsets that a caller needs (``_Subsets.type1``):
the Type I rows of its orderings' prefix sets, and the set less each
column, whose minors give the coefficients of any walked set by a
fraction-free back substitution (``_numerators``), the diagonal of the
inverse and so every SS, MS, standard error, t, z and intercept
(``_Subsets.fit``, ``_make_fit``) and every orthogonal-function term. Ratios
round by int / int and square roots through ``math.isqrt`` (``_root``), so
each is the correctly rounded exact value wherever the guard admits the
set, and no decimal arithmetic runs. Above the cap only, a subset, keyed by
bit mask, is solved once in ``decimal`` arithmetic at ``_DIGITS`` (50)
digits, by bordering the solve of the set without its highest column, from
the decimal SSCP, made on first read; its values enter the same formulas as
exact ratios. ``_Subsets`` alone chooses between the two. The solves lose
about 2 * log10(cond) digits, about 24 at the guard, and ``_DIGITS`` is set
from the guard to leave 26; that such a statistic is then the correctly
rounded exact value is measured, not proved. The SSCP rounded to float64
feeds the guard, ``sscp`` and ``CenteredData.ss_total``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import cache, cached_property
from operator import add, mul
from typing import Callable, Collection, Container, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConstantColumn, EmptySubset, InvalidDataset, NonFiniteValue, RowsNotKept, SingularDesign,
    UnknownName,
)

# Reciprocal-condition-number floor on the diagonally normalized SSCP.
# Below this the design is treated as collinear rather than merely
# ill-conditioned; legitimate high collinearity still computes.
RCOND_MIN = 1e-12

# Exhaustive ordering enumeration stops here: 8! = 40,320 orderings. Within
# it, every Type I SS comes off one exact walk over a model's subsets.
ORDERING_CAP = 8

# Digits of the decimal solves. A solve loses about 2 * log10(cond) digits,
# so about 24 on a design at the guard; 17 more round to float64 once, and
# 9 are margin. 50 digits take three libmpdec words, as any of 39-57 do.
_DIGITS = 2 * round(-math.log10(RCOND_MIN)) + 17 + 9
_CTX = Context(prec=_DIGITS)

# Rows per block fed to the exact SSCP, and per chunk that it slices on one
# grid: 2**12 rows leave slices of 20 bits, and 4 slices a column of a chunk
# take the bytes of one block.
_BLOCK = 1 << 14
_FOLD = _BLOCK >> 2

# Two distinct float64 values of magnitude M differ by at least M * 2**-54,
# so a column reaching 2**600 has a centered SS beyond float64.
_MAGNITUDE_MAX = 2.0**600
_OVERFLOW = "column {!r}: cross-products overflow float64 (rescale the column)"
_UNDERFLOW = "column {!r}: cross-products underflow float64 (rescale the column)"
_NOT_PD = "{}-th leading minor of the array is not positive definite"


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
                raise _non_finite(nm)
        if not self.predictor_names:
            raise InvalidDataset("at least one predictor is required")
        _check_predictor_names(self.predictor_names)
        if len(set(self.predictor_names)) != len(self.predictor_names):
            raise InvalidDataset("predictor names must be distinct")
        if self.response_name in self.predictor_names:
            raise InvalidDataset("response cannot also be a predictor")
        for nm in (self.response_name, *self.predictor_names):
            if nm not in names:
                raise UnknownName(nm)
        _check_n(self.n, self.p)

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


def _check_predictor_names(names: Iterable[str]) -> None:
    """Raise InvalidDataset for a predictor name that a term label, which
    joins names as ``target|a,b``, could not be read back with: an empty
    one, or one that holds ``,`` or ``|``."""
    for nm in names:
        if not nm or "," in nm or "|" in nm:
            raise InvalidDataset(f"predictor name {nm!r} is empty or holds ',' or '|', which term labels use")


def _non_finite(name: str) -> NonFiniteValue:
    return NonFiniteValue(f"column {name!r} contains NaN or infinity")


def _check_n(n: int, p: int) -> None:
    """Every fit on p predictors needs residual degrees of freedom."""
    if n < p + 2:
        raise InvalidDataset(f"need at least p + 2 = {p + 2} observations, got {n}")


class _Exact(NamedTuple):
    """Centered SSCP of design columns, the response last, exactly, as
    integers N over one denominator D (``ints``, from ``_Fold.finish``), and
    rounded once to float64 (``f``); the columns' sums over one count
    (``sums``), so that a mean is a sum over the count; and the row count."""

    f: np.ndarray
    n: int
    ints: tuple[list[list[int]], int]
    sums: tuple[list[int], int]


class _Model(NamedTuple):
    """A regression of the response on a set of columns in exact integers:
    by column index, each coefficient x_j / q and diagonal entry of the
    inverse SSCP block g w_j / q; and the regression, residual and total SS
    as numerators over g q."""

    x: dict[int, int]
    w: dict[int, int]
    q: int
    g: int
    ssr: int
    sse: int
    sst: int


class _Solution(NamedTuple):
    """One regression solved at ``_DIGITS`` digits, keyed by column index."""

    b: dict[int, Decimal]  # coefficients
    inv: dict[int, Decimal]  # diagonal of the inverse SSCP block
    ssr: Decimal  # regression SS
    sse: Decimal  # residual SS, never negative
    ainv: list[list[Decimal]]  # the inverse, rows and columns in the order of b


@dataclass(frozen=True)
class CenteredData:
    """The exact centered SSCP (``exact``) of ``data``, which every statistic
    is derived from, and each column's float64 mean (predictors, then the
    response), which ``column`` subtracts on demand. Sds use divisor n - 1.
    ``data`` is None when the rows were folded as they were read and not
    kept (``data_io.center_csv``); ``column`` then raises RowsNotKept."""

    response_name: str
    predictor_names: tuple[str, ...]
    data: Dataset | None
    means: tuple[float, ...]
    exact: _Exact

    @property
    def n(self) -> int:
        return self.exact.n

    @property
    def p(self) -> int:
        return len(self.predictor_names)

    @property
    def labels(self) -> tuple[str, ...]:
        return (self.response_name, *self.predictor_names)

    @property
    def ss_total(self) -> float:
        return float(self.exact.f[-1, -1])

    @property
    def mean_y(self) -> float:
        return self.means[-1]

    @property
    def sd_y(self) -> float:
        return self.sd(self.response_name)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {nm: i for i, nm in enumerate(self.predictor_names)}

    @cached_property
    def _memo(self) -> _Subsets:
        return _Subsets(self.exact, self.predictor_names)

    def predictor_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            if name == self.response_name:
                raise UnknownName(name, f"{name!r} is the response, not a predictor") from None
            raise UnknownName(name) from None

    def _col(self, name: str) -> int:
        """Index of a response or predictor column in ``exact``."""
        return self.p if name == self.response_name else self.predictor_index(name)

    def column(self, name: str) -> np.ndarray:
        """Centered column by name (response or predictor), read-only."""
        mean = self.means[self._col(name)]
        if self.data is None:
            raise RowsNotKept(name)
        col = self.data.column(name) - mean
        col.setflags(write=False)
        return col

    def mean(self, name: str) -> float:
        return self.means[self._col(name)]

    def sd(self, name: str) -> float:
        (num, den), a = self.exact.ints, self._col(name)
        return _root(num[a][a], den * (self.n - 1))


class SscpMatrix(NamedTuple):
    """Symmetric matrix of cross-products over centered columns."""

    labels: tuple[str, ...]
    m: np.ndarray

    def value(self, a: str, b: str) -> float:
        """Entry for the labeled pair, e.g. value('Y', 'X1')."""
        for nm in (a, b):
            if nm not in self.labels:
                raise UnknownName(nm)
        return float(self.m[self.labels.index(a), self.labels.index(b)])


class OlsFit(NamedTuple):
    """Least-squares fit of the centered response on a predictor subset.

    Slopes solve the normal equations on centered data; the intercept is
    reconstructed from the stored means. ``z`` rescales each slope by
    sd(predictor)/sd(response); ``t`` is slope over standard error. Each
    field is the exact statistic rounded once.
    """

    predictor_subset: tuple[str, ...]
    b: np.ndarray
    intercept: float
    ss_total: float
    ss_regression: float
    ss_residual: float
    df_model: int
    df_residual: int
    ms_regression: float
    ms_residual: float
    ms_total: float
    r2: float
    f: float
    se: np.ndarray
    t: np.ndarray
    z: np.ndarray
    n: int

    def coefficient(self, name: str) -> float:
        try:
            return float(self.b[self.predictor_subset.index(name)])
        except ValueError:
            raise UnknownName(name) from None


class AnovaRow(NamedTuple):
    source: str
    ss: float
    df: int
    ms: float | None
    f: float | None


class AnovaTable(NamedTuple):
    """Regression/Residual/Total rows plus the coefficient of determination."""

    rows: tuple[AnovaRow, ...]
    r2: float

    def row(self, source: str) -> AnovaRow:
        for r in self.rows:
            if r.source == source:
                return r
        raise KeyError(source)


class _Fold:
    """Exact moments of float64 columns ``names``, fed one block of rows at
    a time, with each column's running min and max and the row count.

    A block is folded in chunks of at most ``_FOLD`` rows. In a chunk of m
    rows, column a is split on its own grid, fixed by |x| < 2**top_a: slice
    j is q * 2**(top_a - w - j * (w + 1)) with integers |q| <= 2**w,
    m * 4**w <= 2**53, as the rounding leaves a residual of at most half
    the unit; a column stops once its residual is zero. A block's chunks
    write their slices to one buffer, allocated once per block and grown
    only when a chunk needs more slices, so the chunk, not the block, sets
    the fold's working set. The float64
    gram of the slices and a ones column (top w, one slice; its entries are
    the slices' row sums and m, outside the buffer) then holds exact
    integers in any summation order, and slices i and j of columns a and b
    meet at the one scale 2**(top_a + top_b - 2 * w - (i + j) * (w + 1)).
    So each column pair's gram entries are summed per i + j in int64, which
    is exact, as a column has fewer than 90 slices (tops <= 600, bits >=
    -1074, w >= 20), and those anti-diagonal sums are combined by Horner's
    rule in Python integers. Chunks add up in Python integers, so the
    moments do not depend on the block or chunk sizes or the order of the
    rows (per-chunk moments merged as in Chan, Golub & LeVeque 1983, here
    without rounding).
    """

    def __init__(self, names: Sequence[str]):
        k = len(names)
        self.names = tuple(names)
        self.n = 0
        self.lo, self.hi = np.full(k, np.inf), np.full(k, -np.inf)
        self._t, self._e = 0, 0  # moments are t * 2**e: row a, column b holds sum(x_a x_b)

    @property
    def finite(self) -> np.ndarray:
        """Per column: no NaN or infinity folded so far."""
        return np.isfinite(self.lo) & np.isfinite(self.hi)

    def add(self, r: np.ndarray) -> None:
        """Fold a C-contiguous k x m block, 1 <= m <= _BLOCK; r is overwritten."""
        # the slice buffer: 4 slices a column, as most data need, take a full
        # block's bytes, so the buffer fits where the last block was freed;
        # one row more faulted in 2.8 times the pages of a 10**6-row ingest
        z = np.empty((4 * len(r), min(r.shape[1], _FOLD)))
        for start in range(0, r.shape[1], _FOLD):
            z = self._add(r[:, start : start + _FOLD], z)

    def _add(self, r: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Fold a k x m chunk of rows, sliced on its own grid into the slice
        buffer z, and return z or the taller buffer that replaced it; r and
        z are overwritten."""
        k, m = r.shape
        self.n += m
        lo, hi = r.min(axis=1), r.max(axis=1)
        np.minimum(self.lo, lo, out=self.lo)
        np.maximum(self.hi, hi, out=self.hi)
        amax = np.maximum(-lo, hi)
        if not (amax < _MAGNITUDE_MAX).all():
            return z  # finish raises; past 2**600, sigma below may overflow
        w = (53 - (m - 1).bit_length()) // 2
        step = w + 1
        top = np.frexp(amax)[1]  # int32: ldexp is far slower on int64
        # z's rows are slices; slot j * (k + 1) + a is slice j of column a, slot k the ones column
        rows, slots = 0, [np.array([k])]
        unit, slot, top = top - w, np.arange(k), np.append(top, w)
        while True:
            live = r.any(axis=1)  # slice only the columns that still hold bits
            if not live.all():
                unit, slot, r = unit[live], slot[live], r[live]
            if not slot.size:
                break
            # rounds r to multiples of 2**unit, row by row; r - q is exact
            sigma = np.ldexp(1.5, unit + 52)[:, None]
            if len(z) < rows + slot.size:
                z = np.vstack((z, np.empty((rows + slot.size - len(z), z.shape[1]))))
            q = np.add(r, sigma, out=z[rows : rows + slot.size, :m])
            q -= sigma
            r -= q
            np.ldexp(q, -unit[:, None], out=q)
            rows += slot.size
            slots.append(slot)
            unit, slot = unit - step, slot + (k + 1)
        zm, slot = z[:rows, :m], np.concatenate(slots)
        s = int(slot[-1]) // (k + 1) + 1  # slices of the longest column
        grid = np.zeros((s * (k + 1),) * 2, dtype=np.int64)
        zs = slot[1:]  # the slices' slots, after the ones column's
        grid[np.ix_(zs, zs)] = zm @ zm.T
        grid[k, zs] = grid[zs, k] = zm.sum(axis=1)  # exact: m * 2**w <= 2**53
        grid[k, k] = m
        grid = grid.reshape(s, k + 1, s, k + 1).transpose(0, 2, 1, 3)
        diag = np.zeros((2 * s - 1, k + 1, k + 1), dtype=np.int64)
        for i in range(s):
            diag[i : i + s] += grid[i]  # slices i and j of each pair add to diag[i + j]
        g = diag[0].astype(object)
        for d in diag[1:].astype(object):
            g = (g << step) + d
        shift = top - top.min()
        g <<= shift[:, None] + shift
        low = 2 * (int(top.min()) - w - (s - 1) * step)  # g holds the chunk's moments times 2**(-low)
        common = min(self._e, low)
        self._t = self._t * (1 << (self._e - common)) + g * (1 << (low - common))
        self._e = common
        return z

    def finish(self) -> tuple:
        """The centered SSCP rounded once to float64, the column sums over
        one count, and the exact SSCP itself as (N, D): integer rows N over
        one integer D; neither pair has a power of two common to all its
        integers. Raises, column by column, NonFiniteValue for a NaN or
        infinity and SingularDesign for a magnitude of 2**600 or more; then
        SingularDesign if a column's SS exceeds float64, or, in any column
        but the last, is positive but rounds to 0."""
        for nm, ok, lo, hi in zip(self.names, self.finite, self.lo, self.hi):
            if not ok:
                raise _non_finite(nm)
            if max(-lo, hi) >= _MAGNITUDE_MAX:
                raise SingularDesign(_OVERFLOW.format(nm))
        k, t, e = len(self.names), self._t, self._e
        count, sums = t[k, k], t[:k, k]
        rows = (t[:k, :k] * count - np.outer(sums, sums)).tolist()
        den = count << -e  # e <= 0, since the ones column has unit 0
        # the power of two that N and D share, divided out, halves the
        # integers that the exact walk multiplies
        rows, den = _odd(rows, den)
        sums, count = _odd([sums.tolist()], count)
        for a, nm in enumerate(self.names):
            try:
                if rows[a][a] and not rows[a][a] / den and a < k - 1:
                    raise SingularDesign(_UNDERFLOW.format(nm))
            except OverflowError:
                raise SingularDesign(_OVERFLOW.format(nm)) from None
        f = np.empty((k, k))
        for a, row in enumerate(rows):
            for b in range(a, k):
                f[a, b] = f[b, a] = row[b] / den  # int / int is correctly rounded
        f.setflags(write=False)
        return f, (sums[0], count), (rows, den)


def _odd(rows: list[list[int]], den: int) -> tuple[list[list[int]], int]:
    """Integer rows over a denominator, with the power of two common to all
    of them divided out."""
    twos = min((x & -x).bit_length() - 1 for x in (den, *(x for row in rows for x in row)) if x)
    return [[x >> twos for x in row] for row in rows], den >> twos


def _fold_columns(columns: Sequence[np.ndarray], names: Sequence[str]) -> _Fold:
    """A _Fold of equal-length float64 columns, _BLOCK rows at a time."""
    fold = _Fold(names)
    for start in range(0, len(columns[0]), _BLOCK):
        fold.add(np.array([col[start : start + _BLOCK] for col in columns], dtype=float))
    return fold


def _centered(
    fold: _Fold, response_name: str, predictor_names: tuple[str, ...], data: Dataset | None = None
) -> CenteredData:
    """CenteredData of a fold of the predictors, then the response, with the
    checks of Dataset and mean_center in their order: NonFiniteValue (the
    response first), InvalidDataset if n < p + 2, ConstantColumn, then the
    SingularDesign of ``_Fold.finish``."""
    names, n, finite = fold.names, fold.n, fold.finite
    for a in (-1, *range(len(names) - 1)):
        if not finite[a]:
            raise _non_finite(names[a])
    _check_n(n, len(predictor_names))
    for nm, lo, hi in zip(names, fold.lo, fold.hi):
        if lo == hi:
            raise ConstantColumn(nm)
    f, sums, ints = fold.finish()
    floats = tuple(num / sums[1] for num in sums[0])  # int / int is correctly rounded
    return CenteredData(response_name, predictor_names, data, floats, _Exact(f, n, ints, sums))


def mean_center(d: Dataset) -> CenteredData:
    """Form the exact centered SSCP, means and sample sds of the response
    and predictor columns of ``d``, which is kept, not copied.

    Raises ConstantColumn if any selected column has zero sample sd, and
    SingularDesign if a column's centered sum of squares exceeds float64,
    as its cross-products then may.
    """
    names = (*d.predictor_names, d.response_name)
    fold = _fold_columns([d.column(nm) for nm in names], names)
    return _centered(fold, d.response_name, d.predictor_names, d)


def sscp(c: CenteredData, labels: Sequence[str] | None = None) -> SscpMatrix:
    """Cross-product matrix m[i][j] = sum_k col_i[k] * col_j[k].

    ``labels`` selects centered columns by name (response and/or
    predictors); the default is all of them, response first. Entries are
    the exact cross-products of the data, rounded once.
    """
    labels = c.labels if labels is None else tuple(labels)
    ix = [c._col(nm) for nm in labels]
    return SscpMatrix(labels, _readonly(c.exact.f[np.ix_(ix, ix)]))


def _guard(a: np.ndarray) -> None:
    """Reject a design whose SSCP block ``a`` is (nearly) singular: near-
    duplicate columns fail loudly on the reciprocal condition number of the
    diagonally normalized matrix instead of giving garbage coefficients."""
    diag = np.diag(a)
    if np.any(diag <= 0.0):
        raise SingularDesign("design column with zero variation")
    scale = np.sqrt(diag)
    evals = np.linalg.eigvalsh(a / np.outer(scale, scale))
    if evals[0] <= 0.0 or evals[0] / evals[-1] < RCOND_MIN:
        raise SingularDesign(
            f"reciprocal condition number {max(evals[0] / evals[-1], 0.0):.2e} below {RCOND_MIN:g} "
            "(collinear predictors)"
        )


def _mask(idx: Iterable[int]) -> int:
    """The set of columns ``idx`` as a bit mask, bit i for column i."""
    return sum({1 << i for i in idx})


def _columns(mask: int) -> list[int]:
    """The columns of a bit mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _extend(s: list[list[Decimal]], sol: _Solution, col: int) -> _Solution:
    """Border a solution of the response with one more column, in O(k^2);
    the caller enters ``_CTX``.

    With a the new column's cross-products with the others and u = A^-1 a
    its coefficients on them, d = s_cc - a'u is its SS residualized on the
    others, and the regression SS grows by d * b_new^2 (Golub & Van Loan,
    bordering).
    """
    a = [s[col][j] for j in sol.b]
    u = [sum(map(mul, row, a)) for row in sol.ainv]
    d = s[col][col] - sum(map(mul, a, u))
    if d <= 0:  # only a design the guard wrongly passed gets here
        raise SingularDesign(_NOT_PD.format(len(a) + 1))
    bk = (s[col][-1] - sum(map(mul, a, sol.b.values()))) / d
    b = {j: bj - uj * bk for (j, bj), uj in zip(sol.b.items(), u)}
    b[col] = bk
    w = [uj / d for uj in u]
    ainv = [[*map(add, row, map(wi.__mul__, u)), -wi] for row, wi in zip(sol.ainv, w)]
    ainv.append([*(-wi for wi in w), 1 / d])
    ssr = sol.ssr + bk * bk * d
    sse = max(s[-1][-1] - ssr, Decimal(0))
    return _Solution(b, {j: ainv[t][t] for t, j in enumerate(b)}, ssr, sse, ainv)


class _Subsets:
    """Regressions of the response (the last column) on sets of the others,
    keyed by bit mask (``_mask``), shared by every use of the same data.
    ``fit`` keeps a set's regression in exact integers; ``type1`` makes the
    Type I rows and terms a caller asks for of a guarded set's subsets,
    within ``ORDERING_CAP`` columns in one exact walk over them, on each
    call. Above the cap only, ``solve`` keeps a set's decimal solve, made by
    bordering the solve of the set without its highest column, off the
    decimal SSCP ``s``."""

    def __init__(self, ex: _Exact, names: Sequence[str]):
        self._ex, self._names = ex, names
        self._cache: dict[int, _Solution] = {}
        self._fits: dict[int, _Model] = {}
        self._guarded: list[int] = []

    @cached_property
    def s(self) -> list[list[Decimal]]:
        """The SSCP at ``_DIGITS`` digits, which the decimal solves read,
        made on first read."""
        rows, den = self._ex.ints
        k, den = len(rows), Decimal(den)
        s: list[list[Decimal]] = [[Decimal(0)] * k for _ in range(k)]
        with localcontext(_CTX):
            for a, row in enumerate(rows):
                for b in range(a, k):
                    s[a][b] = s[b][a] = Decimal(row[b]) / den
        return s

    def guard(self, mask: int, idx: Sequence[int] | None = None, what: str = "subset") -> None:
        """The guard on the columns of ``mask``, which sees them in the order
        of ``idx`` (default: ascending), unless a set that passed it holds
        them; errors name them "what (names)"."""
        # A set inside one that passed the guard passes it too: a principal
        # block of the normalized SSCP has its eigenvalues inside those of
        # the whole (Cauchy interlacing). A repeated column never passes.
        repeats = idx is not None and len(idx) > mask.bit_count()
        if repeats or all(mask & ~done for done in self._guarded):
            idx = _columns(mask) if idx is None else idx
            try:
                _guard(self._ex.f[idx][:, idx])
            except SingularDesign as exc:
                raise self._named(what, idx, exc) from None
            self._guarded.append(mask)

    def fit(self, mask: int, idx: Sequence[int] | None = None, what: str = "subset") -> _Model:
        """The regression on the columns of ``mask``, behind ``guard``, made
        once: within the cap, from the exact walk of the sets it needs
        (``type1``); above it, from the decimal solve, whose values are
        exact ratios of integers too."""
        self.guard(mask, idx, what)
        if mask not in self._fits:
            if mask.bit_count() > ORDERING_CAP:
                sol = self.solve(mask, idx, what)
                nums, q = _over([*sol.b.values(), *sol.inv.values(), sol.ssr, sol.sse, self.s[-1][-1]])
                k = len(sol.b)
                self._fits[mask] = _Model(dict(zip(sol.b, nums)), dict(zip(sol.b, nums[k:])), q, 1, *nums[2 * k :])
            else:
                self.type1(mask, (), fit=True)
        return self._fits[mask]

    def solve(self, mask: int, idx: Sequence[int] | None = None, what: str = "subset") -> _Solution:
        """Decimal solution on the columns of ``mask``, behind ``guard``;
        errors name them "what (names)"."""
        self.guard(mask, idx, what)
        try:
            with localcontext(_CTX):
                return self._border(mask)
        except SingularDesign as exc:
            raise self._named(what, _columns(mask) if idx is None else idx, exc) from None

    def _named(self, what: str, idx: Iterable[int], exc: SingularDesign) -> SingularDesign:
        return SingularDesign(f"{what} ({', '.join(self._names[i] for i in idx)}): {exc}")

    def _border(self, mask: int) -> _Solution:
        """The solution on ``mask``, bordered up from its longest solved
        prefix (the set less its highest columns); the caller enters ``_CTX``."""
        if not self._cache:
            self._cache[0] = _Solution({}, {}, Decimal(0), self.s[-1][-1], [])
        chain = []
        while mask not in self._cache:
            chain.append(mask)
            mask ^= 1 << mask.bit_length() - 1
        sol = self._cache[mask]
        for link in reversed(chain):
            sol = self._cache[link] = _extend(self.s, sol, link.bit_length() - 1)
        return sol

    def type1(self, mask: int, sets: Collection[int] | None = None, fit: bool = False) -> tuple[dict, Callable]:
        """The Type I rows of the nonempty subsets S of ``mask``, a set that
        passed the guard, by mask: of all of them, or of ``sets``; and a
        reader of their terms. A row holds, by i, SSE(S - i) - SSE(S) for each
        column i of S whose S - i the walk reached: every i, or, when
        ``_minors`` walks only the ascending prefixes of ``sets``, at least
        each i with S - i in ``sets`` or empty. With SSE(S) = Y_S / (D P_S),
        that is (Y_(S-i) P_S - Y_S P_(S-i)) / (D P_S P_(S-i)), one int / int
        division, which is correctly rounded. For such an S and i, the reader
        gives ([x, v], q): b_i = x / q in the regression on S, and (A^-1)_ii =
        v / q = D P_(S-i) / P_S, with x from S's ``_numerators``, made on the
        set's first read. With ``fit``, the same walk also reaches ``mask``
        less each column, and keeps the regression on ``mask`` (``fit``).
        Above ``ORDERING_CAP`` columns no walk runs, ``sets`` must be given,
        and each set's decimal solve gives b_i^2 / (A^-1)_ii for each i with
        S - i in ``sets`` or empty, and b_i and (A^-1)_ii as exact ratios."""
        if mask.bit_count() > ORDERING_CAP:
            wanted = {0, *sets}
            with localcontext(_CTX):
                sols = {sub: self.solve(sub) for sub in sets}
                rows = {sub: {i: float(b * b / sol.inv[i]) for i, b in sol.b.items() if sub ^ 1 << i in wanted}
                        for sub, sol in sols.items()}
            return rows, lambda sub, i: _over([sols[sub].b[i], sols[sub].inv[i]])
        every, fit = sets is None, fit and mask not in self._fits
        reach = None
        if not every:
            wanted = {*sets, mask, *(mask & ~(1 << i) for i in _columns(mask))} if fit else sets
            reach = {s & (2 << b) - 1 for s in wanted for b in range(s.bit_length())}
        minors = {sub: (y, p, row) for sub, y, p, row in self._minors(mask, reach)}
        (num, den), cols = self._ex.ints, _columns(mask)
        numerators = cache(lambda sub: _numerators(cols, sub, minors))
        if fit:
            y, p, _ = minors[mask]
            w = {j: minors[mask & ~(1 << j)][1] for j in cols}
            sst = num[-1][-1] * p
            self._fits[mask] = _Model(numerators(mask), w, p, den, sst - y, y, sst)
        rows = {}
        for sub in minors if every else sets:
            y, p, _ = minors[sub]
            row, rest, dp = {}, sub, den * p
            while rest:
                bit = rest & -rest
                rest ^= bit
                if every or sub ^ bit in minors:
                    y_less, p_less, _ = minors[sub ^ bit]
                    row[bit.bit_length() - 1] = (y_less * p - y * p_less) / (dp * p_less)
            rows[sub] = row
        rows.pop(0, None)
        return rows, lambda sub, i: ([numerators(sub)[i], den * minors[sub ^ 1 << i][1]], minors[sub][1])

    def _minors(self, mask: int, reach: Container[int] | None = None) -> Iterator[tuple]:
        """(S, Y_S, P_S, row) for each subset S of ``mask``, or of ``reach``,
        once, the empty set first: P_S = det N[S] and Y_S = det N[S + y], for
        the exact SSCP N / D (``_Exact.ints``), so that SSE(S) = Y_S / (D P_S).

        The sets form a binomial tree: the children of S are S + t for each
        column t of ``mask`` above the highest of S. A node keeps the upper
        triangle of its bordered minors B_ab = det N[S + a, S + b] over the
        columns a, b of ``mask`` above it and y; its child S + t has pivot
        P = B_tt, and its minors (P B_ab - B_ta B_tb) / P_S by Sylvester's
        identity, an exact integer division (fraction-free elimination,
        Bareiss 1968). The row of a child is its parent's B_ta, for t and the
        columns a above it, then y. A node's children in ``reach``, which
        holds each of its sets' parents, are made before any is entered. A
        pivot that is not positive raises SingularDesign naming its set, as
        ``_extend`` would."""
        num = self._ex.ints[0]
        cols = _columns(mask)
        idx = [*cols, len(num) - 1]
        yield 0, num[-1][-1], 1, None
        stack = [(0, 0, 1, [[num[a][b] for b in idx[j:]] for j, a in enumerate(idx)])]
        while stack:
            sub, start, parent, minors = stack.pop()
            for i, t_row in enumerate(minors[:-1]):  # B_ta for column t = cols[start + i]
                p, child = t_row[0], sub | 1 << cols[start + i]
                if reach is not None and child not in reach:
                    continue
                if p <= 0:  # only a design the guard wrongly passed gets here
                    raise self._named("subset", _columns(child), SingularDesign(_NOT_PD.format(child.bit_count())))
                bordered = [
                    [(p * x - ta * tb) // parent for x, tb in zip(row, t_row[d:])]
                    for d, (row, ta) in enumerate(zip(minors[i + 1 :], t_row[1:]), 1)
                ]
                yield child, bordered[-1][0], p, t_row
                if len(bordered) > 1:  # columns above t remain
                    stack.append((child, start + i + 1, p, bordered))


def _numerators(cols: list[int], sub: int, minors: dict[int, tuple]) -> dict[int, int]:
    """The regression on ``sub``, a set of a walk of the columns ``cols``,
    by Cramer's rule b_j = x_j / P_S for integers x_j, by column: a
    fraction-free back substitution gives them with exact divisions. The
    walk's ``minors`` hold the row of each of S's ascending prefixes, which
    ends at column t: U_tt (its pivot), U_ta for each column a of ``cols``
    above t, and U_ty last, and U_tt x_t = P_S U_ty - sum U_ta x_a over the
    columns a of S above t."""
    p, x = minors[sub][1], {}
    for k in reversed(range(len(cols))):
        t = cols[k]
        if sub >> t & 1:
            row = minors[sub & (2 << t) - 1][2]
            x[t] = (p * row[-1] - sum(u * x[a] for u, a in zip(row[1:-1], cols[k + 1 :]) if a in x)) // row[0]
    return x


def _over(values: Sequence[Decimal | float]) -> tuple[list[int], int]:
    """Decimals or floats exactly, as integers over one denominator."""
    pairs = [v.as_integer_ratio() for v in values]
    q = math.lcm(*(d for _, d in pairs))
    return [a * (q // d) for a, d in pairs], q


def _quotient(a: int, b: int) -> float:
    """a / b rounded once; a zero b gives a signed infinity (or NaN)."""
    if b:
        return a / b  # int / int is correctly rounded
    return math.copysign(math.inf, a) if a else math.nan


def _root(num: int, den: int, neg: bool = False) -> float:
    """sqrt(num / den) rounded once, negated if ``neg``, for integers num,
    den >= 0; a zero den gives an infinity (NaN if num is zero too). The
    integer root r of num / den scaled by 4**k has at least 55 bits; the
    root lies in [r, r + 1), and a sticky bit, set unless it is r itself,
    keeps it clear of every float and rounding boundary."""
    if not den:
        return math.nan if not num else -math.inf if neg else math.inf
    k = max(0, (112 + den.bit_length() - num.bit_length()) // 2)
    m, rest = divmod(num << 2 * k, den)
    r = math.isqrt(m)
    root = (2 * r + (rest != 0 or r * r != m)) / (2 << k)
    return -root if neg else root


def _coef(x: int, q: int, a: int, d: int, scale: tuple[int, int]) -> tuple:
    """(b, se, z, t) of a coefficient b = x / q whose standard error is
    se = sqrt(a / d) / q, with z = b sqrt(scale), for the ratio of its
    column's SS to the response's as a pair (numerator, denominator), and
    t = b / se = x sqrt(d / a); each rounded once."""
    xx, qq = x * x, q * q
    return x / q, _root(a, qq * d), _root(xx * scale[0], qq * scale[1], x < 0), _root(xx * d, a, x < 0)


def _intercept(x: Iterable[int], q: int, means: tuple) -> float:
    """mean_y - sum_j b_j mean_j for slopes x_j / q and ``means`` (numerators
    of the response's mean and the columns', over one denominator)."""
    mean_y, col_means, den = means
    return (mean_y * q - sum(map(mul, x, col_means))) / (den * q)


def _make_fit(
    n: int, labels: Sequence[str], m: _Model, idx: Sequence[int], means: tuple, scales: Sequence[tuple[int, int]],
) -> OlsFit:
    """OlsFit of the regression ``m`` on its columns ``idx``, in that
    order, on n rows; ``means`` for the intercept, and each column's
    ``scale`` for z; every value is its exact value rounded once."""
    k, gq = len(idx), m.g * m.q
    dfe = n - k - 1
    # se_j^2 = MSE (A^-1)_jj = sse / (g q dfe) * g w_j / q
    bs, se, z, t = zip(*(_coef(m.x[j], m.q, m.sse * m.w[j], dfe, sc) for j, sc in zip(idx, scales)))
    return OlsFit(
        predictor_subset=tuple(labels),
        b=_readonly(bs),
        intercept=_intercept([m.x[j] for j in idx], m.q, means),
        ss_total=m.sst / gq,
        ss_regression=m.ssr / gq,
        ss_residual=m.sse / gq,
        df_model=k,
        df_residual=dfe,
        ms_regression=m.ssr / (gq * k),
        ms_residual=m.sse / (gq * dfe),
        ms_total=m.sst / (gq * (n - 1)),
        r2=m.ssr / m.sst,
        # a perfect fit has zero residual MS; F and t are then infinite
        f=_quotient(m.ssr * dfe, m.sse * k),
        se=_readonly(se),
        t=_readonly(t),
        z=_readonly(z),
        n=n,
    )


def fit_centered_design(
    y: np.ndarray, design: np.ndarray, labels: Sequence[str], col_means: Sequence[float],
    col_sds: Sequence[float], mean_y: float, sd_y: float,
) -> OlsFit:
    """Fit centered ``y`` on the centered design columns.

    The exact centered SSCP of the columns goes through the same guard and
    solve as ``fit_ols``. ``col_means`` are the original-scale means of the
    design columns, used to reconstruct the intercept; ``col_sds`` feed the
    standardized coefficients.
    """
    labels = tuple(labels)
    if design.ndim != 2 or design.shape[1] == 0:
        raise EmptySubset("at least one predictor is required")
    n, k = design.shape
    f, sums, ints = _fold_columns([*design.T, y], (*labels, "y")).finish()
    m = _Subsets(_Exact(f, n, ints, sums), labels).fit(_mask(range(k)), range(k), "fit on")
    (my, *mx), den = _over([float(v) for v in (mean_y, *col_means)])
    (sy, *sx), _ = _over([float(v) for v in (sd_y, *col_sds)])
    return _make_fit(n, labels, m, range(k), (my, mx, den), [(a * a, sy * sy) for a in sx])


def fit_ols(c: CenteredData, subset: Iterable[str]) -> OlsFit:
    """OLS of the response on the named predictor subset, from the exact
    centered SSCP; ss_residual is ss_total - ss_regression before rounding.

    Raises EmptySubset for an empty subset and SingularDesign when the
    subset SSCP is (numerically) rank deficient, e.g. a duplicated
    predictor.
    """
    subset = tuple(subset)
    if not subset:
        raise EmptySubset("fit_ols requires a non-empty predictor subset")
    idx = [c.predictor_index(nm) for nm in subset]
    m = c._memo.fit(_mask(idx), idx, "fit on")
    num, (sums, count) = c.exact.ints[0], c.exact.sums
    means = sums[-1], [sums[i] for i in idx], count
    return _make_fit(c.n, subset, m, idx, means, [(num[i][i], num[-1][-1]) for i in idx])


def anova_table(fit: OlsFit) -> AnovaTable:
    """Classical Regression/Residual/Total table for a single fit."""
    rows = (
        AnovaRow("Regression", fit.ss_regression, fit.df_model, fit.ms_regression, fit.f),
        AnovaRow("Residual", fit.ss_residual, fit.df_residual, fit.ms_residual, None),
        AnovaRow("Total", fit.ss_total, fit.df_model + fit.df_residual, fit.ms_total, None),
    )
    return AnovaTable(rows=rows, r2=fit.r2)
