"""Mean-centered OLS: centering, cross-products, subset fits, ANOVA tables.

Every fit runs on mean-centered columns, so the intercept is carried
implicitly and a fit on a predictor subset reduces to the normal equations
on the centered sum-of-squares-and-cross-products (SSCP) matrix.

The SSCP is formed exactly, by error-free splitting of the columns into
slices whose float64 gram holds only exact integers (Ozaki, Ogita, Oishi &
Rump 2012), each column on its own grid of units so that the gram reduces
per column pair and slice-index sum in int64 (``_Fold``); it does not depend
on the BLAS or the order of the rows, and is kept exactly as integers over
one denominator (``_Exact.ints``). Every Type I SS of a set of at most
``ORDERING_CAP`` predictors is rounded once from exact minors of those
integers, made in one fraction-free walk over the set's subsets that a
caller's orderings reach (``_Subsets.type1``), so it is the correctly
rounded exact value wherever the guard admits the set. Each subset, keyed
by bit mask, is also solved once in ``decimal`` arithmetic at ``_DIGITS``
(50) digits, by bordering the solve of the set without its highest column,
and every other statistic (Type III SS, the fits, Venn regions, corrected
statistics) is derived from that solve and rounded to float64 once. The
solves lose about 2 * log10(cond) digits, about 24 at the guard, and
``_DIGITS`` is set from the guard to leave 26. That such a statistic is
then the correctly rounded exact value is measured, not proved: against
exact rationals on exchangeable designs at n = 200, every Type III SS,
every field of the model's fit and every orthogonal-function term was, up
to rho = 1 - 1e-11. The SSCP rounded to float64 feeds the guard, ``sscp``
and ``CenteredData.ss_total``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import cached_property
from operator import add, mul
from typing import Collection, Container, Iterable, Iterator, NamedTuple, Sequence

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
    """Centered SSCP of design columns, the response last, rounded once to
    float64 (``f``) and to ``_DIGITS`` digits (``s``), with the columns'
    means and sds at ``_DIGITS`` digits and the row count; ``ints`` holds
    it exactly, as integers N over one denominator D (``_Fold.finish``)."""

    f: np.ndarray
    s: list[list[Decimal]]
    means: list[Decimal]
    sds: list[Decimal]
    n: int
    ints: tuple[list[list[int]], int]


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
        return float(self.exact.sds[-1])

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
        return float(self.exact.sds[self._col(name)])


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
        """The centered SSCP rounded once to float64 and to ``_DIGITS``
        digits, the exact column means as (numerator, denominator) integer
        pairs, and the exact SSCP itself as (N, D): integer rows N over one
        integer D, with no power of two common to all. Raises, column by
        column, NonFiniteValue for a NaN or infinity and SingularDesign for
        a magnitude of 2**600 or more; then SingularDesign if a column's SS
        exceeds float64, or, in any column but the last, is positive but
        rounds to 0."""
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
        twos = min((x & -x).bit_length() - 1 for x in (den, *(x for row in rows for x in row)) if x)
        rows, den = [[x >> twos for x in row] for row in rows], den >> twos
        for a, nm in enumerate(self.names):
            try:
                if rows[a][a] and not rows[a][a] / den and a < k - 1:
                    raise SingularDesign(_UNDERFLOW.format(nm))
            except OverflowError:
                raise SingularDesign(_OVERFLOW.format(nm)) from None
        f = np.empty((k, k))
        s: list[list[Decimal]] = [[Decimal(0)] * k for _ in range(k)]
        decimal_den = Decimal(den)
        with localcontext(_CTX):
            for a, row in enumerate(rows):
                for b in range(a, k):
                    f[a, b] = f[b, a] = row[b] / den  # int / int is correctly rounded
                    s[a][b] = s[b][a] = Decimal(row[b]) / decimal_den
        f.setflags(write=False)
        return f, s, [(int(v), count) for v in sums], (rows, den)


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
    f, s, means, ints = fold.finish()
    with localcontext(_CTX):
        sds = [(s[a][a] / (n - 1)).sqrt() for a in range(len(names))]
        exact = _Exact(f, s, [Decimal(num) / den for num, den in means], sds, n, ints)
    floats = tuple(num / den for num, den in means)  # int / int is correctly rounded
    return CenteredData(response_name, predictor_names, data, floats, exact)


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


def _project(s: list[list[Decimal]], sol: _Solution, col: int) -> tuple[list, list]:
    """Cross-products a of column ``col`` with the columns of ``sol``, and its
    coefficients on them u = A^-1 a, both in the order of sol.b; the caller
    enters ``_CTX``."""
    a = [s[col][j] for j in sol.b]
    return a, [sum(map(mul, row, a)) for row in sol.ainv]


def _extend(s: list[list[Decimal]], sol: _Solution, col: int) -> _Solution:
    """Border a solution of the response with one more column, in O(k^2);
    the caller enters ``_CTX``.

    With u = A^-1 a from ``_project``, d = s_cc - a'u is the new column's SS
    residualized on the others, and the regression SS grows by d * b_new^2
    (Golub & Van Loan, bordering).
    """
    a, u = _project(s, sol, col)
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
    keyed by bit mask (``_mask``), each solved once, by bordering the set
    without its highest column, and shared by every use of the same data.
    ``type1`` makes the Type I rows a caller asks for of a guarded set's
    subsets in one exact walk over them, on each call."""

    def __init__(self, ex: _Exact, names: Sequence[str]):
        self._ex, self._names = ex, names
        self._cache = {0: _Solution({}, {}, Decimal(0), ex.s[-1][-1], [])}
        self._guarded: list[int] = []

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

    def solve(self, mask: int, idx: Sequence[int] | None = None, what: str = "subset") -> _Solution:
        """Solution on the columns of ``mask``, behind ``guard``; errors name
        them "what (names)"."""
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
        chain = []
        while mask not in self._cache:
            chain.append(mask)
            mask ^= 1 << mask.bit_length() - 1
        sol = self._cache[mask]
        for link in reversed(chain):
            sol = self._cache[link] = _extend(self._ex.s, sol, link.bit_length() - 1)
        return sol

    def type1(self, mask: int, sets: Collection[int] | None = None) -> dict[int, dict[int, float]]:
        """The Type I rows of the nonempty subsets S of ``mask``, a set that
        passed the guard, by mask: of all of them, or of ``sets``. A row holds,
        by i, SSE(S - i) - SSE(S) for each column i of S whose S - i the walk
        reached: every i, or, when ``_minors`` walks only the ascending
        prefixes of ``sets``, at least each i with S - i in ``sets`` or
        empty. With SSE(S) = Y_S / (D P_S), that is (Y_(S-i) P_S - Y_S
        P_(S-i)) / (D P_S P_(S-i)), one int / int division, which is
        correctly rounded.
        Above ``ORDERING_CAP`` columns, a row of each of ``sets``, which must
        be given, is ``_partial`` of each column of the set's solve."""
        if mask.bit_count() > ORDERING_CAP:
            with localcontext(_CTX):
                sols = {sub: self.solve(sub) for sub in sets}
                return {sub: {i: float(_partial(sol, i)) for i in sol.b} for sub, sol in sols.items()}
        every = sets is None
        reach = None if every else {s & (2 << b) - 1 for s in sets for b in range(s.bit_length())}
        minors = {sub: (y, p) for sub, y, p in self._minors(mask, reach)}
        den, rows = self._ex.ints[1], {}
        for sub in minors if every else sets:
            y, p = minors[sub]
            row, rest, dp = {}, sub, den * p
            while rest:
                bit = rest & -rest
                rest ^= bit
                if every or sub ^ bit in minors:
                    y_less, p_less = minors[sub ^ bit]
                    row[bit.bit_length() - 1] = (y_less * p - y * p_less) / (dp * p_less)
            rows[sub] = row
        rows.pop(0, None)
        return rows

    def _minors(self, mask: int, reach: Container[int] | None = None) -> Iterator[tuple[int, int, int]]:
        """(S, Y_S, P_S) for each subset S of ``mask``, or of ``reach``, once,
        the empty set first: P_S = det N[S] and Y_S = det N[S + y], for the
        exact SSCP N / D (``_Exact.ints``), so that SSE(S) = Y_S / (D P_S).

        The sets form a binomial tree: the children of S are S + t for each
        column t of ``mask`` above the highest of S. A node keeps the upper
        triangle of its bordered minors B_ab = det N[S + a, S + b] over the
        columns a, b of ``mask`` above it and y; its child S + t has pivot
        P = B_tt, and its minors (P B_ab - B_ta B_tb) / P_S by Sylvester's
        identity, an exact integer division (fraction-free elimination,
        Bareiss 1968). A node's children in ``reach``, which holds each of its
        sets' parents, are made before any is entered. A pivot that is not
        positive raises SingularDesign naming its set, as ``_extend`` would."""
        num = self._ex.ints[0]
        cols = _columns(mask)
        idx = [*cols, len(num) - 1]
        yield 0, num[-1][-1], 1
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
                yield child, bordered[-1][0], p
                if len(bordered) > 1:  # columns above t remain
                    stack.append((child, start + i + 1, p, bordered))


def _partial(sol: _Solution, i: int) -> Decimal:
    """Partial SS of column i in a solved fit, b_i^2 / (A^-1)_ii: the SS
    lost by dropping it, without subtracting two fits; the caller enters
    ``_CTX``."""
    return sol.b[i] * sol.b[i] / sol.inv[i]


def _ratio(a: Decimal, b: Decimal) -> float:
    """a / b rounded once; a zero divisor gives a signed infinity (or NaN)."""
    if b:
        return float(a / b)
    return math.copysign(math.inf, a) if a else math.nan


def _column_sd(inv: Decimal, n: int) -> Decimal:
    """Sample sd of a centered column whose SS is 1 / inv."""
    return (1 / (inv * (n - 1))).sqrt()


def _coef_stats(b: Decimal, inv: Decimal, sd: Decimal, mse: Decimal, sd_y: Decimal) -> tuple:
    """(b, se, z, t) of one coefficient: se = sqrt(MSE * inv), z = b sd / sd_y."""
    se = (mse * inv).sqrt()
    return float(b), float(se), float(b * sd / sd_y), _ratio(b, se)


def _make_fit(
    ex: _Exact, labels: Sequence[str], b: Sequence[Decimal], inv: Sequence[Decimal],
    col_means: Sequence[Decimal], col_sds: Sequence[Decimal], ssr: Decimal, sse: Decimal,
) -> OlsFit:
    """OlsFit of the response of ``ex`` on columns with slopes ``b``, inverse
    SSCP diagonal ``inv`` and the given means and sds; every value is
    rounded once."""
    k, n = len(b), ex.n
    sst, mean_y, sd_y = ex.s[-1][-1], ex.means[-1], ex.sds[-1]
    with localcontext(_CTX):
        mse = sse / (n - k - 1)
        coefs = [_coef_stats(*a, mse, sd_y) for a in zip(b, inv, col_sds)]
        bs, se, z, t = zip(*coefs)
        return OlsFit(
            predictor_subset=tuple(labels),
            b=_readonly(bs),
            intercept=float(mean_y - sum(map(mul, b, col_means))),
            ss_total=float(sst),
            ss_regression=float(ssr),
            ss_residual=float(sse),
            df_model=k,
            df_residual=n - k - 1,
            ms_regression=float(ssr / k),
            ms_residual=float(mse),
            ms_total=float(sst / (n - 1)),
            r2=float(ssr / sst),
            # a perfect fit has zero residual MS; F and t are then infinite
            f=_ratio(ssr / k, mse),
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
    decimal solve as ``fit_ols``. ``col_means`` are the original-scale
    means of the design columns, used to reconstruct the intercept;
    ``col_sds`` feed the standardized coefficients.
    """
    labels = tuple(labels)
    if design.ndim != 2 or design.shape[1] == 0:
        raise EmptySubset("at least one predictor is required")
    n, k = design.shape
    f, s, _, ints = _fold_columns([*design.T, y], (*labels, "y")).finish()
    dec = [Decimal(float(v)) for v in (*col_means, mean_y, *col_sds, sd_y)]
    ex = _Exact(f, s, dec[: k + 1], dec[k + 1 :], n, ints)
    sol = _Subsets(ex, labels).solve(_mask(range(k)), range(k), "fit on")
    b, inv = list(sol.b.values()), list(sol.inv.values())
    return _make_fit(ex, labels, b, inv, ex.means[:k], ex.sds[:k], sol.ssr, sol.sse)


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
    sol = c._memo.solve(_mask(idx), idx, "fit on")
    ex = c.exact
    return _make_fit(
        ex, subset, [sol.b[i] for i in idx], [sol.inv[i] for i in idx],
        [ex.means[i] for i in idx], [ex.sds[i] for i in idx], sol.ssr, sol.sse,
    )


def anova_table(fit: OlsFit) -> AnovaTable:
    """Classical Regression/Residual/Total table for a single fit."""
    rows = (
        AnovaRow("Regression", fit.ss_regression, fit.df_model, fit.ms_regression, fit.f),
        AnovaRow("Residual", fit.ss_residual, fit.df_residual, fit.ms_residual, None),
        AnovaRow("Total", fit.ss_total, fit.df_model + fit.df_residual, fit.ms_total, None),
    )
    return AnovaTable(rows=rows, r2=fit.r2)
