"""Variance decomposition for correlated predictors.

When predictors are correlated, the classical regression sum of squares is
not the sum of the predictors' individual contributions. This module
computes the quantities that make the discrepancy explicit: sequential
(Type I) and partial (Type III) sums of squares, residualized predictors
and their simple regressions, orthogonal-function regressions, the
corrected R2 and f statistics built from the partial contributions, and a
Venn-style accounting of where the response variation actually went.

Every reported number is read off the subset memo of ``ols_core``. Within
``ORDERING_CAP`` predictors, one exact walk over the subsets of the model
that a report needs makes each ordering's Type I SS (a row entry of the
memo's ``type1``), each orthogonal-function term (the reader that
``type1`` returns with the rows) and the model's regression in integers
(the memo's ``fit``), from which the model's fit, each Type III SS (x_j^2
/ (D P_M P_(M - j))), the Venn regions, the corrected statistics and the
simple regressions on the residualized predictors are exact rationals,
each rounded once; ``residualize`` fits its target on its conditioning set
the same way. Above the cap they come from the memo's 50-digit decimal
solves, whose values enter the same formulas as exact ratios; the memo
alone makes that choice. No report path residualizes a column or reads
the observations again.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import accumulate, permutations
from operator import or_
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import EmptySubset, TooManyOrderings
from .ols_core import (
    ORDERING_CAP,
    CenteredData,
    OlsFit,
    _coef,
    _Exact,
    _intercept,
    _make_fit,
    _mask,
    _Model,
    _quotient,
    _readonly,
    _Subsets,
    fit_centered_design,  # noqa: F401 - bench/spans.py traces this binding
    fit_ols,
)

# A common region within this fraction of SS(total) of zero is float noise,
# as on an orthogonal design, not overlap or suppression.
OVERLAP_NOISE = 1e-9


def _label(target: str, joined: str | None) -> str:
    """The term label of ``target`` residualized against the names that
    ``joined`` joins by commas, or against none: ``target|a,b``."""
    return target if joined is None else f"{target}|{joined}"


class ResidualizedPredictor(NamedTuple):
    """A predictor with the influence of other predictors removed.

    ``values`` are the residuals of the target column after projecting it
    onto the conditioning set; they are centered and orthogonal to every
    conditioning column.
    """

    target: str
    conditioned_on: tuple[str, ...]
    values: np.ndarray

    @property
    def label(self) -> str:
        return _label(self.target, ",".join(self.conditioned_on) if self.conditioned_on else None)

    @property
    def ss(self) -> float:
        return float(self.values @ self.values)

    @property
    def sd(self) -> float:
        return float(self.values.std(ddof=1))


class VennRegions(NamedTuple):
    """Where the response variation goes once overlap is removed.

    ``unique`` holds each predictor's partial (Type III) contribution;
    ``common_total`` is the regression SS left over after removing them,
    i.e. the overlap attributable to predictor intercorrelation. The
    accounted total is unique + residual; what is missing from ss_total
    equals the common overlap. ``common_total`` may be negative
    (suppression) and is reported signed, never clamped.
    """

    unique: Mapping[str, float]
    common_total: float
    residual: float
    ss_total: float
    accounted_total: float
    missing: float
    missing_fraction: float

    @property
    def suppression(self) -> bool:
        return self.common_total < -OVERLAP_NOISE * self.ss_total


class PredictorDecomposition(NamedTuple):
    """Per-predictor summary: partial SS plus its sequential SS per ordering."""

    name: str
    type3_ss: float
    type1_by_ordering: Mapping[tuple[str, ...], float]


class DecompositionReport(NamedTuple):
    """Traditional fit side by side with the partial-SS decomposition.

    ``actual_model_ss`` is the summed Type III SS, ``corrected_r2`` that sum
    over SS(total), ``corrected_f`` its mean over the full-model residual MS.
    """

    traditional: OlsFit
    per_predictor: tuple[PredictorDecomposition, ...]
    venn: VennRegions
    orderings: tuple[tuple[str, ...], ...]
    actual_model_ss: float
    corrected_r2: float
    corrected_f: float

    @property
    def model(self) -> tuple[str, ...]:
        return self.traditional.predictor_subset


def _check_names(c: CenteredData, names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    for nm in names:
        c.predictor_index(nm)
    return names


def _canonical_model(c: CenteredData, model: Iterable[str]) -> tuple[str, ...]:
    """Deduplicate and order a model by the dataset's predictor order."""
    requested = set(_check_names(c, model))
    return tuple(nm for nm in c.predictor_names if nm in requested)


def _model(c: CenteredData, model: Iterable[str]) -> tuple[str, ...]:
    """The canonical model; raises EmptySubset if it names no predictor."""
    model = _canonical_model(c, model)
    if not model:
        raise EmptySubset("model must name at least one predictor")
    return model


def _fit(c: CenteredData, model: tuple[str, ...]) -> _Model:
    """The memo's regression on the model, behind its guard."""
    idx = [c.predictor_index(nm) for nm in model]
    return c._memo.fit(_mask(idx), idx, "fit on")


def _type3(m: _Model, j: int) -> float:
    """Type III SS of column j, b_j^2 / (A^-1)_jj = x_j^2 / (g q w_j)."""
    return m.x[j] * m.x[j] / (m.g * m.q * m.w[j])


def _unique(m: _Model) -> tuple[int, ...]:
    """The summed Type III SS of the regression's columns and its
    regression, residual and total SS, as numerators over one denominator
    g q W, W the product of the w_j: (unique, ssr, sse, sst, g q W)."""
    num, den = 0, 1
    for j, x in m.x.items():
        num, den = num * m.w[j] + x * x * den, den * m.w[j]
    return num, m.ssr * den, m.sse * den, m.sst * den, m.g * m.q * den


def _venn(c: CenteredData, model: tuple[str, ...], m: _Model, unique: tuple[int, ...] = ()) -> VennRegions:
    u, ssr, sse, sst, den = unique or _unique(m)
    missing = sst - u - sse
    return VennRegions(
        unique=MappingProxyType({nm: _type3(m, c.predictor_index(nm)) for nm in model}),
        common_total=(ssr - u) / den,
        residual=m.sse / (m.g * m.q),
        ss_total=m.sst / (m.g * m.q),
        accounted_total=(u + sse) / den,
        missing=missing / den,
        missing_fraction=missing / sst,
    )


def _corrected(c: CenteredData, m: _Model, unique: tuple[int, ...] = ()) -> tuple[float, float, float]:
    """Actual model SS (summed Type III SS), corrected R2 and corrected F."""
    (u, _, sse, sst, den), k = unique or _unique(m), len(m.x)
    return u / den, u / sst, _quotient(u * (c.n - k - 1), k * sse)


class _Orderings:
    """Type I tables and orthogonal-function fits of the orderings of
    ``model``: all of them, or the given ``orderings``, checked on creation.

    Term k of an ordering o is predictor o[k] in the fit on o[:k + 1]: its
    slope is that fit's coefficient, its column (o[k] residualized on
    o[:k]) has SS 1 / (A^-1)_kk, and its Type I SS is slope^2 times that
    SS. Sets are bit masks over the predictors' indices. The Type I
    ``rows`` of the prefix sets (of all orderings, or the given ones) come
    off the memo's ``type1`` on the first read, which must come after the
    model's guard, and give a Type I pair (``entry``) per prefix set and
    predictor; the walk that makes them makes the model's regression and
    the reader of the terms too. A term's statistics (``stats``), off that
    reader, and an ``intercept`` per first predictor, off the exact SSCP,
    are made on each call; a caller that reads one more than once keeps
    it.
    """

    def __init__(self, c: CenteredData, model: Iterable[str], orderings: Iterable[tuple[str, ...]] | None = None):
        self._c = c
        self._bit = {nm: 1 << i for i, nm in enumerate(c.predictor_names)}
        self.model = _canonical_model(c, model)
        self._whole = sum(map(self._bit.__getitem__, self.model))
        self._sets = None if orderings is None else {mask for o in orderings for mask in self.masks(o)}

    def masks(self, ordering: tuple[str, ...]) -> list[int]:
        """The set of each prefix of ``ordering``: EmptySubset if it is empty, then
        UnknownName, then ValueError for a repeated name or a set other than ``model``."""
        if not ordering:
            raise EmptySubset("an ordering must name at least one predictor")
        try:
            masks = [*accumulate(map(self._bit.__getitem__, ordering), or_)]
        except KeyError:
            _check_names(self._c, ordering)  # raises UnknownName
            raise
        if masks[-1].bit_count() != len(ordering):
            raise ValueError(f"ordering {ordering!r} repeats a predictor")
        if masks[-1] != self._whole:
            raise ValueError(f"ordering {ordering!r} is not a permutation of {self.model!r}")
        return masks

    @cached_property
    def _walked(self) -> tuple:
        """The Type I row of each prefix set, by mask, and in it the SS of
        each column entering the set last, by column index, and the reader of
        the terms of those sets (the memo's ``type1``); the walk that makes
        them also makes the model's regression, if the memo has none."""
        return self._c._memo.type1(self._whole, self._sets, fit=True)

    def fit(self) -> OlsFit:
        """The model's fit, behind its guard, after the walk that makes the
        Type I rows, which within the cap makes the model's regression too."""
        c = self._c
        c._memo.guard(self._whole, [*map(c.predictor_index, self.model)], "fit on")
        self._walked
        return fit_ols(c, self.model)

    def entry(self, mask: int, nm: str) -> tuple[str, float]:
        return nm, self._walked[0][mask][self._c.predictor_index(nm)]

    @cached_property
    def _model_ss(self) -> tuple[int, ...]:
        """The model's residual MS as sse / d and total SS as sst / g q:
        (sse, d, sst, g q), once per walk."""
        m = self._c._memo.fit(self._whole)
        gq = m.g * m.q
        return m.sse, gq * (self._c.n - len(self.model) - 1), m.sst, gq

    def stats(self, mask: int, nm: str) -> tuple[float, ...]:
        """(b, se, z, t) of ``nm`` last in the prefix set ``mask``, with the
        model's residual MS: the column's SS is 1 / (A^-1)_ii."""
        (x, v), q = self._walked[1](mask, self._c.predictor_index(nm))
        sse, d, sst, gq = self._model_ss
        # se^2 = MSE (A^-1)_ii = sse / d * v / q = sse v q / d / q^2
        return _coef(x, q, sse * v * q, d, (q * gq, v * sst))

    def intercept(self, nm: str) -> float:
        """Intercept of an orthogonal-function fit whose first column is
        ``nm``, whose slope is N_iy / N_ii."""
        c, i = self._c, self._c.predictor_index(nm)
        num, (sums, count) = c.exact.ints[0], c.exact.sums
        return _intercept([num[i][-1]], num[i][i], (sums[-1], [sums[i]], count))

    def walk(self, orderings: Iterable[tuple[str, ...]]) -> Iterator[tuple]:
        """Each (checked) ordering as (k, ordering, masks, labels): k is how
        many leading names it shares with the last ordering, and the set and
        term label of each prefix are kept for those k and made for the rest,
        each label from its parent prefix's names, joined by commas once per
        prefix. The two lists are the walk's own, changed in place as it
        moves on."""
        last, masks, labels, joins = (), [], [], [None]
        for ordering in orderings:
            k = 0
            for held, nm in zip(last, ordering):
                if held != nm:
                    break
                k += 1
            del masks[k:], labels[k:], joins[k + 1 :]
            mask = masks[-1] if k else 0
            for nm in ordering[k:]:
                mask |= self._bit[nm]
                masks.append(mask)
                labels.append(_label(nm, joins[-1]))
                joins.append(nm if joins[-1] is None else f"{joins[-1]},{nm}")
            yield k, ordering, masks, labels
            last = ordering


class OrderingWalk(NamedTuple):
    """Orderings of one predictor set, with the set fitted: all of its
    orderings, or those a caller gave, each of them checked.

    ``steps`` walks them as ``_Orderings.walk`` does, reading each prefix
    set when it first reaches it, under the guard of ``fit``; ``values``
    gives each Type I pair and term statistics by (prefix set, predictor)
    and each intercept by first predictor.
    """

    fit: OlsFit
    values: _Orderings
    steps: Iterator[tuple]


def residualize(
    c: CenteredData, target: str, against: Iterable[str] = ()
) -> ResidualizedPredictor:
    """Remove the OLS projection of ``target`` onto ``against``.

    With an empty conditioning set the centered target column is returned
    unchanged. The coefficients are the regression of the target on
    ``against``, fitted as the memo fits a set, on the block of the exact
    SSCP that holds the conditioning columns in dataset order and the
    target last; the result is orthogonal to every conditioning column.
    """
    against = _check_names(c, against)
    if target in against:
        raise ValueError(f"target {target!r} cannot be conditioned on itself")
    col = c.column(target)  # raises UnknownName
    if not against:
        return ResidualizedPredictor(target, (), col)
    idx = [c.predictor_index(nm) for nm in against]
    ix, (num, den), (sums, count) = [*sorted(idx), c._col(target)], c.exact.ints, c.exact.sums
    block = [[num[a][b] for b in ix] for a in ix]
    ex = _Exact(c.exact.f[np.ix_(ix, ix)], c.n, (block, den), ([sums[a] for a in ix], count))
    order = [*map(ix.index, idx)]
    m = _Subsets(ex, [c.predictor_names[a] for a in ix[:-1]]).fit(_mask(order), order, f"residualize {target} on")
    design = np.array([c.column(nm) for nm in against]).T  # F-order: the layout moves last bits
    return ResidualizedPredictor(target, against, _readonly(col - design @ [m.x[j] / m.q for j in order]))


def sequential_ss(
    c: CenteredData, ordering: Sequence[str]
) -> list[tuple[str, float]]:
    """Sequential (Type I) sums of squares along an ordered predictor chain.

    The k-th entry is the regression SS gained by appending the k-th
    predictor to the first k - 1. The entries telescope, so they sum to the
    regression SS of the complete chain. Each prefix passes the guard in
    turn; then each entry is read off its prefix set's row, which, within
    the cap, an exact walk of the sets on the way to the prefixes makes
    (``compare_report`` reads the same floats).
    """
    ordering = tuple(ordering)
    masks = _Orderings(c, ordering, [ordering]).masks(ordering)
    for mask in masks:  # as a fit on each prefix in turn would
        c._memo.guard(mask)
    rows = c._memo.type1(masks[-1], set(masks))[0]
    return [(nm, rows[mask][c.predictor_index(nm)]) for mask, nm in zip(masks, ordering)]


def partial_ss(c: CenteredData, predictor: str, model: Iterable[str]) -> float:
    """Partial (Type III) SS: regression SS lost by dropping the predictor.

    Equals SS(model) - SS(model without predictor), and the regression SS
    of the response on the predictor residualized against the rest of the
    model.
    """
    model = _canonical_model(c, model)
    if predictor not in model:
        raise ValueError(f"predictor {predictor!r} not in model {model!r}")
    return _type3(_fit(c, model), c.predictor_index(predictor))


def actual_model_ss(c: CenteredData, model: Iterable[str]) -> float:
    """Sum of the partial (Type III) SS over every predictor in the model."""
    return _corrected(c, _fit(c, _model(c, model)))[0]


def corrected_r2(c: CenteredData, model: Iterable[str]) -> float:
    """Share of total SS the model actually attributes to its predictors.

    The ratio of the summed partial SS to the total SS. Identical to the
    sum of squared standardized coefficients computed on residualized
    predictors.
    """
    return _corrected(c, _fit(c, _model(c, model)))[1]


def corrected_f(c: CenteredData, model: Iterable[str]) -> float:
    """Mean partial SS per predictor over the full-model residual MS.

    Algebraically the mean of the squared t statistics of the full fit,
    since each squared t equals its partial SS divided by MS(residual).
    """
    return _corrected(c, _fit(c, _model(c, model)))[2]


def orthogonal_regression(c: CenteredData, ordering: Sequence[str]) -> OlsFit:
    """Fit the response on sequentially residualized predictor columns.

    The design is (first predictor, second residualized on the first,
    third residualized on the first two, ...). The columns are pairwise
    orthogonal by construction and the regression SS equals the full
    model's. The k-th column's slope is its predictor's coefficient in the
    fit on the first k predictors of the ordering, so only the last column
    keeps its full-model coefficient.

    Raises EmptySubset for an empty ordering, and SingularDesign where
    fit_ols on the same predictors would.
    """
    ordering = tuple(ordering)
    values = _Orderings(c, ordering, [ordering])
    fit = values.fit()  # the walk of the terms' sets makes the model's regression too
    ((_, order, masks, labels),) = values.walk([ordering])
    b, se, z, t = map(_readonly, zip(*map(values.stats, masks, order)))
    return fit._replace(
        predictor_subset=tuple(labels), b=b, se=se, t=t, z=z, intercept=values.intercept(order[0])
    )


def ordering_walk(
    c: CenteredData, model: Iterable[str], orderings: Iterable[Sequence[str]] | None = None
) -> OrderingWalk:
    """Fit the model and return the walk over its orderings. By default
    these are all of them, as ``enumerate_orderings`` lists them: its
    TooManyOrderings comes before any name check, and they need none.
    Given ``orderings`` are each checked against ``model`` before the fit.
    The fit's guard covers every prefix set and, within the cap, the one
    exact walk of the sets that the orderings reach, which makes the Type I
    pairs, the terms and, before the fit, the model's regression (above
    the cap, each prefix set is solved); depth-first, as ``enumerate_orderings``
    lists them, each ordered prefix is entered once.
    """
    model, given = tuple(model), None if orderings is None else [*map(tuple, orderings)]
    walked = enumerate_orderings(set(model)) if given is None else given  # set: each name once, as in the model
    values = _Orderings(c, model, given)
    return OrderingWalk(values.fit(), values, values.walk(walked))


def residualized_simple_fits(
    c: CenteredData, model: Iterable[str]
) -> dict[str, OlsFit]:
    """Simple regression of the response on each residualized predictor.

    For predictor j the design is the single column of j residualized
    against the rest of the model, so df_residual is n - 2 regardless of
    how many columns fed the residualization. The slope is the full-model
    coefficient of j, the column SS 1 / (A^-1)_jj and the regression SS
    its partial SS, all from the model's regression.
    """
    model = _model(c, model)
    m, out = _fit(c, model), {}
    sums, count = c.exact.sums
    for nm in model:
        j, rest = c.predictor_index(nm), [o for o in model if o != nm]
        x, w = m.x[j], m.w[j]
        # the regression on j alone, over q w_j: its SS, x_j^2 / (g q w_j),
        # is its Type III SS, and its column's SS is 1 / (A^-1)_jj
        sst = m.sst * w
        simple = _Model({j: x * w}, {j: w * w}, m.q * w, m.g, x * x, max(sst - x * x, 0), sst)
        label, mean = (_label(nm, ",".join(rest)), 0) if rest else (nm, sums[j])
        out[nm] = _make_fit(c.n, (label,), simple, [j], (sums[-1], [mean], count), [(m.q * m.q, w * m.sst)])
    return out


def venn_regions(c: CenteredData, model: Iterable[str]) -> VennRegions:
    """Region-by-region accounting of the response variation.

    Each predictor's unique region is its partial SS; the common region is
    the classical regression SS minus the unique regions; the accounted
    total is unique + residual, and the shortfall against ss_total equals
    the common region. A negative common region signals suppression and is
    reported as is.
    """
    model = _model(c, model)
    return _venn(c, model, _fit(c, model))


def enumerate_orderings(model: Sequence[str]) -> tuple[tuple[str, ...], ...]:
    """All orderings of the model, lexicographic by predictor name.

    Raises TooManyOrderings above the cap; callers must then supply
    explicit orderings.
    """
    model = tuple(model)
    if len(model) > ORDERING_CAP:
        raise TooManyOrderings(len(model), ORDERING_CAP)
    return tuple(permutations(sorted(model)))


def compare_report(
    c: CenteredData,
    model: Iterable[str],
    orderings: Sequence[Sequence[str]] | str | None = None,
) -> DecompositionReport:
    """Assemble the full traditional-vs-corrected comparison.

    With ``orderings=None`` every ordering is included while the model has
    at most ORDERING_CAP predictors; for larger models none are, and the
    caller must pass them explicitly. ``orderings="all"`` demands the
    exhaustive set and raises TooManyOrderings above the cap. Only the
    orderings a caller passes are checked, before any fit. Behind the
    model's guard, each Type I SS is read off its ordering's prefix set's row: within the
    cap, from one exact walk of the model's subsets that the orderings
    reach, all for all orderings and none for ``orderings=()``; above it,
    from the solve of each prefix set. Within the cap the same walk, which
    also reaches the model less each predictor, gives the model's fit, its
    Type III SS, the Venn regions and the corrected statistics, so a report
    makes one walk and no decimal solve. The only fit it builds is the
    model's; ``residualized_simple_fits`` builds the simple regressions on
    the residualized predictors.
    """
    model, given = _model(c, model), None
    if orderings == "all" or (orderings is None and len(model) <= ORDERING_CAP):
        ordering_list = enumerate_orderings(model)
    elif orderings is None:
        ordering_list = ()
    elif isinstance(orderings, str):
        raise ValueError(f"orderings must be 'all', None, or a sequence, not {orderings!r}")
    else:
        ordering_list = given = tuple(map(tuple, orderings))
    values = _Orderings(c, model, given)  # checks every given ordering before any fit

    full = values.fit() if ordering_list else fit_ols(c, model)
    m = _fit(c, model)
    col = {nm: c.predictor_index(nm) for nm in model}
    bit = {nm: 1 << i for nm, i in col.items()}
    rows = values._walked[0] if ordering_list else {}
    type1: dict[str, dict[tuple[str, ...], float]] = {nm: {} for nm in model}
    for ordering in ordering_list:
        mask = 0
        for nm in ordering:
            mask |= bit[nm]
            type1[nm][ordering] = rows[mask][col[nm]]
    unique = _unique(m)
    actual, r2, f = _corrected(c, m, unique)

    return DecompositionReport(
        traditional=full,
        per_predictor=tuple(
            PredictorDecomposition(nm, _type3(m, col[nm]), MappingProxyType(type1[nm]))
            for nm in model
        ),
        venn=_venn(c, model, m, unique),
        orderings=ordering_list,
        actual_model_ss=actual,
        corrected_r2=r2,
        corrected_f=f,
    )
