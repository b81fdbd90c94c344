"""Variance decomposition for correlated predictors.

When predictors are correlated, the classical regression sum of squares is
not the sum of the predictors' individual contributions. This module
computes the quantities that make the discrepancy explicit: sequential
(Type I) and partial (Type III) sums of squares, residualized predictors
and their simple regressions, orthogonal-function regressions, the
corrected R2 and f statistics built from the partial contributions, and a
Venn-style accounting of where the response variation actually went.

Every reported number is read off the subset memo of ``ols_core``: Type III
SS as b_j^2 / (A^-1)_jj from the one full-model solve, each ordering's Type
I SS and orthogonal-function terms from the solves of its prefixes.
``compare_report`` makes the Type I rows of all its prefix sets in one pass
before it fills a table. No report path residualizes a column or reads the
observations again.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from decimal import Decimal, localcontext
from functools import cached_property
from itertools import accumulate, permutations
from operator import or_
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import EmptySubset, TooManyOrderings
from .ols_core import (
    _CTX,
    CenteredData,
    OlsFit,
    _coef_stats,
    _column_sd,
    _Exact,
    _make_fit,
    _mask,
    _partial,
    _project,
    _ratio,
    _readonly,
    _Solution,
    _submasks,
    fit_centered_design,  # noqa: F401 - bench/spans.py traces this binding
    fit_ols,
)

# Exhaustive ordering enumeration stops here: 8! = 40,320 orderings.
ORDERING_CAP = 8

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
    ``residualized_fits`` is a read-only mapping that ``compare_report``
    builds on its first read (``[]``, iteration, ``items()``, ``==``; not
    ``len()``), from the exact SSCP and the model's solve that it keeps, not
    the centering, its rows or its subset memo.
    """

    traditional: OlsFit
    per_predictor: tuple[PredictorDecomposition, ...]
    venn: VennRegions
    residualized_fits: Mapping[str, OlsFit]
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


def _partition(c: CenteredData, model: tuple[str, ...]) -> tuple[_Solution, dict[str, Decimal]]:
    """The full-model solve and each predictor's Type III SS."""
    idx = [c.predictor_index(nm) for nm in model]
    sol = c._memo.solve(_mask(idx), idx, "fit on")
    with localcontext(_CTX):
        return sol, {nm: _partial(sol, i) for nm, i in zip(model, idx)}


def _venn(c: CenteredData, sol: _Solution, type3: Mapping[str, Decimal]) -> VennRegions:
    sst = c.exact.s[-1][-1]
    with localcontext(_CTX):
        unique = sum(type3.values())
        accounted = unique + sol.sse
        return VennRegions(
            unique=MappingProxyType({nm: float(ss) for nm, ss in type3.items()}),
            common_total=float(sol.ssr - unique),
            residual=float(sol.sse),
            ss_total=float(sst),
            accounted_total=float(accounted),
            missing=float(sst - accounted),
            missing_fraction=float((sst - accounted) / sst),
        )


def _corrected(c: CenteredData, sol: _Solution, type3: Mapping[str, Decimal]) -> tuple[float, float, float]:
    """Actual model SS (summed Type III SS), corrected R2 and corrected F."""
    with localcontext(_CTX):
        total = sum(type3.values())
        mse = sol.sse / (c.n - len(type3) - 1)
        return float(total), float(total / c.exact.s[-1][-1]), _ratio(total / len(type3), mse)


class _Orderings:
    """Type I tables and orthogonal-function fits of the orderings of ``model``.

    Term k of an ordering o is predictor o[k] in the fit on o[:k + 1]: its
    slope is that fit's coefficient, its column (o[k] residualized on
    o[:k]) has SS 1 / (A^-1)_kk, and its Type I SS is slope^2 times that
    SS. Sets are bit masks over the predictors' indices. A Type I pair
    (``entry``), a term's statistics (``stats``) per prefix set and
    predictor, and an ``intercept`` per first predictor are read off the
    memo's solves on each call; a caller that reads one more than once
    keeps it.
    """

    def __init__(self, c: CenteredData, model: Iterable[str]):
        self._c = c
        self._bit = {nm: 1 << i for i, nm in enumerate(c.predictor_names)}
        self.model = _canonical_model(c, model)
        self._whole = sum(map(self._bit.__getitem__, self.model))

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

    def entry(self, mask: int, nm: str) -> tuple[str, float]:
        return nm, self._c._memo.type1(mask)[self._c.predictor_index(nm)]

    @cached_property
    def _mse(self) -> Decimal:
        """The model's residual MS, once per walk."""
        with localcontext(_CTX):
            return self._c._memo.solve(self._whole).sse / (self._c.n - len(self.model) - 1)

    def stats(self, mask: int, nm: str) -> tuple[float, ...]:
        """(b, se, z, t) of ``nm`` last in the prefix set ``mask``."""
        c, i, part = self._c, self._c.predictor_index(nm), self._c._memo.solve(mask)
        with localcontext(_CTX):
            sd = _column_sd(part.inv[i], c.n)
            return _coef_stats(part.b[i], part.inv[i], sd, self._mse, c.exact.sds[-1])

    def intercept(self, nm: str) -> float:
        """Intercept of an orthogonal-function fit whose first column is ``nm``."""
        c, i = self._c, self._c.predictor_index(nm)
        with localcontext(_CTX):
            slope = c._memo.solve(self._bit[nm]).b[i]
            return float(c.exact.means[-1] - slope * c.exact.means[i])

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

    ``steps`` walks them as ``_Orderings.walk`` does, solving each prefix
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
    unchanged. The coefficients are A^-1 a off the memo's solve of
    ``against``; the result is orthogonal to every conditioning column.
    """
    against = _check_names(c, against)
    if target in against:
        raise ValueError(f"target {target!r} cannot be conditioned on itself")
    col = c.column(target)  # raises UnknownName
    if not against:
        return ResidualizedPredictor(target, (), col)
    idx = [c.predictor_index(nm) for nm in against]
    sol = c._memo.solve(_mask(idx), idx, f"residualize {target} on")
    with localcontext(_CTX):
        u = dict(zip(sol.b, _project(c.exact.s, sol, c._col(target))[1]))
    design = np.array([c.column(nm) for nm in against]).T  # F-order: the layout moves last bits
    return ResidualizedPredictor(target, against, _readonly(col - design @ [float(u[i]) for i in idx]))


def sequential_ss(
    c: CenteredData, ordering: Sequence[str]
) -> list[tuple[str, float]]:
    """Sequential (Type I) sums of squares along an ordered predictor chain.

    The k-th entry is the regression SS gained by appending the k-th
    predictor to the first k - 1. The entries telescope, so they sum to the
    regression SS of the complete chain.
    """
    ordering = tuple(ordering)
    values = _Orderings(c, ordering)
    return [*map(values.entry, values.masks(ordering), ordering)]


def partial_ss(c: CenteredData, predictor: str, model: Iterable[str]) -> float:
    """Partial (Type III) SS: regression SS lost by dropping the predictor.

    Equals SS(model) - SS(model without predictor), and the regression SS
    of the response on the predictor residualized against the rest of the
    model.
    """
    model = _canonical_model(c, model)
    if predictor not in model:
        raise ValueError(f"predictor {predictor!r} not in model {model!r}")
    return float(_partition(c, model)[1][predictor])


def actual_model_ss(c: CenteredData, model: Iterable[str]) -> float:
    """Sum of the partial (Type III) SS over every predictor in the model."""
    return _corrected(c, *_partition(c, _model(c, model)))[0]


def corrected_r2(c: CenteredData, model: Iterable[str]) -> float:
    """Share of total SS the model actually attributes to its predictors.

    The ratio of the summed partial SS to the total SS. Identical to the
    sum of squared standardized coefficients computed on residualized
    predictors.
    """
    return _corrected(c, *_partition(c, _model(c, model)))[1]


def corrected_f(c: CenteredData, model: Iterable[str]) -> float:
    """Mean partial SS per predictor over the full-model residual MS.

    Algebraically the mean of the squared t statistics of the full fit,
    since each squared t equals its partial SS divided by MS(residual).
    """
    return _corrected(c, *_partition(c, _model(c, model)))[2]


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
    fit, values, steps = ordering_walk(c, ordering, [ordering])
    ((_, order, masks, labels),) = steps
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
    The fit's guard covers every prefix set, which the walk solves when it
    first reaches it; depth-first, as ``enumerate_orderings`` lists them,
    each ordered prefix is entered once.
    """
    model = tuple(model)
    if orderings is None:
        orderings = enumerate_orderings(set(model))  # each name once, as _Orderings keeps it
        values = _Orderings(c, model)
    else:
        values, orderings = _Orderings(c, model), [*map(tuple, orderings)]
        for ordering in orderings:
            values.masks(ordering)
    return OrderingWalk(fit_ols(c, values.model), values, values.walk(orderings))


def residualized_simple_fits(
    c: CenteredData, model: Iterable[str]
) -> dict[str, OlsFit]:
    """Simple regression of the response on each residualized predictor.

    For predictor j the design is the single column of j residualized
    against the rest of the model, so df_residual is n - 2 regardless of
    how many columns fed the residualization. The slope is the full-model
    coefficient of j, the column SS 1 / (A^-1)_jj and the regression SS
    its partial SS, all from the full-model solve. Every fit is built at
    once; ``compare_report`` builds the same fits, bit for bit, on the
    first read of its ``residualized_fits``.
    """
    model = _model(c, model)
    return _simple_fits(c.exact, *_partition(c, model), {nm: c.predictor_index(nm) for nm in model})


def _simple_fits(
    ex: _Exact, sol: _Solution, type3: Mapping[str, Decimal], col: Mapping[str, int]
) -> dict[str, OlsFit]:
    """``residualized_simple_fits`` of the model ``type3`` keys, in its order,
    from its solve ``sol`` and the predictors' columns ``col`` in ``ex``."""
    out = {}
    for nm, ss in type3.items():
        i, rest = col[nm], [o for o in type3 if o != nm]
        with localcontext(_CTX):
            sse, sd = max(ex.s[-1][-1] - ss, Decimal(0)), _column_sd(sol.inv[i], ex.n)
        label, mean = (_label(nm, ",".join(rest)), Decimal(0)) if rest else (nm, ex.means[i])
        out[nm] = _make_fit(ex, (label,), [sol.b[i]], [sol.inv[i]], [mean], [sd], ss, sse)
    return out


class _ResidualizedFits(Mapping):
    """Read-only ``residualized_simple_fits`` of a report's model, built on
    the first read of a fit (``[]``, iteration, ``items()``, ``==``) from the
    model's exact SSCP, solve and Type III SS; ``len()`` builds nothing."""

    def __init__(self, ex: _Exact, sol: _Solution, type3: Mapping[str, Decimal], col: Mapping[str, int]):
        self._parts, self._len = (ex, sol, type3, col), len(type3)

    @cached_property
    def _fits(self) -> dict[str, OlsFit]:
        return _simple_fits(*self._parts)

    def __getitem__(self, name: str) -> OlsFit:
        return self._fits[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._fits)

    def __len__(self) -> int:
        return self._len

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._fits!r})"


def venn_regions(c: CenteredData, model: Iterable[str]) -> VennRegions:
    """Region-by-region accounting of the response variation.

    Each predictor's unique region is its partial SS; the common region is
    the classical regression SS minus the unique regions; the accounted
    total is unique + residual, and the shortfall against ss_total equals
    the common region. A negative common region signals suppression and is
    reported as is.
    """
    return _venn(c, *_partition(c, _model(c, model)))


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
    orderings a caller passes are checked, before any fit. After the fit,
    one pass over the prefix sets makes the Type I row of each (every
    subset of the model, or the given orderings' prefix sets), and each
    Type I SS is read off the row of its ordering's prefix. The
    ``residualized_simple_fits`` of the model are built on the first read
    of the report's ``residualized_fits``, from the one full-model solve
    and Type III SS that the rest of the report reads.
    """
    model = _model(c, model)
    if orderings == "all" or (orderings is None and len(model) <= ORDERING_CAP):
        ordering_list = enumerate_orderings(model)
        sets = _submasks(_mask(map(c.predictor_index, model)))
    elif orderings is None:
        ordering_list, sets = (), ()
    elif isinstance(orderings, str):
        raise ValueError(f"orderings must be 'all', None, or a sequence, not {orderings!r}")
    else:
        ordering_list = tuple(map(tuple, orderings))
        values = _Orderings(c, model)
        # every ordering is checked before any fit
        sets = {mask for ordering in ordering_list for mask in values.masks(ordering)}

    full = fit_ols(c, model)
    sol, type3 = _partition(c, model)
    col = {nm: c.predictor_index(nm) for nm in model}
    bit = {nm: 1 << i for nm, i in col.items()}
    rows = c._memo.type1_rows(sets)
    type1: dict[str, dict[tuple[str, ...], float]] = {nm: {} for nm in model}
    for ordering in ordering_list:
        mask = 0
        for nm in ordering:
            mask |= bit[nm]
            type1[nm][ordering] = rows[mask][col[nm]]
    actual, r2, f = _corrected(c, sol, type3)

    return DecompositionReport(
        traditional=full,
        per_predictor=tuple(
            PredictorDecomposition(nm, float(type3[nm]), MappingProxyType(type1[nm]))
            for nm in model
        ),
        venn=_venn(c, sol, type3),
        residualized_fits=_ResidualizedFits(c.exact, sol, type3, col),
        orderings=ordering_list,
        actual_model_ss=actual,
        corrected_r2=r2,
        corrected_f=f,
    )
