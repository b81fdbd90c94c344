"""Variance decomposition for correlated predictors.

When predictors are correlated, the classical regression sum of squares is
not the sum of the predictors' individual contributions. This module
computes the quantities that make the discrepancy explicit: sequential
(Type I) and partial (Type III) sums of squares, residualized predictors
and their simple regressions, orthogonal-function regressions, the
corrected R2 and f statistics built from the partial contributions, and a
Venn-style accounting of where the response variation actually went.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptySubset, TooManyOrderings
from .ols_core import (
    CenteredData,
    OlsFit,
    _gram,
    _readonly,
    _solve_spd,
    fit_centered_design,
    fit_ols,
)

# Exhaustive ordering enumeration stops here: 8! = 40,320 orderings.
ORDERING_CAP = 8


@dataclass(frozen=True)
class ResidualizedPredictor:
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
        if not self.conditioned_on:
            return self.target
        return f"{self.target}|{','.join(self.conditioned_on)}"

    @property
    def ss(self) -> float:
        return float(self.values @ self.values)

    @cached_property  # values is read-only; orderings sharing a prefix reuse it
    def sd(self) -> float:
        return float(self.values.std(ddof=1))


@dataclass(frozen=True)
class VennRegions:
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

    @classmethod
    def of(cls, full: OlsFit, type3: Mapping[str, float]) -> VennRegions:
        """Regions of the full-model fit given each predictor's Type III SS."""
        unique_sum = sum(type3.values())
        accounted = unique_sum + full.ss_residual
        return cls(
            unique=MappingProxyType(dict(type3)),
            common_total=full.ss_regression - unique_sum,
            residual=full.ss_residual,
            ss_total=full.ss_total,
            accounted_total=accounted,
            missing=full.ss_total - accounted,
            missing_fraction=(full.ss_total - accounted) / full.ss_total,
        )

    @property
    def suppression(self) -> bool:
        # threshold keeps float noise on orthogonal designs from flagging
        return self.common_total < -1e-9 * self.ss_total


@dataclass(frozen=True)
class PredictorDecomposition:
    """Per-predictor summary: partial SS plus its sequential SS per ordering."""

    name: str
    type3_ss: float
    type1_by_ordering: Mapping[tuple[str, ...], float]


@dataclass(frozen=True)
class DecompositionReport:
    """Traditional fit side by side with the partial-SS decomposition.

    The corrected statistics are read off ``venn.unique`` (the Type III
    SS) and the traditional fit.
    """

    traditional: OlsFit
    per_predictor: tuple[PredictorDecomposition, ...]
    venn: VennRegions
    residualized_fits: Mapping[str, OlsFit]
    orderings: tuple[tuple[str, ...], ...]

    @property
    def model(self) -> tuple[str, ...]:
        return self.traditional.predictor_subset

    @property
    def actual_model_ss(self) -> float:
        return sum(self.venn.unique.values())

    @property
    def corrected_r2(self) -> float:
        return _corrected_r2(self.venn.unique, self.traditional.ss_total)

    @property
    def corrected_f(self) -> float:
        return _corrected_f(self.venn.unique, self.traditional.ms_residual)


def _corrected_r2(type3: Mapping[str, float], ss_total: float) -> float:
    """Summed Type III SS over the total SS."""
    return sum(type3.values()) / ss_total


def _corrected_f(type3: Mapping[str, float], ms_residual: float) -> float:
    """Mean Type III SS per predictor over the full-model residual MS."""
    if ms_residual == 0.0:
        return float("inf")
    return (sum(type3.values()) / len(type3)) / ms_residual


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


def _check_ordering(c: CenteredData, ordering: Sequence[str]) -> tuple[str, ...]:
    ordering = _check_names(c, ordering)
    if len(set(ordering)) != len(ordering):
        raise ValueError(f"ordering {ordering!r} repeats a predictor")
    return ordering


class _SubsetSS:
    """Memoized regression SS per predictor subset.

    The regression SS of a subset depends only on the set, not the order,
    so sequential decompositions for many orderings share these values.
    Everything is computed from the full SSCP; no per-subset pass over the
    observations is needed.
    """

    def __init__(self, c: CenteredData):
        self._c = c
        self._sscp = _gram(c.x)
        self._rhs = c.x.T @ c.y
        self._cache: dict[frozenset[int], float] = {}

    def ss(self, subset: Sequence[str]) -> float:
        idx = frozenset(self._c.predictor_index(nm) for nm in subset)
        if not idx:
            return 0.0
        if idx not in self._cache:
            ix = sorted(idx)
            a = self._sscp[np.ix_(ix, ix)]
            rhs = self._rhs[ix]
            names = ", ".join(self._c.predictor_names[i] for i in ix)
            b = _solve_spd(a, rhs, context=f"subset ({names})")
            self._cache[idx] = float(b @ rhs)
        return self._cache[idx]

    def type3(self, model: tuple[str, ...], names: Sequence[str] = ()) -> dict[str, float]:
        """Partial (Type III) SS, SS(model) - SS(model without the predictor),
        for each predictor in ``names`` (default: the whole model)."""
        full = self.ss(model)
        return {nm: full - self.ss(tuple(o for o in model if o != nm)) for nm in names or model}


def residualize(
    c: CenteredData, target: str, against: Iterable[str] = ()
) -> ResidualizedPredictor:
    """Remove the OLS projection of ``target`` onto ``against``.

    With an empty conditioning set the centered target column is returned
    unchanged. The result is orthogonal to every conditioning column.
    """
    against = _check_names(c, against)
    if target in against:
        raise ValueError(f"target {target!r} cannot be conditioned on itself")
    col = c.column(target)  # raises UnknownName
    if not against:
        return ResidualizedPredictor(target, (), _readonly(col))
    idx = [c.predictor_index(nm) for nm in against]
    design = c.x[:, idx]
    a = _gram(design)
    coef = _solve_spd(
        a, design.T @ col, context=f"residualize {target} on ({', '.join(against)})"
    )
    return ResidualizedPredictor(target, against, _readonly(col - design @ coef))


def sequential_ss(
    c: CenteredData, ordering: Sequence[str]
) -> list[tuple[str, float]]:
    """Sequential (Type I) sums of squares along an ordered predictor chain.

    The k-th entry is the regression SS gained by appending the k-th
    predictor to the first k - 1. The entries telescope, so they sum to the
    regression SS of the complete chain.
    """
    return _type1(_SubsetSS(c), _check_ordering(c, ordering))


def _type1(memo: _SubsetSS, ordering: tuple[str, ...]) -> list[tuple[str, float]]:
    """sequential_ss on a shared memo; compare_report and ordering_fits use it too."""
    out: list[tuple[str, float]] = []
    prev = 0.0
    for k, name in enumerate(ordering, start=1):
        cur = memo.ss(ordering[:k])
        out.append((name, cur - prev))
        prev = cur
    return out


def partial_ss(c: CenteredData, predictor: str, model: Iterable[str]) -> float:
    """Partial (Type III) SS: regression SS lost by dropping the predictor.

    Computed as SS(model) - SS(model without predictor). Equals the
    regression SS of the response on the predictor residualized against
    the rest of the model.
    """
    model = _canonical_model(c, model)
    if predictor not in model:
        raise ValueError(f"predictor {predictor!r} not in model {model!r}")
    return _SubsetSS(c).type3(model, (predictor,))[predictor]


def actual_model_ss(c: CenteredData, model: Iterable[str]) -> float:
    """Sum of the partial (Type III) SS over every predictor in the model."""
    model = _model(c, model)
    return sum(_SubsetSS(c).type3(model).values())


def corrected_r2(c: CenteredData, model: Iterable[str]) -> float:
    """Share of total SS the model actually attributes to its predictors.

    The ratio of the summed partial SS to the total SS. Identical to the
    sum of squared standardized coefficients computed on residualized
    predictors.
    """
    model = _model(c, model)
    return _corrected_r2(_SubsetSS(c).type3(model), c.ss_total)


def corrected_f(c: CenteredData, model: Iterable[str]) -> float:
    """Mean partial SS per predictor over the full-model residual MS.

    Algebraically the mean of the squared t statistics of the full fit,
    since each squared t equals its partial SS divided by MS(residual).
    """
    model = _model(c, model)
    full = fit_ols(c, model)
    return _corrected_f(_SubsetSS(c).type3(model), full.ms_residual)


def orthogonal_regression(c: CenteredData, ordering: Sequence[str]) -> OlsFit:
    """Fit the response on sequentially residualized predictor columns.

    The design is (first predictor, second residualized on the first,
    third residualized on the first two, ...). The columns are pairwise
    orthogonal by construction and the regression SS equals the full
    model's. The k-th column's slope is its predictor's coefficient in the
    fit on the first k predictors of the ordering, so only the last column
    keeps its full-model coefficient.

    Raises SingularDesign where fit_ols on the same predictors would: the
    orthogonalized columns always pass the fit's own normalized guard, so
    the guard runs on the predictors' SSCP first.
    """
    ordering = _check_ordering(c, ordering)
    _SubsetSS(c).ss(ordering)
    return _orthogonal_fit(c, ordering, [])


def _orthogonal_fit(
    c: CenteredData,
    ordering: tuple[str, ...],
    stack: list[tuple[tuple[str, ...], ResidualizedPredictor]],
) -> OlsFit:
    """orthogonal_regression, reusing residualized columns along a prefix.

    Callers run the full-set guard on ``ordering`` first (``_SubsetSS.ss``);
    ordering_fits gets it from the Type I memo it already fills.

    ``stack[k - 1]`` holds the residualized column of ``ordering[k]`` on
    ``ordering[:k]``, keyed by the prefix ``ordering[:k + 1]`` that
    determines it. Entries from the first changed prefix on are replaced,
    so consecutive orderings that share a prefix share its columns, and
    each column is the one a fresh call computes.
    """
    first = ordering[0]
    cols, labels = [c.column(first)], [first]
    means, sds = [c.mean(first)], [c.sd(first)]
    for k in range(1, len(ordering)):
        prefix = ordering[: k + 1]
        if len(stack) < k or stack[k - 1][0] != prefix:
            del stack[k - 1 :]
            stack.append((prefix, residualize(c, ordering[k], ordering[:k])))
        rp = stack[k - 1][1]
        cols.append(rp.values)
        labels.append(rp.label)
        means.append(0.0)
        sds.append(rp.sd)
    return fit_centered_design(
        y=c.y,
        design=np.column_stack(cols),
        labels=labels,
        col_means=means,
        col_sds=sds,
        mean_y=c.mean_y,
        sd_y=c.sd_y,
    )


def ordering_fits(
    c: CenteredData, orderings: Iterable[Sequence[str]]
) -> list[tuple[tuple[str, ...], list[tuple[str, float]], OlsFit]]:
    """Type I table and orthogonal-function fit for each ordering.

    Returns ``(ordering, sequential_ss(c, ordering),
    orthogonal_regression(c, ordering))`` per ordering, value for value,
    but solves each predictor subset once for all orderings and residualizes
    a column again only where an ordering's prefix differs from the
    previous ordering's.
    """
    memo = _SubsetSS(c)
    stack: list[tuple[tuple[str, ...], ResidualizedPredictor]] = []
    out = []
    for ordering in orderings:
        ordering = _check_ordering(c, ordering)
        type1 = _type1(memo, ordering)
        out.append((ordering, type1, _orthogonal_fit(c, ordering, stack)))
    return out


def residualized_simple_fits(
    c: CenteredData, model: Iterable[str]
) -> dict[str, OlsFit]:
    """Simple regression of the response on each residualized predictor.

    For predictor j the design is the single column of j residualized
    against the rest of the model, so df_residual is n - 2 regardless of
    how many columns fed the residualization. The slope replicates the
    full-model coefficient of j; the SS replicates its partial SS.
    """
    model = _model(c, model)
    out: dict[str, OlsFit] = {}
    for name in model:
        rest = tuple(nm for nm in model if nm != name)
        rp = residualize(c, name, rest)
        out[name] = fit_centered_design(
            y=c.y,
            design=rp.values[:, None],
            labels=(rp.label,),
            col_means=(0.0 if rest else c.mean(name),),
            col_sds=(rp.sd,),
            mean_y=c.mean_y,
            sd_y=c.sd_y,
        )
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
    full = fit_ols(c, model)
    return VennRegions.of(full, _SubsetSS(c).type3(model))


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
    exhaustive set and raises TooManyOrderings above the cap.
    """
    model = _model(c, model)
    if orderings == "all" or (orderings is None and len(model) <= ORDERING_CAP):
        ordering_list = enumerate_orderings(model)
    elif orderings is None:
        ordering_list = ()
    elif isinstance(orderings, str):
        raise ValueError(f"orderings must be 'all', None, or a sequence, not {orderings!r}")
    else:
        ordering_list = tuple(
            _check_ordering(c, tuple(o)) for o in orderings
        )
        for o in ordering_list:
            if set(o) != set(model):
                raise ValueError(f"ordering {o!r} is not a permutation of {model!r}")

    full = fit_ols(c, model)
    memo = _SubsetSS(c)
    type3 = memo.type3(model)

    type1: dict[str, dict[tuple[str, ...], float]] = {nm: {} for nm in model}
    for ordering in ordering_list:
        for name, ss in _type1(memo, ordering):
            type1[name][ordering] = ss

    return DecompositionReport(
        traditional=full,
        per_predictor=tuple(
            PredictorDecomposition(nm, type3[nm], MappingProxyType(type1[nm]))
            for nm in model
        ),
        venn=VennRegions.of(full, type3),
        residualized_fits=MappingProxyType(residualized_simple_fits(c, model)),
        orderings=ordering_list,
    )
