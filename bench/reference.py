"""60-digit reference sums of squares, and the checks built on them.

The reference works on the same float64 inputs varpart reads: it forms the
centred sums-of-squares-and-cross-products (SSCP) matrix exactly, or to
about 30 digits for columns too long for exact integer sums, and solves
every predictor subset it is asked about in mpmath at 60 digits, so its
Type I and Type III SS are correct to far more digits than a float64
result can hold. The accuracy metrics count the correct digits of
varpart's output against it.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import mpmath
import numpy as np

DPS = 60

# Relative error floor: a float64 that equals the reference to the last
# bit still has up to half an ulp of rounding error, so digits are capped
# at -log10(2**-53) = 15.95 instead of growing without bound.
_REL_FLOOR = 2.0**-53

# Correctness tolerance, in units of u * cond * SST (u = 2**-53, cond the
# 2-norm condition number of the unit-diagonal predictor SSCP). A backward
# stable solve of the normal equations stays within a small multiple of
# this; a wrong formula, a wrong subset or a lost term does not.
_TOL_FACTOR = 64.0


def centred_sscp(columns: Sequence[np.ndarray]) -> mpmath.matrix:
    """Centred SSCP of ``columns`` (response first), exact until rounded to DPS digits.

    Each float64 is an integer over a power of two, so every column scales
    to integers over one common denominator, and
    S_ij = (n sum(m_i m_j) - sum(m_i) sum(m_j)) / (n d_i d_j)
    is formed in integer arithmetic without any rounding.
    """
    n = len(columns[0])
    scaled = []
    for col in columns:
        ratios = [v.as_integer_ratio() for v in np.asarray(col, dtype=np.float64).tolist()]
        den = max(d for _, d in ratios)
        scaled.append(([num * (den // d) for num, d in ratios], den))
    sums = [sum(m) for m, _ in scaled]
    k = len(scaled)
    with mpmath.workdps(DPS):
        s = mpmath.matrix(k, k)
        for i in range(k):
            for j in range(i, k):
                (mi, di), (mj, dj) = scaled[i], scaled[j]
                num = n * sum(map(operator.mul, mi, mj)) - sums[i] * sums[j]
                s[i, j] = s[j, i] = mpmath.mpf(num) / (n * di * dj)
        return s


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Error-free products: a * b == hi + lo exactly (Dekker, Veltkamp split)."""
    hi = a * b
    factor = 134217729.0  # 2**27 + 1
    ta = factor * a
    a_hi = ta - (ta - a)
    a_lo = a - a_hi
    tb = factor * b
    b_hi = tb - (tb - b)
    b_lo = b - b_hi
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi, lo


def _exact_sum(parts: Sequence[np.ndarray]) -> mpmath.mpf:
    """Sum of float64 arrays to about 32 digits.

    ``math.fsum`` rounds the exact sum once; the sum of the terms minus
    that rounded value is taken exactly again, so the two together carry
    the exact sum to 2**-106 relative.
    """
    terms = [v for part in parts for v in part.tolist()]
    first = math.fsum(terms)
    terms.append(-first)
    second = math.fsum(terms)
    return mpmath.mpf(first) + mpmath.mpf(second)


def centred_sscp_tall(columns: Sequence[np.ndarray]) -> mpmath.matrix:
    """Centred SSCP for long columns, where exact integer sums are too slow.

    Raw sums and cross-products are accumulated without rounding error
    (error-free products, then a twice-compensated ``math.fsum``) and
    centred in mpmath: S_ij = sum(x_i x_j) - sum(x_i) sum(x_j) / n. The
    entries carry about 30 correct digits: ample for checking float64
    results on well-conditioned designs, but not for near-collinear ones,
    whose small Type III SS cancel most of them. Finite inputs below
    about 1e150 in magnitude are required so that the split products
    cannot overflow.
    """
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    n = len(cols[0])
    with mpmath.workdps(DPS):
        sums = [_exact_sum([c]) for c in cols]
        k = len(cols)
        s = mpmath.matrix(k, k)
        for i in range(k):
            for j in range(i, k):
                hi, lo = _two_product(cols[i], cols[j])
                s[i, j] = s[j, i] = _exact_sum([hi, lo]) - sums[i] * sums[j] / n
        return s


class ReferenceSS:
    """Type I and Type III SS from a centred SSCP, solved at DPS digits.

    Index 0 of the SSCP is the response and 1..p the predictors, in the
    order of ``names``. Subset regression SS are memoized by subset, since
    every ordering of p predictors visits only 2**p subsets.
    """

    def __init__(self, sscp: mpmath.matrix, names: Sequence[str]):
        self.names = tuple(names)
        self._s = sscp
        self._index = {nm: i + 1 for i, nm in enumerate(self.names)}
        self._memo: dict[frozenset[int], mpmath.mpf] = {frozenset(): mpmath.mpf(0)}

    @classmethod
    def from_columns(
        cls, y: np.ndarray, xs: Sequence[np.ndarray], names: Sequence[str], tall: bool = False
    ) -> "ReferenceSS":
        build = centred_sscp_tall if tall else centred_sscp
        return cls(build([y, *xs]), names)

    @property
    def sst(self) -> mpmath.mpf:
        return self._s[0, 0]

    def ssr(self, subset: Sequence[str]) -> mpmath.mpf:
        """Regression SS of the response on ``subset`` (order ignored)."""
        key = frozenset(self._index[nm] for nm in subset)
        if key not in self._memo:
            ix = sorted(key)
            with mpmath.workdps(DPS):
                a = mpmath.matrix([[self._s[i, j] for j in ix] for i in ix])
                r = mpmath.matrix([self._s[i, 0] for i in ix])
                b = mpmath.lu_solve(a, r)
                self._memo[key] = mpmath.fsum(b[k] * r[k] for k in range(len(ix)))
        return self._memo[key]

    def type1(self, ordering: Sequence[str]) -> list[mpmath.mpf]:
        """Sequential SS of each predictor along ``ordering``."""
        out, prev = [], mpmath.mpf(0)
        with mpmath.workdps(DPS):
            for k in range(1, len(ordering) + 1):
                cur = self.ssr(ordering[:k])
                out.append(cur - prev)
                prev = cur
        return out

    def type3(self, name: str, model: Sequence[str]) -> mpmath.mpf:
        """Partial SS of ``name``: SSR(model) - SSR(model without it)."""
        with mpmath.workdps(DPS):
            return self.ssr(model) - self.ssr([nm for nm in model if nm != name])

    def cond(self, model: Sequence[str]) -> float:
        """2-norm condition number of the unit-diagonal predictor SSCP."""
        ix = [self._index[nm] for nm in model]
        a = np.array([[float(self._s[i, j]) for j in ix] for i in ix])
        d = np.sqrt(np.diag(a))
        ev = np.linalg.eigvalsh(a / np.outer(d, d))
        return float(ev[-1] / ev[0]) if ev[0] > 0 else math.inf

    def tolerance(self, model: Sequence[str]) -> float:
        """Largest absolute error in any SS that the checks accept."""
        return _TOL_FACTOR * _REL_FLOOR * max(1.0, self.cond(model)) * float(self.sst)


def digits(got: float, ref: mpmath.mpf) -> float:
    """Correct significant digits of ``got``: -log10 of its relative error."""
    with mpmath.workdps(DPS):
        rel = abs(mpmath.mpf(got) - ref) / abs(ref)
    return -math.log10(max(float(rel), _REL_FLOOR))
