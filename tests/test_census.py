"""Census of the Dwaine JSON goldens against a 60-digit reference.

Every float in the four JSON goldens must be the float64 nearest to the
exact statistic, that is, within half an ulp of it. The reference starts
from ``bench/reference.centred_sscp`` (the SSCP in exact integer
arithmetic, rounded to 60 digits) and its subset SS; every other
statistic is derived here in mpmath by its textbook formula, through
routes independent of the library's: column SS of a residualized
predictor as S_jj - s_j' S_rest^-1 s_j, orthogonal-term slopes as
residualized cross-product over column SS, Type I SS as differences of
subset regression SS.
"""

import json
import math
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import mpmath
import pytest

from conftest import MODEL, bench_module

GOLDEN = Path(__file__).parent / "golden"
reference = bench_module("reference")


class Reference:
    """60-digit statistics of the Dwaine fixture, response SALES."""

    def __init__(self, dwaine):
        self.names = MODEL
        cols = [dwaine.column("SALES"), *(dwaine.column(nm) for nm in MODEL)]
        self.n = dwaine.n
        self.s = reference.centred_sscp(cols)
        self.ss = reference.ReferenceSS(self.s, MODEL)
        self.col = {nm: j + 1 for j, nm in enumerate(MODEL)}
        with mpmath.workdps(reference.DPS):
            exact = [sum(map(Fraction, c.tolist())) / self.n for c in cols]
            self.mean = [mpmath.mpf(m.numerator) / m.denominator for m in exact]
            self.sd = [mpmath.sqrt(self.s[j, j] / (self.n - 1)) for j in range(3)]

    def _block(self, rows, cols):
        return mpmath.matrix([[self.s[i, j] for j in cols] for i in rows])

    def conditional(self, target, given):
        """(column SS, cross-product with the response) of ``target``
        residualized on the predictors ``given``."""
        t = self.col[target]
        if not given:
            return self.s[t, t], self.s[t, 0]
        g = [self.col[nm] for nm in given]
        a = self._block(g, g)
        ct = mpmath.lu_solve(a, self._block(g, [t]))
        cy = mpmath.lu_solve(a, self._block(g, [0]))
        ss = self.s[t, t] - sum(self.s[t, g[i]] * ct[i] for i in range(len(g)))
        xy = self.s[t, 0] - sum(self.s[t, g[i]] * cy[i] for i in range(len(g)))
        return ss, xy

    def coefs(self, b, inv, sds, mse):
        out = []
        for bj, vj, sj in zip(b, inv, sds):
            se = mpmath.sqrt(mse * vj)
            out.append({"b": bj, "se": se, "z": bj * sj / self.sd[0], "t": bj / se})
        return out

    def fit(self, subset):
        ix = [self.col[nm] for nm in subset]
        a = self._block(ix, ix)
        b = mpmath.lu_solve(a, self._block(ix, [0]))
        ainv = a**-1
        k, sst = len(subset), self.ss.sst
        ssr = self.ss.ssr(subset)
        sse = sst - ssr
        mse = sse / (self.n - k - 1)
        coefs = self.coefs(
            [b[j] for j in range(k)],
            [ainv[j, j] for j in range(k)],
            [self.sd[i] for i in ix],
            mse,
        )
        return {
            "ssr": ssr,
            "sse": sse,
            "sst": sst,
            "mse": mse,
            "r2": ssr / sst,
            "f": (ssr / k) / mse,
            "intercept": self.mean[0] - sum(b[j] * self.mean[i] for j, i in enumerate(ix)),
            "coefficients": coefs,
        }

    def type3(self):
        return {nm: self.ss.type3(nm, MODEL) for nm in MODEL}

    def venn(self):
        full, t3 = self.fit(MODEL), self.type3()
        unique = sum(t3.values())
        accounted = unique + full["sse"]
        return {
            "unique": t3,
            "common_total": full["ssr"] - unique,
            "residual": full["sse"],
            "ss_total": full["sst"],
            "accounted_total": accounted,
            "missing": full["sst"] - accounted,
            "missing_fraction": (full["sst"] - accounted) / full["sst"],
        }

    def payload(self, command):
        with mpmath.workdps(reference.DPS):
            return getattr(self, f"_{command}")()

    def _fit(self):
        f = self.fit(MODEL)
        k, n = len(MODEL), self.n
        return {
            "anova": {
                "regression": {"ss": f["ssr"], "ms": f["ssr"] / k, "f": f["f"]},
                "residual": {"ss": f["sse"], "ms": f["mse"]},
                "total": {"ss": f["sst"], "ms": f["sst"] / (n - 1)},
            },
            "r2": f["r2"],
            "intercept": f["intercept"],
            "coefficients": f["coefficients"],
        }

    def _decompose(self):
        f, t3 = self.fit(MODEL), self.type3()
        unique = sum(t3.values())
        residualized = []
        for nm in MODEL:
            colss, xy = self.conditional(nm, [o for o in MODEL if o != nm])
            b = xy / colss
            mse = (f["sst"] - t3[nm]) / (self.n - 2)
            residualized.append(
                {
                    "ss_regression": b * xy,
                    "f": b * xy / mse,
                    "r2": b * xy / f["sst"],
                    **self.coefs([b], [1 / colss], [mpmath.sqrt(colss / (self.n - 1))], mse)[0],
                }
            )
        return {
            "traditional": {
                "ss_regression": f["ssr"],
                "ss_residual": f["sse"],
                "ss_total": f["sst"],
                "ms_residual": f["mse"],
                "r2": f["r2"],
                "f": f["f"],
                "intercept": f["intercept"],
                "coefficients": f["coefficients"],
            },
            "corrected": {
                "actual_model_ss": unique,
                "r2": unique / f["sst"],
                "f": (unique / len(MODEL)) / f["mse"],
            },
            "type3": [{"ss": t3[nm]} for nm in MODEL],
            "residualized_fits": residualized,
            "venn": self.venn(),
        }

    def _orderings(self):
        f = self.fit(MODEL)
        items = []
        for order in permutations(sorted(MODEL)):
            terms = []
            for k, nm in enumerate(order):
                colss, xy = self.conditional(nm, order[:k])
                terms.append((xy / colss, colss))
            first = self.col[order[0]]
            b0 = terms[0][0]
            items.append(
                {
                    "type1": [{"ss": ss} for ss in self.ss.type1(order)],
                    "orthogonal_fit": {
                        "ss_regression": f["ssr"],
                        "ss_residual": f["sse"],
                        "r2": f["r2"],
                        "f": f["f"],
                        "intercept": self.mean[0] - b0 * self.mean[first],
                        "terms": self.coefs(
                            [b for b, _ in terms],
                            [1 / ss for _, ss in terms],
                            [mpmath.sqrt(ss / (self.n - 1)) for _, ss in terms],
                            f["mse"],
                        ),
                    },
                }
            )
        return {"ss_regression": f["ssr"], "ss_total": f["sst"], "orderings": items}

    def _venn(self):
        return self.venn()


def _holds_float(value):
    if isinstance(value, float):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(map(_holds_float, value))


def float_leaves(got, want, path=""):
    """(path, golden float, reference value) for every float in ``got``."""
    if isinstance(got, float):
        yield path, got, want
        return
    items = got.items() if isinstance(got, dict) else enumerate(got)
    for key, value in items:
        if _holds_float(value):
            yield from float_leaves(value, want[key], f"{path}/{key}")


@pytest.fixture(scope="module")
def ref(dwaine):
    return Reference(dwaine)


def _census(ref, command):
    golden = json.loads((GOLDEN / f"{command}_dwaine.json").read_text())
    return list(float_leaves(golden, ref.payload(command)))


@pytest.mark.parametrize(
    "command, count", [("fit", 17), ("decompose", 42), ("orderings", 32), ("venn", 8)]
)
def test_every_golden_float_is_correctly_rounded(ref, command, count):
    leaves = _census(ref, command)
    assert len(leaves) == count
    with mpmath.workdps(reference.DPS):
        off = [
            (path, got, mpmath.nstr(want, 20))
            for path, got, want in leaves
            if abs(mpmath.mpf(got) - want) > mpmath.mpf(math.ulp(got)) / 2
        ]
    assert off == []
