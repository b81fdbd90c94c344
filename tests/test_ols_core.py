import dataclasses
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import mul
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varpart.ols_core
from varpart import (
    Dataset,
    SyntheticSpec,
    anova_table,
    dwaine_fixture,
    exchangeable_correlation,
    fit_ols,
    generate_synthetic,
    mean_center,
    sscp,
)
from varpart.errors import (
    ConstantColumn,
    EmptySubset,
    InvalidDataset,
    NonFiniteValue,
    SingularDesign,
    UnknownName,
)
from varpart.ols_core import _Exact, _Fold, _fold_columns, _Subsets, fit_centered_design

from conftest import MODEL, bench_module, make_dataset

reference = bench_module("reference")


def _cols(**kw):
    return tuple((k, np.asarray(v, dtype=float)) for k, v in kw.items())


class TestDatasetValidation:
    def test_duplicate_column_names(self):
        cols = (("a", np.arange(5.0)), ("a", np.arange(5.0)), ("y", np.arange(5.0)))
        with pytest.raises(InvalidDataset):
            Dataset(cols, "y", ("a",))

    def test_length_mismatch(self):
        with pytest.raises(InvalidDataset):
            Dataset(_cols(a=[1, 2, 3], y=[1, 2]), "y", ("a",))

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            Dataset(_cols(a=[1, 2, np.nan, 4, 5], y=[1, 2, 3, 4, 5]), "y", ("a",))
        with pytest.raises(NonFiniteValue):
            Dataset(_cols(a=[1, 2, 3, 4, 5], y=[1, np.inf, 3, 4, 5]), "y", ("a",))

    def test_no_predictors(self):
        with pytest.raises(InvalidDataset):
            Dataset(_cols(a=[1, 2, 3], y=[1, 2, 3]), "y", ())

    def test_response_listed_as_predictor(self):
        with pytest.raises(InvalidDataset):
            Dataset(_cols(a=[1, 2, 3, 4], y=[1, 2, 3, 4]), "y", ("y",))

    @pytest.mark.parametrize("name", ["", "a,b", "a|b", "|"])
    def test_predictor_name_a_term_label_could_not_be_read_back_with(self, name):
        # term labels read target|a,b: an empty name, "," or "|" would make them ambiguous
        cols = ((name, np.arange(5.0)), ("c", np.arange(5.0) ** 2), ("y,z|w", np.arange(5.0) ** 3))
        with pytest.raises(InvalidDataset, match=r"is empty or holds ',' or '\|', which term labels use$"):
            Dataset(cols, "y,z|w", ("c", name))
        Dataset(cols, "y,z|w", ("c",))  # the response is never part of a term label

    def test_unknown_names(self):
        with pytest.raises(UnknownName):
            Dataset(_cols(a=[1, 2, 3, 4], y=[1, 2, 3, 4]), "y", ("b",))
        with pytest.raises(UnknownName):
            Dataset(_cols(a=[1, 2, 3, 4], y=[1, 2, 3, 4]), "z", ("a",))

    def test_too_few_rows(self):
        with pytest.raises(InvalidDataset):
            Dataset(_cols(a=[1, 2], y=[1, 2]), "y", ("a",))

    def test_arrays_read_only(self, dwaine):
        with pytest.raises(ValueError):
            dwaine.column("SALES")[0] = 0.0

    def test_shape_accessors(self, dwaine):
        assert dwaine.n == 21
        assert dwaine.p == 2
        assert dwaine.predictor_names == MODEL


class TestMeanCenter:
    def test_columns_centered_and_scaled(self, dwaine, centered):
        for name in ("SALES",) + MODEL:
            raw = dwaine.column(name)
            assert centered.mean(name) == pytest.approx(raw.mean())
            assert centered.sd(name) == pytest.approx(raw.std(ddof=1))
            assert abs(centered.column(name).sum()) < 1e-9 * abs(raw).max()

    def test_ss_total_matches_variance(self, dwaine, centered):
        y = dwaine.column("SALES")
        assert centered.ss_total == pytest.approx((dwaine.n - 1) * y.var(ddof=1))

    def test_constant_column_rejected(self):
        ds = Dataset(
            _cols(a=[1, 2, 3, 4, 5], b=[7, 7, 7, 7, 7], y=[1, 2, 3, 4, 6]),
            "y",
            ("a", "b"),
        )
        with pytest.raises(ConstantColumn) as exc:
            mean_center(ds)
        assert exc.value.name == "b"
        assert "b" in str(exc.value)

    def test_overflowing_cross_products_rejected(self):
        # squares of 1e160 exceed float64; the sd and every cross-product would be inf
        ds = Dataset(
            _cols(x1=[1e160, -2e160, 5e159, 1e159], x2=[3, 1, 4, 1], y=[1, 2, 3, 4]),
            "y",
            ("x1", "x2"),
        )
        with np.errstate(all="raise"), pytest.raises(SingularDesign) as exc:
            mean_center(ds)
        assert str(exc.value) == (
            "column 'x1': cross-products overflow float64 (rescale the column)"
        )

    # x1's exact centered SS is about 2.5e-325: below float64's smallest
    # subnormal at e-163, subnormal but not zero at e-160
    UNDERFLOW = dict(x2=[1, 3, 2, 7, 1, 2], y=[1, 2, 4, 3, 7, 5])

    def test_underflowing_cross_products_rejected(self):
        x1 = np.array([1, -2, 3, 5, -1, 2]) * 1e-163
        ds = Dataset(_cols(x1=x1, **self.UNDERFLOW), "y", ("x1", "x2"))
        with pytest.raises(SingularDesign) as exc:
            mean_center(ds)
        assert str(exc.value) == (
            "column 'x1': cross-products underflow float64 (rescale the column)"
        )

    def test_subnormal_cross_products_still_fit(self):
        x1 = np.array([1, -2, 3, 5, -1, 2]) * 1e-160
        c = mean_center(Dataset(_cols(x1=x1, **self.UNDERFLOW), "y", ("x1", "x2")))
        assert 0 < c.exact.f[0, 0] < np.finfo(float).tiny
        assert fit_ols(c, ("x1", "x2")).r2 == 0.059665444136327045

    def test_unknown_lookups(self, centered):
        with pytest.raises(UnknownName):
            centered.predictor_index("nope")
        with pytest.raises(UnknownName):
            centered.column("nope")

    def test_response_is_named_as_the_response_not_unknown(self, centered):
        with pytest.raises(UnknownName, match=r"^'SALES' is the response, not a predictor$") as got:
            centered.predictor_index("SALES")
        assert got.value.name == "SALES"
        with pytest.raises(UnknownName, match=r"^'SALES' is the response"):
            fit_ols(centered, ("TARGTPOP", "SALES"))
        assert centered.mean("SALES") == centered.mean_y  # still a column

    def test_keeps_no_per_observation_vector(self, dwaine):
        # the observations live only in the Dataset; columns are centered on demand
        c = mean_center(dwaine)
        assert c.data is dwaine
        for field in dataclasses.fields(c):
            assert not isinstance(getattr(c, field.name), np.ndarray), field.name

    def test_column_is_observations_minus_rounded_exact_mean(self, dwaine, centered):
        for name in ("SALES",) + MODEL:
            raw = dwaine.column(name)
            mean = float(sum(map(Fraction, raw.tolist())) / len(raw))
            col = centered.column(name)
            assert col.tobytes() == (raw - mean).tobytes()
            with pytest.raises(ValueError):
                col[0] = 0.0

    def test_mean_is_the_one_column_centers_with(self):
        # the exact mean of x is 2**-4 + 2**-57, a tie that rounds to 2**-4;
        # its decimal rounds up instead, at 38 digits and at 50
        x = [2.0**-4, 2.0**-4, 2.0**-4 + 2.0**-56, 2.0**-4 + 2.0**-56]
        c = mean_center(Dataset(_cols(x=x, y=[0, 1, 2, 3]), "y", ("x",)))
        assert float(c.exact.means[0]) == x[-1]
        assert c.mean("x") == 2.0**-4
        assert c.column("x").tobytes() == (np.array(x) - 2.0**-4).tobytes()
        assert c.mean_y == c.mean("y") == 1.5


class TestSscp:
    # published cross-product values for the bundled fixture
    REFERENCE = {
        ("SALES", "SALES"): 26196.21,
        ("TARGTPOP", "SALES"): 12730.59,
        ("TARGTPOP", "TARGTPOP"): 6934.33,
        ("DISPOINC", "SALES"): 587.04,
        ("DISPOINC", "TARGTPOP"): 282.33,
        ("DISPOINC", "DISPOINC"): 18.83,
    }

    def test_reference_values(self, centered):
        m = sscp(centered)
        for (a, b), want in self.REFERENCE.items():
            assert m.value(a, b) == pytest.approx(want, abs=0.01)
            assert m.value(b, a) == m.value(a, b)

    def test_exactly_symmetric(self, centered):
        m = sscp(centered).m
        assert np.array_equal(m, m.T)

    def test_label_subset(self, centered):
        m = sscp(centered, labels=("SALES", "DISPOINC"))
        assert m.labels == ("SALES", "DISPOINC")
        assert m.m.shape == (2, 2)
        assert m.value("SALES", "DISPOINC") == pytest.approx(587.04, abs=0.01)

    def test_default_labels_response_first(self, centered):
        assert sscp(centered).labels == ("SALES",) + MODEL

    @pytest.mark.parametrize("pair", [("nope", "SALES"), ("SALES", "nope")])
    def test_unknown_label_is_named(self, centered, pair):
        with pytest.raises(UnknownName) as exc:
            sscp(centered).value(*pair)
        assert exc.value.name == "nope"


def _half_ulp(got, want):
    """``got`` is the float64 nearest to the mpmath value ``want``."""
    with mpmath.workdps(reference.DPS):
        return abs(mpmath.mpf(got) - want) <= mpmath.mpf(math.ulp(got)) / 2


def _seeded(seed):
    # offsets far above the spread make float64 centering cancel badly
    rng = np.random.default_rng(seed)
    n = 30 + 17 * seed
    x = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-6, 6, 3)
    x += 10.0 ** rng.integers(0, 9, 3)
    y = x @ rng.standard_normal(3) + rng.standard_normal(n)
    return make_dataset(x, y)


def _mixed_magnitudes():
    rng = np.random.default_rng(99)
    big = rng.standard_normal(40) * 1e150
    tiny = rng.standard_normal(40) * 1e-150
    x = np.column_stack([np.where(np.arange(40) % 2, big, tiny), tiny, big + tiny])
    return make_dataset(x, rng.standard_normal(40))


def _tall():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((100_000, 2)) + 3.0
    return make_dataset(x, x.sum(axis=1) + rng.standard_normal(100_000))


# chunk sizes of the fold: the default, one that splits a block unevenly,
# and a whole block per chunk
FOLDS = [varpart.ols_core._FOLD, 1000, varpart.ols_core._BLOCK]

EXACT_CASES = {
    "dwaine": dwaine_fixture,
    **{f"seed{s}": (lambda s=s: _seeded(s)) for s in range(5)},
    "tall": _tall,
    "mixed-magnitudes": _mixed_magnitudes,
}


class TestExactSscp:
    """mean_center's sliced SSCP against the integer-arithmetic reference."""

    @staticmethod
    def assert_matches_integer_reference(d):
        c = mean_center(d)
        names = (*d.predictor_names, d.response_name)
        want = reference.centred_sscp([d.column(nm) for nm in names])
        k = len(names)
        with mpmath.workdps(reference.DPS):
            for i in range(k):
                for j in range(k):
                    assert _half_ulp(c.exact.f[i, j], want[i, j]), (i, j)
                    got = mpmath.mpf(str(c.exact.s[i][j]))
                    tol = 10.0 ** (1 - varpart.ols_core._DIGITS) * abs(want[i, j])
                    assert abs(got - want[i, j]) <= tol, (i, j)

    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_matches_integer_reference(self, case):
        self.assert_matches_integer_reference(EXACT_CASES[case]())

    def test_column_zero_throughout_a_block(self, monkeypatch):
        # x2 owns no slice in the first two blocks of four rows
        d = _seeded(1)
        x2 = d.column("x2").copy()
        x2[:8] = 0.0
        d = Dataset(
            tuple((nm, x2 if nm == "x2" else v) for nm, v in d.columns),
            d.response_name,
            d.predictor_names,
        )
        monkeypatch.setattr(varpart.ols_core, "_BLOCK", 4)
        self.assert_matches_integer_reference(d)

    def test_every_column_zero_throughout_a_chunk(self, monkeypatch):
        # chunks of four rows: the first holds no slice, only the ones column
        d = _seeded(2)
        d = Dataset(
            tuple((nm, np.concatenate([np.zeros(4), v])) for nm, v in d.columns),
            d.response_name,
            d.predictor_names,
        )
        monkeypatch.setattr(varpart.ols_core, "_BLOCK", 8)
        monkeypatch.setattr(varpart.ols_core, "_FOLD", 4)
        self.assert_matches_integer_reference(d)

    @pytest.mark.parametrize("fold", FOLDS)
    def test_columns_stop_slicing_at_different_steps_across_full_blocks(self, monkeypatch, fold):
        # two full blocks and part of a third: x1 near 2**500 and y near
        # 2**-900 are sliced on grids far apart, and x2, zero throughout
        # the first block, owns no slice there
        monkeypatch.setattr(varpart.ols_core, "_FOLD", fold)
        block = varpart.ols_core._BLOCK
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2 * block + 1234, 2))
        x[:, 0] *= 2.0**500
        x[:block, 1] = 0.0
        y = (x[:, 1] + rng.standard_normal(len(x))) * 2.0**-900
        self.assert_matches_integer_reference(make_dataset(x, y))

    @pytest.mark.parametrize("fold", FOLDS)
    def test_chunks_of_a_block_are_sliced_on_their_own_grids(self, monkeypatch, fold):
        # in the first block, x2 is zero throughout one chunk of the default
        # size but not elsewhere, and x1 nears 2**500 only in a later chunk
        chunk, block = varpart.ols_core._FOLD, varpart.ols_core._BLOCK
        monkeypatch.setattr(varpart.ols_core, "_FOLD", fold)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((block + 777, 2))
        x[chunk : 2 * chunk, 1] = 0.0
        x[3 * chunk : block, 0] *= 2.0**500
        y = x[:, 1] + rng.standard_normal(len(x))
        self.assert_matches_integer_reference(make_dataset(x, y))

    @pytest.mark.parametrize("fold", [1 << 14, 300, 64])
    def test_independent_of_row_order_and_block_size(self, monkeypatch, fold):
        d = _tall()
        rows = np.random.default_rng(1).permutation(d.n)
        shuffled = Dataset(
            tuple((nm, v[rows]) for nm, v in d.columns), d.response_name, d.predictor_names
        )
        first = mean_center(d).exact
        # blocks of 1000 rows, each folded whole or in chunks of ``fold`` rows
        monkeypatch.setattr(varpart.ols_core, "_BLOCK", 1000)
        monkeypatch.setattr(varpart.ols_core, "_FOLD", fold)
        for other in (mean_center(d).exact, mean_center(shuffled).exact):
            assert other.f.tobytes() == first.f.tobytes()
            assert other.s == first.s


def _exact_fold(cols, names):
    """``_Fold.finish()`` of the columns from exact Fraction sums: f, s and
    the means, then the exact SSCP, or the message of the SingularDesign it
    raises."""
    unit = Fraction(1, 2**1074)  # every float64 is an integer times unit
    xs = [[int(v / unit) for v in map(Fraction, col)] for col in cols]
    n, sums, k = len(xs[0]), [sum(x) for x in xs], len(xs)
    ss = [[Fraction(0)] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            cross = sum(map(mul, xs[a], xs[b])) - Fraction(sums[a] * sums[b], n)
            ss[a][b] = ss[b][a] = cross * unit**2
    sums = [v * unit for v in sums]
    for a, nm in enumerate(names):
        try:
            if ss[a][a] and not float(ss[a][a]) and a < k - 1:
                return f"column {nm!r}: cross-products underflow float64 (rescale the column)"
        except OverflowError:
            return f"column {nm!r}: cross-products overflow float64 (rescale the column)"
    with localcontext(varpart.ols_core._CTX):
        s = [[Decimal(v.numerator) / v.denominator for v in row] for row in ss]
    return np.array([[float(v) for v in row] for row in ss]), s, [v / n for v in sums], ss


@st.composite
def _fold_cases(draw):
    """Up to 6 columns of up to 64 rows, each value zero, subnormal or a
    normal scaled by its column's 2**e, and a block size that splits them."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 64))
    cols = []
    for _ in range(k):
        # half the scales keep every SS inside float64, so finish returns
        e = draw(st.integers(-1000, 590) | st.integers(-500, 500))
        value = st.one_of(
            st.just(0.0),
            st.integers(1 - 2**52, 2**52 - 1).map(lambda i: i * 2.0**-1074),
            st.floats(-2.0, 2.0, allow_subnormal=False).map(lambda v, e=e: math.ldexp(v, e)),
        )
        cols.append(np.array(draw(st.lists(value, min_size=m, max_size=m))))
    return cols, draw(st.integers(1, m))


@settings(max_examples=100, deadline=None)
@given(_fold_cases())
def test_fold_matches_exact_fraction_sums(case):
    # every block is split on per-column grids and summed per anti-diagonal
    # in int64: the moments stay exact across blocks, zeros and subnormals
    cols, block = case
    names = [f"x{j}" for j in range(len(cols))]
    with mock.patch.object(varpart.ols_core, "_BLOCK", block):
        fold = _fold_columns(cols, names)
    want = _exact_fold(cols, names)
    try:
        f, s, means, (rows, den) = fold.finish()
    except SingularDesign as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    assert _bits(f) == _bits(want[0])
    assert s == want[1]
    assert [Fraction(num, den) for num, den in means] == want[2]
    # the exact SSCP that the Type I walk reads, N / D with no power of two common to all
    assert [[Fraction(v, den) for v in row] for row in rows] == want[3]
    assert den % 2 or any(v % 2 for row in rows for v in row)


def test_fold_working_set_is_bounded_by_the_chunk():
    # a full block of nine columns is sliced a chunk at a time; sliced
    # whole, its slices and their temporaries peaked at 9.8 MB
    k = 9
    block = np.random.default_rng(4).standard_normal((k, varpart.ols_core._BLOCK))
    fold = _Fold([f"x{j}" for j in range(k)])
    tracemalloc.start()
    try:
        fold.add(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6, peak


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


class TestLapackSolve:
    """The guarantees of the former float64 dpotrf/dpotrs route that the
    exact SSCP and the decimal solve keep: a gram whose entries are its
    upper-triangle sums mirrored, with no negative zeros; a ValueError for
    non-finite input; a failed pivot reported in LAPACK's words."""

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_gram_matches_triangle_sum_bit_for_bit(self, k):
        # each entry is the exact centered sum of its pair's products, rounded once
        cols = np.random.default_rng(k).standard_normal((25, k))
        f, *_ = _fold_columns(list(cols.T), [f"x{j}" for j in range(k)]).finish()
        want = np.empty((k, k))
        for a in range(k):
            for b in range(a, k):
                xa, xb = ([Fraction(v) for v in cols[:, j]] for j in (a, b))
                exact = sum(map(mul, xa, xb)) - sum(xa) * sum(xb) / len(xa)
                want[a, b] = want[b, a] = float(exact)
        assert _bits(f) == _bits(want)

    def test_gram_turns_negative_zero_cross_products_positive(self):
        cols = np.array([[0.0, -1.0], [0.0, -2.0]])
        assert np.signbit(cols[:, 0] * cols[:, 1]).all()
        f, *_ = _fold_columns(list(cols.T), ["a", "b"]).finish()
        assert _bits(f) == _bits([[0.0, 0.0], [0.0, 0.5]])
        assert not np.signbit(f).any()

    @pytest.mark.parametrize(
        "column, bad",
        [("a", np.nan), ("a", np.inf), ("y", np.inf)],
        ids=["nan-matrix", "inf-matrix", "inf-rhs"],
    )
    def test_non_finite_input_raises_scipys_value_error(self, column, bad):
        y, x = np.arange(6.0), np.arange(6.0) ** 2
        (x if column == "a" else y)[2] = bad
        with pytest.raises(ValueError) as got:
            fit_centered_design(y, x[:, None], ["a"], [0], [1], 0, 1)
        assert isinstance(got.value, NonFiniteValue)
        assert str(got.value) == f"column {column!r} contains NaN or infinity"

    def test_failed_factor_keeps_scipys_message(self, monkeypatch):
        # indefinite, so only a guard that wrongly passes lets a pivot see it
        s = [[Decimal(v) for v in row] for row in ([1, 2, 1], [2, 1, 1], [1, 1, 1])]
        ints = [[int(v) for v in row] for row in s], 1
        ex = _Exact(np.array(s, dtype=float), s, [Decimal(0)] * 3, [Decimal(1)] * 3, 10, ints)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.array([1.0, 1.0]))
        with pytest.raises(SingularDesign) as got:
            _Subsets(ex, ("a", "b")).solve(0b11)
        assert str(got.value) == (
            "subset (a, b): 2-th leading minor of the array is not positive definite"
        )


class TestFitCenteredDesign:
    @pytest.mark.parametrize("rho", [0.0, 0.9, 1 - 1e-6, 1 - 1e-9])
    def test_correctly_rounded(self, rho):
        # the columns' exact centered cross-products, solved at 60 digits
        rng = np.random.default_rng(7)
        n = 40
        for k in range(1, 9):
            x = rng.standard_normal((n, k)) @ np.linalg.cholesky(
                exchangeable_correlation(k, rho)
            ).T
            x -= x.mean(axis=0)
            y = x @ rng.standard_normal(k) + rng.standard_normal(n)
            y -= y.mean()
            fit = fit_centered_design(
                y, x, [f"x{j}" for j in range(k)], np.zeros(k), np.ones(k), 0.0, 1.0
            )
            g = reference.centred_sscp([*x.T, y])
            with mpmath.workdps(reference.DPS):
                a = g[:k, :k]
                r = g[:k, k]
                b = mpmath.lu_solve(a, r)
                inv = a**-1
                mse = (g[k, k] - sum(b[j] * r[j] for j in range(k))) / (n - k - 1)
                for j in range(k):
                    assert _half_ulp(fit.b[j], b[j]), (k, j)
                    assert _half_ulp(fit.se[j], mpmath.sqrt(mse * inv[j, j])), (k, j)

    def test_guard_applies(self):
        x = np.arange(10.0)
        with pytest.raises(SingularDesign):
            fit_centered_design(x, np.column_stack([x, 2 * x]), ["a", "b"], [0, 0], [1, 1], 0, 1)

    def test_constant_design_column_has_zero_variation(self):
        # a zero SS is no underflow: the guard names it
        x = np.arange(10.0)
        with pytest.raises(SingularDesign) as exc:
            fit_centered_design(x, np.column_stack([x, np.ones(10)]), ["a", "b"], [0, 0], [1, 1], 0, 1)
        assert str(exc.value) == "fit on (a, b): design column with zero variation"


class TestFitOls:
    def test_ss_identity(self, centered):
        fit = fit_ols(centered, MODEL)
        assert fit.ss_regression + fit.ss_residual == pytest.approx(
            fit.ss_total, rel=1e-12
        )

    def test_coefficients_reproduce_residual_ss(self, dwaine, centered):
        fit = fit_ols(centered, MODEL)
        fitted = fit.intercept + sum(
            fit.coefficient(nm) * dwaine.column(nm) for nm in MODEL
        )
        residuals = dwaine.column("SALES") - fitted
        assert float(residuals @ residuals) == pytest.approx(
            fit.ss_residual, rel=1e-9
        )

    def test_keeps_no_per_observation_vector(self, centered):
        fit = fit_ols(centered, MODEL)
        for name in fit._fields:
            value = getattr(fit, name)
            assert np.ndim(value) == 0 or len(value) == len(MODEL), name

    def test_prediction_at_means_is_mean_response(self, dwaine, centered):
        fit = fit_ols(centered, MODEL)
        pred = fit.intercept + sum(
            fit.coefficient(nm) * dwaine.column(nm).mean() for nm in MODEL
        )
        assert pred == pytest.approx(dwaine.column("SALES").mean(), rel=1e-12)

    def test_z_is_scaled_slope(self, centered):
        fit = fit_ols(centered, MODEL)
        for j, nm in enumerate(MODEL):
            want = fit.b[j] * centered.sd(nm) / centered.sd_y
            assert fit.z[j] == pytest.approx(want, rel=1e-12)

    def test_t_is_b_over_se(self, centered):
        fit = fit_ols(centered, MODEL)
        np.testing.assert_allclose(fit.t, fit.b / fit.se, rtol=1e-12)

    def test_subset_order_preserved(self, centered):
        fit = fit_ols(centered, ("DISPOINC", "TARGTPOP"))
        assert fit.predictor_subset == ("DISPOINC", "TARGTPOP")
        full = fit_ols(centered, MODEL)
        assert fit.coefficient("TARGTPOP") == pytest.approx(
            full.coefficient("TARGTPOP"), rel=1e-12
        )

    def test_empty_subset(self, centered):
        with pytest.raises(EmptySubset):
            fit_ols(centered, ())

    def test_duplicate_predictor_is_singular(self, centered):
        with pytest.raises(SingularDesign):
            fit_ols(centered, ("TARGTPOP", "TARGTPOP"))

    def test_collinear_design_is_singular(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(30)
        x = np.column_stack([a, 2.0 * a])
        y = a + rng.standard_normal(30)
        with pytest.raises(SingularDesign):
            fit_ols(mean_center(make_dataset(x, y)), ("x1", "x2"))

    def test_unknown_predictor(self, centered):
        with pytest.raises(UnknownName):
            fit_ols(centered, ("TARGTPOP", "nope"))

    def test_perfect_fit_reports_inf_not_crash(self):
        x = np.arange(1.0, 7.0)
        ds = make_dataset(x[:, None], 2.0 * x)
        fit = fit_ols(mean_center(ds), ("x1",))
        assert fit.ss_residual == pytest.approx(0.0, abs=1e-20)
        assert np.isinf(fit.f)
        assert np.isinf(fit.t[0])

    def test_matches_lstsq(self, centered, dwaine):
        fit = fit_ols(centered, MODEL)
        a = np.column_stack(
            [np.ones(dwaine.n)] + [dwaine.column(nm) for nm in MODEL]
        )
        coef, *_ = np.linalg.lstsq(a, dwaine.column("SALES"), rcond=None)
        assert fit.intercept == pytest.approx(coef[0], rel=1e-9)
        np.testing.assert_allclose(fit.b, coef[1:], rtol=1e-9)


class TestAnovaTable:
    def test_rows_consistent(self, centered):
        fit = fit_ols(centered, MODEL)
        at = anova_table(fit)
        reg, res, tot = at.row("Regression"), at.row("Residual"), at.row("Total")
        assert reg.ss + res.ss == pytest.approx(tot.ss, rel=1e-12)
        assert reg.df + res.df == tot.df
        assert reg.ms == pytest.approx(reg.ss / reg.df, rel=1e-12)
        assert reg.f == pytest.approx(fit.f, rel=1e-12)
        assert res.f is None and tot.f is None
        assert at.r2 == pytest.approx(fit.r2, rel=1e-12)

    def test_unknown_row(self, centered):
        at = anova_table(fit_ols(centered, MODEL))
        with pytest.raises(KeyError):
            at.row("nope")


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(12, 80),
    p=st.integers(1, 4),
    rho=st.sampled_from([0.0, 0.3, 0.6]),
)
def test_fit_invariants_on_random_data(seed, n, p, rho):
    spec = SyntheticSpec(
        n=n,
        p=p,
        correlation=exchangeable_correlation(p, rho),
        signal_coefficients=np.linspace(0.5, 1.5, p),
        noise_sd=1.0,
        seed=seed,
    )
    c = mean_center(generate_synthetic(spec))
    fit = fit_ols(c, c.predictor_names)
    scale = c.ss_total
    assert abs(fit.ss_regression + fit.ss_residual - fit.ss_total) <= 1e-9 * scale
    assert -1e-12 <= fit.r2 <= 1.0 + 1e-12
    assert fit.df_model == p and fit.df_residual == n - p - 1
    # slope agreement with the library solver
    a = np.column_stack([np.ones(n)] + [c.column(nm) + c.mean(nm) for nm in c.predictor_names])
    coef, *_ = np.linalg.lstsq(a, c.column(c.response_name) + c.mean_y, rcond=None)
    np.testing.assert_allclose(fit.b, coef[1:], rtol=1e-7, atol=1e-9)
