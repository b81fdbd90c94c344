import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varpart import (
    Dataset,
    SyntheticSpec,
    anova_table,
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

from conftest import MODEL, make_dataset


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

    def test_unknown_lookups(self, centered):
        with pytest.raises(UnknownName):
            centered.predictor_index("nope")
        with pytest.raises(UnknownName):
            centered.column("nope")


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
        for field in dataclasses.fields(fit):
            value = getattr(fit, field.name)
            assert np.ndim(value) == 0 or len(value) == len(MODEL), field.name

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
    coef, *_ = np.linalg.lstsq(a, c.y + c.mean_y, rcond=None)
    np.testing.assert_allclose(fit.b, coef[1:], rtol=1e-7, atol=1e-9)
