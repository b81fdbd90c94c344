import dataclasses
import functools
import gc
import hashlib
import math
from collections.abc import Mapping
from decimal import ROUND_DOWN, Context, Decimal, getcontext, localcontext
from fractions import Fraction
from itertools import accumulate, permutations
from operator import mul, or_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import varpart.decomposition
import varpart.ols_core
from varpart import (
    ORDERING_CAP,
    SyntheticSpec,
    actual_model_ss,
    compare_report,
    corrected_f,
    corrected_r2,
    enumerate_orderings,
    exchangeable_correlation,
    fit_ols,
    generate_synthetic,
    mean_center,
    orthogonal_regression,
    partial_ss,
    residualize,
    residualized_simple_fits,
    sequential_ss,
    venn_regions,
)
from varpart.decomposition import ordering_walk
from varpart.errors import EmptySubset, SingularDesign, TooManyOrderings, UnknownName
from varpart.ols_core import _partial

from conftest import MODEL, make_dataset


def ss_via_residualized_crossproducts(c, model):
    """Model SS as full-fit slopes times residualized cross-products.

    Sum over predictors of b_j * sum_k (j residualized on the rest)_k *
    y_k. Equals the summed partial SS, because each residualized
    cross-product is the partial SS divided by the slope. An oracle
    independent of the subset-SS path the library reports.
    """
    full = fit_ols(c, model)
    total = 0.0
    for name in model:
        rest = tuple(nm for nm in model if nm != name)
        rp = residualize(c, name, rest)
        total += full.coefficient(name) * float(rp.values @ c.column(c.response_name))
    return total


class TestResidualize:
    def test_empty_conditioning_returns_centered_column(self, centered):
        rp = residualize(centered, "TARGTPOP")
        np.testing.assert_array_equal(rp.values, centered.column("TARGTPOP"))
        assert rp.label == "TARGTPOP"
        assert rp.conditioned_on == ()

    def test_orthogonal_to_conditioning_set(self, centered):
        rp = residualize(centered, "TARGTPOP", ("DISPOINC",))
        other = centered.column("DISPOINC")
        scale = np.abs(rp.values).max() * np.abs(other).max()
        assert abs(rp.values @ other) <= 1e-9 * scale

    def test_values_sum_to_zero(self, centered):
        rp = residualize(centered, "TARGTPOP", ("DISPOINC",))
        assert abs(rp.values.sum()) <= 1e-9 * np.abs(rp.values).max()

    def test_label_and_ss(self, centered):
        rp = residualize(centered, "TARGTPOP", ("DISPOINC",))
        assert rp.label == "TARGTPOP|DISPOINC"
        assert rp.ss == pytest.approx(rp.values @ rp.values, rel=1e-15)
        assert rp.sd == pytest.approx(rp.values.std(ddof=1), rel=1e-15)

    def test_response_cross_products(self, centered):
        # published residualized cross-products for the bundled fixture
        x12 = residualize(centered, "TARGTPOP", ("DISPOINC",))
        x21 = residualize(centered, "DISPOINC", ("TARGTPOP",))
        y = centered.column(centered.response_name)
        assert x12.values @ y == pytest.approx(3929.37, abs=0.01)
        assert x21.values @ y == pytest.approx(68.71, abs=0.01)

    def test_target_in_conditioning_set(self, centered):
        with pytest.raises(ValueError):
            residualize(centered, "TARGTPOP", ("TARGTPOP",))

    def test_unknown_names(self, centered):
        with pytest.raises(UnknownName):
            residualize(centered, "nope")
        with pytest.raises(UnknownName):
            residualize(centered, "TARGTPOP", ("nope",))

    def test_values_read_only(self, centered):
        rp = residualize(centered, "TARGTPOP", ("DISPOINC",))
        with pytest.raises(ValueError):
            rp.values[0] = 1.0

    def test_reads_the_shared_subset_memo(self, monkeypatch):
        # the coefficients of a column on others are A^-1 a off the memo's
        # solve of the others, so residualize builds no memo of its own
        spec = SyntheticSpec(
            n=40, p=3, correlation=exchangeable_correlation(3, 0.6),
            signal_coefficients=np.ones(3), seed=8,
        )
        c = mean_center(generate_synthetic(spec))
        c._memo  # built once, before the spy
        built = []
        init = varpart.ols_core._Subsets.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(varpart.ols_core._Subsets, "__init__", counted)
        for target in (c.response_name, *c.predictor_names):
            rest = [nm for nm in c.predictor_names if nm != target]
            residualize(c, target, rest)
            residualize(c, target, rest[::-1][:1])
        assert built == []


class TestSequentialSS:
    def test_reference_values_both_orders(self, centered):
        first = sequential_ss(centered, ("TARGTPOP", "DISPOINC"))
        assert [nm for nm, _ in first] == ["TARGTPOP", "DISPOINC"]
        assert first[0][1] == pytest.approx(23371.81, abs=0.02)
        assert first[1][1] == pytest.approx(643.48, abs=0.02)
        second = sequential_ss(centered, ("DISPOINC", "TARGTPOP"))
        assert second[0][1] == pytest.approx(18299.78, abs=0.02)
        assert second[1][1] == pytest.approx(5715.51, abs=0.02)

    def test_entries_sum_to_regression_ss(self, centered):
        full = fit_ols(centered, MODEL)
        for order in permutations(MODEL):
            total = sum(ss for _, ss in sequential_ss(centered, order))
            assert total == pytest.approx(full.ss_regression, rel=1e-9)

    def test_order_independent_when_orthogonal(self, orthogonal_centered):
        c = orthogonal_centered
        by_name = {}
        for order in permutations(c.predictor_names):
            for nm, ss in sequential_ss(c, order):
                by_name.setdefault(nm, []).append(ss)
        for values in by_name.values():
            assert max(values) - min(values) <= 1e-9 * c.ss_total

    def test_repeated_name_rejected(self, centered):
        with pytest.raises(ValueError):
            sequential_ss(centered, ("TARGTPOP", "TARGTPOP"))


class TestPartialSS:
    def test_reference_values(self, centered):
        assert partial_ss(centered, "TARGTPOP", MODEL) == pytest.approx(
            5715.51, abs=0.02
        )
        assert partial_ss(centered, "DISPOINC", MODEL) == pytest.approx(
            643.48, abs=0.02
        )

    def test_equals_residualized_fit_ss(self, centered):
        fits = residualized_simple_fits(centered, MODEL)
        for nm in MODEL:
            assert partial_ss(centered, nm, MODEL) == pytest.approx(
                fits[nm].ss_regression, rel=1e-9
            )

    def test_single_predictor_model(self, centered):
        fit = fit_ols(centered, ("TARGTPOP",))
        assert partial_ss(centered, "TARGTPOP", ("TARGTPOP",)) == pytest.approx(
            fit.ss_regression, rel=1e-12
        )

    def test_predictor_not_in_model(self, centered):
        with pytest.raises(ValueError):
            partial_ss(centered, "TARGTPOP", ("DISPOINC",))


class TestCorrectedStatistics:
    def test_actual_model_ss(self, centered):
        assert actual_model_ss(centered, MODEL) == pytest.approx(6358.99, abs=0.02)

    def test_corrected_r2_via_both_routes(self, centered):
        r2 = corrected_r2(centered, MODEL)
        assert r2 == pytest.approx(0.243, abs=0.001)
        fits = residualized_simple_fits(centered, MODEL)
        z_sq = sum(float(f.z[0]) ** 2 for f in fits.values())
        assert r2 == pytest.approx(z_sq, rel=1e-9)

    def test_corrected_f_via_both_routes(self, centered):
        f = corrected_f(centered, MODEL)
        assert f == pytest.approx(26.24, abs=0.02)
        full = fit_ols(centered, MODEL)
        t_sq = float(np.sum(full.t**2)) / len(MODEL)
        assert f == pytest.approx(t_sq, rel=1e-9)

    def test_crossproduct_route_matches(self, centered):
        via_xp = ss_via_residualized_crossproducts(centered, MODEL)
        assert via_xp == pytest.approx(actual_model_ss(centered, MODEL), rel=1e-9)

    def test_single_predictor_reduces_to_regression_ss(self, centered):
        fit = fit_ols(centered, ("TARGTPOP",))
        via_xp = ss_via_residualized_crossproducts(centered, ("TARGTPOP",))
        assert via_xp == pytest.approx(fit.ss_regression, rel=1e-12)

    def test_empty_model_rejected(self, centered):
        for op in (actual_model_ss, corrected_r2, corrected_f, venn_regions):
            with pytest.raises(EmptySubset):
                op(centered, ())


class TestOrthogonalRegression:
    def test_shares_fit_with_full_model(self, centered):
        full = fit_ols(centered, MODEL)
        for order in permutations(MODEL):
            of = orthogonal_regression(centered, order)
            assert of.ss_regression == pytest.approx(full.ss_regression, rel=1e-9)
            assert of.ss_residual == pytest.approx(full.ss_residual, rel=1e-9)
            assert of.r2 == pytest.approx(full.r2, rel=1e-9)
            assert of.f == pytest.approx(full.f, rel=1e-9)

    def test_residualized_terms_keep_full_coefficients(self, centered):
        full = fit_ols(centered, MODEL)
        of = orthogonal_regression(centered, ("TARGTPOP", "DISPOINC"))
        assert of.predictor_subset == ("TARGTPOP", "DISPOINC|TARGTPOP")
        assert of.b[1] == pytest.approx(full.coefficient("DISPOINC"), rel=1e-9)

    def test_constructed_columns_orthogonal(self, centered):
        of = orthogonal_regression(centered, ("TARGTPOP", "DISPOINC"))
        first = centered.column("TARGTPOP")
        second = residualize(centered, "DISPOINC", ("TARGTPOP",)).values
        scale = np.abs(first).max() * np.abs(second).max()
        assert abs(first @ second) <= 1e-9 * scale
        assert of.df_model == 2

    def test_three_predictor_chain(self, orthogonal_centered):
        c = orthogonal_centered
        full = fit_ols(c, c.predictor_names)
        of = orthogonal_regression(c, c.predictor_names)
        assert of.ss_regression == pytest.approx(full.ss_regression, rel=1e-9)
        labels = of.predictor_subset
        assert labels[0] == "x1"
        assert labels[1] == "x2|x1"
        assert labels[2] == "x3|x1,x2"

    def test_nearly_collinear_pair_raises_like_fit_ols(self):
        # the orthogonalized columns are well conditioned even when the
        # predictors are not, so only a guard on the predictors catches this
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal(30)
        x2 = 2.0 * x1
        x2[3] += 1e-9
        y = x1 + rng.standard_normal(30)
        c = mean_center(make_dataset(np.column_stack([x1, x2]), y))
        with pytest.raises(SingularDesign):
            fit_ols(c, ("x1", "x2"))
        for order in (("x1", "x2"), ("x2", "x1")):
            with pytest.raises(SingularDesign):
                orthogonal_regression(c, order)


    def test_empty_ordering_rejected(self, centered):
        with pytest.raises(EmptySubset):
            orthogonal_regression(centered, ())
        with pytest.raises(EmptySubset):
            ordering_walk(centered, MODEL, [()])
        with pytest.raises(EmptySubset):
            fit_ols(centered, ())

    def test_terms_match_n_length_route(self, centered):
        # each term against lstsq on the residualized columns themselves
        for order in permutations(MODEL):
            of = orthogonal_regression(centered, order)
            cols = [residualize(centered, nm, order[:k]).values for k, nm in enumerate(order)]
            design = np.column_stack(cols)
            coef, *_ = np.linalg.lstsq(design, centered.column(centered.response_name), rcond=None)
            np.testing.assert_allclose(of.b, coef, rtol=1e-12)
            res = centered.column(centered.response_name) - design @ coef
            mse = float(res @ res) / of.df_residual
            np.testing.assert_allclose(of.se, np.sqrt(mse / (design**2).sum(axis=0)), rtol=1e-12)
            sds = design.std(axis=0, ddof=1)
            np.testing.assert_allclose(of.z, coef * sds / centered.sd_y, rtol=1e-12)


class TestResidualizedSimpleFits:
    def test_reference_values(self, centered):
        fits = residualized_simple_fits(centered, MODEL)
        f1 = fits["TARGTPOP"]
        assert f1.predictor_subset == ("TARGTPOP|DISPOINC",)
        assert f1.ss_regression == pytest.approx(5715.51, abs=0.02)
        assert f1.f == pytest.approx(5.30, abs=0.02)
        assert f1.r2 == pytest.approx(0.218, abs=0.005)
        assert f1.df_residual == centered.n - 2

    def test_slopes_replicate_full_model(self, centered):
        full = fit_ols(centered, MODEL)
        for nm, f in residualized_simple_fits(centered, MODEL).items():
            assert f.b[0] == pytest.approx(full.coefficient(nm), rel=1e-9)

    def test_orthogonal_predictors_reduce_to_plain_simple_fits(
        self, orthogonal_centered
    ):
        c = orthogonal_centered
        for nm, f in residualized_simple_fits(c, c.predictor_names).items():
            plain = fit_ols(c, (nm,))
            assert f.ss_regression == pytest.approx(plain.ss_regression, rel=1e-9)
            assert f.b[0] == pytest.approx(plain.b[0], rel=1e-9)


def _counting_fits(monkeypatch):
    """A list that grows by the labels of each fit built through ``_make_fit``,
    by ``fit_ols`` (the ``ols_core`` binding) or ``residualized_simple_fits``
    (the ``decomposition`` binding)."""
    built, make_fit = [], varpart.ols_core._make_fit

    def counted(*args):
        built.append(args[1])
        return make_fit(*args)

    for module in (varpart.ols_core, varpart.decomposition):
        monkeypatch.setattr(module, "_make_fit", counted)
    return built


class TestReportFits:
    """``compare_report`` builds the model's fit and no other; the simple
    regressions on the residualized predictors are built by
    ``residualized_simple_fits`` alone, as ``decompose`` calls it."""

    @pytest.mark.parametrize(
        "orderings",
        ["all", (), [("x5", "x3", "x1", "x2", "x4"), ("x1", "x2", "x3", "x4", "x5")]],
        ids=["all", "none", "given"],
    )
    def test_builds_only_the_model_fit(self, monkeypatch, orderings):
        c = mean_center(synth_data(5, 0.9))
        built = _counting_fits(monkeypatch)
        compare_report(c, c.predictor_names[::-1], orderings=orderings)
        assert built == [c.predictor_names]
        residualized_simple_fits(c, c.predictor_names[::-1])
        assert built[1:] == [(f"x{j}|{','.join(f'x{k}' for k in range(1, 6) if k != j)}",) for j in range(1, 6)]


class TestVennRegions:
    def test_accounting_invariants(self, centered):
        v = venn_regions(centered, MODEL)
        full = fit_ols(centered, MODEL)
        unique_sum = sum(v.unique.values())
        assert unique_sum + v.common_total == pytest.approx(
            full.ss_regression, rel=1e-9
        )
        assert v.accounted_total == pytest.approx(unique_sum + v.residual, rel=1e-9)
        assert v.missing == pytest.approx(v.ss_total - v.accounted_total, rel=1e-9)
        assert v.missing == pytest.approx(v.common_total, rel=1e-9)
        assert not v.suppression

    def test_unique_regions_are_partial_ss(self, centered):
        v = venn_regions(centered, MODEL)
        for nm in MODEL:
            assert v.unique[nm] == pytest.approx(
                partial_ss(centered, nm, MODEL), rel=1e-12
            )

    def test_orthogonal_design_has_no_overlap(self, orthogonal_centered):
        c = orthogonal_centered
        v = venn_regions(c, c.predictor_names)
        assert abs(v.common_total) <= 1e-9 * v.ss_total
        assert abs(v.missing) <= 1e-9 * v.ss_total
        assert v.accounted_total == pytest.approx(v.ss_total, rel=1e-9)
        assert not v.suppression

    def test_suppression_reported_signed(self, suppression_centered):
        c = suppression_centered
        v = venn_regions(c, c.predictor_names)
        assert v.common_total < 0
        assert v.suppression
        full = fit_ols(c, c.predictor_names)
        unique_sum = sum(v.unique.values())
        assert unique_sum > full.ss_regression  # the defining inequality
        assert unique_sum + v.common_total == pytest.approx(
            full.ss_regression, rel=1e-9
        )

    def test_unique_mapping_immutable(self, centered):
        v = venn_regions(centered, MODEL)
        with pytest.raises(TypeError):
            v.unique["TARGTPOP"] = 0.0


class TestEnumerateOrderings:
    def test_lexicographic_permutations(self):
        got = enumerate_orderings(("b", "a", "c"))
        assert got[0] == ("a", "b", "c")
        assert len(got) == 6
        assert len(set(got)) == 6

    def test_cap_enforced(self):
        names = tuple(f"x{i}" for i in range(ORDERING_CAP + 1))
        with pytest.raises(TooManyOrderings) as exc:
            enumerate_orderings(names)
        assert exc.value.p == ORDERING_CAP + 1
        assert exc.value.cap == ORDERING_CAP

    def test_at_cap_is_allowed(self):
        names = tuple(f"x{i}" for i in range(ORDERING_CAP))
        assert len(enumerate_orderings(names)) == math.factorial(ORDERING_CAP)


class TestCompareReport:
    def test_aggregates_are_consistent(self, centered):
        rep = compare_report(centered, MODEL)
        assert rep.model == MODEL
        assert rep.actual_model_ss == pytest.approx(
            sum(pd.type3_ss for pd in rep.per_predictor), rel=1e-12
        )
        assert rep.corrected_r2 == pytest.approx(
            rep.actual_model_ss / rep.traditional.ss_total, rel=1e-12
        )
        assert rep.corrected_f == pytest.approx(corrected_f(centered, MODEL), rel=1e-12)

    def test_all_orderings_included_and_sum(self, centered):
        rep = compare_report(centered, MODEL)
        assert len(rep.orderings) == 2
        for order in rep.orderings:
            total = sum(pd.type1_by_ordering[order] for pd in rep.per_predictor)
            assert total == pytest.approx(rep.traditional.ss_regression, rel=1e-9)

    def test_type1_matches_sequential_ss(self, centered):
        # both read the same rows, each set bordered from its parent, so the
        # floats are equal, not merely close, whichever call solves a set first
        ds = synth_data(5, 1 - 1e-10)
        cases = [
            (compare_report(centered, MODEL), centered),
            (compare_report(mean_center(ds), ds.predictor_names, orderings="all"), mean_center(ds)),
        ]
        for rep, c in cases:
            assert rep.orderings
            for order in rep.orderings:
                seq = dict(sequential_ss(c, order))
                for pd in rep.per_predictor:
                    assert pd.type1_by_ordering[order] == seq[pd.name]

    def test_explicit_orderings_only(self, centered):
        rep = compare_report(centered, MODEL, orderings=[("DISPOINC", "TARGTPOP")])
        assert rep.orderings == (("DISPOINC", "TARGTPOP"),)

    def test_non_permutation_ordering_rejected(self, centered):
        with pytest.raises(ValueError):
            compare_report(centered, MODEL, orderings=[("TARGTPOP",)])

    def test_bad_orderings_string_rejected(self, centered):
        with pytest.raises(ValueError):
            compare_report(centered, MODEL, orderings="everything")

    def test_model_names_deduplicated(self, centered):
        rep = compare_report(centered, ("TARGTPOP", "TARGTPOP", "DISPOINC"))
        assert rep.model == MODEL

    def test_large_model_auto_mode_skips_orderings(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((25, 9))
        y = x.sum(axis=1) + rng.standard_normal(25)
        c = mean_center(make_dataset(x, y))
        rep = compare_report(c, c.predictor_names)
        assert rep.orderings == ()
        with pytest.raises(TooManyOrderings):
            compare_report(c, c.predictor_names, orderings="all")

    def test_single_predictor_coincides_with_traditional(self, centered):
        rep = compare_report(centered, ("TARGTPOP",))
        assert rep.corrected_r2 == pytest.approx(rep.traditional.r2, rel=1e-12)
        assert rep.corrected_f == pytest.approx(rep.traditional.f, rel=1e-12)

    def test_orthogonal_design_coincides_with_traditional(self, orthogonal_centered):
        c = orthogonal_centered
        rep = compare_report(c, c.predictor_names)
        assert rep.corrected_r2 == pytest.approx(rep.traditional.r2, rel=1e-9)
        assert rep.corrected_f == pytest.approx(rep.traditional.f, rel=1e-9)


@pytest.mark.parametrize(
    "design", ["dwaine", "suppression", "single_predictor"]
)
def test_standalone_views_equal_compare_report_exactly(
    design, centered, suppression_centered
):
    # every view reads the same Type III path, so the values are the same
    # floats, not merely close
    c, model = {
        "dwaine": (centered, MODEL),
        "suppression": (suppression_centered, suppression_centered.predictor_names),
        "single_predictor": (centered, ("DISPOINC",)),
    }[design]
    rep = compare_report(c, model)
    for pd in rep.per_predictor:
        assert partial_ss(c, pd.name, model) == pd.type3_ss
    assert actual_model_ss(c, model) == rep.actual_model_ss
    assert corrected_r2(c, model) == rep.corrected_r2
    assert corrected_f(c, model) == rep.corrected_f
    assert venn_regions(c, model) == rep.venn
    assert dict(rep.venn.unique) == {pd.name: pd.type3_ss for pd in rep.per_predictor}


def test_collinear_model_raises_singular(centered):
    rng = np.random.default_rng(4)
    base = rng.standard_normal(30)
    x = np.column_stack([base, -3.0 * base + 1.0])
    y = base + rng.standard_normal(30)
    c = mean_center(make_dataset(x, y))
    with pytest.raises(SingularDesign):
        venn_regions(c, ("x1", "x2"))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(12, 100),
    p=st.integers(2, 4),
    rho=st.sampled_from([0.0, 0.25, 0.5, 0.8]),
)
def test_decomposition_identities_on_random_data(seed, n, p, rho):
    spec = SyntheticSpec(
        n=n,
        p=p,
        correlation=exchangeable_correlation(p, rho),
        signal_coefficients=np.linspace(-1.0, 2.0, p),
        noise_sd=1.5,
        seed=seed,
    )
    c = mean_center(generate_synthetic(spec))
    model = c.predictor_names
    full = fit_ols(c, model)
    scale = c.ss_total

    # partial SS equals t^2 * MS(residual) and the residualized-fit SS
    fits = residualized_simple_fits(c, model)
    for j, nm in enumerate(model):
        part = partial_ss(c, nm, model)
        assert abs(part - float(full.t[j]) ** 2 * full.ms_residual) <= 1e-8 * scale
        assert abs(part - fits[nm].ss_regression) <= 1e-8 * scale
        assert abs(fits[nm].b[0] - full.b[j]) <= 1e-8 * max(1.0, np.abs(full.b).max())

    # corrected R2 via z route
    z_sq = sum(float(f.z[0]) ** 2 for f in fits.values())
    assert abs(corrected_r2(c, model) - z_sq) <= 1e-8

    # Venn accounting closes
    v = venn_regions(c, model)
    total = sum(v.unique.values()) + v.common_total + v.residual
    assert abs(total - v.ss_total) <= 1e-8 * scale


def synth_data(p, rho, seed=5):
    spec = SyntheticSpec(
        n=200, p=p, correlation=exchangeable_correlation(p, rho),
        signal_coefficients=np.ones(p), seed=seed,
    )
    return generate_synthetic(spec)


def walk_values(walk):
    """Each ordering of the walk with its Type I table, term statistics and
    intercept, read as the walk reaches it."""
    _, values, steps = walk
    return [
        (order, [*map(values.entry, masks, order)], [*map(values.stats, masks, order)],
         values.intercept(order[0]))
        for _, order, masks, _ in steps
    ]


class TestOrderingWalk:
    """``ordering_walk`` takes orderings of one predictor set, the model: it
    checks them all and fits the set before it returns, then walks them."""

    @pytest.mark.parametrize("p", [3, 5, 6])
    @pytest.mark.parametrize("rho", [0.9, 1 - 1e-6, 1 - 1e-9, 1 - 1e-10])
    def test_guard_of_the_model_covers_every_subset(self, p, rho):
        # a principal block of the normalized SSCP has its eigenvalues inside
        # those of the whole (Cauchy interlacing): once the model passes the
        # guard, every subset solves and the walk raises nothing
        ds = synth_data(p, rho)
        c, names = mean_center(ds), ds.predictor_names
        try:
            fit_ols(c, names)
        except SingularDesign:
            with pytest.raises(SingularDesign):
                ordering_walk(mean_center(ds), names, enumerate_orderings(names))
            return
        for mask in range(1, 2**p):
            c._memo.solve(mask)
        walk_values(ordering_walk(mean_center(ds), names, enumerate_orderings(names)))

    def test_one_fit_and_no_other_solve_before_the_walk(self, monkeypatch):
        c = mean_center(synth_data(4, 0.6))
        fits, solves = [], []
        fit, solve = varpart.decomposition.fit_ols, varpart.ols_core._Subsets.solve

        def counted(memo, mask, *args):
            solves.append(mask)
            return solve(memo, mask, *args)

        monkeypatch.setattr(varpart.decomposition, "fit_ols", lambda *a: fits.append(a) or fit(*a))
        monkeypatch.setattr(varpart.ols_core._Subsets, "solve", counted)
        orders = [("x4", "x2", "x3", "x1"), ("x1", "x2", "x3", "x4")]
        walk = ordering_walk(c, orders[0], orders)
        assert fits == [(c, ("x1", "x2", "x3", "x4"))]
        assert solves == []  # within the cap, the fit comes off the exact walk
        assert [order for order, *_ in walk_values(walk)] == orders
        assert len(set(solves)) == 7  # the terms' decimal solves: the distinct prefix sets of the two

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            ((), EmptySubset, "at least one predictor"),
            (("x9", "x1", "x1"), UnknownName, "x9"),
            (("x1", "x1", "x9"), UnknownName, "x9"),
            (("x1", "x1"), ValueError, "repeats a predictor"),
            (("x1", "x3"), ValueError, r"not a permutation of \('x1', 'x2'\)"),
            (("x2",), ValueError, r"not a permutation of \('x1', 'x2'\)"),
        ],
        ids=["empty", "unknown-first", "unknown-after-repeat", "repeated", "other-set", "subset"],
    )
    def test_each_ordering_is_checked_before_any_fit(self, monkeypatch, bad, error, match):
        c = mean_center(synth_data(3, 0.5))
        monkeypatch.setattr(varpart.decomposition, "fit_ols", None)  # any fit would raise TypeError
        with pytest.raises(error, match=match):
            ordering_walk(c, ("x1", "x2"), [("x1", "x2"), ("x2", "x1"), bad])

    def test_default_walk_is_the_enumerated_walk(self, monkeypatch):
        c = mean_center(synth_data(4, 0.6))
        names = ("x3", "x1", "x4", "x2")
        want = walk_values(ordering_walk(c, names, enumerate_orderings(names)))
        checks = []
        masks = varpart.decomposition._Orderings.masks
        monkeypatch.setattr(
            varpart.decomposition._Orderings, "masks", lambda self, o: checks.append(o) or masks(self, o)
        )
        walk = ordering_walk(c, names)
        assert walk.fit.predictor_subset == ("x1", "x2", "x3", "x4")
        assert walk_values(walk) == want
        assert checks == []  # each enumerated ordering is a permutation of the model

    def test_default_walk_raises_the_cap_before_any_name_check_or_fit(self, monkeypatch):
        c = mean_center(synth_data(3, 0.5))
        monkeypatch.setattr(varpart.decomposition, "fit_ols", None)  # any fit would raise TypeError
        monkeypatch.setattr(varpart.decomposition, "_Orderings", None)  # and any name check
        names = ("x1", "x2", "x3", *(f"z{i}" for i in range(ORDERING_CAP - 2)))
        with pytest.raises(TooManyOrderings):
            ordering_walk(c, names)
        with pytest.raises(TooManyOrderings):
            ordering_walk(c, iter(names))

    def test_no_orderings_no_steps(self, centered):
        walk = ordering_walk(centered, MODEL, [])
        assert walk.fit.predictor_subset == MODEL
        assert [*walk.steps] == []

    def test_walk_keeps_the_prefix_shared_with_the_last_ordering(self):
        c = mean_center(synth_data(3, 0.5))
        orders = [("x1", "x2", "x3"), ("x1", "x3", "x2"), ("x1", "x3", "x2"), ("x2", "x1", "x3")]
        walk = varpart.decomposition.ordering_walk(c, ("x3", "x2", "x1"), orders)
        steps = [(k, order, [*masks], [*labels]) for k, order, masks, labels in walk.steps]
        assert [k for k, *_ in steps] == [0, 1, 3, 0]
        assert [order for _, order, *_ in steps] == orders
        assert steps[1][2:] == ([0b001, 0b101, 0b111], ["x1", "x3|x1", "x2|x1,x3"])
        assert steps[3][2:] == ([0b010, 0b011, 0b111], ["x2", "x1|x2", "x3|x2,x1"])

    def test_compare_report_checks_orderings_before_a_collinear_fit(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal(30)
        x = np.column_stack([base, -3.0 * base + 1.0])
        c = mean_center(make_dataset(x, base + rng.standard_normal(30)))
        with pytest.raises(ValueError, match="not a permutation"):
            compare_report(c, ("x1", "x2"), orderings=[("x2", "x1"), ("x1",)])
        with pytest.raises(SingularDesign):
            compare_report(c, ("x1", "x2"), orderings=[("x2", "x1")])


class TestMaskMemo:
    """The subset memo is keyed by bit mask, bit i for predictor i, and
    makes, for a guarded set, the Type I SS of each column of each of its
    subsets that a caller asks for entering it last, in one exact walk."""

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.integers(1, 6),
        rho=st.sampled_from([0.0, 0.6, 0.99, 1 - 1e-8]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_walked_type1_is_the_partial_ss_of_the_solve(self, p, rho, seed, data):
        c = mean_center(synth_data(p, rho, seed))
        memo = c._memo
        memo.solve(2**p - 1)  # its guard covers every subset
        rows = memo.type1(2**p - 1)
        assert sorted(rows) == [*range(1, 2**p)]
        # the prefix sets of one ordering: each row holds at least the
        # column that entered last, as the full walk makes it
        order = data.draw(st.permutations(range(p)))
        sets = [*accumulate((1 << i for i in order), or_)]
        given_rows = memo.type1(2**p - 1, set(sets))
        assert sorted(given_rows) == sorted(sets)
        for mask, i in zip(sets, order):
            assert i in given_rows[mask]
            assert given_rows[mask].items() <= rows[mask].items()
        for mask in range(1, 2**p):
            sol = memo.solve(mask)
            assert [*rows[mask]] == [*sol.b] == [i for i in range(p) if mask >> i & 1]
            for i, ss in rows[mask].items():
                with localcontext(varpart.ols_core._CTX):
                    assert ss == pytest.approx(float(_partial(sol, i)), rel=1e-12)
                # the SS the set loses without column i, from two solves
                assert ss == pytest.approx(float(sol.ssr - memo.solve(mask & ~(1 << i)).ssr), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), data=st.data())
    def test_explicit_orderings_give_the_enumerated_type1_table(self, seed, data):
        ds = synth_data(6, 0.6, seed)
        model = data.draw(st.lists(st.sampled_from(ds.predictor_names), min_size=1, max_size=5, unique=True))
        shuffled = data.draw(st.permutations(enumerate_orderings(model)))
        everything = compare_report(mean_center(ds), model, orderings="all")
        explicit = compare_report(mean_center(ds), model[::-1], orderings=shuffled)
        assert explicit.orderings == tuple(shuffled)
        assert [d.name for d in explicit.per_predictor] == [d.name for d in everything.per_predictor]
        for got, want in zip(explicit.per_predictor, everything.per_predictor):
            assert dict(got.type1_by_ordering) == dict(want.type1_by_ordering)

    @pytest.mark.parametrize(
        "bad, error, match",
        [
            ([()], EmptySubset, "at least one predictor"),
            ([("x9", "x1", "x1")], UnknownName, "x9"),
            ([("x1", "x1")], ValueError, "repeats a predictor"),
            ([("x1", "x3")], ValueError, r"not a permutation of \('x1', 'x2'\)"),
            ([("x2",), ()], ValueError, r"not a permutation of \('x1', 'x2'\)"),
            ([(), ("x2",)], EmptySubset, "at least one predictor"),
        ],
        ids=["empty", "unknown", "repeated", "other-set", "first-of-two", "empty-first"],
    )
    def test_bad_explicit_orderings_raise_before_any_solve(self, monkeypatch, bad, error, match):
        c = mean_center(synth_data(3, 0.5))
        solves = []
        solve = varpart.ols_core._Subsets.solve
        monkeypatch.setattr(
            varpart.ols_core._Subsets, "solve", lambda memo, *a: solves.append(a) or solve(memo, *a)
        )
        with pytest.raises(error, match=match):
            compare_report(c, ("x1", "x2"), orderings=[("x1", "x2"), ("x2", "x1"), *bad])
        assert solves == []


def _walked(monkeypatch):
    """The sets of each walk of the subset lattice, as the walks yield them."""
    walks = []
    minors = varpart.ols_core._Subsets._minors

    def spy(memo, mask, *args):
        walks.append([])
        for sub, *dets in minors(memo, mask, *args):
            walks[-1].append(sub)
            yield sub, *dets

    monkeypatch.setattr(varpart.ols_core._Subsets, "_minors", spy)
    return walks


def _fit_sets(mask):
    """The sets that an exact walk reaches to fit the regression on
    ``mask``: the ascending prefixes (each set less its highest columns) of
    ``mask`` and of ``mask`` less each column."""
    sets = {mask, *(mask & ~(1 << i) for i in range(mask.bit_length()) if mask >> i & 1)}
    return {s & (2 << b) - 1 for s in sets for b in range(s.bit_length())} | {0}


class TestLatticePass:
    """Within the cap, every Type I SS of a report is read off one exact walk
    over the subsets of the model that its orderings reach, which also
    makes the model's regression, and is not kept past the report; above
    it, each is the partial SS of its prefix's decimal solve."""

    def test_each_subset_is_walked_once_per_report(self, monkeypatch):
        c = mean_center(synth_data(5, 0.6))
        walks = _walked(monkeypatch)
        counts = {"_extend": 0, "_partial": 0}

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)
            return counted

        for name in counts:
            monkeypatch.setattr(varpart.ols_core, name, counting(name, getattr(varpart.ols_core, name)))
        rep = compare_report(c, c.predictor_names, orderings="all")
        assert len(rep.orderings) == 120
        assert len(walks) == 1 and sorted(walks[0]) == [*range(32)]
        # the model's fit and Type III SS come off the same walk: no decimal solve
        assert counts == {"_extend": 0, "_partial": 0}
        walk_values(ordering_walk(c, c.predictor_names))
        assert len(walks) == 2 and sorted(walks[1]) == [*range(32)]  # no walk is kept
        compare_report(c, ("x2", "x4"), orderings="all")
        assert len(walks) == 3 and sorted(walks[2]) == [0, 0b10, 0b1000, 0b1010]
        # on a fresh centering, the walk of the orderings makes the model's regression too
        walk_values(ordering_walk(mean_center(synth_data(5, 0.6)), c.predictor_names))
        assert len(walks) == 4 and sorted(walks[3]) == [*range(32)]

    def test_no_orderings_walk_only_the_sets_the_fit_needs(self, monkeypatch):
        c = mean_center(synth_data(5, 0.6))
        walks = _walked(monkeypatch)
        rep = compare_report(c, ("x2", "x4", "x5"), orderings=())
        assert rep.orderings == ()
        assert len(walks) == 1 and sorted(walks[0]) == sorted(_fit_sets(0b11010))
        assert c._memo._cache == {}
        orthogonal_regression(c, ("x4", "x2", "x5"))  # reads no Type I SS
        assert len(walks) == 1

    def test_explicit_orderings_read_the_same_walk(self, monkeypatch):
        # one given ordering of p predictors reaches the ascending prefixes
        # (each set less its highest columns) of its p prefix sets, at most
        # p(p + 1)/2 + 1 sets with the empty one, not all 2**p
        ds = synth_data(6, 0.6)
        order = ("x6", "x2", "x5", "x1", "x4", "x3")
        sets = [*accumulate((1 << int(nm[1:]) - 1 for nm in order), or_)]
        reach = {sub & (2 << b) - 1 for sub in sets for b in range(6)}
        c = mean_center(ds)
        walks = _walked(monkeypatch)
        rep = compare_report(c, ds.predictor_names, orderings=[order])
        # the report's walk reaches the sets of the model's fit too
        assert len(walks) == 1 and sorted(walks[0]) == sorted(reach | _fit_sets(0b111111))
        assert len(reach) == 17 <= 6 * 7 // 2 + 1  # of 2**6 = 64
        assert c._memo._cache == {}  # no set is solved in decimal
        assert sequential_ss(mean_center(ds), order) == [
            (nm, rep.per_predictor[ds.predictor_names.index(nm)].type1_by_ordering[order]) for nm in order
        ]
        assert len(walks) == 2 and sorted(walks[1]) == sorted(reach)
        everything = compare_report(mean_center(ds), ds.predictor_names, orderings="all")
        for got, want in zip(rep.per_predictor, everything.per_predictor):
            assert dict(got.type1_by_ordering) == {order: want.type1_by_ordering[order]}

    def test_model_of_high_index_predictors(self, monkeypatch):
        ds = synth_data(40, 0.3)
        c, model = mean_center(ds), ds.predictor_names[-3:]
        walks = _walked(monkeypatch)
        rep = compare_report(c, model, orderings="all")
        assert len(walks) == 1 and sorted(walks[0]) == [m << 37 for m in range(8)]
        assert c._memo._cache == {}
        seq = mean_center(ds)
        for order in rep.orderings:
            for nm, ss in sequential_ss(seq, order):
                assert rep.per_predictor[model.index(nm)].type1_by_ordering[order] == ss

    def test_above_the_cap_each_type1_is_the_partial_ss_of_its_prefix_solve(self, monkeypatch):
        ds = synth_data(ORDERING_CAP + 1, 0.6)
        c, names = mean_center(ds), ds.predictor_names
        walks = _walked(monkeypatch)
        orders = [names, names[::-1]]
        rep = compare_report(c, names, orderings=orders)
        for order in orders:
            assert [(nm, rep.per_predictor[names.index(nm)].type1_by_ordering[order]) for nm in order] == (
                sequential_ss(c, order)
            )
            mask = 0
            for nm in order:
                mask |= 1 << names.index(nm)
                with localcontext(varpart.ols_core._CTX):
                    want = float(_partial(c._memo.solve(mask), names.index(nm)))
                assert rep.per_predictor[names.index(nm)].type1_by_ordering[order] == want
        assert walks == []

    def test_a_failing_subset_pivot_names_the_subset(self):
        # (x1, x3) alone has a non-positive minor: its cross-product in the
        # exact integers is raised past sqrt(N11 N33), and only there
        c = mean_center(synth_data(3, 0.6))
        num, den = c.exact.ints
        num = [row[:] for row in num]
        num[0][2] = num[2][0] = math.isqrt(num[0][0] * num[2][2]) + 1
        c = dataclasses.replace(c, exact=c.exact._replace(ints=(num, den)))
        message = r"^subset \(x1, x3\): 2-th leading minor of the array is not positive definite$"
        # the model's fit reads P_(M - x2), the minor of (x1, x3), off the walk
        with pytest.raises(SingularDesign, match=message):
            fit_ols(c, c.predictor_names)
        with pytest.raises(SingularDesign, match=message):
            compare_report(c, c.predictor_names, orderings="all")

    def test_the_model_guard_fails_first(self, monkeypatch):
        rng = np.random.default_rng(4)
        base = rng.standard_normal(30)
        x = np.column_stack([base, -3.0 * base + 1.0, rng.standard_normal(30)])
        c = mean_center(make_dataset(x, base + rng.standard_normal(30)))
        monkeypatch.setattr(varpart.ols_core, "_extend", None)  # any solve would raise TypeError
        for orderings in ("all", [("x3", "x2", "x1")]):
            with pytest.raises(SingularDesign, match=r"^fit on \(x1, x2, x3\): reciprocal condition number"):
                compare_report(c, ("x3", "x1", "x2"), orderings=orderings)


class TestExactPath:
    """Within the cap, the model's fit, its Type III SS, the Venn regions and
    the corrected statistics come off the minors of one exact walk per call:
    no decimal solve runs and the decimal SSCP is never made. Above it, the
    decimal solve serves them."""

    @staticmethod
    def _extends(monkeypatch):
        calls, extend = [], varpart.ols_core._extend
        monkeypatch.setattr(varpart.ols_core, "_extend", lambda *args: calls.append(args) or extend(*args))
        return calls

    @pytest.mark.parametrize(
        "call",
        [
            lambda c, names: compare_report(c, names, orderings="all"),
            lambda c, names: compare_report(c, names, orderings=()),
            lambda c, names: compare_report(c, names[::-1], orderings=[names, names[::-1]]),
            fit_ols,
            venn_regions,
            lambda c, names: partial_ss(c, names[1], names),
            residualized_simple_fits,
            actual_model_ss,
            corrected_r2,
            corrected_f,
        ],
        ids=[
            "report-all", "report-none", "report-given", "fit_ols", "venn_regions", "partial_ss",
            "residualized_simple_fits", "actual_model_ss", "corrected_r2", "corrected_f",
        ],
    )
    def test_one_walk_and_no_decimal_solve_within_the_cap(self, monkeypatch, call):
        c = mean_center(synth_data(5, 0.9))
        walks, extends = _walked(monkeypatch), self._extends(monkeypatch)
        call(c, c.predictor_names)
        assert len(walks) == 1
        assert extends == []
        assert "s" not in vars(c._memo)  # the decimal SSCP is never made

    def test_above_the_cap_the_decimal_solve_runs(self, monkeypatch):
        c = mean_center(synth_data(ORDERING_CAP + 1, 0.9))
        names = c.predictor_names
        walks, extends = _walked(monkeypatch), self._extends(monkeypatch)
        rep = compare_report(c, names, orderings=[names])
        assert walks == []
        assert len(extends) == ORDERING_CAP + 1  # the model's chain, which holds the ordering's prefixes
        assert "s" in vars(c._memo)
        with localcontext(varpart.ols_core._CTX):
            sol = c._memo.solve((1 << ORDERING_CAP + 1) - 1)
            assert [pd.type3_ss for pd in rep.per_predictor] == [float(_partial(sol, j)) for j in range(len(names))]

    @settings(max_examples=30, deadline=None)
    @given(
        p=st.integers(1, 6),
        rho=st.sampled_from([0.0, 0.6, 0.99, 1 - 1e-8]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_coefficients_satisfy_desnanot_jacobi(self, p, rho, seed, data):
        # b_j = x_j / P_M by Cramer's rule, and x_j^2 = Y_(M-j) P_M - Y_M P_(M-j)
        c = mean_center(synth_data(p, rho, seed))
        model = data.draw(st.lists(st.sampled_from(c.predictor_names), min_size=1, unique=True))
        try:
            fit_ols(c, model)
        except SingularDesign:
            return
        mask = sum(1 << c.predictor_index(nm) for nm in model)
        m = c._memo.fit(mask)
        minors = {sub: (y, det) for sub, y, det, _ in c._memo._minors(mask)}
        y, det = minors[mask]
        assert m.q == det
        for j, x in m.x.items():
            y_less, det_less = minors[mask & ~(1 << j)]
            assert x * x == y_less * det - y * det_less
            assert m.w[j] == det_less


def test_sweep_reports_are_pinned():
    # the sweep design grid up to the guard, as bytes: every Type I table,
    # Type III SS, the traditional fit, the Venn regions and the corrected
    # statistics; a change to the order or rounding of any solve moves it.
    # Its Type I and Type III SS are each the float nearest the exact value
    # (test_every_type1_is_the_float_nearest_the_exact_value and
    # test_every_type3_is_the_float_nearest_the_exact_value)
    h = hashlib.sha256()
    for p in (3, 5):
        for rho in (0.0, 0.9, 1 - 1e-8, 1 - 1e-10):
            ds = synth_data(p, rho)
            rep = compare_report(mean_center(ds), ds.predictor_names, orderings="all")
            for pd in rep.per_predictor:
                h.update(repr(_bits((pd.name, sorted(pd.type1_by_ordering.items()), pd.type3_ss))).encode())
            stats = rep.traditional, rep.venn, rep.actual_model_ss, rep.corrected_r2, rep.corrected_f
            h.update(repr(_bits(stats)).encode())
    assert h.hexdigest() == "90f89d4d00f31b82a75139384752744593fee257d9bb6c7a8ff7ddaa01d8678c"


def _exact_moments(ds):
    """The centered SSCP of the predictors and then the response, and their
    means, as exact Fractions of the rows' values."""
    cols = [[Fraction(v) for v in ds.column(nm).tolist()] for nm in (*ds.predictor_names, ds.response_name)]
    sums = [sum(col) for col in cols]
    k = len(cols)
    s = [[Fraction(0)] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            s[a][b] = s[b][a] = sum(map(mul, cols[a], cols[b])) - sums[a] * sums[b] / ds.n
    return s, [total / ds.n for total in sums]


def _exact_sse(s):
    """Residual SS of the response on every subset of the predictors, by
    mask (bit i for predictor i), from the exact SSCP ``s``: Gaussian
    elimination of each subset bordered by the response, whose last pivot
    is the residual SS."""
    k = len(s)
    sse = {}
    for mask in range(2 ** (k - 1)):
        idx = [i for i in range(k - 1) if mask >> i & 1] + [k - 1]
        m = [[s[a][b] for b in idx] for a in idx]
        for j in range(len(idx) - 1):
            for r in range(j + 1, len(idx)):
                f = m[r][j] / m[j][j]
                m[r] = [x - f * y for x, y in zip(m[r], m[j])]
        sse[mask] = m[-1][-1]
    return sse


@functools.cache
def _exact_case(p, rho, seed):
    """``synth_data(p, rho, seed)``, its ``_exact_sse`` and its
    ``_exact_moments``."""
    ds = synth_data(p, rho, seed)
    s, means = _exact_moments(ds)
    return ds, _exact_sse(s), s, means


@pytest.mark.parametrize("seed", [0, 1, 4])
@pytest.mark.parametrize("rho", [1 - 1e-10, 1 - 1e-11])
@pytest.mark.parametrize("p", [3, 5])
def test_every_type1_is_the_float_nearest_the_exact_value(p, rho, seed):
    # up to the guard, every Type I SS of every route is SSE(S - i) - SSE(S)
    # of its prefix set S rounded once: the exact value's nearest float
    ds, sse, *_ = _exact_case(p, rho, seed)
    names = ds.predictor_names

    def exact(order):
        out, mask = [], 0
        for nm in order:
            mask |= 1 << names.index(nm)
            out.append((nm, float(sse[mask & ~(1 << names.index(nm))] - sse[mask])))
        return out

    orders = enumerate_orderings(names)
    reports = [
        compare_report(mean_center(ds), names, orderings="all"),
        compare_report(mean_center(ds), names[::-1], orderings=orders[::-1][:7]),
    ]
    for rep in reports:
        for order in rep.orderings:
            want = dict(exact(order))
            for pd in rep.per_predictor:
                assert pd.type1_by_ordering[order] == want[pd.name], (order, pd.name)
    c = mean_center(ds)
    for order in orders[:: max(1, len(orders) // 7)]:
        assert sequential_ss(c, order) == exact(order)
    for order, entries, *_ in walk_values(ordering_walk(mean_center(ds), names)):
        assert entries == exact(order)


@pytest.mark.parametrize("seed", [0, 1, 4])
@pytest.mark.parametrize("rho", [1 - 1e-10, 1 - 1e-11])
@pytest.mark.parametrize("p", [3, 5])
def test_every_type3_is_the_float_nearest_the_exact_value(p, rho, seed):
    # up to the guard, every Type III SS of every route is SSE(M - j) - SSE(M)
    # of the model M rounded once, and so are the model's regression and
    # residual SS: the decimal solves carry the digits the guard leaves room for
    ds, sse, *_ = _exact_case(p, rho, seed)
    names, whole = ds.predictor_names, (1 << p) - 1
    want = {nm: float(sse[whole & ~(1 << j)] - sse[whole]) for j, nm in enumerate(names)}
    c = mean_center(ds)
    rep = compare_report(c, names[::-1], orderings=())
    assert {pd.name: pd.type3_ss for pd in rep.per_predictor} == want
    assert {nm: partial_ss(c, nm, names) for nm in names} == want
    assert dict(venn_regions(c, names).unique) == want
    assert {nm: fit.ss_regression for nm, fit in residualized_simple_fits(c, names).items()} == want
    fit = rep.traditional
    assert (fit.ss_regression, fit.ss_residual) == (float(sse[0] - sse[whole]), float(sse[whole]))


def _exact_solve(s, idx):
    """The coefficients of the response (the last column of the exact SSCP
    ``s``) on the columns ``idx`` and the diagonal of their inverse SSCP
    block, in the order of ``idx``, by Gauss-Jordan elimination of the
    block bordered by the response and the identity."""
    k = len(idx)
    rows = [[s[a][b] for b in (*idx, -1)] + [Fraction(int(a == b)) for b in idx] for a in idx]
    for j in range(k):
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for r in range(k):
            if r != j:
                rows[r] = [x - rows[r][j] * y for x, y in zip(rows[r], rows[j])]
    return [row[k] for row in rows], [row[k + 1 + j] for j, row in enumerate(rows)]


def _nearest_root(q, sign=1):
    """The float nearest sign * sqrt(q), for a Fraction q >= 0: the integer
    root of q * 4**k puts sqrt(q) * 2**k between r and r + 1, about 320
    bits, and both ends must round to the same float. A float sqrt of
    float(q) would round twice."""
    k = max(0, 320 - (q.numerator.bit_length() - q.denominator.bit_length()) // 2)
    r = math.isqrt(q.numerator * 4**k // q.denominator)
    lo, hi = (sign * float(Fraction(x, 2**k)) for x in (r, r + 1))
    assert lo == hi, "sqrt(q) is too close to a rounding boundary to decide"
    return lo


@pytest.mark.parametrize("seed", [0, 1, 4])
@pytest.mark.parametrize("rho", [1 - 1e-10, 1 - 1e-11])
@pytest.mark.parametrize("p", [3, 5])
def test_every_fit_statistic_is_the_float_nearest_the_exact_value(p, rho, seed):
    # up to the guard, every field of the model's fit and every term of the
    # orthogonal-function fits is its exact value rounded once: the square
    # roots of se, z and t come off integer roots, not float ones
    ds, sse, s, means = _exact_case(p, rho, seed)
    names, n, sst, whole = ds.predictor_names, ds.n, s[-1][-1], (1 << p) - 1
    idx = [*range(p)]
    b, inv = _exact_solve(s, idx)
    ssr, mse = sst - sse[whole], sse[whole] / (n - p - 1)

    def sign(x):
        return 1 if x >= 0 else -1

    def terms(bs, invs, col_ss):
        # (b, se, z, t) per column whose SS is col_ss: z = b sd_j / sd_y
        return [
            (float(bj), _nearest_root(mse * ij), _nearest_root(bj * bj * ss / sst, sign(bj)),
             _nearest_root(bj * bj / (mse * ij), sign(bj)))
            for bj, ij, ss in zip(bs, invs, col_ss)
        ]

    b_, se, z, t = zip(*terms(b, inv, [s[j][j] for j in idx]))
    want = {
        "b": b_, "se": se, "z": z, "t": t,
        "intercept": float(means[-1] - sum(map(mul, b, means))),
        "ss_total": float(sst), "ss_regression": float(ssr), "ss_residual": float(sse[whole]),
        "ms_regression": float(ssr / p), "ms_residual": float(mse), "ms_total": float(sst / (n - 1)),
        "r2": float(ssr / sst), "f": float(ssr / p / mse),
    }
    fit = fit_ols(mean_center(ds), names)
    got = {k: tuple(v.tolist()) if isinstance(v, np.ndarray) else v for k, v in fit._asdict().items() if k in want}
    assert got == want

    c = mean_center(ds)
    orders = enumerate_orderings(names)
    for order in orders[:: len(orders) // 6]:
        of = orthogonal_regression(c, order)
        cols = [names.index(nm) for nm in order]
        # term k is o[k] last in the fit on o[:k + 1], a column of SS 1 / (A^-1)_kk
        last = [_exact_solve(s, cols[: k + 1]) for k in range(p)]
        bs, invs = [bk[-1] for bk, _ in last], [ik[-1] for _, ik in last]
        b_, se, z, t = zip(*terms(bs, invs, [1 / ik for ik in invs]))
        first = cols[0]
        intercept = float(means[-1] - s[first][-1] / s[first][first] * means[first])
        got = (*(tuple(v.tolist()) for v in (of.b, of.se, of.z, of.t)), of.intercept)
        assert got == (b_, se, z, t, intercept), order


@pytest.mark.parametrize("seed", [0, 1, 4])
@pytest.mark.parametrize("rho", [1 - 1e-10, 1 - 1e-11])
@pytest.mark.parametrize("p", [3, 5])
def test_every_region_and_corrected_statistic_is_the_float_nearest_the_exact_value(p, rho, seed):
    # up to the guard, every Venn region, corrected statistic, field of a
    # residualized simple fit and column sd is its exact value rounded once
    ds, sse, s, means = _exact_case(p, rho, seed)
    names, n, sst, whole = ds.predictor_names, ds.n, s[-1][-1], (1 << p) - 1
    type3 = [sse[whole & ~(1 << j)] - sse[whole] for j in range(p)]
    unique, residual = sum(type3), sse[whole]
    missing = sst - unique - residual
    venn = {
        "unique": {nm: float(ss) for nm, ss in zip(names, type3)},
        "common_total": float(sst - residual - unique), "residual": float(residual), "ss_total": float(sst),
        "accounted_total": float(unique + residual), "missing": float(missing),
        "missing_fraction": float(missing / sst),
    }
    corrected = float(unique), float(unique / sst), float(unique / p / (residual / (n - p - 1)))
    c = mean_center(ds)
    rep = compare_report(c, names, orderings="all")
    assert {**rep.venn._asdict(), "unique": dict(rep.venn.unique)} == venn
    assert (rep.actual_model_ss, rep.corrected_r2, rep.corrected_f) == corrected
    c = mean_center(ds)
    got = venn_regions(c, names)
    assert {**got._asdict(), "unique": dict(got.unique)} == venn
    assert (actual_model_ss(c, names), corrected_r2(c, names), corrected_f(c, names)) == corrected

    # the simple regression on j residualized on the rest: slope b_j, column SS 1 / (A^-1)_jj
    b, inv = _exact_solve(s, [*range(p)])
    for j, (nm, fit) in enumerate(residualized_simple_fits(mean_center(ds), names).items()):
        ssr, res = type3[j], sst - type3[j]
        mse, sign = res / (n - 2), 1 if b[j] >= 0 else -1
        want = {
            "predictor_subset": (f"{nm}|{','.join(o for o in names if o != nm)}",),
            "b": (float(b[j]),), "intercept": float(means[-1]),
            "ss_total": float(sst), "ss_regression": float(ssr), "ss_residual": float(res),
            "df_model": 1, "df_residual": n - 2,
            "ms_regression": float(ssr), "ms_residual": float(mse), "ms_total": float(sst / (n - 1)),
            "r2": float(ssr / sst), "f": float(ssr / mse),
            "se": (_nearest_root(mse * inv[j]),), "t": (_nearest_root(b[j] ** 2 / (mse * inv[j]), sign),),
            "z": (_nearest_root(b[j] ** 2 / (inv[j] * sst), sign),), "n": n,
        }
        assert {k: tuple(v.tolist()) if isinstance(v, np.ndarray) else v for k, v in fit._asdict().items()} == want

    c = mean_center(ds)
    sds = [_nearest_root(s[a][a] / (n - 1)) for a in range(p + 1)]
    assert [c.sd(nm) for nm in (*names, ds.response_name)] == sds
    assert c.sd_y == sds[-1]


def test_sequential_ss_guards_each_prefix_in_turn():
    # the first prefix that fails the guard is named, as a fit on it would be
    rng = np.random.default_rng(4)
    base = rng.standard_normal(30)
    x = np.column_stack([base, -3.0 * base + 1.0, rng.standard_normal(30)])
    c = mean_center(make_dataset(x, base + rng.standard_normal(30)))
    with pytest.raises(SingularDesign, match=r"^subset \(x1, x2, x3\): reciprocal condition number"):
        sequential_ss(c, ("x3", "x1", "x2"))
    with pytest.raises(SingularDesign, match=r"^subset \(x1, x2\): reciprocal condition number"):
        sequential_ss(c, ("x2", "x1", "x3"))
    assert sequential_ss(c, ("x3", "x1"))  # a model without the pair is not rejected


@pytest.mark.parametrize(
    "call",
    [
        lambda c, names: compare_report(c, names),
        lambda c, names: walk_values(ordering_walk(c, names, [names, names[::-1]])),
        lambda c, names: venn_regions(c, names),
    ],
    ids=["compare_report", "ordering_walk", "venn_regions"],
)
def test_report_calls_leave_no_cyclic_garbage(dwaine, call):
    # garbage in a reference cycle keeps the centering and its memo alive
    # until the cyclic collector runs
    c = mean_center(dwaine)
    gc.collect()
    gc.disable()
    try:
        call(c, dwaine.predictor_names)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("fn", [sequential_ss, orthogonal_regression], ids=lambda fn: fn.__name__)
def test_an_ordering_may_be_a_one_pass_iterable(centered, fn):
    # the ordering names the predictor set and the order of its terms
    assert _bits(fn(centered, iter(MODEL))) == _bits(fn(centered, MODEL))


def _bits(v):
    """``v`` with every float, array and Decimal replaced by its exact bits,
    so that two results compare equal only when they are bit-identical."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, Decimal):
        return v.as_tuple()
    if isinstance(v, Mapping):
        return {k: _bits(x) for k, x in v.items()}
    if dataclasses.is_dataclass(v):
        return type(v).__name__, [_bits(getattr(v, f.name)) for f in dataclasses.fields(v)]
    if isinstance(v, (tuple, list)):
        return type(v).__name__, [_bits(x) for x in v]
    return v


def _every_entry_point(ds):
    c = mean_center(ds)
    model = ds.predictor_names
    return [
        c,
        fit_ols(c, model[1:]),
        compare_report(c, model, orderings="all"),
        residualize(c, model[0], model[1:]),
        walk_values(ordering_walk(c, model, enumerate_orderings(model))),
    ]


def test_results_ignore_the_callers_decimal_context():
    # every decimal step runs in the library's _DIGITS-digit context, entered
    # once per bordering chain: a step left in the caller's context would
    # round here to 6 digits, and set the caller's flags
    ds = synth_data(4, 0.99, seed=11)
    want = _bits(_every_entry_point(ds))
    with localcontext(Context(prec=6, rounding=ROUND_DOWN)) as ctx:
        got = _bits(_every_entry_point(ds))
        assert getcontext() is ctx
        assert (ctx.prec, ctx.rounding) == (6, ROUND_DOWN)
        assert not any(ctx.flags.values())
    assert got == want
