"""End-to-end checks against the published reference values and the CLI.

Each test prints one PASS line (visible under ``pytest -s``) after its
assertions hold, so a run gives a one-line verdict per check.
"""

import json
import math
import re
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

from varpart import (
    SyntheticSpec,
    compare_report,
    corrected_f,
    corrected_r2,
    exchangeable_correlation,
    fit_ols,
    generate_synthetic,
    mean_center,
    orthogonal_regression,
    partial_ss,
    residualize,
    residualized_simple_fits,
    sequential_ss,
    sscp,
    venn_regions,
)
from varpart.cli import main

from conftest import write_synth

MODEL = ("TARGTPOP", "DISPOINC")
GOLDEN = Path(__file__).parent / "golden"


def close(a, b, tol, scale=0.0):
    return abs(a - b) <= tol * max(abs(a), abs(b), scale)


def test_1_reference_anova_and_coefficients(centered):
    start = time.perf_counter()

    # (predictors, ss_reg, ss_res, F, R2, bs, zs, ts), published at 2 dp
    expected = [
        (("TARGTPOP",), 23371.81, 2824.40, 157.22, 0.892,
         (1.836,), (0.945,), (12.54,)),
        (("DISPOINC",), 18299.78, 7896.43, 44.03, 0.699,
         (31.173,), (0.836,), (6.64,)),
        (MODEL, 24015.28, 2180.93, 99.10, 0.917,
         (1.455, 9.366), (0.748, 0.251), (6.87, 2.31)),
    ]
    for subset, ss_reg, ss_res, f, r2, bs, zs, ts in expected:
        fit = fit_ols(centered, subset)
        assert fit.ss_regression == pytest.approx(ss_reg, abs=0.02)
        assert fit.ss_residual == pytest.approx(ss_res, abs=0.02)
        assert fit.ss_total == pytest.approx(26196.21, abs=0.02)
        assert fit.f == pytest.approx(f, abs=0.02)
        assert fit.r2 == pytest.approx(r2, abs=0.005)
        for j in range(len(subset)):
            assert fit.b[j] == pytest.approx(bs[j], abs=0.02)
            assert fit.z[j] == pytest.approx(zs[j], abs=0.005)
            assert fit.t[j] == pytest.approx(ts[j], abs=0.02)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nPASS 1: reference ANOVA and coefficient values reproduced on the"
        f" bundled fixture ({elapsed:.3f}s)"
    )


def test_2_crossproduct_matrix(centered):
    m = sscp(centered)
    expected = {
        ("SALES", "SALES"): 26196.21,
        ("TARGTPOP", "SALES"): 12730.59,
        ("TARGTPOP", "TARGTPOP"): 6934.33,
        ("DISPOINC", "SALES"): 587.04,
        ("DISPOINC", "TARGTPOP"): 282.33,
        ("DISPOINC", "DISPOINC"): 18.83,
    }
    for (a, b), want in expected.items():
        assert m.value(a, b) == pytest.approx(want, abs=0.01)

    x12 = residualize(centered, "TARGTPOP", ("DISPOINC",))
    x21 = residualize(centered, "DISPOINC", ("TARGTPOP",))
    y = centered.column(centered.response_name)
    assert x12.values @ y == pytest.approx(3929.37, abs=0.01)
    assert x21.values @ y == pytest.approx(68.71, abs=0.01)
    print(
        "PASS 2: centered cross-product matrix and residualized"
        " cross-products match the published values"
    )


def test_3_residualized_simple_regressions(centered):
    fits = residualized_simple_fits(centered, MODEL)
    expected = {
        "TARGTPOP": (5715.51, 20480.71, 5.30, 0.218, 1.455, 0.467, 2.30),
        "DISPOINC": (643.48, 25552.73, 0.48, 0.025, 9.366, 0.157, 0.69),
    }
    for nm, (ss, res, f, r2, b, z, t) in expected.items():
        fit = fits[nm]
        assert fit.df_residual == centered.n - 2
        assert fit.ss_regression == pytest.approx(ss, abs=0.02)
        assert fit.ss_residual == pytest.approx(res, abs=0.02)
        assert fit.f == pytest.approx(f, abs=0.02)
        assert fit.r2 == pytest.approx(r2, abs=0.02)
        assert fit.b[0] == pytest.approx(b, abs=0.02)
        assert fit.z[0] == pytest.approx(z, abs=0.02)
        assert fit.t[0] == pytest.approx(t, abs=0.02)
    print(
        "PASS 3: simple regressions on residualized predictors match the"
        " published values with the n - 2 residual df"
    )


def test_4_orthogonal_function_regressions(centered):
    expected = {
        ("TARGTPOP", "DISPOINC"): ((1.836, 9.366), (0.945, 0.157), (13.89, 2.31)),
        ("DISPOINC", "TARGTPOP"): ((31.173, 1.455), (0.836, 0.467), (12.29, 6.87)),
    }
    for order, (bs, zs, ts) in expected.items():
        fit = orthogonal_regression(centered, order)
        assert fit.ss_regression == pytest.approx(24015.28, abs=0.02)
        assert fit.ss_residual == pytest.approx(2180.93, abs=0.02)
        assert fit.ss_total == pytest.approx(26196.21, abs=0.02)
        assert fit.f == pytest.approx(99.10, abs=0.02)
        assert fit.r2 == pytest.approx(0.917, abs=0.02)
        for j in range(2):
            assert fit.b[j] == pytest.approx(bs[j], abs=0.02)
            assert fit.z[j] == pytest.approx(zs[j], abs=0.02)
            assert fit.t[j] == pytest.approx(ts[j], abs=0.02)
    print(
        "PASS 4: orthogonal-function regressions reproduce the full-model"
        " fit with the published per-term values"
    )


def n_length_residualized(c, model):
    """Per predictor (slope, regression SS, z) of the simple regression on
    its column residualized against the rest, by lstsq on the n rows."""
    out = {}
    for nm in model:
        rp = residualize(c, nm, tuple(o for o in model if o != nm))
        (slope,), *_ = np.linalg.lstsq(rp.values[:, None], c.column(c.response_name), rcond=None)
        out[nm] = (slope, slope**2 * rp.ss, slope * rp.sd / c.sd_y)
    return out


def n_length_orthogonal(c, order):
    """(slopes, z) of the fit on the sequentially residualized columns, by lstsq."""
    design = np.column_stack(
        [residualize(c, nm, order[:k]).values for k, nm in enumerate(order)]
    )
    coef, *_ = np.linalg.lstsq(design, c.column(c.response_name), rcond=None)
    return coef, coef * design.std(axis=0, ddof=1) / c.sd_y


def test_5_corrected_statistics_two_routes(centered):
    # the reported values come from the subset memo; the second route
    # regresses on the residualized columns themselves, over the n rows
    fits = residualized_simple_fits(centered, MODEL)
    n_length = n_length_residualized(centered, MODEL)
    for nm, (slope, ss, z) in n_length.items():
        assert close(fits[nm].b[0], slope, 1e-9)
        assert close(fits[nm].ss_regression, ss, 1e-9)
        assert close(fits[nm].z[0], z, 1e-9)
    for order in (MODEL, MODEL[::-1]):
        of = orthogonal_regression(centered, order)
        coef, z = n_length_orthogonal(centered, order)
        np.testing.assert_allclose(of.b, coef, rtol=1e-9)
        np.testing.assert_allclose(of.z, z, rtol=1e-9)

    r2_ratio = corrected_r2(centered, MODEL)
    r2_z = sum(z**2 for _, _, z in n_length.values())
    assert r2_ratio == pytest.approx(0.243, abs=0.001)
    assert r2_z == pytest.approx(0.243, abs=0.001)
    assert close(r2_ratio, r2_z, 1e-9)

    f_ratio = corrected_f(centered, MODEL)
    full = fit_ols(centered, MODEL)
    f_t = float(np.sum(full.t**2)) / len(MODEL)
    assert f_ratio == pytest.approx(26.24, abs=0.02)
    assert f_t == pytest.approx(26.24, abs=0.02)
    assert close(f_ratio, f_t, 1e-9)
    print(
        "PASS 5: corrected R2 and corrected f agree across both computation"
        " routes and match the published values"
    )


def test_6_derived_values_where_printed_arithmetic_is_inconsistent(centered):
    # The printed source carries values its own definitions do not
    # reproduce; the implementation follows the definitions, so these
    # assert the derived numbers and their distance from the printed ones.
    part = partial_ss(centered, "DISPOINC", MODEL)
    assert part == pytest.approx(643.48, abs=0.02)  # derived
    assert abs(part - 643.81) > 0.25  # printed variant
    assert abs(part - 643.99) > 0.25  # printed variant

    v = venn_regions(centered, MODEL)
    assert v.accounted_total == pytest.approx(8539.91, abs=0.02)  # derived
    assert abs(v.accounted_total - 8839.92) > 250.0  # printed

    assert v.missing_fraction == pytest.approx(0.674, abs=0.001)  # derived
    assert abs(v.missing_fraction - 0.662) > 0.01  # printed
    print(
        "PASS 6: derived accounting values hold where the printed arithmetic"
        " is internally inconsistent"
    )


def ar1_correlation(p, r):
    idx = np.arange(p)
    return r ** np.abs(idx[:, None] - idx[None, :])


def test_7_identity_sweep_on_synthetic_datasets():
    structures = [
        lambda p: np.eye(p),
        lambda p: exchangeable_correlation(p, 0.3),
        lambda p: exchangeable_correlation(p, 0.6),
        lambda p: exchangeable_correlation(p, 0.9),
        lambda p: exchangeable_correlation(p, -0.2),
        lambda p: ar1_correlation(p, 0.5),
        lambda p: ar1_correlation(p, 0.8),
    ]
    start = time.perf_counter()
    n_datasets = 500
    for i in range(n_datasets):
        p = 2 + i % 4
        n = 10 + (i * 7) % 191
        spec = SyntheticSpec(
            n=n,
            p=p,
            correlation=structures[i % len(structures)](p),
            signal_coefficients=np.linspace(-1.0, 2.0, p),
            noise_sd=0.5 + (i % 3),
            seed=i,
        )
        c = mean_center(generate_synthetic(spec))
        model = c.predictor_names
        rep = compare_report(c, model)
        full = rep.traditional
        scale = c.ss_total

        # per-fit SS identity
        assert close(full.ss_regression + full.ss_residual, scale, 1e-8)

        # every ordering telescopes back to the regression SS
        for order in rep.orderings:
            total = sum(pd.type1_by_ordering[order] for pd in rep.per_predictor)
            assert close(total, full.ss_regression, 1e-8, scale)

        # slope equality and the t identity, per predictor, with the
        # residualized fits checked against the n-length route
        n_length = n_length_residualized(c, model)
        fits = residualized_simple_fits(c, model)
        for j, pd in enumerate(rep.per_predictor):
            rfit = fits[pd.name]
            b_scale = c.sd_y / c.sd(pd.name)
            slope, ss, _ = n_length[pd.name]
            assert close(rfit.b[0], full.b[j], 1e-8, b_scale)
            assert close(rfit.b[0], slope, 1e-8, b_scale)
            assert close(rfit.ss_regression, ss, 1e-8, scale)
            assert close(
                float(full.t[j]) ** 2 * full.ms_residual, pd.type3_ss, 1e-8, scale
            )

        # orthogonal terms of the first and last ordering, both routes
        for order in (rep.orderings[0], rep.orderings[-1]):
            of = orthogonal_regression(c, order)
            coef, _ = n_length_orthogonal(c, order)
            b_scales = [c.sd_y / c.sd(nm) for nm in order]
            for got, want, b_scale in zip(of.b, coef, b_scales):
                assert close(got, want, 1e-8, b_scale)

        # corrected R2 via the standardized-coefficient route, over the n rows
        z_sq = sum(z**2 for _, _, z in n_length.values())
        assert close(rep.corrected_r2, z_sq, 1e-8, 1.0)

        # Venn accounting closes
        v = rep.venn
        total = sum(v.unique.values()) + v.common_total + v.residual
        assert close(total, v.ss_total, 1e-8)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"PASS 7: decomposition identities held on {n_datasets} seeded"
        f" synthetic datasets ({elapsed:.1f}s)"
    )


def test_8_orthogonal_design_collapse(orthogonal_centered):
    c = orthogonal_centered
    model = c.predictor_names
    rep = compare_report(c, model)
    for pd in rep.per_predictor:
        simple = fit_ols(c, (pd.name,)).ss_regression
        assert close(pd.type3_ss, simple, 1e-9)
        for order in rep.orderings:
            assert close(pd.type1_by_ordering[order], simple, 1e-9)
    assert close(rep.corrected_r2, rep.traditional.r2, 1e-9)
    assert close(rep.corrected_f, rep.traditional.f, 1e-9)
    print(
        "PASS 8: sequential, partial, and simple SS coincide on an"
        " orthogonalized design, and corrected statistics equal traditional"
    )


CIRCLE = re.compile(
    r'<circle id="region-(\w+)" cx="([0-9.]+)" cy="([0-9.]+)" r="([0-9.]+)"'
)


def lens_area(d, r, s):
    if d >= r + s:
        return 0.0
    if d <= abs(r - s):
        m = min(r, s)
        return math.pi * m * m
    a = r * r * math.acos((d * d + r * r - s * s) / (2 * d * r))
    b = s * s * math.acos((d * d + s * s - r * r) / (2 * d * s))
    tri = 0.5 * math.sqrt((-d + r + s) * (d + r - s) * (d - r + s) * (d + r + s))
    return a + b - tri


def test_9_cli_contract(centered):
    runner = CliRunner()

    # golden files, text and json, all four subcommands
    for cmd in ("fit", "decompose", "orderings", "venn"):
        res = runner.invoke(main, [cmd, "--dwaine"], catch_exceptions=False)
        assert res.exit_code == 0
        assert res.output == (GOLDEN / f"{cmd}_dwaine.txt").read_text()
        res = runner.invoke(
            main, [cmd, "--dwaine", "--format", "json"], catch_exceptions=False
        )
        assert res.exit_code == 0
        assert res.output == (GOLDEN / f"{cmd}_dwaine.json").read_text()
        schema = json.loads(
            (resources.files("varpart.schemas") / f"{cmd}.schema.json").read_text()
        )
        jsonschema.validate(json.loads(res.output), schema)

    # region areas in the rendered SVG stay proportional to the SS
    svg = runner.invoke(
        main, ["venn", "--dwaine", "--format", "svg"], catch_exceptions=False
    ).output
    assert svg == (GOLDEN / "venn_dwaine.svg").read_text()
    circles = {m[1]: (float(m[2]), float(m[4])) for m in CIRCLE.finditer(svg)}
    (cx1, r1), (cx2, r2) = circles["TARGTPOP"], circles["DISPOINC"]
    rr = circles["residual"][1]
    overlap = lens_area(cx2 - cx1, r1, r2)
    v = venn_regions(centered, MODEL)
    px_per_ss = (math.pi * r1 * r1 - overlap) / v.unique["TARGTPOP"]
    for px, ss in [
        (math.pi * r2 * r2 - overlap, v.unique["DISPOINC"]),
        (overlap, v.common_total),
        (math.pi * rr * rr, v.residual),
    ]:
        assert abs(px / (ss * px_per_ss) - 1.0) <= 0.02

    # exit-code matrix: success, usage, singular input, ordering cap
    assert runner.invoke(main, ["fit", "--dwaine"]).exit_code == 0
    assert runner.invoke(main, ["fit"]).exit_code == 2
    with runner.isolated_filesystem():
        Path("const.csv").write_text("y,x\n1,5\n2,5\n3,5\n4,5\n")
        res = runner.invoke(
            main,
            ["fit", "--input", "const.csv", "--response", "y", "--predictors", "x"],
        )
        assert res.exit_code == 3
        write_synth("w.csv", n=30, p=9)
        preds = ",".join(f"x{i}" for i in range(1, 10))
        res = runner.invoke(
            main,
            [
                "orderings",
                "--input", "w.csv",
                "--response", "y",
                "--predictors", preds,
            ],
        )
        assert res.exit_code == 4
    print(
        "PASS 9: CLI golden files, SVG region-area proportionality, and the"
        " exit-code matrix verified"
    )
