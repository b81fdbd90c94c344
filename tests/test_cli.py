import gc
import hashlib
import json
import math
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import click
import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import varpart.decomposition
import varpart.ols_core
from varpart import (
    CsvSpec,
    enumerate_orderings,
    fit_ols,
    load_csv,
    mean_center,
    residualized_simple_fits,
    save_csv,
)
from varpart import cli, report
from varpart.cli import main
from conftest import (
    WIDTH_NAMES,
    WIDTH_ORDERS,
    orderings_csv,
    orderings_payload,
    records_by_ordering,
    report_by_ordering,
    widths_dataset,
    write_synth,
)

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kw):
    return runner.invoke(main, list(args), catch_exceptions=False, **kw)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def assert_one_error_line(res):
    """A usage error: exit 2 and one ``error:`` line, not click's usage block."""
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
    assert res.stdout == ""


# The predictors of the seed-4242 p = 9 input, in dataset order, and the
# digests of the report of every ordering of its p = 7 input, by format.
ASCENDING_9 = tuple(f"x{j}" for j in range(1, 10))
SEEDED_P7_PINS = [
    ("text", "fc863115cf674b3db9893d53f8d17fb8"),
    ("csv", "08a0ef981fd5bbcf4a18b146fb149d36"),
    ("json", "81d980b88edf5057af108bbe72bb571f"),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("cmd", ("fit", "decompose", "orderings", "venn"))
    def test_text(self, runner, cmd):
        res = invoke(runner, cmd, "--dwaine")
        assert res.exit_code == 0
        assert res.output == (GOLDEN / f"{cmd}_dwaine.txt").read_text()

    @pytest.mark.parametrize("cmd", ("fit", "decompose", "orderings", "venn"))
    def test_json(self, runner, cmd):
        res = invoke(runner, cmd, "--dwaine", "--format", "json")
        assert res.exit_code == 0
        assert res.output == (GOLDEN / f"{cmd}_dwaine.json").read_text()

    def test_svg(self, runner):
        res = invoke(runner, "venn", "--dwaine", "--format", "svg")
        assert res.exit_code == 0
        assert res.output == (GOLDEN / "venn_dwaine.svg").read_text()

    @pytest.mark.parametrize("cmd", ("fit", "decompose", "orderings", "venn"))
    def test_csv(self, runner, cmd):
        res = invoke(runner, cmd, "--dwaine", "--format", "csv")
        assert res.exit_code == 0
        assert res.output == (GOLDEN / f"{cmd}_dwaine.csv").read_text()

    @pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("csv", "csv")])
    def test_orderings_of_names_that_need_quoting(self, runner, fmt, ext):
        # the response holds the CSV delimiter, a predictor a quote
        res = invoke(
            runner, "orderings", "--input", str(GOLDEN / "input_names.csv"),
            "--response", "a,b", "--predictors", 'say "hi",100%,\u00e9', "--format", fmt,
        )
        assert res.exit_code == 0
        assert res.output == (GOLDEN / f"orderings_names.{ext}").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "n, p, rho, seed, digest",
        [
            (200, 7, 0.6, 4242, "0d7a2a722a20db6919735f40ba62b801"),
            (200, 8, 0.6, 4242, "c160c1db131d496308f351da83396a35"),
            (50, 3, 0.6, 7, "9b1763779806ec49c789d063cb09cd38"),  # README's recipe
        ],
        ids=("p7", "p8", "readme"),
    )
    def test_seeded_input(self, tmp_path, n, p, rho, seed, digest):
        # the generator's bytes, written through save_csv
        data = write_synth(tmp_path / "in.csv", n=n, p=p, rho=rho, seed=seed)
        assert hashlib.md5(data.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "p, orders, fmt, digest",
        [
            *((7, (), *pin) for pin in SEEDED_P7_PINS),
            (9, (ASCENDING_9, ASCENDING_9[::-1]), "text", "9a540792d7092cc1240ba4c7afb1e4ee"),
            (9, (ASCENDING_9, ASCENDING_9[::-1]), "csv", "38dbd728b01a344ffb4da5ae02df4941"),
            (9, (ASCENDING_9, ASCENDING_9[::-1]), "json", "7a64d1c1aa739d59abe6f9f4be479a04"),
        ],
        ids=[
            *("-".join(pin) for pin in SEEDED_P7_PINS),  # the ids of the p = 7 pins alone
            "p9-given-text", "p9-given-csv", "p9-given-json",
        ],
    )
    def test_orderings_of_the_seeded_input(self, runner, tmp_path, p, orders, fmt, digest):
        # all 5,040 orderings of the seed-4242 p = 7 input, and two given
        # orderings of its p = 9 input, above the cap; the CSV and JSON
        # digests hold full-precision floats and fall under the golden
        # policy, as the CSV goldens do
        data = write_synth(tmp_path / f"p{p}.csv", n=200, p=p, rho=0.6, seed=4242)
        preds = ",".join(f"x{j}" for j in range(1, p + 1))
        given = [arg for order in orders for arg in ("--order", ",".join(order))]
        out = tmp_path / f"orderings.{fmt}"
        invoke(runner, "orderings", "--input", str(data), "--response", "y",
               "--predictors", preds, *given, "--format", fmt, "--out", str(out))
        assert hashlib.md5(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "cmd, fmt, digest",
        [
            ("fit", "text", "f7aa92a5110fa03ef28ec7a845c294d0"),
            ("fit", "json", "21ad42bcb16aeb49416d332659322b88"),
            ("fit", "csv", "a7ea7c4b92227315e7bed97beac45a71"),
            ("decompose", "text", "9ddcc0902bf0065189ffa1876a2db701"),
            ("decompose", "json", "5775956eee34ebb213a2e834d68a04ec"),
            ("decompose", "csv", "2c84e96d3cc2fba431f5f4a9234e41a6"),
            ("venn", "text", "1e09c7543b446b5918b242b9ef881d7b"),
            ("venn", "json", "e56a2a168069b99de638ce6e65879b6a"),
            ("venn", "csv", "cb7afaf6e163dfdb3383eec182934e2a"),
            ("venn", "svg", "0c2395128041eda8d1f63c2b9e3e10e9"),
        ],
    )
    def test_reports_of_the_seeded_input(self, runner, tmp_path, cmd, fmt, digest):
        # seven predictors: multi-row tables and the aggregate SVG panel,
        # which no Dwaine golden shows; the digests of full-precision
        # floats fall under the golden policy, as the CSV goldens do
        data = write_synth(tmp_path / "p7.csv", n=200, p=7, rho=0.6, seed=4242)
        preds = ",".join(f"x{j}" for j in range(1, 8))
        out = tmp_path / f"{cmd}.{fmt}"
        invoke(runner, cmd, "--input", str(data), "--response", "y",
               "--predictors", preds, "--format", fmt, "--out", str(out))
        assert hashlib.md5(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("model", ["x5,x3,x1,x2,x4", "x3"])
    def test_decompose_renders_the_residualized_simple_fits(self, runner, tmp_path, model):
        # near the guard, decompose's residualized section is
        # residualized_simple_fits of its model, bit for bit
        data = write_synth(tmp_path / "p5.csv", n=200, p=5, rho=1 - 1e-10, seed=4)
        preds = tuple(f"x{j}" for j in range(1, 6))
        res = invoke(runner, "decompose", "--input", str(data), "--response", "y",
                     "--predictors", ",".join(preds), "--model", model, "--format", "json")
        stats = ("ss_regression", "f", "r2", "b", "se", "z", "t")
        got = [
            [e["name"], e["label"], *(float(e[k]).hex() for k in stats), e["df_residual"]]
            for e in json.loads(res.output)["residualized_fits"]
        ]
        fits = residualized_simple_fits(mean_center(load_csv(CsvSpec(data, "y", preds))), model.split(","))
        want = [
            [nm, f.predictor_subset[0], *(float(x).hex() for x in (f.ss_regression, f.f, f.r2)),
             *(float(x[0]).hex() for x in (f.b, f.se, f.z, f.t)), f.df_residual]
            for nm, f in fits.items()
        ]
        assert got == want and len(got) == len(model.split(","))

    def test_fit_single_predictor(self, runner):
        res = invoke(runner, "fit", "--dwaine", "--model", "TARGTPOP")
        assert res.exit_code == 0
        assert res.output == (GOLDEN / "fit_targtpop.txt").read_text()

    @pytest.mark.parametrize("fmt", ("text", "json", "svg"))
    def test_byte_determinism(self, runner, fmt):
        a = invoke(runner, "venn", "--dwaine", "--format", fmt)
        b = invoke(runner, "venn", "--dwaine", "--format", fmt)
        assert a.output == b.output

    @pytest.mark.parametrize("cmd", ("fit", "decompose", "venn"))
    def test_text_is_one_write(self, monkeypatch, cmd):
        # an output of one text is written whole, not character by character
        writes = []
        monkeypatch.setattr(click, "echo", lambda text, **kwargs: writes.append(text))
        main([cmd, "--dwaine"], standalone_mode=False)
        assert writes == [(GOLDEN / f"{cmd}_dwaine.txt").read_text()]

    def test_orderings_text_is_a_write_per_part(self, monkeypatch):
        # the head, one batch of both orderings and the tail (empty in
        # text), each written whole
        writes = []
        monkeypatch.setattr(click, "echo", lambda text, **kwargs: writes.append(text))
        main(["orderings", "--dwaine"], standalone_mode=False)
        assert len(writes) == 3 and writes[0].startswith("Model: ") and writes[2] == ""
        assert writes[1].count("\nOrdering: ") == 2 and writes[1].startswith("\nOrdering: ")
        assert "".join(writes) == (GOLDEN / "orderings_dwaine.txt").read_text()

    @pytest.mark.parametrize("cmd", ("fit", "decompose", "orderings", "venn"))
    def test_json_validates_against_schema(self, runner, cmd):
        res = invoke(runner, cmd, "--dwaine", "--format", "json")
        schema = json.loads(
            (resources.files("varpart.schemas") / f"{cmd}.schema.json").read_text()
        )
        jsonschema.validate(json.loads(res.output), schema)


class TestInputHandling:
    def test_csv_input_with_model_subset(self, runner, tmp_path):
        rows = "\n".join(f"{i},{2 * i + 1},{3 * i}" for i in range(1, 9))
        path = write(tmp_path, "y,a,b\n" + rows + "\n")
        res = invoke(
            runner,
            "fit",
            "--input", str(path),
            "--response", "y",
            "--predictors", "a,b",
            "--model", "a",
        )
        assert res.exit_code == 0
        assert "Model: y ~ a" in res.output

    def test_semicolon_delimiter(self, runner, tmp_path):
        rows = "\n".join(f"{i};{i * i}" for i in range(1, 9))
        path = write(tmp_path, "y;x\n" + rows + "\n")
        res = invoke(
            runner,
            "fit",
            "--input", str(path),
            "--response", "y",
            "--predictors", "x",
            "--delimiter", ";",
        )
        assert res.exit_code == 0

    @pytest.mark.parametrize("delimiter", list("0123456789+-.eEnNaAiIfFtTyY"))
    def test_delimiter_a_number_can_hold_is_a_usage_error(self, runner, tmp_path, delimiter):
        # split at '.', this file would fit y = 1..5 on x = 5, 7, 1, 9, 2
        path = write(tmp_path, "y.x\n1.5\n2.7\n3.1\n4.9\n5.2\n")
        res = runner.invoke(main, ["fit", "--input", str(path), "--response", "y",
                                   "--predictors", "x", "--delimiter", delimiter])
        assert_one_error_line(res)
        assert res.stderr == f"error: delimiter {delimiter!r} can occur in a number\n"

    def test_out_writes_file_and_keeps_stdout_empty(self, runner, tmp_path):
        target = tmp_path / "report.json"
        res = invoke(
            runner, "fit", "--dwaine", "--format", "json", "--out", str(target)
        )
        assert res.exit_code == 0
        assert res.output == ""
        assert target.read_text() == (GOLDEN / "fit_dwaine.json").read_text()

    @pytest.mark.parametrize(
        "args",
        [("fit",), ("decompose",), ("venn",), ("venn", "--format", "svg")],
        ids=["fit", "decompose", "venn", "venn-svg"],
    )
    def test_statistics_past_1e26_are_formatted(self, runner, tmp_path, args):
        # SS about 1e29: 30 digits and two decimals, past the default 28-digit
        # decimal context
        path = write(tmp_path, "y,x\n1e14,1\n3e14,2\n2e14,3\n5e14,4\n4e14,6\n")
        res = invoke(runner, *args, "--input", str(path), "--response", "y", "--predictors", "x")
        assert res.exit_code == 0
        assert "100,000,000,000,000,000,000,000,000,000.00" in res.stdout


class TestExitCodes:
    def test_dwaine_conflicts_with_input(self, runner, tmp_path):
        path = write(tmp_path, "y,x\n1,2\n2,4\n3,5\n4,7\n")
        res = runner.invoke(main, ["fit", "--dwaine", "--input", str(path)])
        assert_one_error_line(res)

    def test_no_input_at_all(self, runner):
        res = runner.invoke(main, ["fit"])
        assert_one_error_line(res)

    def test_input_requires_column_names(self, runner, tmp_path):
        path = write(tmp_path, "y,x\n1,2\n2,4\n3,5\n4,7\n")
        res = runner.invoke(main, ["fit", "--input", str(path)])
        assert_one_error_line(res)

    @pytest.mark.parametrize("model", [",", "TARGTPOP,TARGTPOP"], ids=["empty", "repeated"])
    def test_model_must_name_distinct_predictors(self, runner, model):
        res = runner.invoke(main, ["fit", "--dwaine", "--model", model])
        assert_one_error_line(res)

    @pytest.mark.parametrize("cmd", ["fit", "orderings"])
    def test_predictor_name_with_a_bar_is_an_input_error(self, runner, tmp_path, cmd):
        path = write(tmp_path, "y,a|b,c\n1,2,1\n2,4,3\n3,5,2\n4,7,5\n5,6,4\n")
        res = runner.invoke(main, [cmd, "--input", str(path), "--response", "y", "--predictors", "a|b,c"])
        assert_one_error_line(res)
        assert res.stderr == "error: predictor name 'a|b' is empty or holds ',' or '|', which term labels use\n"

    def test_missing_file(self, runner, tmp_path):
        res = runner.invoke(
            main,
            [
                "fit",
                "--input", str(tmp_path / "nope.csv"),
                "--response", "y",
                "--predictors", "x",
            ],
        )
        assert res.exit_code == 2
        assert res.stderr.startswith("error:")

    def test_non_numeric_cell(self, runner, tmp_path):
        path = write(tmp_path, "y,x\n1,2\n2,oops\n3,5\n4,7\n")
        res = runner.invoke(
            main,
            ["fit", "--input", str(path), "--response", "y", "--predictors", "x"],
        )
        assert res.exit_code == 2
        assert "line 3" in res.stderr

    def test_digit_underscore_cell(self, runner, tmp_path):
        # Python's float() reads "3_0" as 30; the CSV syntax does not
        path = write(tmp_path, "y,x\n1,3_0\n2,5\n3,7\n4,9\n")
        res = runner.invoke(
            main,
            ["fit", "--input", str(path), "--response", "y", "--predictors", "x"],
        )
        assert res.exit_code == 2
        assert "line 2" in res.stderr
        assert res.stdout == ""

    def test_unknown_model_name(self, runner):
        res = runner.invoke(main, ["fit", "--dwaine", "--model", "NOPE"])
        assert res.exit_code == 2

    def test_constant_column(self, runner, tmp_path):
        path = write(tmp_path, "y,x\n1,5\n2,5\n3,5\n4,5\n")
        res = runner.invoke(
            main,
            ["fit", "--input", str(path), "--response", "y", "--predictors", "x"],
        )
        assert res.exit_code == 3
        assert res.stderr.startswith("error:")

    @pytest.mark.parametrize("cmd", ("fit", "decompose", "orderings", "venn"))
    def test_collinear_predictors(self, runner, tmp_path, cmd):
        rows = "\n".join(f"{i},{i},{2 * i}" for i in range(1, 9))
        path = write(tmp_path, "y,a,b\n" + rows + "\n")
        res = runner.invoke(
            main,
            [
                cmd,
                "--input", str(path),
                "--response", "y",
                "--predictors", "a,b",
            ],
        )
        assert res.exit_code == 3

    def test_ordering_cap(self, runner, tmp_path):
        data = write_synth(tmp_path / "wide.csv", n=30, p=9)
        preds = ",".join(f"x{i}" for i in range(1, 10))
        res = runner.invoke(
            main,
            [
                "orderings",
                "--input", str(data),
                "--response", "y",
                "--predictors", preds,
            ],
        )
        assert res.exit_code == 4

    def test_ordering_cap_comes_before_an_unknown_model_name(self, runner, tmp_path):
        data = write_synth(tmp_path / "wide.csv", n=30, p=8)
        out = tmp_path / "orderings.json"
        preds = ",".join(f"x{i}" for i in range(1, 9))
        res = runner.invoke(
            main,
            [
                "orderings",
                "--input", str(data),
                "--response", "y",
                "--predictors", preds,
                "--model", preds + ",nope",
                "--format", "json",
                "--out", str(out),
            ],
        )
        assert res.exit_code == 4
        assert res.output == (
            "error: 9 predictors means 9! orderings; exhaustive enumeration is capped at 8 predictors"
            " -- pass explicit orderings instead\n"
        )
        assert not out.exists()

    def test_explicit_order_bypasses_cap(self, runner, tmp_path):
        data = write_synth(tmp_path / "wide.csv", n=30, p=9)
        preds = ",".join(f"x{i}" for i in range(1, 10))
        res = runner.invoke(
            main,
            [
                "orderings",
                "--input", str(data),
                "--response", "y",
                "--predictors", preds,
                "--order", preds,
            ],
        )
        assert res.exit_code == 0

    @pytest.mark.parametrize(
        "order, message",
        [
            ("TARGTPOP,TARGTPOP", "repeats a predictor"),
            ("TARGTPOP", "is not a permutation of ('TARGTPOP', 'DISPOINC')"),
            ("TARGTPOP,SALES", "SALES"),
            (",", "at least one predictor"),
        ],
        ids=["repeat", "missing", "unknown", "empty"],
    )
    def test_order_must_be_permutation(self, runner, order, message):
        # every --order list goes through the library's one ordering check,
        # which the model passes too, before any output
        res = runner.invoke(
            main, ["orderings", "--dwaine", "--order", "TARGTPOP,DISPOINC", "--order", order]
        )
        assert_one_error_line(res)
        assert message in res.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["fit", "--dwaine", "--model", "TARGTPOP,SALES"],
            ["orderings", "--dwaine", "--order", "TARGTPOP,SALES"],
        ],
        ids=["fit-model", "orderings-order"],
    )
    def test_response_named_as_a_predictor(self, runner, args):
        res = runner.invoke(main, args)
        assert_one_error_line(res)
        assert res.stderr == "error: 'SALES' is the response, not a predictor\n"

    def test_unknown_model_name_with_order(self, runner):
        res = runner.invoke(
            main, ["orderings", "--dwaine", "--model", "TARGTPOP,NOPE", "--order", "TARGTPOP"]
        )
        assert_one_error_line(res)
        assert "NOPE" in res.stderr

    def test_svg_is_venn_only(self, runner):
        res = runner.invoke(main, ["fit", "--dwaine", "--format", "svg"])
        assert res.exit_code == 2


class TestOrderingsSharing:
    """All orderings share one subset memo; the output must equal
    independent per-ordering calls byte for byte."""

    def synth(self, tmp_path, p):
        data = write_synth(tmp_path / f"p{p}.csv", n=40, p=p, rho=0.6, seed=3)
        preds = tuple(f"x{i}" for i in range(1, p + 1))
        args = ["--input", str(data), "--response", "y", "--predictors", ",".join(preds)]
        return data, preds, args

    @pytest.mark.parametrize(
        "orders",
        (
            None,
            (
                "x1,x2,x3,x4,x5",
                "x2,x1,x3,x4,x5",
                "x1,x2,x3,x4,x5",
                "x1,x2,x4,x3,x5",
                "x3,x2,x1,x4,x5",
                "x5,x4,x3,x2,x1",
            ),
            # reverse-lexicographic; x5,x4 is left and come back to, and
            # x5,x4,x3,x2,x1 repeated after other orderings
            (
                "x5,x4,x3,x2,x1",
                "x5,x4,x3,x1,x2",
                "x5,x4,x2,x3,x1",
                "x5,x3,x4,x2,x1",
                "x4,x5,x3,x2,x1",
                "x5,x4,x3,x1,x2",
                "x5,x4,x3,x2,x1",
                "x5,x4,x3,x2,x1",
                "x1,x2,x3,x4,x5",
            ),
        ),
    )
    @pytest.mark.parametrize("fmt", ("json", "csv", "text"))
    def test_matches_independent_calls(self, runner, tmp_path, orders, fmt):
        data, preds, args = self.synth(tmp_path, 5)
        flags = [tok for o in orders or () for tok in ("--order", o)]
        res = invoke(runner, "orderings", *args, "--format", fmt, *flags)
        assert res.exit_code == 0

        c = mean_center(load_csv(CsvSpec(data, "y", preds)))
        ordering_list = (
            [tuple(o.split(",")) for o in orders]
            if orders
            else enumerate_orderings(preds)
        )
        assert res.stdout == report_by_ordering(fmt, "y", preds, c, ordering_list)
        if fmt == "json":
            # the stdlib encoder, not the writer under test, is the oracle
            records = records_by_ordering(c, ordering_list)
            payload = orderings_payload("y", preds, fit_ols(c, preds), records)
            assert res.stdout == json.dumps(payload, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("explicit", (False, True), ids=("all", "explicit"))
    @pytest.mark.parametrize("fmt", ("json", "csv", "text"))
    def test_orderings_that_need_other_widths(self, runner, tmp_path, explicit, fmt):
        # names JSON escapes and CSV quotes, and orderings that share a
        # prefix but not their text column widths (conftest.widths_dataset)
        data = tmp_path / "widths.csv"
        save_csv(widths_dataset(), data)
        orders = WIDTH_ORDERS if explicit else enumerate_orderings(WIDTH_NAMES)
        flags = [tok for o in orders for tok in ("--order", ",".join(o))] if explicit else []
        res = invoke(runner, "orderings", "--input", str(data), "--response", "y",
                     "--predictors", ",".join(WIDTH_NAMES), "--format", fmt, *flags)
        assert res.exit_code == 0
        c = mean_center(load_csv(CsvSpec(data, "y", WIDTH_NAMES)))
        assert res.stdout == report_by_ordering(fmt, "y", WIDTH_NAMES, c, orders)
        if fmt != "text":
            # the stdlib writers are the oracles of JSON and CSV
            payload = orderings_payload("y", WIDTH_NAMES, fit_ols(c, WIDTH_NAMES), records_by_ordering(c, orders))
            oracle = json.dumps(payload, indent=2, allow_nan=False) + "\n" if fmt == "json" else orderings_csv(payload)
            assert res.stdout == oracle

    def test_residualizes_each_prefix_once(self, runner, tmp_path, monkeypatch):
        # a prefix's terms come off its Cramer numerators, back-substituted
        # through the exact walk's rows; across all 24 orderings of 4
        # predictors there are 15 distinct prefixes, each back-substituted
        # once, and no decimal solve runs
        _, _, args = self.synth(tmp_path, 4)
        calls = []
        numerators = varpart.ols_core._numerators

        def counted(cols, sub, minors):
            calls.append(sub)
            return numerators(cols, sub, minors)

        monkeypatch.setattr(varpart.ols_core, "_numerators", counted)
        monkeypatch.setattr(varpart.ols_core, "_extend", None)  # any decimal solve would raise TypeError
        res = invoke(runner, "orderings", *args, "--format", "json")
        assert res.exit_code == 0
        # the model's regression reads the numerators of the last prefix
        assert len(calls) == len(set(calls)) == 2**4 - 1

    def test_no_residualized_column_or_n_length_fit(self, runner, tmp_path, monkeypatch):
        # every term is read off the subset memo; the n-length routes stay
        # only as oracles, so the report path must not reach them
        _, _, args = self.synth(tmp_path, 4)
        calls = []

        def spy(module, name):
            original = getattr(module, name)

            def counted(*a, **kw):
                calls.append(name)
                return original(*a, **kw)

            monkeypatch.setattr(module, name, counted)

        spy(varpart.decomposition, "residualize")
        spy(varpart.decomposition, "fit_centered_design")
        spy(varpart.ols_core, "fit_centered_design")
        res = invoke(runner, "orderings", *args, "--format", "json")
        assert res.exit_code == 0
        assert len(json.loads(res.stdout)["orderings"]) == 24
        assert calls == []


class TestEmit:
    """The command's one writer writes each text of the report as it comes,
    to stdout and to ``--out`` alike: the head, a batch of ``_BATCH``
    orderings per write, and the tail."""

    class Recorder:
        """A file that records each text ``writelines`` is given."""

        def __init__(self, fh, writes):
            self.fh, self.writes = fh, writes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def writelines(self, texts):
            for text in texts:
                self.writes.append(text)
                self.fh.write(text)

    @pytest.mark.parametrize("batch", (1, 5, 24, 64))
    @pytest.mark.parametrize("to_file", (False, True), ids=("stdout", "out"))
    def test_a_write_per_batch_of_orderings(self, runner, tmp_path, monkeypatch, to_file, batch):
        # 24 orderings of four predictors: the head, the batches and the tail
        data = write_synth(tmp_path / "p4.csv", n=30, p=4, rho=0.5)
        args = ["orderings", "--input", str(data), "--response", "y",
                "--predictors", "x1,x2,x3,x4", "--format", "json"]
        want = invoke(runner, *args).stdout
        monkeypatch.setattr(report, "_BATCH", batch)
        writes = []
        if to_file:
            out = tmp_path / "out.txt"
            monkeypatch.setattr(
                cli, "open", lambda *a, **kw: self.Recorder(open(*a, **kw), writes),
                raising=False,
            )
            assert invoke(runner, *args, "--out", str(out)).stdout == ""
            assert out.read_text(encoding="utf-8") == want
        else:
            def echo(text, **kwargs):
                assert kwargs == {"nl": False, "color": True}
                writes.append(text)

            monkeypatch.setattr(click, "echo", echo)
            main(args, standalone_mode=False)
        assert len(writes) == 2 + math.ceil(24 / batch)
        assert [text.count('"order"') for text in writes[1:-1]] == [*[batch] * (24 // batch), *[24 % batch] * (24 % batch > 0)]
        assert "".join(writes) == want


# Files with two faults each, with the exit code and the error line of a
# whole-file read (load_csv, then --model, then mean_center): the streamed
# read must report the same fault, whichever block holds it.
TWO_FAULTS = {
    "nan-then-non-numeric": (
        "y,x1,x2\n1,nan,3\n2,5,1\n3,4,4\n4,oops,2\n5,6,8\n", (), 2,
        "line 5, column 'x1': 'oops' is not numeric",
    ),
    "inf-then-ragged": (
        "y,x1,x2\n1,2,3\n2,inf,1\n3,4,4\n4,5\n5,6,8\n", (), 2,
        "line 5: expected at least 3 fields, got 2",
    ),
    "constant-then-non-numeric": (
        "y,x1,x2\n1,7,3\n2,7,1\n3,7,4\n4,7,?\n", (), 2,
        "line 5, column 'x2': '?' is not numeric",
    ),
    "quoted-break-then-non-numeric": (
        'y,x1,x2,note\n1,2,3,"a\nb"\n2,5,1,c\n3,x,4,d\n4,6,2,e\n', (), 2,
        "line 5, column 'x1': 'x' is not numeric",
    ),
    "nan-predictor-inf-response": (
        "y,x1,x2\n1,2,3\n2,nan,1\n3,4,4\ninf,5,2\n5,6,8\n", (), 2,
        "column 'y' contains NaN or infinity",
    ),
    "inf-x2-then-nan-x1": (
        "y,x1,x2\n1,2,3\n2,5,-inf\n3,4,4\n4,nan,2\n5,6,8\n", (), 2,
        "column 'x1' contains NaN or infinity",
    ),
    "huge-then-nan": (
        "y,x1,x2\n1,1e200,3\n2,5,1\n3,4,nan\n4,6,2\n", (), 2,
        "column 'x2' contains NaN or infinity",
    ),
    "nan-and-too-few-rows": (
        "y,x1,x2\n1,2,nan\n2,5,1\n", (), 2,
        "column 'x2' contains NaN or infinity",
    ),
    "quoted-nan-and-constant": (
        'y,x1,x2\n"1",7,3\n2,7,nan\n3,7,4\n4,7,2\n', (), 2,
        "column 'x2' contains NaN or infinity",
    ),
    "too-few-rows-and-constant": (
        "y,x1,x2\n1,7,3\n2,7,1\n3,7,4\n", (), 2,
        "need at least p + 2 = 4 observations, got 3",
    ),
    "constant-and-huge": (
        "y,x1,x2\n1,7,3\n2,7,1e200\n3,7,4\n4,7,2\n", (), 3,
        "column 'x1' is constant (sample sd = 0)",
    ),
    "constant-response-and-predictor": (
        "y,x1,x2\n1,2,3\n1,5,3\n1,4,3\n1,6,3\n", (), 3,
        "column 'x2' is constant (sample sd = 0)",
    ),
    "overflow-x1-and-huge-x2": (
        "y,x1,x2\n1,1e160,3\n2,-2e160,1e200\n3,5e159,4\n4,1e159,2\n", (), 3,
        "column 'x2': cross-products overflow float64 (rescale the column)",
    ),
    "overflow-x1-and-huge-response": (
        "y,x1,x2\n1,1e160,3\n2,-2e160,1\n3e181,5e159,4\n4,1e159,2\n", (), 3,
        "column 'y': cross-products overflow float64 (rescale the column)",
    ),
    "underflow-x1-and-overflow-response": (
        "y,x1,x2\n1e160,1e-163,1\n-2e160,-2e-163,3\n4,3e-163,2\n3,5e-163,7\n7,-1e-163,1\n", (), 3,
        "column 'x1': cross-products underflow float64 (rescale the column)",
    ),
    "constant-and-repeated-model": (
        "y,x1,x2\n1,7,3\n2,7,1e200\n3,7,4\n4,7,2\n", ("--model", "x1,x1"), 2,
        "--model names a predictor twice",
    ),
    "overflow-and-empty-model": (
        "y,x1,x2\n1,1e160,3\n2,-2e160,1e200\n3,5e159,4\n4,1e159,2\n", ("--model", ""), 2,
        "--model must name at least one predictor",
    ),
    "non-numeric-and-empty-model": (
        "y,x1,x2\n1,nan,3\n2,5,1\n3,4,4\n4,oops,2\n5,6,8\n", ("--model", ""), 2,
        "line 5, column 'x1': 'oops' is not numeric",
    ),
}


class TestStreamedInput:
    """--input is folded into the exact SSCP as it is read, keeping no rows."""

    @pytest.mark.parametrize("block", [1, 2, 1 << 14])
    @pytest.mark.parametrize("case", list(TWO_FAULTS))
    def test_first_of_two_faults_is_reported(self, runner, tmp_path, monkeypatch, case, block):
        text, model, code, error = TWO_FAULTS[case]
        path = write(tmp_path, text)
        monkeypatch.setattr(varpart.ols_core, "_BLOCK", block)
        res = runner.invoke(
            main,
            ["decompose", "--input", str(path), "--response", "y", "--predictors", "x1,x2", *model],
        )
        assert (res.exit_code, res.stderr, res.stdout) == (code, f"error: {error}\n", "")

    def test_input_is_parsed_block_by_block_into_no_dataset(self, runner, tmp_path, monkeypatch):
        rows = "\n".join(f"{i % 7 - 2.5},{i * i % 11},{(3 * i) % 5 + 0.25}" for i in range(20))
        path = write(tmp_path, "y,a,b\n" + rows + "\n")
        args = ["decompose", "--input", str(path), "--response", "y", "--predictors", "a,b",
                "--format", "json"]
        want = invoke(runner, *args).stdout

        def no_dataset(self):
            raise AssertionError("a Dataset was built")

        loadtxt, sources, rows = np.loadtxt, [], []

        def spy(source, *a, **kw):
            sources.append(source)
            table = loadtxt(source, *a, **kw)
            rows.append(len(table))
            return table

        monkeypatch.setattr(varpart.ols_core, "_BLOCK", 3)
        monkeypatch.setattr(varpart.ols_core.Dataset, "__post_init__", no_dataset)
        monkeypatch.setattr(np, "loadtxt", spy)
        res = invoke(runner, *args)
        assert res.exit_code == 0 and res.stdout == want
        # at most a block of rows a call, then one empty call at end of file
        assert rows == [3, 3, 3, 3, 3, 3, 2, 0]
        assert not any(isinstance(src, list) for src in sources)


class TestEntry:
    """A CLI process freezes its imported heap before click parses; library
    calls of ``main`` leave the collector as it is."""

    def test_library_calls_do_not_freeze(self, runner):
        before = gc.get_freeze_count()
        assert invoke(runner, "fit", "--dwaine").exit_code == 0
        main(["fit", "--dwaine"], standalone_mode=False)
        assert gc.get_freeze_count() == before

    def test_entry_freezes_before_main(self):
        code = (
            "import gc, varpart.cli as cli\n"
            "print(gc.get_freeze_count())\n"
            "cli.main = lambda: print(gc.get_freeze_count())\n"
            "cli.entry()\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        before, during = map(int, proc.stdout.split())
        assert before == 0 and during > 0

    def test_module_and_script_run_the_entry(self):
        source = Path(cli.__file__).read_text(encoding="utf-8")
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        (module,) = re.findall(r'^if __name__ == "__main__":\n    (\w+)\(\)$', source, re.M)
        (script,) = re.findall(r'^varpart = "varpart\.cli:(\w+)"$', pyproject, re.M)
        assert module == script == cli.entry.__name__


class TestRealProcess:
    """One end-to-end pass through the actual interpreter exit path."""

    def run(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "varpart.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_success_matches_golden(self):
        proc = self.run("fit", "--dwaine")
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "fit_dwaine.txt").read_text()
        assert proc.stderr == ""

    def test_header_only_file_prints_one_error_line(self, tmp_path):
        path = write(tmp_path, "y,x\n")
        proc = self.run(
            "fit", "--input", str(path), "--response", "y", "--predictors", "x"
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "text",
        ["y,x\n1,2\n3," + "1" * 200_001 + "\n4,oops\n", "y," + "x" * 200_001 + "\n1,2\n"],
        ids=["cell", "header"],
    )
    def test_field_over_csv_limit_prints_one_error_line(self, tmp_path, text):
        path = write(tmp_path, text)
        proc = self.run(
            "fit", "--input", str(path), "--response", "y", "--predictors", "x"
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "line " in proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "cmd, fmt",
        [
            pytest.param("fit", "csv", id="csv"),
            pytest.param("fit", "text", id="text"),
            pytest.param("orderings", "json", id="orderings-json"),
            pytest.param("orderings", "csv", id="orderings-csv"),
            pytest.param("orderings", "text", id="orderings-text"),
        ],
    )
    def test_stdout_bytes_equal_out_file_bytes(self, tmp_path, cmd, fmt):
        # click strips ANSI escape sequences off text bound for a pipe; the
        # 720 orderings of six predictors are written in 23 batches
        name = "\x1b[31mx1\x1b[0m"
        names = [name, *(f"x{i}" for i in range(2, 7))]
        x = np.random.default_rng(3).standard_normal((12, 7))  # response, predictors
        rows = "".join(",".join(map(str, r.tolist())) + "\n" for r in x)
        path = write(tmp_path, f"y,{','.join(names)}\n{rows}")
        out = tmp_path / "out.txt"
        args = [sys.executable, "-m", "varpart.cli", cmd, "--input", str(path),
                "--response", "y", "--predictors", ",".join(names), "--format", fmt]
        piped = subprocess.run(args, capture_output=True)
        assert subprocess.run([*args, "--out", str(out)]).returncode == 0
        shown = json.dumps(name) if fmt == "json" else name
        assert piped.returncode == 0 and shown.encode() in piped.stdout
        assert piped.stdout == out.read_bytes()
        if cmd == "orderings":  # all 720 orderings, in several writes
            lines = piped.stdout.splitlines()
            count = {
                "json": lines.count(b'      "order": ['),
                "text": sum(ln.startswith(b"Ordering: ") for ln in lines),
                "csv": len({ln.split(b",")[0] for ln in lines if ln.startswith(b"order:")}),
            }[fmt]
            assert count == 720

    def test_closed_stdout_exits_1_with_no_message(self, tmp_path):
        # the reader stops after 100 bytes, as `| head -c 100` does, of the
        # 1.5 MB of JSON of 720 orderings: click's own EPIPE exit, not an
        # input error
        data = write_synth(tmp_path / "p6.csv", n=200, p=6, rho=0.6)
        proc = subprocess.Popen(
            [sys.executable, "-m", "varpart.cli", "orderings", "--input", str(data),
             "--response", "y", "--predictors", "x1,x2,x3,x4,x5,x6", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""

    @pytest.mark.parametrize("fmt", ("json", "text", "csv"))
    def test_failed_orderings_create_no_out_file(self, tmp_path, fmt):
        # every ordering is checked and the model fitted before any output
        rows = "".join(f"{i},{i},{2 * i},{i % 3}\n" for i in range(1, 9))
        path = write(tmp_path, "y,a,b,c\n" + rows)
        out = tmp_path / "out.txt"
        proc = self.run("orderings", "--input", str(path), "--response", "y",
                        "--predictors", "a,b,c", "--format", fmt, "--out", str(out))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert proc.stdout == ""
        assert not out.exists()

    def test_usage_error_prints_one_error_line(self):
        proc = self.run("fit", "--dwaine", "--model", "TARGTPOP,TARGTPOP")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize("cmd", ("fit", "decompose", "orderings", "venn"))
    def test_empty_out_path_prints_one_error_line(self, cmd):
        # as an unset shell variable gives it: a path that cannot be opened,
        # not stdout
        proc = self.run(cmd, "--dwaine", "--out", "")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
        assert proc.stdout == ""

    def test_unknown_flag_keeps_clicks_usage_block(self):
        proc = self.run("fit", "--dwaine", "--no-such-flag")
        assert proc.returncode == 2
        assert proc.stderr.startswith("Usage:")
        assert "No such option" in proc.stderr

    def test_singular_exit_code(self, tmp_path):
        path = write(tmp_path, "y,x\n1,5\n2,5\n3,5\n4,5\n")
        proc = self.run(
            "fit", "--input", str(path), "--response", "y", "--predictors", "x"
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_overflowing_cross_products_print_one_error_line(self, tmp_path):
        path = write(tmp_path, "y,x1,x2\n1,1e160,3\n2,-2e160,1\n3,5e159,4\n4,1e159,1\n")
        proc = self.run(
            "decompose", "--input", str(path), "--response", "y", "--predictors", "x1,x2"
        )
        assert proc.returncode == 3
        assert proc.stderr == (
            "error: column 'x1': cross-products overflow float64 (rescale the column)\n"
        )
        assert proc.stdout == ""

    def test_invalid_utf8_prints_one_error_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"y,x\n1,2\n2,3\n3,\xff5\n4,4\n")
        proc = self.run("fit", "--input", str(path), "--response", "y", "--predictors", "x")
        assert proc.returncode == 2
        assert proc.stderr == "error: line 4: byte 0xff is not valid UTF-8\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("module", ["varpart", "varpart.cli"])
    def test_import_leaves_scipy_optimize_unloaded(self, module):
        code = f"import sys, {module}; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "False\n"

    def test_scipy_is_never_loaded(self):
        # scipy is not a dependency: neither the import nor an SVG render loads it
        code = (
            "import sys\n"
            "import varpart.cli\n"
            "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules))\n"
            "from click.testing import CliRunner\n"
            "res = CliRunner().invoke(varpart.cli.main, ['venn', '--dwaine', '--format', 'svg'])\n"
            "print(res.exit_code, res.output.startswith('<?xml'))\n"
            "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "False\n0 True\nFalse\n"
