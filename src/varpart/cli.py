"""Command-line interface.

Four subcommands share the input options: ``fit`` (ANOVA table and
coefficients), ``decompose`` (traditional vs corrected side by side),
``orderings`` (per-ordering Type I tables with orthogonal-function fits),
and ``venn`` (region accounting, optionally as a proportional-area SVG).

Exit codes: 0 success, 1 stdout closed early (click's own EPIPE exit, with
no message), 2 input or usage error, 3 degenerate design (constant column,
collinear predictors, or cross-products that overflow float64), 4
ordering-cap exceeded. Every failure the commands detect prints a one-line
``error:`` diagnostic to stderr; an option click itself cannot parse, such
as an unknown flag, gets click's usage block (exit 2).
"""

from __future__ import annotations

import gc
import sys
from typing import Iterable, NoReturn

import click

from .data_io import CsvSpec, center_csv, dwaine_fixture
from .decomposition import compare_report, ordering_walk, residualized_simple_fits, venn_regions
from .errors import ConstantColumn, SingularDesign, TooManyOrderings, VarpartError
from .ols_core import CenteredData, fit_ols, mean_center
from .report import decompose_payload, fit_payload, render_orderings, render_payload, venn_payload
from .venn_svg import render_venn_svg

_EXIT_INPUT = 2
_EXIT_SINGULAR = 3
_EXIT_ORDERINGS = 4


def _split(csv_arg: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in csv_arg.split(",") if tok.strip())


def _input_options(fn):
    opts = [
        click.option(
            "--dwaine",
            "use_dwaine",
            is_flag=True,
            help="Use the built-in 21-city portrait-studio dataset.",
        ),
        click.option(
            "--input",
            "input_path",
            type=click.Path(),
            default=None,
            help="CSV file to read (first row is the header).",
        ),
        click.option("--response", default=None, help="Response column name."),
        click.option(
            "--predictors",
            default=None,
            help="Comma-separated predictor column names.",
        ),
        click.option(
            "--delimiter",
            default=",",
            show_default=True,
            help="Field delimiter of the input CSV.",
        ),
        click.option(
            "--model",
            "model_arg",
            default=None,
            help="Comma-separated predictors to fit (default: all predictors).",
        ),
        click.option(
            "--out",
            "out_path",
            type=click.Path(),
            default=None,
            help="Write output to this file instead of stdout.",
        ),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _format_option(choices):
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(choices),
        default="text",
        show_default=True,
        help="Output format.",
    )


def _center(use_dwaine, input_path, response, predictors, delimiter) -> CenteredData:
    """The centred input: the fixture, or a CSV folded as it is read."""
    if use_dwaine:
        if input_path or response or predictors:
            _fail(
                "--dwaine cannot be combined with --input/--response/--predictors",
                _EXIT_INPUT,
            )
        return mean_center(dwaine_fixture())
    if not input_path:
        _fail("provide --dwaine, or --input with --response and --predictors", _EXIT_INPUT)
    if not response or not predictors:
        _fail("--input requires --response and --predictors", _EXIT_INPUT)
    return center_csv(
        CsvSpec(
            path=input_path,
            response=response,
            predictors=_split(predictors),
            delimiter=delimiter,
        )
    )


def _model_names(predictor_names: tuple[str, ...], model_arg) -> tuple[str, ...]:
    if model_arg is None:
        return predictor_names
    names = _split(model_arg)
    if not names:
        _fail("--model must name at least one predictor", _EXIT_INPUT)
    if len(set(names)) != len(names):
        _fail("--model names a predictor twice", _EXIT_INPUT)
    return names


def _emit(texts: Iterable[str], out_path) -> None:
    """Write each text as it comes to ``out_path`` or stdout: a command's one
    text, or the orderings report's head, batches of orderings and tail."""
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    else:
        for text in texts:
            # color=True: click would strip ANSI escape sequences off a non-terminal
            click.echo(text, nl=False, color=True)


def _run(body) -> None:
    try:
        body()
    except (ConstantColumn, SingularDesign) as exc:
        _fail(exc, _EXIT_SINGULAR)
    except TooManyOrderings as exc:
        _fail(exc, _EXIT_ORDERINGS)
    except BrokenPipeError:
        raise  # click exits 1 and silences the final flush
    except (VarpartError, OSError, ValueError) as exc:
        _fail(exc, _EXIT_INPUT)


def _fail(reason, code: int) -> NoReturn:
    """Print one ``error:`` line to stderr and exit with ``code``."""
    click.echo(f"error: {reason}", err=True)
    sys.exit(code)


@click.group()
def main():
    """Variance decomposition for least-squares models with correlated predictors."""


def _analysis(*formats):
    """Register a subcommand on the shared input, --format and --out options.

    The decorated ``fn(c, model, fmt, **options)`` receives the centred
    input and the model, and returns the text to emit as an iterable of
    texts: a one-text tuple, or the orderings report's texts.
    """

    def register(fn):
        def command(use_dwaine, input_path, response, predictors, delimiter, model_arg,
                    out_path, fmt, **options):
            def body():
                try:
                    c = _center(use_dwaine, input_path, response, predictors, delimiter)
                except (ConstantColumn, SingularDesign):
                    # --model is checked before the design, once the rows are read
                    _model_names((), model_arg)
                    raise
                model = _model_names(c.predictor_names, model_arg)
                _emit(fn(c, model, fmt, **options), out_path)

            _run(body)

        command.__click_params__ = getattr(fn, "__click_params__", [])
        command = _input_options(_format_option(list(formats))(command))
        return main.command(name=fn.__name__, help=fn.__doc__)(command)

    return register


@_analysis("text", "json", "csv")
def fit(c, model, fmt):
    """ANOVA table and coefficients of one least-squares fit."""
    return (render_payload(fit_payload(fit_ols(c, model), c.response_name), fmt),)


@_analysis("text", "json", "csv")
def decompose(c, model, fmt):
    """Traditional summary next to the partial-SS decomposition."""
    rep = compare_report(c, model, orderings=())
    fits = residualized_simple_fits(c, model)
    return (render_payload(decompose_payload(rep, fits, c.response_name), fmt),)


@_analysis("text", "json", "csv")
@click.option(
    "--order",
    "orders",
    multiple=True,
    help="Explicit ordering, comma-separated; repeatable. Default: all orderings.",
)
def orderings(c, model, fmt, orders):
    """Sequential (Type I) SS and the orthogonal-function fit per ordering."""
    # every --order list is checked and the model fitted before any output;
    # the walk solves each prefix set lazily, under that one fit's guard
    walk = ordering_walk(c, model, map(_split, orders) if orders else None)
    return render_orderings(fmt, c.response_name, model, walk)


@_analysis("text", "json", "csv", "svg")
def venn(c, model, fmt):
    """Variance regions: unique per predictor, common, residual, missing."""
    v = venn_regions(c, model)
    if fmt == "svg":
        return (render_venn_svg(v, model, c.response_name),)
    return (render_payload(venn_payload(v, c.response_name, model, c.n), fmt),)


def entry() -> None:
    """Run the CLI as its own process: ``python -m varpart.cli`` and the
    ``varpart`` script.

    What is imported by now (numpy, click, varpart) lives until the process
    exits, so it is frozen first: the collector no longer scans it, during
    the command or at interpreter exit. Library calls of ``main``, as in
    tests, do not freeze, since a freeze keeps every object alive then,
    garbage of earlier calls included, for the rest of the process.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    entry()
