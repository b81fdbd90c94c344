"""Dataset ingestion: CSV files, the built-in fixture, synthetic generation.

CSV parsing is strict about the columns it is asked for and indifferent to
the rest. The synthetic generator draws correlated normal predictors from
an explicitly seeded PCG64 stream (``numpy.random.default_rng``), whose
output is stable across platforms, so property tests are reproducible.
"""

from __future__ import annotations

import csv
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptyData,
    InvalidDataset,
    MissingColumn,
    NonNumericCell,
    NotPositiveSemidefinite,
    ParseError,
)
from . import ols_core
from .ols_core import CenteredData, Dataset, _centered, _check_predictor_names, _Fold, _readonly

# Eigenvalues of a correlation matrix this far below zero (relative to the
# largest) are treated as rank deficiency, not as a PSD violation.
_PSD_SLACK = 1e-10


@dataclass(frozen=True)
class CsvSpec:
    """Which file to read and which columns matter.

    The decimal separator is fixed to '.'; only the field delimiter is
    configurable.
    """

    path: str | Path
    response: str
    predictors: tuple[str, ...]
    delimiter: str = ","

    def __post_init__(self) -> None:
        object.__setattr__(self, "predictors", tuple(self.predictors))
        if not self.predictors:
            raise InvalidDataset("at least one predictor column is required")
        _check_predictor_names(self.predictors)
        if len(set(self.predictors)) != len(self.predictors):
            raise InvalidDataset("predictor names must be distinct")
        if self.response in self.predictors:
            raise InvalidDataset(
                f"response {self.response!r} cannot also be a predictor"
            )
        _check_delimiter(self.delimiter)


def _check_delimiter(delimiter: str) -> None:
    """Raise ValueError unless no quote, line break or number can hold ``delimiter``."""
    if len(delimiter) != 1:
        raise ValueError("delimiter must be a single character")
    if delimiter in '"\r\n':
        raise ValueError("delimiter cannot be the quote character or a line break")
    if delimiter in "0123456789+-.eEnNaAiIfFtTyY":  # float syntax, nan, infinity
        raise ValueError(f"delimiter {delimiter!r} can occur in a number")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded dataset with a chosen predictor correlation.

    ``correlation`` must be symmetric with unit diagonal and positive
    semidefinite; singular-but-PSD matrices (e.g. r = 1) are accepted, and
    the resulting collinear dataset fails later, at fit time.
    """

    n: int
    p: int
    correlation: np.ndarray
    signal_coefficients: np.ndarray
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        corr = _readonly(self.correlation)
        coef = _readonly(self.signal_coefficients)
        object.__setattr__(self, "correlation", corr)
        object.__setattr__(self, "signal_coefficients", coef)
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if self.n < self.p + 2:
            raise ValueError(f"need n >= p + 2, got n={self.n}, p={self.p}")
        if corr.shape != (self.p, self.p):
            raise ValueError(f"correlation must be {self.p}x{self.p}")
        if coef.shape != (self.p,):
            raise ValueError(f"signal_coefficients must have length {self.p}")
        for name, value in (("correlation", corr), ("signal_coefficients", coef), ("noise_sd", self.noise_sd)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if not np.all(np.abs(corr - corr.T) <= 1e-12):
            raise ValueError("correlation matrix must be symmetric")
        if not np.all(np.abs(np.diag(corr) - 1.0) <= 1e-12):
            raise ValueError("correlation matrix must have unit diagonal")
        if not self.noise_sd > 0.0:
            raise ValueError("noise_sd must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


def load_csv(spec: CsvSpec) -> Dataset:
    """Read the selected columns of a delimited text file into a Dataset.

    The first row is the header; line numbers in errors are 1-based file
    lines, so the first data row is line 2. Unselected columns are never
    parsed. Blank lines are skipped. A leading UTF-8 byte-order mark is
    dropped, so it does not become part of the first header name.

    A numeric cell is plain ASCII float syntax with optional surrounding
    whitespace: a sign, digits with an optional point, an optional
    exponent, or ``nan``, ``inf`` or ``infinity`` in any case. Digit
    underscores (``3_0``) and non-ASCII digits are rejected, although
    Python's ``float()`` accepts them. Cells may be quoted with ``"``.

    The numbers are parsed by numpy's C reader straight from the open
    file, up to ``_BLOCK`` rows a call, and by nothing else. If numpy
    rejects the file, a strict pass reads it again cell by cell only to
    raise its fault with the line number (``ParseError``, also for a byte
    that is not UTF-8 in any field, or ``NonNumericCell``); if that pass
    finds none, numpy's own ValueError is raised.
    """
    columns = _read_columns(spec)
    if len(columns[0]) == 0:
        raise _no_rows(spec)
    return Dataset(
        columns=tuple(zip((spec.response, *spec.predictors), columns)),
        response_name=spec.response,
        predictor_names=spec.predictors,
    )


def center_csv(spec: CsvSpec) -> CenteredData:
    """``mean_center(load_csv(spec))``, with the same result and the same
    errors, keeping no rows: each block of rows is folded into the exact
    SSCP as numpy parses it, so memory is O(p**2 + ``_BLOCK``) at any number
    of rows, and the result's ``data`` is None.

    The checks on the values run once the file is read, so an input with
    several faults reports the one load_csv and mean_center would: a parse
    error, then EmptyData, NonFiniteValue, InvalidDataset (n < p + 2),
    ConstantColumn and SingularDesign.
    """
    fold = _Fold((*spec.predictors, spec.response))
    _parse(spec, fold.names, fold.add)
    if not fold.n:
        raise _no_rows(spec)
    return _centered(fold, spec.response, spec.predictors)


def _no_rows(spec: CsvSpec) -> EmptyData:
    return EmptyData(f"{spec.path}: no data rows after the header")


def _read_columns(spec: CsvSpec) -> list:
    """The selected columns, response first, as load_csv parses them."""
    names = (spec.response, *spec.predictors)
    blocks: list[np.ndarray] = []
    _parse(spec, names, blocks.append, blocks.clear)
    return list(np.concatenate(blocks or [np.empty((len(names), 0))], axis=1))


def _parse(
    spec: CsvSpec, names: Sequence[str], add: Callable[[np.ndarray], None],
    drop: Callable[[], None] = lambda: None,
) -> None:
    """Feed ``add`` the columns ``names`` as C-contiguous k x m float64 blocks
    of 1 <= m <= ``_BLOCK`` rows, each one numpy call on the open file, which
    takes no line past the block's last row (so a quoted field may hold a
    line break). If numpy rejects a block, ``drop`` releases the blocks that
    ``add`` kept, then the strict pass raises the file's fault with its
    line, or numpy's ValueError is raised if it finds none."""
    try:
        with _open(spec) as fh:
            idx = _read_header(csv.reader(fh, delimiter=spec.delimiter), spec)
            position = dict(zip((spec.response, *spec.predictors), idx))
            usecols = [position[nm] for nm in names]
            while len(table := _loadtxt(fh, spec, usecols, ols_core._BLOCK)):
                # .T.copy() is C-ordered: F order slows the fold threefold.
                # ``block`` outlives the next parse, or malloc returns its
                # pages and faults them in again: 3.6 times the page faults
                add(block := table.T.copy())
        return
    except ValueError as exc:  # numpy's, as add raises nothing
        # no traceback frame, nor a local, keeps a block alive in the strict pass
        error, table, block = exc.with_traceback(None), None, None
    drop()  # the caller keeps what ``add`` kept until this call returns
    _strict_pass(spec)
    raise error


def _open(spec: CsvSpec, errors: str = "strict"):
    return open(spec.path, newline="", encoding="utf-8-sig", errors=errors)


def _loadtxt(source, spec: CsvSpec, usecols: list[int], max_rows: int) -> np.ndarray:
    """numpy's C reader over an iterable of lines: one row per parsed row,
    up to ``max_rows`` rows, one column per entry of ``usecols``."""
    with warnings.catch_warnings():
        # no rows (a header-only file, a block of blank lines) is no warning,
        # nor is a blank line that does not count towards max_rows
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("ignore", "Input line .* contained no data", UserWarning)
        return np.loadtxt(
            source,
            delimiter=spec.delimiter,
            usecols=usecols,
            comments=None,
            quotechar='"',
            ndmin=2,
            dtype=np.float64,
            max_rows=max_rows,
        )


def _read_header(reader, spec: CsvSpec) -> list[int]:
    """Header positions of the selected columns, response first."""
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyData(f"{spec.path}: file is empty") from None
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(reader.line_num, str(exc)) from None
    _check_decoded(reader.line_num, header)

    wanted = (spec.response, *spec.predictors)
    positions: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in positions and name in wanted:
            raise ParseError(1, f"duplicate column {name!r} in header")
        positions.setdefault(name, i)
    for name in wanted:
        if name not in positions:
            raise MissingColumn(name)
    return [positions[name] for name in wanted]


def _strict_pass(spec: CsvSpec) -> None:
    """Raise the file's first fault with its line: a short row, a byte that is
    not UTF-8, a cell ``_parse_cell`` rejects. Keeps no value of any row."""
    with _open(spec, "surrogateescape") as fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        idx = _read_header(reader, spec)
        wanted = tuple(zip((spec.response, *spec.predictors), idx))
        try:
            for row in reader:
                if not row:
                    continue
                line = reader.line_num
                _check_decoded(line, row)
                if max(idx) >= len(row):
                    raise ParseError(
                        line, f"expected at least {max(idx) + 1} fields, got {len(row)}"
                    )
                for name, j in wanted:
                    try:
                        _parse_cell(row[j])
                    except ValueError:
                        raise NonNumericCell(line, name, row[j]) from None
        except csv.Error as exc:
            raise ParseError(reader.line_num, str(exc)) from None


def _check_decoded(line: int, row: list[str]) -> None:
    """Raise ParseError if a field of ``row`` holds a byte that is not UTF-8,
    which the strict pass reads as a lone surrogate."""
    if not (text := "".join(row)).isascii() and (bad := re.search("[\udc80-\udcff]", text)):
        raise ParseError(line, f"byte {ord(bad[0]) - 0xDC00:#04x} is not valid UTF-8")


def _parse_cell(cell: str) -> float:
    """``float(cell)`` limited to the syntax numpy's C reader accepts.

    Both strip Unicode whitespace and hand the rest to the same
    decimal-to-binary conversion; ``float()`` alone would also take digit
    underscores and non-ASCII digits.
    """
    text = cell.strip()
    if "_" in text or not text.isascii():
        raise ValueError(f"not plain ASCII float syntax: {cell!r}")
    return float(text)


def save_csv(d: Dataset, path: str | Path, delimiter: str = ",") -> None:
    """Write every column of a Dataset as CSV at full precision.

    Floats are written with ``repr``, which round-trips exactly, so loading
    the file back reproduces the values bit for bit.
    """
    _check_delimiter(delimiter)
    arrays = [col for _, col in d.columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow([name for name, _ in d.columns])
        for i in range(d.n):
            writer.writerow([repr(float(col[i])) for col in arrays])


# 21 photo-portrait city observations: target population (thousands),
# per-capita disposable income (thousands of dollars), sales (thousands
# of dollars). Transcribed from the applied-regression textbook they were
# published in; the test suite pins their cross-product matrix so a
# transcription slip cannot pass silently.
_DWAINE_ROWS = (
    (68.5, 16.7, 174.4),
    (45.2, 16.8, 164.4),
    (91.3, 18.2, 244.2),
    (47.8, 16.3, 154.6),
    (46.9, 17.3, 181.6),
    (66.1, 18.2, 207.5),
    (49.5, 15.9, 152.8),
    (52.0, 17.2, 163.2),
    (48.9, 16.6, 145.4),
    (38.4, 16.0, 137.2),
    (87.9, 18.3, 241.9),
    (72.8, 17.1, 191.1),
    (88.4, 17.4, 232.0),
    (42.9, 15.8, 145.3),
    (52.5, 17.8, 161.1),
    (85.7, 18.4, 209.7),
    (41.3, 16.5, 146.4),
    (51.7, 16.3, 144.0),
    (89.6, 18.1, 232.6),
    (82.7, 19.1, 224.1),
    (52.3, 16.0, 166.5),
)


def dwaine_fixture() -> Dataset:
    """The 21-city portrait-studio dataset used throughout the docs."""
    a = np.array(_DWAINE_ROWS)
    return Dataset(
        columns=(
            ("TARGTPOP", a[:, 0]),
            ("DISPOINC", a[:, 1]),
            ("SALES", a[:, 2]),
        ),
        response_name="SALES",
        predictor_names=("TARGTPOP", "DISPOINC"),
    )


def _symmetric_sqrt(corr: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(corr)
    if evals[0] < -_PSD_SLACK * max(1.0, float(evals[-1])):
        raise NotPositiveSemidefinite(
            f"correlation matrix has negative eigenvalue {evals[0]:.3e}"
        )
    return (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.T


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Draw a dataset with the requested predictor correlation structure.

    Predictors are standard normals mixed through the symmetric square
    root of the correlation matrix; the response is the signal combination
    plus N(0, noise_sd^2) noise. A fixed seed gives a bit-identical
    Dataset on every platform.
    """
    root = _symmetric_sqrt(spec.correlation)
    rng = np.random.default_rng(spec.seed)
    x = rng.standard_normal((spec.n, spec.p)) @ root
    y = x @ spec.signal_coefficients + spec.noise_sd * rng.standard_normal(spec.n)
    names = tuple(f"x{j + 1}" for j in range(spec.p))
    return Dataset(
        columns=tuple((nm, x[:, j]) for j, nm in enumerate(names)) + (("y", y),),
        response_name="y",
        predictor_names=names,
    )


def exchangeable_correlation(p: int, rho: float) -> np.ndarray:
    """Unit-diagonal matrix with a single off-diagonal value everywhere."""
    m = np.full((p, p), float(rho))
    np.fill_diagonal(m, 1.0)
    return m
