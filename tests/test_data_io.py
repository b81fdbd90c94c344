import csv
import re
import tracemalloc
import warnings
from itertools import count
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import varpart.ols_core
from varpart import (
    CsvSpec,
    SyntheticSpec,
    center_csv,
    dwaine_fixture,
    exchangeable_correlation,
    fit_ols,
    generate_synthetic,
    load_csv,
    mean_center,
    residualize,
    save_csv,
)
from varpart import data_io
from varpart.cli import main
from varpart.errors import (
    EmptyData,
    InvalidDataset,
    MissingColumn,
    NonNumericCell,
    NotPositiveSemidefinite,
    ParseError,
    RowsNotKept,
    SingularDesign,
    UnknownName,
    VarpartError,
)

from conftest import make_dataset


# every character a numeric cell can hold: float syntax, nan, inf, infinity
NUMBER_CHARS = "0123456789+-.eEnNaAiIfFtTyY"
# rows per chunk that the exact SSCP slices on one grid
FOLD = varpart.ols_core._FOLD


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestCsvSpec:
    def test_requires_predictors(self, tmp_path):
        with pytest.raises(InvalidDataset):
            CsvSpec(tmp_path / "f.csv", "y", ())

    def test_rejects_duplicate_predictors(self, tmp_path):
        with pytest.raises(InvalidDataset):
            CsvSpec(tmp_path / "f.csv", "y", ("a", "a"))

    def test_rejects_response_among_predictors(self, tmp_path):
        with pytest.raises(InvalidDataset):
            CsvSpec(tmp_path / "f.csv", "y", ("y", "a"))

    @pytest.mark.parametrize("name", ["", "a,b", "a|b"])
    def test_rejects_a_predictor_name_term_labels_could_not_read_back(self, tmp_path, name):
        with pytest.raises(InvalidDataset, match=r"is empty or holds ',' or '\|', which term labels use$"):
            CsvSpec(tmp_path / "f.csv", "y", ("c", name))
        CsvSpec(tmp_path / "f.csv", "y,z|w", ("c",))

    def test_rejects_multichar_delimiter(self, tmp_path):
        with pytest.raises(ValueError):
            CsvSpec(tmp_path / "f.csv", "y", ("a",), delimiter=",,")

    def test_rejects_comma_decimal(self, tmp_path):
        # the decimal separator is always '.'; there is no setting for it
        with pytest.raises(TypeError):
            CsvSpec(tmp_path / "f.csv", "y", ("a",), decimal=",")
        path = write(tmp_path, "y;a\n1,5;2\n2;3\n3;4\n4;6\n")
        with pytest.raises(NonNumericCell) as exc:
            load_csv(CsvSpec(path, "y", ("a",), delimiter=";"))
        assert exc.value.line == 2

    @pytest.mark.parametrize("delimiter", ['"', "\n", "\r"])
    def test_rejects_quote_and_line_break_delimiters(self, tmp_path, delimiter):
        with pytest.raises(ValueError):
            CsvSpec(tmp_path / "f.csv", "y", ("a",), delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", list(NUMBER_CHARS))
    def test_rejects_a_delimiter_a_number_can_hold(self, tmp_path, dwaine, delimiter):
        # 'y.x' then '1.5' split at '.' would read y = 1 and x = 5
        with pytest.raises(ValueError, match="can occur in a number"):
            CsvSpec(tmp_path / "f.csv", "y", ("x",), delimiter=delimiter)
        with pytest.raises(ValueError, match="can occur in a number"):
            save_csv(dwaine, tmp_path / "d.csv", delimiter=delimiter)
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("delimiter", [",", ";", "\t", " ", "|"])
    def test_accepts_the_delimiters_the_fuzz_uses(self, tmp_path, delimiter):
        assert CsvSpec(tmp_path / "f.csv", "y", ("x",), delimiter=delimiter).delimiter == delimiter


class TestLoadCsv:
    def test_columns_come_back_response_first(self, tmp_path):
        path = write(tmp_path, "a,y,b\n1,10,4\n2,20,5\n3,30,6\n4,40,7\n")
        ds = load_csv(CsvSpec(path, "y", ("b", "a")))
        assert [name for name, _ in ds.columns] == ["y", "b", "a"]
        np.testing.assert_array_equal(ds.column("y"), [10.0, 20.0, 30.0, 40.0])
        np.testing.assert_array_equal(ds.column("b"), [4.0, 5.0, 6.0, 7.0])
        assert ds.n == 4 and ds.p == 2

    def test_quoted_cells_and_semicolon_delimiter(self, tmp_path):
        path = write(tmp_path, 'y;x\n"1.5";2\n"2.5";3\n3.5;4\n4.5;5\n')
        ds = load_csv(CsvSpec(path, "y", ("x",), delimiter=";"))
        np.testing.assert_array_equal(ds.column("y"), [1.5, 2.5, 3.5, 4.5])

    def test_unselected_columns_are_not_parsed(self, tmp_path):
        path = write(tmp_path, "y,x,note\n1,2,hello\n2,3,world\n3,4,!\n4,5,?\n")
        ds = load_csv(CsvSpec(path, "y", ("x",)))
        assert ds.n == 4

    def test_utf8_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x\n1,2\n2,3\n3,5\n4,7\n")
        ds = load_csv(CsvSpec(path, "y", ("x",)))
        np.testing.assert_array_equal(ds.column("y"), [1.0, 2.0, 3.0, 4.0])

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path, "y,x\n1,2\n\n2,3\n\n3,4\n4,5\n")
        ds = load_csv(CsvSpec(path, "y", ("x",)))
        assert ds.n == 4

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(EmptyData):
            load_csv(CsvSpec(path, "y", ("x",)))

    def test_header_only(self, tmp_path):
        path = write(tmp_path, "y,x\n")
        with pytest.raises(EmptyData):
            load_csv(CsvSpec(path, "y", ("x",)))

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "y,x\n1,2\n")
        with pytest.raises(MissingColumn) as exc:
            load_csv(CsvSpec(path, "y", ("z",)))
        assert exc.value.name == "z"

    def test_duplicate_selected_header_name(self, tmp_path):
        path = write(tmp_path, "y,x,x\n1,2,3\n")
        with pytest.raises(ParseError) as exc:
            load_csv(CsvSpec(path, "y", ("x",)))
        assert exc.value.line == 1

    def test_duplicate_unselected_header_name_is_fine(self, tmp_path):
        path = write(tmp_path, "y,x,junk,junk\n1,2,a,b\n2,3,c,d\n3,4,e,f\n4,5,g,h\n")
        assert load_csv(CsvSpec(path, "y", ("x",))).n == 4

    @pytest.mark.parametrize(
        "text, line",
        [
            # the C reader takes the long cell; the per-cell pass, run for
            # the bad cell after it, hits csv's field size limit first
            ("y,x\n1,2\n3," + "1" * 200_001 + "\n4,oops\n", 3),
            ("y," + "x" * 200_001 + "\n1,2\n", 1),
        ],
        ids=["cell", "header"],
    )
    def test_field_over_csv_limit_reports_file_line(self, tmp_path, text, line):
        path = write(tmp_path, text)
        with pytest.raises(ParseError) as exc:
            load_csv(CsvSpec(path, "y", ("x",)))
        assert exc.value.line == line
        assert "field limit" in str(exc.value)

    def test_ragged_row_reports_file_line(self, tmp_path):
        path = write(tmp_path, "y,x\n1,2\n3\n")
        with pytest.raises(ParseError) as exc:
            load_csv(CsvSpec(path, "y", ("x",)))
        assert exc.value.line == 3

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = write(tmp_path, "y,x\n1,2\n2,oops\n")
        with pytest.raises(NonNumericCell) as exc:
            load_csv(CsvSpec(path, "y", ("x",)))
        assert exc.value.line == 3
        assert exc.value.column == "x"
        assert exc.value.value == "oops"

    def test_round_trip_is_exact(self, tmp_path, dwaine):
        path = tmp_path / "rt.csv"
        save_csv(dwaine, path)
        back = load_csv(
            CsvSpec(path, dwaine.response_name, dwaine.predictor_names)
        )
        for name, _ in dwaine.columns:
            np.testing.assert_array_equal(back.column(name), dwaine.column(name))


def outcome(read, spec):
    """The columns as float64 bytes, or the error class and line."""
    try:
        columns = read(spec)
    except VarpartError as exc:
        return type(exc), getattr(exc, "line", None)
    return [np.asarray(col, dtype=np.float64).tobytes() for col in columns]


def reference_columns(spec):
    """The selected columns, response first, read one cell at a time: the
    strict pass finds no fault, then ``data_io._parse_cell`` converts each
    selected cell."""
    data_io._strict_pass(spec)
    with open(spec.path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        idx = data_io._read_header(reader, spec)
        rows = [row for row in reader if row]
    return [[data_io._parse_cell(row[j]) for row in rows] for j in idx]


def assert_paths_agree(path, delimiter=","):
    """load_csv's columns equal the cell-by-cell reference reading's, bit for
    bit, or the strict pass's error.

    Also checks that a file the strict pass accepts never needs it: the C
    reader must take every such file itself.
    """
    spec = CsvSpec(path, "y", ("x",), delimiter=delimiter)
    want = outcome(reference_columns, spec)
    with mock.patch.object(data_io, "_strict_pass", wraps=data_io._strict_pass) as strict:
        got = outcome(data_io._read_columns, spec)
    assert got == want
    if isinstance(want, list):
        assert not strict.called
    return want


# CR-only and CRLF line ends, a BOM, blank and whitespace-only lines, quoted
# cells and quoted line breaks, ragged rows, header-only files
FILE_SHAPES = [
    ("y,x\r\n1,2\r\n3,4\r\n", [[1, 3], [2, 4]]),
    ("y,x\r1,2\r3,4\r", [[1, 3], [2, 4]]),
    ("\ufeffy,x\n1,2\n3,4\n", [[1, 3], [2, 4]]),
    ("y,x\n1,2\n\n3,4\n\n", [[1, 3], [2, 4]]),
    ("y,x\n1,2\n  \n3,4\n", (ParseError, 3)),
    ("y,x\n1,2\n\t\n3,4\n", (ParseError, 3)),
    ('y,x\n"1","2"\n3," 4 "\n', [[1, 3], [2, 4]]),
    ('y,x,note\n1,"2\n",a\n3,4,"b\nc"\n', [[1, 3], [2, 4]]),
    ('y,x,note\n1,2,"b\nc"\n3,oops,d\n', (NonNumericCell, 4)),
    ("y,x\n1,2,3,4\n5,6\n", [[1, 5], [2, 6]]),
    ("y,x,note\n1,2,a\n3\n", (ParseError, 3)),
    ('y,note,x\n1,hello,2\n3,"a,b",4\n5,,6\n', [[1, 3, 5], [2, 4, 6]]),
    ("y,x\n", [[], []]),
    ("y,x\n\n\n", [[], []]),
    ("y,x\n1,2\n3,4", [[1, 3], [2, 4]]),
]


# a byte that is not UTF-8 in the header, a selected cell and an unselected cell
INVALID_UTF8 = [
    (b"y,x\xfe\n1,2\n2,3\n", 1, 0xFE),
    (b"y,x\n1,2\n2,3\n3,\xff5\n4,4\n", 4, 0xFF),
    (b"y,note,x\n1,a,2\n2,\xc3,3\n3,\xc3\xa9,4\n", 3, 0xC3),
]


@pytest.mark.parametrize("read", [load_csv, center_csv])
@pytest.mark.parametrize("data, line, byte", INVALID_UTF8, ids=["header", "selected", "unselected"])
def test_invalid_utf8_is_a_parse_error_with_its_line(tmp_path, read, data, line, byte):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ParseError) as exc:
        read(CsvSpec(path, "y", ("x",)))
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: byte {byte:#04x} is not valid UTF-8"


class TestParsePaths:
    """numpy's C reader gives the cell-by-cell reference reading's values,
    and the strict pass names the fault of every file numpy rejects."""

    @pytest.mark.parametrize(
        "cell, value",
        [
            (" 1.5 ", 1.5),
            ("1.5e", None),
            ("nan", "nan"),
            ("-inf", -np.inf),
            ("Infinity", np.inf),
            ("1d5", None),
            ("0x10", None),
            ("3_0", None),
            ("\u0661\u0662", None),
            ("", None),
            ("#2", None),
            ("1e400", np.inf),
            ('"2.5"', 2.5),
            ("\xa0+.5\u2003", 0.5),
        ],
    )
    def test_cells(self, tmp_path, cell, value):
        path = write(tmp_path, f"y,x,note\n1,{cell},a\n2,3,b\n")
        got = assert_paths_agree(path)
        if value is None:
            assert got == (NonNumericCell, 2)
        else:
            x = np.frombuffer(got[1])
            if value == "nan":
                assert np.isnan(x[0])
            else:
                assert x[0] == value

    @pytest.mark.parametrize("text, expected", FILE_SHAPES)
    def test_file_shapes(self, tmp_path, text, expected):
        path = tmp_path / "shape.csv"
        path.write_bytes(text.encode("utf-8"))
        got = assert_paths_agree(path)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got == [np.array(c, dtype=np.float64).tobytes() for c in expected]

    def test_clean_input_takes_the_c_reader(self, tmp_path, monkeypatch):
        def fail(spec):
            raise AssertionError("the strict pass read a clean file")

        monkeypatch.setattr(data_io, "_strict_pass", fail)
        path = tmp_path / "clean.csv"
        path.write_bytes(
            b'\xef\xbb\xbfy,x,note\r\n1," 2 ",a\r\n\r\n3,4e0,"b,c"\r\n'
            b"5,-6,\r\n7.5,8,d,extra\r\n"
        )
        ds = load_csv(CsvSpec(path, "y", ("x",)))
        np.testing.assert_array_equal(ds.column("y"), [1.0, 3.0, 5.0, 7.5])
        np.testing.assert_array_equal(ds.column("x"), [2.0, 4.0, -6.0, 8.0])
        for _, col in ds.columns:
            assert col.flags.c_contiguous and col.dtype == np.float64

    @pytest.mark.parametrize("text", ["y,x\n", "y,x\n\n\r\n"])
    def test_no_data_is_empty_data_without_a_warning(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmptyData):
                load_csv(CsvSpec(path, "y", ("x",)))


# Unicode whitespace that str.strip removes, so numpy and the strict pass ignore it
_PAD = st.sampled_from(
    ["", " ", "\t", "\xa0", "\u2003", "\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u3000"]
)
_CELL = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.text(alphabet="0123456789.eE+-_ ", max_size=8),
    st.sampled_from(
        [
            "nan", "-NaN", "+inf", "INFINITY", "infinit", "1.5e", "1d5",
            "0x10", "3_0", "\u0661\u0662", "", "#2", "1e400", ".", "e5",
            "nan(1)", "1 2", '1"2"', '"1', '"1"2', "\x00",
        ]
    ),
)


@st.composite
def _cells(draw):
    cell = draw(_PAD) + draw(_CELL) + draw(_PAD)
    if draw(st.booleans()):
        inner = draw(st.sampled_from(["", "\n", "\r\n"]))
        cell = draw(_PAD) + f'"{cell}{inner}"' + draw(_PAD)
    return cell


@st.composite
def _csv_files(draw):
    delimiter = draw(st.sampled_from([",", ";", "\t", " ", "|"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [delimiter.join(["y", "x", "note"])]
    note = st.sampled_from(["a", "", "3_0", '"p,q"', '"two\nlines"'])
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "spaces", "short", "extra"]))
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        elif kind == "short":
            lines.append(draw(_cells()))
        else:
            row = [draw(_cells()), draw(_cells()), draw(note)]
            if kind == "extra":
                row.append(draw(_cells()))
            lines.append(delimiter.join(row))
    bom = "\ufeff" if draw(st.booleans()) else ""
    ending = draw(st.sampled_from(["", newline]))
    return delimiter, bom + newline.join(lines) + ending


@settings(max_examples=300, deadline=None)
@given(_csv_files())
def test_fuzzed_files_parse_the_same_on_both_paths(tmp_path_factory, case):
    delimiter, text = case
    path = tmp_path_factory.mktemp("fuzz") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_paths_agree(path, delimiter)


@settings(max_examples=300, deadline=None)
@given(_csv_files())
def test_fuzzed_files_center_the_same_streamed(tmp_path_factory, case):
    delimiter, text = case
    path = tmp_path_factory.mktemp("fuzz") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_centering_agrees(CsvSpec(path, "y", ("x",), delimiter=delimiter))


def centering(center, spec):
    """The exact moments, or the error class, message and line."""
    try:
        c = center(spec)
    except VarpartError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return c.exact.f.tobytes(), c.exact.s, c.exact.means, c.exact.sds, c.means, c.n


def whole(spec):
    return mean_center(load_csv(spec))


def assert_centering_agrees(spec):
    """center_csv folding 1, 2 or 3 lines at a time gives the moments, or
    the error, of mean_center(load_csv(spec)) at the default block size."""
    want = centering(whole, spec)
    for block in (1, 2, 3):
        with mock.patch.object(varpart.ols_core, "_BLOCK", block):
            assert centering(center_csv, spec) == want, block
    return want


def with_rows(text):
    """``text`` with three numeric rows after the header, in its line ending."""
    end = re.search("\r\n|\r|\n", text)
    rows = "".join(f"{row}{end.group()}" for row in ("0.5,-1,8.5", "2.25,3,-0.5", "-7,0.125,1"))
    return text[: end.end()] + rows + text[end.end() :]


class TestCenterCsv:
    """center_csv folds the file as it reads it, to mean_center(load_csv)'s result."""

    @pytest.mark.parametrize("rows", [False, True], ids=["as-is", "with-rows"])
    @pytest.mark.parametrize("text, expected", FILE_SHAPES)
    def test_file_shapes(self, tmp_path, text, expected, rows):
        path = tmp_path / "shape.csv"
        path.write_bytes((with_rows(text) if rows else text).encode("utf-8"))
        got = assert_centering_agrees(CsvSpec(path, "y", ("x",)))
        if rows and not isinstance(expected, tuple):
            assert got[-1] == len(expected[0]) + 3

    @pytest.mark.parametrize(
        "block, fold", [(1, FOLD), (2, FOLD), (3, FOLD), (7, FOLD), (1 << 14, FOLD), (8, 1), (10, 3), (16, 7)]
    )
    def test_blocks_fold_to_the_moments_of_the_whole_file(self, tmp_path, block, fold):
        # each block is folded in chunks of at most ``fold`` rows
        rng = np.random.default_rng(2)
        x = rng.standard_normal((40, 2)) * [1e-3, 1e5] + [7.0, -3e6]
        x[:9, 0] = 0.0  # a column that is zero throughout some blocks and chunks
        y = x @ [2.0, 1e-4] + rng.standard_normal(40)
        path = tmp_path / "tall.csv"
        save_csv(make_dataset(x, y), path)
        spec = CsvSpec(path, "y", ("x2", "x1"))
        want = centering(whole, spec)
        with mock.patch.object(varpart.ols_core, "_BLOCK", block):
            with mock.patch.object(varpart.ols_core, "_FOLD", fold):
                assert centering(center_csv, spec) == want
        assert want[-1] == 40

    def test_keeps_no_rows(self, tmp_path):
        path = write(tmp_path, "y,a,b\n1,2,3\n2,3,1\n3,5,4\n4,4,2\n")
        c = center_csv(CsvSpec(path, "y", ("a", "b")))
        assert c.data is None
        for name in ("y", "a"):
            with pytest.raises(RowsNotKept) as exc:
                c.column(name)
            assert exc.value.name == name
        with pytest.raises(RowsNotKept):
            residualize(c, "a", ["b"])
        with pytest.raises(RowsNotKept):
            residualize(c, "b")
        with pytest.raises(UnknownName):
            c.column("nope")

    def test_quoted_blocks_hold_at_most_a_block_of_rows(self, tmp_path, monkeypatch):
        # quoted fields hold line breaks across both block boundaries, and a
        # blank line that numpy does not count towards max_rows
        monkeypatch.setattr(varpart.ols_core, "_BLOCK", 2)
        path = write(tmp_path, 'y,x,note\n1,2,"a\nb"\n\n3,4,c\n2,5,d\n4,7,"e\nf"\n5,5,g\n')
        spec = CsvSpec(path, "y", ("x",))
        rows, real = [], data_io._loadtxt

        def loadtxt(*args, **kwargs):
            table = real(*args, **kwargs)
            rows.append(len(table))
            return table

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with mock.patch.object(data_io, "_loadtxt", loadtxt):
                c = center_csv(spec)
        assert rows == [2, 2, 1, 0]
        assert c.exact.f.tobytes() == whole(spec).exact.f.tobytes()
        assert c.n == 5


def rejecting(k):
    """data_io._loadtxt, but raising numpy's ValueError on its ``k``-th call."""
    calls, real = count(1), data_io._loadtxt

    def loadtxt(*args):
        if next(calls) == k:
            raise ValueError("rejected")
        return real(*args)

    return loadtxt


@pytest.mark.parametrize("rejected", [1, 3])
def test_numpy_error_when_the_strict_pass_finds_no_fault(tmp_path, monkeypatch, rejected):
    # numpy rejects one block of a clean 4-block file: the strict pass reads
    # it all, finds no fault, and numpy's error is raised; no value is read
    # a second way
    monkeypatch.setattr(varpart.ols_core, "_BLOCK", 3)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((10, 2)) * [1e-3, 1e4]
    path = tmp_path / "clean.csv"
    save_csv(make_dataset(x, x @ [2.0, 1e-4] + rng.standard_normal(10)), path)
    spec = CsvSpec(path, "y", ("x2", "x1"))
    out = tmp_path / "report.json"
    args = ["decompose", "--input", str(path), "--response", "y", "--predictors", "x2,x1",
            "--format", "json", "--out", str(out)]
    for read in (load_csv, center_csv, lambda spec: CliRunner().invoke(main, args)):
        with mock.patch.object(data_io, "_strict_pass", wraps=data_io._strict_pass) as strict:
            with mock.patch.object(data_io, "_loadtxt", rejecting(rejected)):
                try:
                    res = read(spec)
                except ValueError as exc:
                    assert (type(exc), str(exc)) == (ValueError, "rejected")
                else:  # the CLI
                    assert (res.exit_code, res.stderr, res.stdout) == (2, "error: rejected\n", "")
        assert strict.call_count == 1
    assert not out.exists()


def _held_by_the_strict_pass(tmp_path, n, read):
    """(held, growth): bytes traced alive when the strict pass starts and its
    peak growth, as ``read`` meets a response numpy rejects after n rows
    like the ingest benchmark's."""
    ds = generate_synthetic(
        SyntheticSpec(
            n=n, p=4, correlation=exchangeable_correlation(4, 0.6),
            signal_coefficients=np.ones(4), seed=5,
        )
    )
    path = tmp_path / "tall.csv"
    save_csv(ds, path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("0.5,0.5,0.5,0.5,oops\n")
    real, traced = data_io._strict_pass, []

    def strict_pass(spec):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            real(spec)
        finally:
            traced.append((held, tracemalloc.get_traced_memory()[1] - held))

    tracemalloc.start()
    try:
        with mock.patch.object(data_io, "_strict_pass", strict_pass):
            with pytest.raises(NonNumericCell) as exc:
                read(CsvSpec(path, "y", ds.predictor_names))
    finally:
        tracemalloc.stop()
    assert (exc.value.line, exc.value.column, exc.value.value) == (n + 2, "y", "oops")
    [(held, growth)] = traced
    return held, growth


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_strict_pass_memory_is_flat_in_the_rows(tmp_path, n):
    # the strict pass reads the whole file again to name the line, keeping
    # no value, and starts once the rejected block is freed
    held, growth = _held_by_the_strict_pass(tmp_path, n, center_csv)
    assert held <= 2e5, held  # no block is alive
    assert growth <= 2e5, growth  # a row at a time, whatever n


def test_load_csv_frees_its_blocks_before_the_strict_pass(tmp_path):
    # the blocks parsed before the rejected one hold no value the strict
    # pass reads: 40 bytes a row, 4 MB here, if they stayed alive
    held, growth = _held_by_the_strict_pass(tmp_path, 10**5, load_csv)
    assert held <= 2e5, held
    assert growth <= 2e5, growth


class TestDwaineFixture:
    def test_shape_and_names(self, dwaine):
        assert dwaine.n == 21
        assert dwaine.response_name == "SALES"
        assert dwaine.predictor_names == ("TARGTPOP", "DISPOINC")

    def test_first_and_last_rows(self, dwaine):
        assert dwaine.column("TARGTPOP")[0] == 68.5
        assert dwaine.column("DISPOINC")[0] == 16.7
        assert dwaine.column("SALES")[0] == 174.4
        assert dwaine.column("TARGTPOP")[-1] == 52.3
        assert dwaine.column("SALES")[-1] == 166.5

    def test_centered_total_ss(self, dwaine):
        # pins the transcription as a whole, not just single cells
        assert mean_center(dwaine).ss_total == pytest.approx(26196.21, abs=0.01)


class TestSyntheticSpecValidation:
    def good(self, **kw):
        base = dict(
            n=20,
            p=2,
            correlation=np.eye(2),
            signal_coefficients=np.ones(2),
            noise_sd=1.0,
            seed=0,
        )
        base.update(kw)
        return SyntheticSpec(**base)

    def test_ok(self):
        self.good()

    def test_p_must_be_positive(self):
        with pytest.raises(ValueError):
            self.good(p=0, correlation=np.eye(0), signal_coefficients=np.ones(0))

    def test_n_lower_bound(self):
        with pytest.raises(ValueError):
            self.good(n=3)

    def test_correlation_shape(self):
        with pytest.raises(ValueError):
            self.good(correlation=np.eye(3))

    def test_coefficient_length(self):
        with pytest.raises(ValueError):
            self.good(signal_coefficients=np.ones(3))

    def test_symmetry(self):
        m = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            self.good(correlation=m)

    def test_unit_diagonal(self):
        m = np.array([[1.0, 0.2], [0.2, 0.9]])
        with pytest.raises(ValueError):
            self.good(correlation=m)

    def test_noise_sd_positive(self):
        with pytest.raises(ValueError):
            self.good(noise_sd=0.0)

    def test_seed_non_negative(self):
        with pytest.raises(ValueError):
            self.good(seed=-1)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field, make",
        [
            ("correlation", lambda v: np.array([[1.0, v], [v, 1.0]])),
            ("signal_coefficients", lambda v: np.array([v, 1.0])),
            ("noise_sd", lambda v: v),
        ],
    )
    def test_non_finite_values_are_named(self, field, make, value):
        # checked before the symmetry check, which NaN would fail misleadingly
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            self.good(**{field: make(value)})


class TestGenerateSynthetic:
    def test_deterministic_for_a_seed(self):
        spec = SyntheticSpec(
            n=50,
            p=3,
            correlation=exchangeable_correlation(3, 0.4),
            signal_coefficients=np.array([1.0, -2.0, 0.5]),
            noise_sd=1.0,
            seed=7,
        )
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        for name, _ in a.columns:
            np.testing.assert_array_equal(a.column(name), b.column(name))

    def test_seeds_differ(self):
        kw = dict(
            n=50,
            p=2,
            correlation=np.eye(2),
            signal_coefficients=np.ones(2),
            noise_sd=1.0,
        )
        a = generate_synthetic(SyntheticSpec(seed=1, **kw))
        b = generate_synthetic(SyntheticSpec(seed=2, **kw))
        assert not np.array_equal(a.column("y"), b.column("y"))

    def test_names_and_shape(self):
        spec = SyntheticSpec(
            n=15,
            p=3,
            correlation=np.eye(3),
            signal_coefficients=np.zeros(3),
            noise_sd=1.0,
            seed=0,
        )
        ds = generate_synthetic(spec)
        assert ds.response_name == "y"
        assert ds.predictor_names == ("x1", "x2", "x3")
        assert ds.n == 15

    def test_identity_correlation_is_respected(self):
        spec = SyntheticSpec(
            n=10_000,
            p=2,
            correlation=np.eye(2),
            signal_coefficients=np.ones(2),
            noise_sd=1.0,
            seed=1,
        )
        ds = generate_synthetic(spec)
        r = np.corrcoef(ds.column("x1"), ds.column("x2"))[0, 1]
        assert abs(r) < 0.05

    def test_requested_correlation_is_respected(self):
        spec = SyntheticSpec(
            n=10_000,
            p=2,
            correlation=exchangeable_correlation(2, 0.6),
            signal_coefficients=np.ones(2),
            noise_sd=1.0,
            seed=1,
        )
        ds = generate_synthetic(spec)
        r = np.corrcoef(ds.column("x1"), ds.column("x2"))[0, 1]
        assert r == pytest.approx(0.6, abs=0.05)

    def test_signal_dominates_when_noise_is_tiny(self):
        coef = np.array([2.0, -1.0])
        spec = SyntheticSpec(
            n=40,
            p=2,
            correlation=np.eye(2),
            signal_coefficients=coef,
            noise_sd=1e-12,
            seed=3,
        )
        ds = generate_synthetic(spec)
        x = np.column_stack([ds.column("x1"), ds.column("x2")])
        np.testing.assert_allclose(ds.column("y"), x @ coef, atol=1e-9)

    def test_perfect_correlation_generates_then_fails_to_fit(self):
        spec = SyntheticSpec(
            n=30,
            p=2,
            correlation=exchangeable_correlation(2, 1.0),
            signal_coefficients=np.ones(2),
            noise_sd=1.0,
            seed=0,
        )
        ds = generate_synthetic(spec)  # generation itself is fine
        with pytest.raises(SingularDesign):
            fit_ols(mean_center(ds), ds.predictor_names)

    def test_indefinite_matrix_rejected(self):
        m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
        spec = SyntheticSpec(
            n=30,
            p=2,
            correlation=m,
            signal_coefficients=np.ones(2),
            noise_sd=1.0,
            seed=0,
        )
        with pytest.raises(NotPositiveSemidefinite):
            generate_synthetic(spec)


def test_exchangeable_correlation_structure():
    m = exchangeable_correlation(3, 0.4)
    assert m.shape == (3, 3)
    np.testing.assert_array_equal(np.diag(m), np.ones(3))
    assert m[0, 1] == m[2, 0] == 0.4


def test_save_csv_full_precision(dwaine, tmp_path):
    save_csv(dwaine, tmp_path / "d.csv")
    text = (tmp_path / "d.csv").read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "TARGTPOP,DISPOINC,SALES"
    assert len(lines) == dwaine.n + 1
    assert text.endswith("\n")
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [68.5, 16.7, 174.4]


def test_save_csv_custom_delimiter(dwaine, tmp_path):
    save_csv(dwaine, tmp_path / "d.csv", delimiter=";")
    assert (tmp_path / "d.csv").read_text(encoding="utf-8").splitlines()[0] == "TARGTPOP;DISPOINC;SALES"
