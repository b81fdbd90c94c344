import numpy as np
import pytest

from varpart import (
    CsvSpec,
    SyntheticSpec,
    dataset_to_csv_text,
    dwaine_fixture,
    exchangeable_correlation,
    fit_ols,
    generate_synthetic,
    load_csv,
    mean_center,
    save_csv,
)
from varpart.errors import (
    EmptyData,
    InvalidDataset,
    MissingColumn,
    NonNumericCell,
    NotPositiveSemidefinite,
    ParseError,
    SingularDesign,
)


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

    def test_rejects_multichar_delimiter(self, tmp_path):
        with pytest.raises(ValueError):
            CsvSpec(tmp_path / "f.csv", "y", ("a",), delimiter=",,")

    def test_rejects_comma_decimal(self, tmp_path):
        with pytest.raises(ValueError):
            CsvSpec(tmp_path / "f.csv", "y", ("a",), decimal=",")


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


def test_dataset_to_csv_text_full_precision(dwaine):
    text = dataset_to_csv_text(dwaine)
    lines = text.splitlines()
    assert lines[0] == "TARGTPOP,DISPOINC,SALES"
    assert len(lines) == dwaine.n + 1
    assert text.endswith("\n")
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [68.5, 16.7, 174.4]


def test_dataset_to_csv_text_custom_delimiter(dwaine):
    text = dataset_to_csv_text(dwaine, delimiter=";")
    assert text.splitlines()[0] == "TARGTPOP;DISPOINC;SALES"
