"""The package's exports: one list, each name imported on first access; the
records among them are named tuples, except the four dataclasses that
validate or cache."""

import dataclasses
import subprocess
import sys

import pytest

import varpart
from varpart import data_io, decomposition, ols_core, venn_svg

EXPORTS = [
    "AnovaRow", "AnovaTable", "CenteredData", "CsvSpec", "Dataset", "DecompositionReport",
    "ORDERING_CAP", "OlsFit", "PredictorDecomposition", "RCOND_MIN", "ResidualizedPredictor",
    "SscpMatrix", "SyntheticSpec", "VennRegions", "actual_model_ss", "anova_table", "center_csv",
    "compare_report", "corrected_f", "corrected_r2", "dwaine_fixture", "enumerate_orderings",
    "errors", "exchangeable_correlation", "fit_ols", "generate_synthetic", "load_csv",
    "mean_center", "orthogonal_regression", "partial_ss", "render_venn_svg", "residualize",
    "residualized_simple_fits", "save_csv", "sequential_ss", "solve_center_distance", "sscp",
    "two_circle_layout", "venn_regions",
]


def test_all_lists_the_exports():
    assert sorted(varpart.__all__) == EXPORTS


def test_import_loads_no_numerical_module():
    code = "import sys, varpart; print(sorted({'numpy', 'varpart.ols_core'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("name", EXPORTS)
def test_each_export_is_its_defining_module_object(name):
    obj = getattr(varpart, name)
    assert vars(varpart)[name] is obj  # resolved once, then an ordinary global
    if name == "errors":
        assert obj is sys.modules["varpart.errors"]
    elif name in ("ORDERING_CAP", "RCOND_MIN"):
        assert obj is {"ORDERING_CAP": decomposition, "RCOND_MIN": ols_core}[name].__dict__[name]
    else:
        assert obj.__module__ in {m.__name__ for m in (data_io, decomposition, ols_core, venn_svg)}
        assert obj is vars(sys.modules[obj.__module__])[obj.__name__]


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from varpart import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    assert namespace["fit_ols"] is ols_core.fit_ols


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        varpart.no_such_name  # noqa: B018
    assert not hasattr(varpart, "ordering_fits")


RECORDS = [
    ols_core.SscpMatrix, ols_core.OlsFit, ols_core.AnovaRow, ols_core.AnovaTable,
    decomposition.ResidualizedPredictor, decomposition.VennRegions,
    decomposition.PredictorDecomposition, decomposition.DecompositionReport,
    venn_svg.CirclePlacement,
]


def test_dataclasses_are_the_four_that_validate_or_cache():
    found = [name for name in varpart.__all__ if dataclasses.is_dataclass(getattr(varpart, name))]
    assert sorted(found) == ["CenteredData", "CsvSpec", "Dataset", "SyntheticSpec"]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_plain_records_are_immutable_named_tuples(cls):
    assert issubclass(cls, tuple)
    record = cls(*range(len(cls._fields)))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], None)
    assert record == cls(*range(len(cls._fields)))


def test_anova_row_repr_names_each_field():
    c = ols_core.mean_center(data_io.dwaine_fixture())
    table = ols_core.anova_table(ols_core.fit_ols(c, ("TARGTPOP", "DISPOINC")))
    assert repr(table.row("Regression")) == (
        "AnovaRow(source='Regression', ss=24015.282112382014, df=2, "
        "ms=12007.641056191007, f=99.10349967584082)"
    )
