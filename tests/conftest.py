import csv
import importlib.util
import io
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from varpart import (
    Dataset,
    OlsFit,
    SyntheticSpec,
    dwaine_fixture,
    exchangeable_correlation,
    generate_synthetic,
    mean_center,
    orthogonal_regression,
    save_csv,
    sequential_ss,
)
from varpart.decomposition import ordering_walk
from varpart.report import SCHEMA_VERSION, render_orderings

MODEL = ("TARGTPOP", "DISPOINC")


@pytest.fixture(scope="session")
def dwaine():
    return dwaine_fixture()


@pytest.fixture(scope="session")
def centered(dwaine):
    return mean_center(dwaine)


@pytest.fixture(scope="session")
def model():
    return MODEL


def make_dataset(x: np.ndarray, y: np.ndarray) -> Dataset:
    """Dataset from a plain design matrix, columns named x1..xp."""
    names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
    cols = tuple((nm, x[:, j]) for j, nm in enumerate(names))
    return Dataset(
        columns=cols + (("y", y),), response_name="y", predictor_names=names
    )


def write_synth(path, n, p, rho=0.0, seed=0) -> Path:
    """Write a seeded synthetic dataset (predictors x1..xp, response y, all
    signal coefficients 1, noise sd 1) as CSV to ``path``; return the path."""
    spec = SyntheticSpec(
        n=n,
        p=p,
        correlation=exchangeable_correlation(p, rho),
        signal_coefficients=np.ones(p),
        noise_sd=1.0,
        seed=seed,
    )
    save_csv(generate_synthetic(spec), path)
    return Path(path)


# Names that JSON escapes and CSV quotes (a quote, a line end, non-ASCII),
# and orderings of them with repeats, some sharing a prefix but not their
# text column widths (``widths_dataset``).
WIDTH_NAMES = ('z"q', "x\n\u00e9", "w")
WIDTH_ORDERS = [
    ("w", "x\n\u00e9", 'z"q'), ("w", 'z"q', "x\n\u00e9"), ("w", 'z"q', "x\n\u00e9"),
    ("w", "x\n\u00e9", 'z"q'), ('z"q', "w", "x\n\u00e9"), ("w", 'z"q', "x\n\u00e9"),
]


def widths_dataset() -> Dataset:
    """12 rows of ``WIDTH_NAMES`` and y: the b column of the orderings report
    of (w, x\\n\u00e9, z"q) is narrower than that of (w, z"q, x\\n\u00e9)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 3))
    x[:, 1] = 0.9 * x[:, 0] + 0.3 * x[:, 1]
    x *= [1.0, 30.0, 0.5]
    y = x @ [40.0, -3.0, 100.0] + 5 * rng.standard_normal(12)
    return Dataset(columns=(*zip(WIDTH_NAMES, x.T), ("y", y)), response_name="y", predictor_names=WIDTH_NAMES)


class OrderingRecord(NamedTuple):
    """One ordering's Type I table and orthogonal-function fit: ``terms``
    holds each term as (label, b, se, z, t) and ``fit`` the fit whose SS,
    R2, F and intercept the report prints."""

    order: tuple[str, ...]
    type1: list[tuple[str, float]]
    terms: list[tuple[str, float, float, float, float]]
    intercept: float
    fit: OlsFit


def records_by_ordering(c, orderings) -> list[OrderingRecord]:
    """The record of each ordering from its own Type I table
    (``sequential_ss``) and orthogonal-function fit
    (``orthogonal_regression``): no value in one is shared with another."""
    records = []
    for order in orderings:
        fit = orthogonal_regression(c, order)
        terms = list(zip(fit.predictor_subset, fit.b, fit.se, fit.z, fit.t))
        records.append(OrderingRecord(tuple(order), sequential_ss(c, order), terms, fit.intercept, fit))
    return records


def _num(x):
    x = float(x)
    return x if math.isfinite(x) else None


def orderings_payload(response, model, full, records) -> dict:
    """The ``orderings`` report as plain dicts, one per value and nothing
    shared: ``json.dumps(payload, indent=2, allow_nan=False)`` and a newline
    is the oracle of ``report.render_orderings("json", ...)`` of the walk
    over the records' orderings."""
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "orderings",
        "response": response,
        "predictors": list(model),
        "n": full.n,
        "ss_regression": _num(full.ss_regression),
        "ss_total": _num(full.ss_total),
        "orderings": [
            {
                "order": list(r.order),
                "type1": [{"name": nm, "ss": _num(ss)} for nm, ss in r.type1],
                "orthogonal_fit": {
                    "ss_regression": _num(r.fit.ss_regression),
                    "ss_residual": _num(r.fit.ss_residual),
                    "r2": _num(r.fit.r2),
                    "f": _num(r.fit.f),
                    "intercept": _num(r.intercept),
                    "terms": [
                        {"label": label, "b": _num(b), "se": _num(se), "z": _num(z), "t": _num(t)}
                        for label, b, se, z, t in r.terms
                    ],
                },
            }
            for r in records
        ],
    }


def _csv_text(x) -> str:
    return "" if x is None else repr(x) if isinstance(x, float) else str(x)


def orderings_csv(payload) -> str:
    """``orderings_payload``'s report as CSV, each row written by the stdlib
    ``csv.writer``: the oracle of ``report.render_orderings("csv", ...)``."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(("section", "name", "statistic", "value"))
    w.writerow(("meta", "", "response", payload["response"]))
    w.writerow(("meta", "", "predictors", " ".join(payload["predictors"])))
    w.writerows(("meta", "", k, _csv_text(payload[k])) for k in ("n", "ss_regression", "ss_total"))
    for o in payload["orderings"]:
        section, fit = "order:" + ">".join(o["order"]), o["orthogonal_fit"]
        w.writerows((section, e["name"], "type1_ss", _csv_text(e["ss"])) for e in o["type1"])
        stats = ("ss_regression", "ss_residual", "r2", "f", "intercept")
        w.writerows((section, "", k, _csv_text(fit[k])) for k in stats)
        w.writerows((section, t["label"], k, _csv_text(t[k])) for t in fit["terms"] for k in ("b", "se", "z", "t"))
    return out.getvalue()


def sections_by_ordering(fmt, response, model, c, orderings) -> tuple[str, list[str], str]:
    """The ``orderings`` report's head, each ordering's section as the report
    of that ordering alone writes it (JSON puts a comma before every section
    but the first), and its tail; nothing is shared between orderings."""
    if not orderings:
        head, tail = render_orderings(fmt, response, model, ordering_walk(c, model, []))
        return head, [], tail
    reports = [[*render_orderings(fmt, response, model, ordering_walk(c, model, [o]))] for o in orderings]
    (head, _, tail), sep = reports[0], "," if fmt == "json" else ""
    return head, [(sep if i else "") + section for i, (_, section, _) in enumerate(reports)], tail


def report_by_ordering(fmt, response, model, c, orderings) -> str:
    """The ``orderings`` report put together from one-ordering reports: the
    head, each ordering's section and the tail (``sections_by_ordering``)."""
    head, sections, tail = sections_by_ordering(fmt, response, model, c, orderings)
    return head + "".join(sections) + tail


@pytest.fixture(scope="session")
def suppression_centered():
    """Design where the suppressor shares no signal with the response.

    x2 carries only the measurement error of x1, so adding it strips that
    error out; the unique contributions then exceed the regression SS and
    the common region is negative.
    """
    rng = np.random.default_rng(0)
    n = 200
    t = rng.standard_normal(n)
    e = rng.standard_normal(n)
    y = t + 0.3 * rng.standard_normal(n)
    return mean_center(make_dataset(np.column_stack([t + e, e]), y))


@pytest.fixture(scope="session")
def orthogonal_centered():
    """Exactly orthogonalized three-predictor design (QR construction)."""
    rng = np.random.default_rng(11)
    n, p = 60, 3
    a = rng.standard_normal((n, p))
    a -= a.mean(axis=0)
    q, _ = np.linalg.qr(a)
    x = q * np.array([3.0, 5.0, 2.0])  # orthogonal, not orthonormal
    y = x @ np.array([1.5, -2.0, 0.5]) + rng.standard_normal(n)
    return mean_center(make_dataset(x, y))


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    """A module of the benchmark (``bench/<name>.py``), loaded by path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
