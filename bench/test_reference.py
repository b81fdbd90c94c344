"""Tests of the benchmark's 60-digit reference.

Run from the root of the repository:

    python -m pytest bench/test_reference.py
"""

import json
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from reference import ReferenceSS, centred_sscp, centred_sscp_tall, digits  # noqa: E402
from varpart import dwaine_fixture  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
MODEL = ("TARGTPOP", "DISPOINC")


@pytest.fixture(scope="module")
def ref():
    ds = dwaine_fixture()
    return ReferenceSS.from_columns(
        ds.column("SALES"), [ds.column(nm) for nm in MODEL], MODEL
    )


def test_type3_matches_decompose_golden(ref):
    payload = json.loads((GOLDEN / "decompose_dwaine.json").read_text())
    for entry in payload["type3"]:
        assert digits(entry["ss"], ref.type3(entry["name"], MODEL)) >= 12
    t = payload["traditional"]
    assert digits(t["ss_regression"], ref.ssr(MODEL)) >= 12
    assert digits(t["ss_total"], ref.sst) >= 12


def test_type1_matches_orderings_golden(ref):
    payload = json.loads((GOLDEN / "orderings_dwaine.json").read_text())
    assert sorted(tuple(o["order"]) for o in payload["orderings"]) == sorted(
        permutations(MODEL)
    )
    for item in payload["orderings"]:
        want = ref.type1(item["order"])
        for entry, w in zip(item["type1"], want):
            assert digits(entry["ss"], w) >= 12


def test_type1_telescopes_and_last_equals_type3(ref):
    for order in permutations(MODEL):
        t1 = ref.type1(order)
        assert digits(float(sum(t1)), ref.ssr(MODEL)) > 15.9
        assert t1[-1] == ref.type3(order[-1], MODEL)


def test_tall_sscp_agrees_with_exact_sscp():
    rng = np.random.default_rng(7)
    cols = [rng.standard_normal(500) * 10.0**k + 3.0 for k in range(-2, 3)]
    exact, tall = centred_sscp(cols), centred_sscp_tall(cols)
    for i in range(len(cols)):
        for j in range(len(cols)):
            rel = abs(exact[i, j] - tall[i, j]) / abs(exact[i, j])
            assert rel < 1e-25


def test_digits_is_capped_for_exact_values(ref):
    assert digits(float(ref.sst), ref.sst) == pytest.approx(15.95, abs=0.01)
