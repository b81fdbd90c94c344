"""The four benchmark workloads: their inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished, as for a CLI user waiting on each
result or a library caller looping over datasets. Inputs are built from
the seed with varpart's own ``generate_synthetic`` and ``save_csv``,
before any timing, and cached per seed under the checkout's ``.bench_work``
directory; the program receives only the generated files. Only the
current seed's inputs are kept (the tall CSV alone is about 98 MB), so
the cache serves repeated runs of one seed without filling the disk.

An operation fails when its process exits non-zero or raises, or when its
output fails the check: byte equality with the golden file for the Dwaine
fixture, and otherwise agreement with the 60-digit reference within
``ReferenceSS.tolerance`` plus the identities sum(Type I) = SSR per
ordering, SSR + SSE = SST and orthogonal-fit SSR = full SSR.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import statistics
from dataclasses import dataclass, field
from itertools import permutations
from pathlib import Path
from typing import Any, Callable

import numpy as np

from reference import ReferenceSS, digits

SWEEP_RHOS = (0.0, 0.5, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10)
SWEEP_PS = (3, 5)
# Datasets per (p, rho) design in one run; the accuracy figure of a design
# is the median over them, which keeps it steady from seed to seed.
SWEEP_REPLICATES = 16

_DWAINE_INVOCATIONS = (
    (("fit", "--dwaine", "--format", "json"), "fit_dwaine.json"),
    (("decompose", "--dwaine", "--format", "json"), "decompose_dwaine.json"),
    (("orderings", "--dwaine", "--format", "json"), "orderings_dwaine.json"),
    (("venn", "--dwaine", "--format", "json"), "venn_dwaine.json"),
    (("fit", "--dwaine"), "fit_dwaine.txt"),
    (("decompose", "--dwaine"), "decompose_dwaine.txt"),
    (("decompose", "--dwaine", "--format", "csv"), "decompose_dwaine.csv"),
    (("orderings", "--dwaine"), "orderings_dwaine.txt"),
    (("venn", "--dwaine"), "venn_dwaine.txt"),
    (("venn", "--dwaine", "--format", "svg"), "venn_dwaine.svg"),
    (("fit", "--dwaine", "--model", "TARGTPOP"), "fit_targtpop.txt"),
)


def _sub_seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def _synthetic(n: int, p: int, rho: float, seed: int):
    import varpart

    return varpart.generate_synthetic(
        varpart.SyntheticSpec(
            n=n,
            p=p,
            correlation=varpart.exchangeable_correlation(p, rho),
            signal_coefficients=np.ones(p),
            seed=seed,
        )
    )


def _reference(ds, tall: bool = False) -> ReferenceSS:
    names = ds.predictor_names
    return ReferenceSS.from_columns(
        ds.column(ds.response_name), [ds.column(nm) for nm in names], names, tall=tall
    )


def _keep_only(current: Path) -> None:
    """Delete the other seeds' inputs beside ``current``, a file or directory."""
    if not current.parent.is_dir():
        return
    for other in current.parent.iterdir():
        if other.name == current.name:
            continue
        if other.is_dir():
            shutil.rmtree(other, ignore_errors=True)
        else:
            other.unlink(missing_ok=True)


def _write_csv(ds, path: Path) -> None:
    """save_csv to a temporary name, then rename, so no partial file is cached."""
    import varpart

    if path.exists():
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp")
    varpart.save_csv(ds, tmp)
    tmp.replace(path)


def _cli_args(command: str, path: Path, root: Path, ds, fmt: str) -> tuple[str, ...]:
    return (
        command,
        "--input",
        str(path.relative_to(root)),
        "--response",
        ds.response_name,
        "--predictors",
        ",".join(ds.predictor_names),
        "--format",
        fmt,
    )


@dataclass
class Accuracy:
    """Correct digits of the checked outputs, grouped by design.

    Type I: the 5th percentile of the digits of every Type I SS (and SSR)
    of a design's datasets, pooled; Type III: the median, over a design's
    datasets, of the fewest digits of any Type III SS in the dataset. Each
    figure is the minimum over designs. The minimum over single Type I
    values is not used: near the collinearity guard it swings by a digit
    or more between datasets of the same design.
    """

    type1: dict[str, list[float]] = field(default_factory=dict)
    type3: dict[str, dict[int, float]] = field(default_factory=dict)

    def add(self, design: str, replicate: int, d1: list[float], d3: list[float]) -> None:
        self.type1.setdefault(design, []).extend(d1)
        if d3:
            per = self.type3.setdefault(design, {})
            per[replicate] = min(per.get(replicate, math.inf), min(d3))

    def figures(self) -> tuple[float, float]:
        type1 = [float(np.percentile(v, 5)) for v in self.type1.values() if v]
        type3 = [statistics.median(v.values()) for v in self.type3.values()]
        return min(type1, default=math.nan), min(type3, default=math.nan)


def check_payload(payload: dict[str, Any], ref: ReferenceSS) -> tuple[list[str], list[float], list[float]]:
    """Check one decoded output against the reference.

    Returns the problems found and the correct digits of every Type I SS
    (with the SSR they sum to) and every Type III SS in it. In orderings
    output the last Type I SS of each ordering is that predictor's Type
    III SS, and is counted as both.
    """
    model = list(payload["predictors"])
    tol = ref.tolerance(model)
    sst_ref, ssr_ref = ref.sst, ref.ssr(model)
    problems: list[str] = []
    d1: list[float] = []
    d3: list[float] = []

    def near(what: str, got: float, want) -> bool:
        if got is None or not abs(float(got) - float(want)) <= tol:
            problems.append(f"{what}: got {got!r}, want {float(want)!r} (tolerance {tol:.3g})")
            return False
        return True

    def ssr_sst(ssr, sst, where: str) -> None:
        if near(f"{where} SSR", ssr, ssr_ref):
            d1.append(digits(ssr, ssr_ref))
        near(f"{where} SST", sst, sst_ref)

    if "anova" in payload:
        a = payload["anova"]
        ssr_sst(a["regression"]["ss"], a["total"]["ss"], "anova")
        near("anova SSR + SSE - SST", a["regression"]["ss"] + a["residual"]["ss"] - a["total"]["ss"], 0.0)
    if "traditional" in payload:
        t = payload["traditional"]
        ssr_sst(t["ss_regression"], t["ss_total"], "traditional")
        near("SSR + SSE - SST", t["ss_regression"] + t["ss_residual"] - t["ss_total"], 0.0)
    if "type3" in payload:
        for entry in payload["type3"]:
            want = ref.type3(entry["name"], model)
            if near(f"type3 {entry['name']}", entry["ss"], want):
                d3.append(digits(entry["ss"], want))
    if "unique" in payload:
        for name, ss in payload["unique"].items():
            want = ref.type3(name, model)
            if near(f"venn unique {name}", ss, want):
                d3.append(digits(ss, want))
        total = sum(payload["unique"].values()) + payload["common_total"] + payload["residual"]
        near("venn unique + common + residual - SST", total - payload["ss_total"], 0.0)
        near("venn SST", payload["ss_total"], sst_ref)
    if "orderings" in payload:
        orders = [tuple(item["order"]) for item in payload["orderings"]]
        if sorted(orders) != sorted(permutations(model)):
            problems.append("orderings: not every permutation of the model exactly once")
        ssr = payload["ss_regression"]
        ssr_sst(ssr, payload["ss_total"], "orderings")
        for item in payload["orderings"]:
            order = item["order"]
            if [e["name"] for e in item["type1"]] != order:
                problems.append(f"ordering {order}: type1 names out of order")
                continue
            got = [e["ss"] for e in item["type1"]]
            want = ref.type1(order)
            for k, (name, g, w) in enumerate(zip(order, got, want), start=1):
                if near(f"type1 {name} in {order}", g, w):
                    d1.append(digits(g, w))
                    if k == len(order):
                        d3.append(d1[-1])
            near(f"sum type1 - SSR in {order}", sum(got) - ssr, 0.0)
            fit = item.get("orthogonal_fit")
            if fit is not None:
                near(f"orthogonal SSR - SSR in {order}", fit["ss_regression"] - ssr, 0.0)
                near(
                    f"orthogonal SSR + SSE - SST in {order}",
                    fit["ss_regression"] + fit["ss_residual"] - payload["ss_total"],
                    0.0,
                )
    return problems, d1, d3


@dataclass
class Prepared:
    """A workload's inputs for one seed, and how to check its outputs.

    ``plan`` is what a child process needs to run the operations (see
    inproc.py). ``checker(i, data)`` verifies the stdout of CLI invocation
    i, or the JSON result of sweep dataset i, and returns the problems
    found and the correct digits of its Type I and Type III SS;
    ``datasets[i]`` is the (design, replicate) that output belongs to.
    Checks are memoized on the output's hash, since a deterministic
    program repeats the same bytes.
    """

    plan: dict[str, Any]
    checker: Callable[[int, bytes], tuple[list[str], list[float], list[float]]]
    datasets: Callable[[int], tuple[str, int]] = lambda i: ("single", 0)
    accuracy: Accuracy = field(default_factory=Accuracy)
    _memo: dict[tuple[int, str], list[str]] = field(default_factory=dict)

    def check(self, i: int, data: bytes) -> list[str]:
        key = (i, hashlib.sha256(data).hexdigest())
        if key not in self._memo:
            try:
                problems, d1, d3 = self.checker(i, data)
            except (ValueError, KeyError, TypeError) as exc:  # not the output's format
                problems, d1, d3 = [f"malformed output: {exc!r}"], [], []
            self._memo[key] = problems
            if not problems:
                self.accuracy.add(*self.datasets(i), d1, d3)
        return self._memo[key]


def _prepare_dwaine(root: Path, work: Path, seed: int) -> Prepared:
    import varpart

    golden_dir = root / "tests" / "golden"
    goldens = [(golden_dir / name).read_bytes() for _, name in _DWAINE_INVOCATIONS]
    ref = _reference(varpart.dwaine_fixture())

    def checker(inv, data):
        name = _DWAINE_INVOCATIONS[inv][1]
        if data != goldens[inv]:
            return [f"stdout differs from {name}"], [], []
        if name.endswith(".json"):
            return check_payload(json.loads(data), ref)
        return [], [], []

    plan = {"kind": "cli", "invocations": [list(a) for a, _ in _DWAINE_INVOCATIONS]}
    return Prepared(plan, checker)


def _prepare_single_csv(command: str, n: int, p: int, rho: float, tall: bool):
    def prepare(root: Path, work: Path, seed: int) -> Prepared:
        ds = _synthetic(n, p, rho, _sub_seed(seed, n, p))
        path = work / "inputs" / f"{command}-n{n}-p{p}" / f"seed-{seed}.csv"
        _keep_only(path)
        _write_csv(ds, path)
        ref = _reference(ds, tall=tall)
        plan = {"kind": "cli", "invocations": [list(_cli_args(command, path, root, ds, "json"))]}
        return Prepared(plan, lambda inv, data: check_payload(json.loads(data), ref))

    return prepare


def _prepare_sweep(root: Path, work: Path, seed: int) -> Prepared:
    designs = [(p, rho) for p in SWEEP_PS for rho in SWEEP_RHOS]
    _keep_only(work / "inputs" / "sweep" / f"seed-{seed}")
    datasets, refs, keys = [], [], []
    for r in range(SWEEP_REPLICATES):
        for d, (p, rho) in enumerate(designs):
            ds = _synthetic(200, p, rho, _sub_seed(seed, d, r))
            path = work / "inputs" / "sweep" / f"seed-{seed}" / f"p{p}-d{d}-r{r}.csv"
            _write_csv(ds, path)
            datasets.append(
                {"csv": str(path.relative_to(root)), "response": ds.response_name,
                 "predictors": list(ds.predictor_names)}
            )
            refs.append(_reference(ds))
            keys.append((f"p={p} rho={rho!r}", r))
    k = len(designs)
    passes = [list(range(r * k, (r + 1) * k)) for r in range(SWEEP_REPLICATES)]
    plan = {"kind": "sweep", "datasets": datasets, "passes": passes}
    return Prepared(plan, lambda i, data: check_payload(json.loads(data), refs[i]), keys.__getitem__)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entry: str  # module whose import time is setup_s
    prepare: Callable[[Path, Path, int], Prepared]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dwaine-cli",
            "the 11 golden --dwaine CLI runs as child processes: in-process work is ~2 ms of"
            " ~0.9 s, so start-up (mostly importing scipy) dominates; the only workload"
            " rendering SVG",
            "varpart.cli",
            _prepare_dwaine,
        ),
        Workload(
            "orderings-p7",
            "orderings --format json, n=200, p=7, rho=0.6: 5,040 orderings re-solve every"
            " subset, so decomposition dominates and rendering 12 MB of JSON comes next",
            "varpart.cli",
            _prepare_single_csv("orderings", 200, 7, 0.6, tall=False),
        ),
        Workload(
            "ingest-tall",
            "decompose --format json on a 98 MB CSV, n=10^6, p=4, rho=0.6: the pure-Python"
            " CSV reader dominates time and peak RSS; n-length passes come next; no orderings",
            "varpart.cli",
            _prepare_single_csv("decompose", 1_000_000, 4, 0.6, tall=True),
        ),
        Workload(
            "collinear-sweep",
            "in-process mean_center + compare_report(orderings='all'), n=200, p in {3,5}, rho"
            " up to 1-1e-10: the numerical core alone, throughput and accuracy up to the guard",
            "varpart",
            _prepare_sweep,
        ),
    )
}
