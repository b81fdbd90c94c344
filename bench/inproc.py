"""Run a workload's operations inside one Python process.

Used for the library sweep, whose peak RSS must not include the
benchmark's reference values, and for the traced run of every workload:

    python bench/inproc.py PLAN.json OUT_DIR (--seconds S | --ops N) [--trace] [--calibrate]

PLAN.json is written by run.py (see workloads.Prepared). The operations
run for S seconds, and at least one cycle of the plan, or exactly N times,
with --calibrate between calibration rounds (calib.py).
With --trace every call into varpart's layers is recorded as a span and
the spans are written to OUT_DIR/spans.jsonl; run.py compares a traced
process with an untraced one running the same operations to get the
tracing overhead. CLI operations call
``varpart.cli.main(args, standalone_mode=False)`` with stdout captured.

OUT_DIR/result.json receives each operation's seconds and status, and the
material to check is written as it appears, not kept in memory: each
distinct CLI stdout once, as OUT_DIR/out-<sha256>, and each sweep
dataset's first result, as OUT_DIR/first-<dataset>.json; later results
are kept as hashes, which must equal the first's.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calib import calibrate  # noqa: E402
from spans import SpanRecorder  # noqa: E402

# Sweep operations take about 0.1 s, so a short calibration sits between them.
_CALIBRATE_S = 0.01


class _CliOps:
    def __init__(self, plan, out_dir: Path):
        import varpart.cli

        self._cli = varpart.cli
        self.invocations = plan["invocations"]
        self.cycle = len(self.invocations)
        self._out_dir = out_dir
        self._seen: set[str] = set()

    def run(self, i: int, recorder: SpanRecorder | None) -> dict:
        inv = i % self.cycle
        buf = io.StringIO()
        error = None
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                with recorder.operation(i) if recorder else contextlib.nullcontext():
                    self._cli.main(self.invocations[inv], standalone_mode=False)
            except SystemExit as exc:  # the CLI's error path exits non-zero
                if exc.code:
                    error = f"exit {exc.code}"
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                error = repr(exc)
            dt = time.perf_counter() - t0
        data = buf.getvalue().encode("utf-8")
        sha = hashlib.sha256(data).hexdigest()
        if sha not in self._seen:
            self._seen.add(sha)
            (self._out_dir / f"out-{sha}").write_bytes(data)
        return {"inv": inv, "s": dt, "error": error, "sha": sha, "bytes": len(data)}


def _sweep_result(rep) -> dict:
    trad = rep.traditional
    model = list(rep.model)
    return {
        "predictors": model,
        "traditional": {
            "ss_regression": trad.ss_regression,
            "ss_residual": trad.ss_residual,
            "ss_total": trad.ss_total,
        },
        "type3": [{"name": pd.name, "ss": pd.type3_ss} for pd in rep.per_predictor],
        "ss_regression": trad.ss_regression,
        "ss_total": trad.ss_total,
        "orderings": [
            {
                "order": list(o),
                "type1": [
                    {"name": nm, "ss": rep.per_predictor[model.index(nm)].type1_by_ordering[o]}
                    for nm in o
                ],
            }
            for o in rep.orderings
        ],
    }


class _SweepOps:
    def __init__(self, plan, out_dir: Path):
        import varpart
        from varpart import decomposition, ols_core

        self._decomposition = decomposition
        self._ols_core = ols_core
        self.datasets = [
            varpart.load_csv(varpart.CsvSpec(d["csv"], d["response"], tuple(d["predictors"])))
            for d in plan["datasets"]
        ]
        self.passes = plan["passes"]
        self.cycle = len(self.passes)
        self._out_dir = out_dir
        self._written: set[int] = set()

    def run(self, i: int, recorder: SpanRecorder | None) -> dict:
        k = i % self.cycle
        dt, error, hashes = 0.0, None, []
        for j in self.passes[k]:
            ds = self.datasets[j]
            t0 = time.perf_counter()
            try:
                with recorder.operation(i) if recorder else contextlib.nullcontext():
                    c = self._ols_core.mean_center(ds)
                    rep = self._decomposition.compare_report(c, ds.predictor_names, orderings="all")
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                error = repr(exc)
                break
            finally:
                dt += time.perf_counter() - t0
            data = json.dumps(_sweep_result(rep)).encode()
            if j not in self._written:
                self._written.add(j)
                (self._out_dir / f"first-{j}.json").write_bytes(data)
            hashes.append(hashlib.sha256(data).hexdigest())
        return {"inv": k, "s": dt, "error": error, "hashes": hashes}


def _loop(ops, recorder, rounds, seconds: float | None = None, count: int | None = None) -> list[dict]:
    """Run operations; with ``rounds`` a list, calibrate before and after each."""
    records: list[dict] = []
    if rounds is not None:
        rounds.append(calibrate(_CALIBRATE_S))
    start = time.perf_counter()
    while True:
        if count is not None:
            if len(records) >= count:
                break
        elif len(records) >= ops.cycle and time.perf_counter() - start >= seconds:
            break
        records.append(ops.run(len(records), recorder))
        if rounds is not None:
            rounds.append(calibrate(_CALIBRATE_S))
    return records


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("plan", type=Path)
    parser.add_argument("out_dir", type=Path)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    args = parser.parse_args(argv)

    plan = json.loads(args.plan.read_text(encoding="utf-8"))
    ops = (_CliOps if plan["kind"] == "cli" else _SweepOps)(plan, args.out_dir)
    recorder = SpanRecorder() if args.trace else None
    rounds: list[list[float]] | None = [] if args.calibrate else None
    with recorder.installed() if recorder else contextlib.nullcontext():
        records = _loop(ops, recorder, rounds, seconds=args.seconds, count=args.ops)
    if recorder:
        recorder.write(args.out_dir / "spans.jsonl")
    result = {"records": records, "calibration": rounds}
    (args.out_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
