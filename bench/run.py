"""varpart's benchmark: end-to-end metrics, and per-layer metrics from a trace.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload, or ``all`` to run every workload in turn.

Workloads are defined, with the reason for each, in workloads.py. The
program is imported from the checkout's ``src`` directory; a directory
without ``src/varpart`` is an error (exit 2). Generated inputs go under
``.bench_work`` in the checkout, and a run's traces and captured outputs
under ``.bench_work/runs``, which is removed when the run ends. The benchmark
and every process it starts run on one CPU. Children start through
launch.py, with PYTHONDONTWRITEBYTECODE=1, so varpart is compiled from
source on every start, as in the environment the baseline was taken in.

With --trace 0 the end-to-end metrics are measured, untraced. Times are
in reference seconds (calib.py): measured seconds rescaled by the speed
of the CPU, timed with a fixed calibration workload next to each
operation, so that runs made at different times can be compared.

  setup_s      median, over 5 fresh interpreters, of the time to import the
               workload's entry module (varpart.cli; varpart for the sweep)
  op_s_p50     median seconds per operation: one CLI process from exec to
               exit with stdout drained, or one pass of the sweep over its
               16 designs (per-call times are bimodal in p)
  ops_per_s    operations completed per second spent in them
  peak_rss_mb  largest max RSS of a process running varpart: each CLI
               child, or the sweep's worker process
  type1_digits_p05, type3_digits_min
               correct digits, -log10 |got - ref| / |ref|, of the Type I
               SS (with the SSR they sum to) and the Type III SS the
               workload emits, against a 60-digit reference on the same
               float inputs: for Type I the 5th percentile of a design's
               values, for Type III the median over a design's datasets of
               the fewest digits in one dataset; each the minimum over
               designs (see workloads.Accuracy)

and printed with the tail percentile and the failed fraction, which are
not in the result object: op_s_tail is the highest percentile with at
least 10 operations beyond it (given from 20 operations on), and
ops_failed_frac is failed over attempted operations.

With --trace 1 the operations run in-process (inproc.py), once traced
and once untraced in a second process, and the per-layer metrics are
reported per operation, in measured seconds: self seconds of each
layer's functions, work counts, the import times from
``python -X importtime``, and the tracing overhead.

The last line of a workload's output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep compiled varpart out of src/

from calib import scale, scaled  # noqa: E402
from spans import LAYERS, read_spans, summarize  # noqa: E402
from workloads import WORKLOADS, Prepared  # noqa: E402

_BENCH = Path(__file__).resolve().parent
_SETUP_REPEATS = 5
# CLI children are stopped this often for a calibration round (launch.py)
_SLICE_S = 1.0
_IMPORTTIME_REPEATS = 3
_TAIL_BEYOND = 10
_TAIL_MIN_OPS = 20

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "type1_digits_p05": "digits",
    "type3_digits_min": "digits",
}

# per-layer metric -> (span name, field, unit); fields are summed per
# operation, except rss_mb, the largest growth seen in one call
_SPAN_METRICS = {
    "data_io.load_csv_s": ("data_io.load_csv", "self_s", "s"),
    "data_io.rows": ("data_io.load_csv", "rows", "count"),
    "data_io.input_mb": ("data_io.load_csv", "input_mb", "MB"),
    "data_io.load_csv_rss_mb": ("data_io.load_csv", "rss_mb", "MB"),
    "ols_core.mean_center_s": ("ols_core.mean_center", "self_s", "s"),
    "ols_core.fit_ols_s": ("ols_core.fit_ols", "self_s", "s"),
    "ols_core.fit_centered_design_calls": ("ols_core.fit_centered_design", "calls", "count"),
    "ols_core.fit_centered_design_s": ("ols_core.fit_centered_design", "self_s", "s"),
    "decomposition.sequential_ss_s": ("decomposition.sequential_ss", "self_s", "s"),
    "decomposition.orthogonal_regression_s": ("decomposition.orthogonal_regression", "self_s", "s"),
    "decomposition.residualize_calls": ("decomposition.residualize", "calls", "count"),
    "decomposition.residualize_s": ("decomposition.residualize", "self_s", "s"),
    "decomposition.orderings": ("decomposition.enumerate_orderings", "orderings", "count"),
    "decomposition.compare_report_s": ("decomposition.compare_report", "self_s", "s"),
    "decomposition.residualized_simple_fits_s": ("decomposition.residualized_simple_fits", "self_s", "s"),
    "decomposition.venn_regions_s": ("decomposition.venn_regions", "self_s", "s"),
    "venn_svg.render_s": ("venn_svg.render_venn_svg", "self_s", "s"),
    "cli.other_s": ("cli.op", "self_s", "s"),
}


def _child_env(root: Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")


def _run_child(
    argv: list[str], root: Path, run_dir: Path, slice_s: float = 0.0
) -> tuple[float, int, bytes, bytes, float, list[float]]:
    """Run to completion through launch.py.

    Returns the seconds from spawn to exit, the exit code, stdout, stderr,
    the child's own peak RSS in MB and the calibration rounds taken around
    it (and every ``slice_s`` seconds during it, if positive).
    """
    report, out_path, err_path = run_dir / "launch.json", run_dir / "stdout", run_dir / "stderr"
    # Output goes to files, not pipes (see launch.py). The launcher runs in
    # a session of its own, so that on the way out of an error it and the
    # command it started can be killed together.
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        proc = subprocess.Popen(
            _python(str(_BENCH / "launch.py"), str(report), str(slice_s), "--", *argv),
            stdout=out_fh,
            stderr=err_fh,
            env=_child_env(root),
            cwd=root,
            start_new_session=True,
        )
    try:
        proc.wait()
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    out, err = out_path.read_bytes(), err_path.read_bytes()
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py failed: {err.decode(errors='replace')}")
    r = json.loads(report.read_text(encoding="utf-8"))
    return r["seconds"], r["exit"], out, err, r["maxrss_kib"] / 1024.0, r["rounds"]


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def _setup_seconds(root: Path, run_dir: Path, entry: str) -> tuple[float, float]:
    """Median import time of ``entry`` in fresh interpreters: reference and measured seconds."""
    code = f"import time; t = time.perf_counter(); import {entry}; print(time.perf_counter() - t)"
    times, ref_times = [], []
    for _ in range(_SETUP_REPEATS):
        _, rc, out, err, _, rounds = _run_child(_python("-c", code), root, run_dir, _SLICE_S)
        if rc != 0:
            raise RuntimeError(f"import {entry} failed: {err.decode(errors='replace')}")
        times.append(float(out))
        ref_times.append(times[-1] * scale(rounds))
    return statistics.median(ref_times), statistics.median(times)


def _import_times(root: Path, run_dir: Path) -> dict[str, float]:
    """Import seconds of varpart.cli, numpy and scipy, from -X importtime."""
    runs: dict[str, list[float]] = {"cli.import_s": [], "cli.import_numpy_s": [], "cli.import_scipy_s": []}
    for _ in range(_IMPORTTIME_REPEATS):
        _, rc, _, err, _, _ = _run_child(
            _python("-X", "importtime", "-c", "import varpart.cli"), root, run_dir
        )
        if rc != 0:
            raise RuntimeError(f"import varpart.cli failed: {err.decode(errors='replace')}")
        entries = []  # (depth, name, cumulative microseconds), in print order
        for line in err.decode().splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            entries.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), int(cumulative)))
        runs["cli.import_s"].append(
            sum(c for d, nm, c in entries if d == 0 and nm == "varpart.cli") / 1e6
        )
        runs["cli.import_numpy_s"].append(_package_seconds(entries, "numpy"))
        runs["cli.import_scipy_s"].append(_package_seconds(entries, "scipy"))
    return {k: statistics.median(v) for k, v in runs.items()}


def _package_seconds(entries, package: str) -> float:
    """Cumulative import time of the outermost imports of ``package``.

    importtime prints a module after its children, so walking the lines
    backwards meets each module before its children; an entry counts when
    no enclosing entry belongs to the package already.
    """
    total, stack = 0, []  # stack of (depth, inside package)
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name == package or name.startswith(package + ".")
        if mine and not inside:
            total += cumulative
        stack.append((depth, inside or mine))
    return total / 1e6


def _check_cli_records(prepared: Prepared, records, outputs) -> int:
    failed = 0
    for rec in records:
        problems = [rec["error"]] if rec["error"] else prepared.check(rec["inv"], outputs(rec))
        if problems:
            failed += 1
            print(f"  op {rec['inv']} failed: {problems[0]}", file=sys.stderr)
    return failed


def _check_sweep_records(prepared: Prepared, records, out_dir: Path) -> int:
    failed = 0
    first: dict[int, bytes] = {}
    for rec in records:
        problems = [rec["error"]] if rec["error"] else []
        for j, h in zip(prepared.plan["passes"][rec["inv"]], rec["hashes"]):
            if problems:
                break
            if j not in first:
                first[j] = (out_dir / f"first-{j}.json").read_bytes()
            if h != hashlib.sha256(first[j]).hexdigest():
                problems.append(f"dataset {j}: result differs between calls")
            else:
                problems = prepared.check(j, first[j])
        if problems:
            failed += 1
            print(f"  pass {rec['inv']} failed: {problems[0]}", file=sys.stderr)
    return failed


def _run_inproc(prepared: Prepared, out_dir: Path, root: Path, limit: list[str]):
    """Run inproc.py into ``out_dir``.

    Returns its operation records, how many of them failed, its peak RSS in
    MB and its calibration rounds (None unless ``limit`` asks for them).
    """
    out_dir.mkdir()
    plan_path = out_dir / "plan.json"
    plan_path.write_text(json.dumps(prepared.plan), encoding="utf-8")
    _, rc, _, err, rss, _ = _run_child(
        _python(str(_BENCH / "inproc.py"), str(plan_path), str(out_dir), *limit), root, out_dir
    )
    if rc != 0:
        raise RuntimeError(f"inproc.py failed: {err.decode(errors='replace')}")
    result = json.loads((out_dir / "result.json").read_text(encoding="utf-8"))
    if prepared.plan["kind"] == "sweep":
        failed = _check_sweep_records(prepared, result["records"], out_dir)
    else:
        failed = _check_cli_records(
            prepared, result["records"], lambda rec: (out_dir / f"out-{rec['sha']}").read_bytes()
        )
    return result["records"], failed, rss, result["calibration"]


def timed_run(workload, prepared: Prepared, root: Path, run_dir: Path, seconds: float):
    setup, setup_raw = _setup_seconds(root, run_dir, workload.entry)
    if prepared.plan["kind"] == "cli":
        invocations = prepared.plan["invocations"]
        records, outputs, rss, times_scaled = [], {}, [], []
        start = time.perf_counter()
        while len(records) < len(invocations) or time.perf_counter() - start < seconds:
            inv = len(records) % len(invocations)
            dt, rc, out, err, maxrss, rounds = _run_child(
                _python("-m", "varpart.cli", *invocations[inv]), root, run_dir, _SLICE_S
            )
            error = f"exit {rc}: {err.decode(errors='replace').strip()}" if rc else None
            records.append({"inv": inv, "s": dt, "error": error, "n": len(records)})
            outputs[len(records) - 1] = out
            rss.append(maxrss)
            times_scaled.append(dt * scale(rounds))
        failed = _check_cli_records(prepared, records, lambda rec: outputs[rec["n"]])
        peak = max(rss)
    else:
        records, failed, peak, rounds = _run_inproc(
            prepared, run_dir / "sweep", root, ["--seconds", str(seconds), "--calibrate"]
        )
        times_scaled = scaled([r["s"] for r in records], rounds)
    raw = [r["s"] for r in records]
    times = sorted(times_scaled)
    type1, type3 = prepared.accuracy.figures()
    metrics = {
        "setup_s": setup,
        "op_s_p50": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": peak,
        "type1_digits_p05": type1,
        "type3_digits_min": type3,
    }
    n = len(times)
    lines = [f"  {name:<18} {value:.6g} {END_TO_END_UNITS[name]}" for name, value in metrics.items()]
    if n >= _TAIL_MIN_OPS:
        pct = 100.0 * (n - _TAIL_BEYOND) / n
        lines.append(
            f"  {'op_s_tail':<18} {times[n - _TAIL_BEYOND - 1]:.6g} s"
            f" (p{pct:.1f} of {n} ops, {_TAIL_BEYOND} beyond)"
        )
    else:
        lines.append(f"  {'op_s_tail':<18} n/a ({n} ops; given from {_TAIL_MIN_OPS})")
    lines.append(f"  {'ops_failed_frac':<18} {failed / n:.6g} ({failed}/{n})")
    lines.append(
        f"  times are reference seconds (calib.py); measured: setup {setup_raw:.6g} s,"
        f" median op {statistics.median(raw):.6g} s"
    )
    return metrics, END_TO_END_UNITS, n, failed, lines


def traced_run(workload, prepared: Prepared, root: Path, run_dir: Path, seconds: float):
    imports = _import_times(root, run_dir)
    traced, failed_traced, _, _ = _run_inproc(
        prepared, run_dir / "traced", root, ["--seconds", str(seconds / 2), "--trace"]
    )
    n = len(traced)
    untraced, failed_untraced, _, _ = _run_inproc(prepared, run_dir / "untraced", root, ["--ops", str(n)])
    failed = failed_traced + failed_untraced
    agg = summarize(read_spans(run_dir / "traced" / "spans.jsonl"))
    units = {k: "s" for k in imports}
    metrics: dict[str, float] = dict(imports)
    for metric, (span, key, unit) in _SPAN_METRICS.items():
        value = agg.get(span, {}).get(key, 0.0)
        metrics[metric] = value if key == "rss_mb" else value / n
        units[metric] = unit
    layer = {nm: 0.0 for nm in LAYERS}
    for span, fields in agg.items():
        prefix = span.split(".", 1)[0]
        layer[prefix] = layer.get(prefix, 0.0) + fields["self_s"] / n
    traced_wall = sum(r["s"] for r in traced) / n
    untraced_wall = sum(r["s"] for r in untraced) / n
    derived = {
        **{f"layer.{nm}_s": (layer[nm], "s") for nm in LAYERS[1:]},
        "report.payload_s": (
            sum(f["self_s"] for s, f in agg.items() if s.startswith("report.") and s.endswith("_payload")) / n,
            "s",
        ),
        "report.render_s": (
            sum(f["self_s"] for s, f in agg.items() if s.startswith("report.render_")) / n,
            "s",
        ),
        "report.output_mb": (sum(r.get("bytes", 0) for r in traced) / 1e6 / n, "MB"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.spans": (sum(f["calls"] for f in agg.values()) / n, "count"),
    }
    for name, (value, unit) in derived.items():
        metrics[name] = value
        units[name] = unit

    per_op = dict(layer)
    startup = workload.entry == "varpart.cli"
    if startup:
        per_op["cli"] += imports["cli.import_s"]
    dominant = max(per_op, key=per_op.get)
    accounted = sum(layer.values())
    lines = [f"  {name:<42} {metrics[name]:.6g} {units[name]}" for name in sorted(metrics)]
    lines.append(
        f"  layer self times sum to {accounted:.6g} s of {traced_wall:.6g} s traced in-process wall per op"
    )
    lines.append(
        f"  dominant layer per operation{' (start-up counted in cli)' if startup else ''}:"
        f" {dominant} ({per_op[dominant] / sum(per_op.values()):.0%})"
    )
    return metrics, units, len(traced) + len(untraced), failed, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "varpart" / "__init__.py").is_file():
        print(f"error: {src / 'varpart'} not found; run from the root of a varpart checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import varpart

    if Path(varpart.__file__).resolve().parent != (src / "varpart").resolve():
        print(f"error: imported varpart from {varpart.__file__}, not {src}", file=sys.stderr)
        return 2

    # One CPU for the benchmark and every process it starts, so that the
    # calibration rounds (calib.py) time the CPU the operations run on:
    # the two CPUs of a shared virtual machine drift apart in speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        _run_workload(WORKLOADS[name], root, args)
    return 0


def _run_workload(workload, root: Path, args) -> None:
    """Prepare, run and check one workload; print its lines and result object."""
    work = root / ".bench_work"
    runs = work / "runs"
    shutil.rmtree(runs, ignore_errors=True)  # left by a run that was killed
    run_dir = runs / f"{workload.name}-trace{args.trace}"
    run_dir.mkdir(parents=True)
    try:
        prepared = workload.prepare(root, work, args.seed)
        run = traced_run if args.trace else timed_run
        metrics, units, attempted, failed, lines = run(workload, prepared, root, run_dir, args.seconds)
    finally:
        shutil.rmtree(runs, ignore_errors=True)
    print(f"{workload.name} seed {args.seed}: {workload.why}")
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": failed == 0 and all(math.isfinite(v) for v in metrics.values()),
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()
                },
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    sys.exit(main())
