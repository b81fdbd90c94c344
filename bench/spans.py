"""Outside-in span recorder for varpart's layers.

The program carries no instrumentation of its own, so spans are recorded
from the benchmark's side: every public varpart function a traced call can
pass through is replaced, for the duration of the run, by a wrapper that
records a span, and the original is restored afterwards. varpart binds
names with ``from .x import y``, so a call made inside module m looks the
name up in m's own namespace; wrapping only the defining module would miss
it. Each importing module's binding is therefore wrapped separately:

* every varpart function that ``varpart.cli`` imports from another module;
* in ``varpart.decomposition``: ``fit_ols``, ``fit_centered_design``,
  ``residualize``, ``residualized_simple_fits`` and ``enumerate_orderings``,
  which its own functions call;
* in ``varpart.ols_core``: ``fit_centered_design`` (called by ``fit_ols``)
  and ``mean_center``;
* ``varpart.decomposition.compare_report``, which the library sweep calls.

A span is ``[name, start, end, parent, op, counts]``: the layer-qualified
function name (``ols_core.fit_ols``), perf_counter start and end, the index
of the enclosing span (None for an operation's root), the operation id,
and a dict of work counts or None. Spans stay in memory until the run
ends. The layer of a span is the module that defines the function, so a
call reached through ``varpart.cli.fit_ols`` and one reached through
``varpart.decomposition.fit_ols`` both count as ``ols_core``.

Layer metrics and the end-to-end metric each should move
(CLI workloads pay ``cli.import_s`` once per operation, as start-up):

===================================================  ==========================================
per-layer metric                                     should move
===================================================  ==========================================
cli.import_s, cli.import_numpy_s, cli.import_scipy_s setup_s everywhere; op_s_p50 on dwaine-cli;
                                                     not ops_per_s on collinear-sweep
cli.other_s                                          op_s_p50 on orderings-p7 (12 MB written)
data_io.load_csv_s, .rows, .input_mb,                op_s_p50 and peak_rss_mb on ingest-tall;
.load_csv_rss_mb                                     not dwaine-cli, not collinear-sweep
ols_core.mean_center_s, .fit_ols_s,                  op_s_p50 on ingest-tall; ops_per_s on
.fit_centered_design_calls, .fit_centered_design_s   collinear-sweep
decomposition.sequential_ss_s,                       op_s_p50 on orderings-p7
.orthogonal_regression_s, .residualize_calls,
.residualize_s, .orderings
decomposition.compare_report_s, .venn_regions_s      ops_per_s and the digits metrics on
                                                     collinear-sweep; op_s_p50 on ingest-tall
report.payload_s, .render_s, .output_mb              op_s_p50, peak_rss_mb on orderings-p7;
                                                     near zero on dwaine-cli
venn_svg.render_s                                    dwaine-cli only (sub-millisecond)
===================================================  ==========================================
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

LAYERS = ("cli", "data_io", "ols_core", "decomposition", "report", "venn_svg")

# Bindings wrapped besides everything varpart.cli imports (see module doc).
_MODULE_BINDINGS = {
    "varpart.decomposition": (
        "fit_ols",
        "fit_centered_design",
        "residualize",
        "residualized_simple_fits",
        "enumerate_orderings",
        "compare_report",
    ),
    "varpart.ols_core": ("fit_centered_design", "mean_center"),
}


def _maxrss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_load_csv(args, result, rss_growth_mb: float) -> dict[str, float]:
    return {
        "rows": result.n,
        "input_mb": os.path.getsize(args[0].path) / 1e6,
        "rss_mb": rss_growth_mb,
    }


def _count_orderings(args, result, rss_growth_mb: float) -> dict[str, float]:
    return {"orderings": len(result)}


_COUNTERS: dict[str, Callable[..., dict[str, float]]] = {
    "data_io.load_csv": _count_load_csv,
    "decomposition.enumerate_orderings": _count_orderings,
}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class SpanRecorder:
    """Collects spans from wrapped varpart functions."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._op = -1

    def _open(self, name: str) -> list[Any]:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list[Any]) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op: int) -> Iterator[None]:
        """Root span of one operation; its self time is the cli layer's."""
        self._op = op
        span = self._open("cli.op")
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, fn: Callable) -> Callable:
        name = _span_name(fn)
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rss0 = _maxrss_mb() if count else 0.0
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count:
                span[5] = count(args, result, _maxrss_mb() - rss0)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every traced binding; restore the originals on exit."""
        import varpart.cli

        targets = [
            (varpart.cli, nm)
            for nm, obj in vars(varpart.cli).items()
            if inspect.isfunction(obj)
            and obj.__module__.startswith("varpart.")
            and obj.__module__ != "varpart.cli"
        ]
        for modname, names in _MODULE_BINDINGS.items():
            mod = importlib.import_module(modname)
            targets += [(mod, nm) for nm in names]
        originals = [(mod, nm, getattr(mod, nm)) for mod, nm in targets]
        try:
            for mod, nm, fn in originals:
                setattr(mod, nm, self.wrap(fn))
            yield
        finally:
            for mod, nm, fn in originals:
                setattr(mod, nm, fn)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[list[Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def summarize(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self seconds, and work counts.

    A span's self time is its duration minus the durations of its direct
    children, so self times over all spans add up to the root spans'
    durations, that is, to the traced in-process wall time. Counts are
    summed, except ``rss_mb``, of which the largest is kept: later calls
    reuse memory the first one took, so their growth is near zero.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += (end - start) - child_time[i]
        for key, value in (counts or {}).items():
            agg[key] = max(agg.get(key, 0.0), value) if key == "rss_mb" else agg.get(key, 0.0) + value
    return out
