"""Machine-speed calibration for the benchmark's time metrics.

On a shared virtual machine the speed of a core drifts by 20% and more
over tens of seconds, so raw seconds from runs made minutes apart differ
by more than any change worth detecting. The benchmark therefore runs a
fixed calibration workload, independent of varpart, next to every
operation it times (just before and after it, and for a CLI process also
periodically while it is stopped; see launch.py), on the same CPU,
and reports every time metric in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / mean round seconds

with the mean taken over the rounds next to that operation: the time
the operation would have taken on a machine where one calibration round
takes REFERENCE_S. REFERENCE_S is an arbitrary fixed constant, so only
the ratio of two runs' figures carries meaning; baseline.json lists the
measured seconds next to the reference ones.

A round is the kind of work varpart's time goes to: small least-squares
solves (QR, triangular solve, residual sum of squares) on a 200-row
design, each a handful of numpy calls whose cost is mostly their Python
overhead. Over runs of the orderings and tall-ingest operations, the
mean of such rounds followed the speed varpart ran at more closely than
their median, than rounds of pure interpreter work, or than rounds that
also fault in fresh memory.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0015

_X = np.random.default_rng(1).standard_normal((200, 5))
_Y = np.random.default_rng(2).standard_normal(200)


def calibrate_once() -> float:
    """Seconds taken by one round of fixed work."""
    t0 = time.perf_counter()
    for k in range(1, 6):
        for _ in range(6):
            q, r = np.linalg.qr(_X[:, :k])
            b = np.linalg.solve(r, q.T @ _Y)
            resid = _Y - _X[:, :k] @ b
            float(resid @ resid)
    return time.perf_counter() - t0


def calibrate(seconds: float) -> list[float]:
    """Calibration rounds for ``seconds``, at least one."""
    samples = [calibrate_once()]
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        samples.append(calibrate_once())
    return samples


def scale(rounds: list[float]) -> float:
    """Factor from measured to reference seconds, given calibration rounds."""
    return REFERENCE_S / statistics.fmean(rounds)


def scaled(times: list[float], rounds: list[list[float]]) -> list[float]:
    """Reference seconds of operations run between calibrations.

    ``rounds[k]`` are the rounds taken just before operation k and
    ``rounds[k + 1]`` those just after it.
    """
    if len(rounds) != len(times) + 1:
        raise ValueError("need calibration rounds before and after every operation")
    return [t * scale(rounds[k] + rounds[k + 1]) for k, t in enumerate(times)]
