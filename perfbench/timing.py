"""Host-speed normalisation, per-operation deadlines and percentiles.

On a small host that shares its cores with other tenants, the raw speed of
one process can drift by a factor of two within minutes.  Timed chunks
therefore alternate with a fixed pure-Python calibration loop, and each
run's samples are rescaled by ``CALIBRATION_REF_S`` over the median
calibration time of that run.  A normalised figure reads as "the time this
would take on a host where the calibration loop takes ``CALIBRATION_REF_S``";
raw figures are printed beside it for orientation.  (A calibration built
from an imitation of the package's solve path, csv and json rendering
tracked the sweeps worse than this loop on a shared 2-core host.)
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

# About the median calibration-loop time on a shared 2-core x86-64 Linux
# host with Python 3.11.  Only the ratio matters: it pins the unit of
# normalised figures.
CALIBRATION_REF_S = 0.020
_CALIBRATION_ITERS = 12_000


@dataclass(frozen=True)
class _Probe:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and self.y > 0.0):
            raise ValueError("probe out of range")


def _calibration_loop(iters: int) -> float:
    """Fixed work shaped like the package's own: frozen dataclasses with a
    validating ``__post_init__``, float arithmetic, ``math`` calls and a
    little retained allocation."""
    acc = 0.0
    keep = []
    for i in range(iters):
        p = _Probe(i * 0.5, 1.0 + (i & 7))
        acc += math.sqrt(p.x + p.y) * math.log(p.y) / (p.y + 1.0)
        if i & 15 == 0:
            keep.append(p)
    return acc + len(keep)


def calibrate() -> float:
    """Seconds the calibration loop takes now.  The cyclic collector is off
    meanwhile, so the figure does not depend on the size of the heap."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        _calibration_loop(_CALIBRATION_ITERS)
        return time.perf_counter() - t0
    finally:
        gc.enable()


class Meter:
    """Timing samples of one run, and the calibrations interleaved with them.

    ``checkpoint`` runs a calibration between timed chunks.  The samples are
    rescaled by ``reference_s`` over the median of all the run's
    calibrations: one factor per run follows the host's drift between runs
    without adding the noise of any single calibration to a sample.
    """

    def __init__(self) -> None:
        self.calibrations = [calibrate()]
        self.raw: dict[str, list[float]] = defaultdict(list)

    def add(self, key: str, seconds: float, work: float = 1.0) -> None:
        """Record ``seconds`` spent on ``work`` units (per-unit when work > 1)."""
        self.raw[key].append(seconds / work)

    def checkpoint(self) -> None:
        self.calibrations.append(calibrate())

    @property
    def factor(self) -> float:
        return CALIBRATION_REF_S / statistics.median(self.calibrations)

    @property
    def norm(self) -> dict[str, list[float]]:
        factor = self.factor
        return {key: [s * factor for s in values] for key, values in self.raw.items()}

    def wall(self, nominal_s: float) -> float:
        """Wall-clock seconds that match ``nominal_s`` normalised seconds."""
        return nominal_s / self.factor


class DeadlineExceeded(BaseException):
    """Raised inside the measured call when its per-operation deadline fires.

    A ``BaseException`` so that no ``except Exception`` in the code under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def install_deadline_handler():
    """Make SIGALRM raise ``DeadlineExceeded`` (main thread only); returns
    the handler to give back to ``remove_deadline_handler``."""
    return signal.signal(signal.SIGALRM, _on_alarm)


def remove_deadline_handler(previous) -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


class Deadline:
    """A one-shot ``ITIMER_REAL`` deadline on this process, the only process
    it touches.  Needs ``install_deadline_handler()`` first."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def __enter__(self) -> "Deadline":
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile, as ``statistics.quantiles`` computes it."""
    if pct == 50 or len(values) < 2:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
