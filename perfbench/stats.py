"""Order statistics, op timing and outcome counting used by the benchmark."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

#: A reported tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """Highest percentile of `values` with TAIL_BEYOND samples above it.

    Returns (value, percentile, samples_beyond).  With n sorted samples the
    value at 1-based rank n - TAIL_BEYOND has exactly TAIL_BEYOND samples
    after it, and it sits at percentile 100 * (n - TAIL_BEYOND) / n.  With
    too few samples no percentile qualifies; the maximum is returned with 0
    beyond, so the caller can say so.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("tail of an empty sample")
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def median(values) -> float:
    return float(statistics.median(values))


#: Median wall time of calibration_s() on the reference machine (2-core
#: Xeon VM at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
CAL_REF_S = 0.0050

_CAL_INPUT = np.cos(np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))


def calibration_s() -> float:
    """Wall time of a fixed kernel that does not touch specfact.

    An interpreter loop plus FFT and transcendental work on a 4096 grid,
    the same mix as the program.  On a shared machine the CPU speed drifts
    by tens of percent over minutes; dividing an op's wall time by this
    kernel's time, measured just before the op, cancels that drift.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    for _ in range(20):
        np.fft.irfft(np.fft.rfft(np.exp(_CAL_INPUT)))
    return time.perf_counter() - t0


def timed(op):
    """(wall seconds, calibration seconds just before, results) of one op."""
    gc.collect()  # the harness's own garbage is not the op's to collect
    cal = calibration_s()
    t0 = time.perf_counter()
    results = op.run()
    return time.perf_counter() - t0, cal, results


def at_reference_speed(wall_s: float, cal_s: float) -> float:
    """A wall time rescaled to the reference machine's speed."""
    return wall_s / cal_s * CAL_REF_S


#: calibration samples on each side of an op that set its speed estimate
CAL_HALF_WINDOW = 2


def scaled_walls(walls, cals) -> list[float]:
    """Op wall times at reference speed.

    cals[i] is the calibration time measured just before op i.  One 5 ms
    sample is noisy, so op i is scaled by the median of the samples taken
    before ops i - CAL_HALF_WINDOW .. i + CAL_HALF_WINDOW, which still
    follows the drift of the machine over a few seconds.
    """
    n, h = len(walls), CAL_HALF_WINDOW
    return [at_reference_speed(w, median(cals[max(0, i - h):min(n, i + h + 1)]))
            for i, w in enumerate(walls)]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one op.

    ok: the op returned exit 0 and its output passed every check.
    consistent: nothing the program printed contradicts its own fields or
    its exit code.
    """

    ok: bool
    consistent: bool = True
    reason: str = ""


@dataclass
class Tally:
    """Counts attempted and failed ops, and those that make a run incorrect.

    A run is correct only if every op's output is consistent and every op
    passes, except ops marked fragile: inputs on which the program is known
    to fail some of the time.  Their failures are counted, not forgiven.
    """

    attempted: int = 0
    failed: int = 0
    fatal: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, label: str, verdict: Verdict, fragile: bool) -> None:
        self.attempted += 1
        if not verdict.ok:
            self.failed += 1
        if not verdict.consistent or not (verdict.ok or fragile):
            self.fatal += 1
        if not (verdict.ok and verdict.consistent):
            self.reasons.append(f"{label}: {verdict.reason}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.fatal == 0
