"""Summary statistics the benchmark reports.

Every end-to-end figure is a median (or a median-based sum) over many
units inside one run, never one pass's total: wall-clock speed on a
shared two-core host drifts by tens of percent between 10-second
windows, and medians over units spread across the whole run absorb it.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.  A fixed
#: ladder keeps tails of runs with slightly different sample counts
#: comparable.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is reported only with at least this many samples
#: strictly beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def nearest_rank(sorted_values: Sequence[float], pct: float) -> int:
    """0-based index of the nearest-rank ``pct`` percentile."""
    n = len(sorted_values)
    return max(0, min(n - 1, math.ceil(pct / 100.0 * n) - 1))


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """``(percentile, value, sample_count)`` for the highest ladder
    percentile with at least :data:`TAIL_MIN_BEYOND` samples beyond
    it, or None when there are too few samples for any rung."""
    ordered = sorted(values)
    best = None
    for pct in TAIL_LADDER:
        index = nearest_rank(ordered, pct)
        if len(ordered) - 1 - index >= TAIL_MIN_BEYOND:
            best = (pct, ordered[index], len(ordered))
    return best


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def per_pass_time(samples: Dict[Tuple[str, str], List[float]],
                  passes: int) -> Dict[str, float]:
    """Median-based time one pass spends on each program.

    ``samples`` maps (program, op class) to the latencies of that
    class of operation on that program; each class contributes its
    median times how often it occurs per pass.  Summing medians per
    (program, class) keeps the figure independent of how the seeded
    order happened to interleave slow and fast operations."""
    per_program: Dict[str, float] = {}
    for (program, _), values in samples.items():
        share = median(values) * len(values) / passes
        per_program[program] = per_program.get(program, 0.0) + share
    return per_program


def calibration_ms(reps: int = 15) -> List[float]:
    """Milliseconds per call of a fixed pure-Python loop.  A host
    diagnostic only: it tells a host slowdown from a regression and
    is never used to scale another metric."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(100000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1000.0)
    return samples
