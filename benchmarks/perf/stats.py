"""Statistics the benchmark reports with, kept free of program imports.

Everything here is a pure function of its inputs so the unit tests in
``test_perf_bench.py`` can pin the definitions: the nearest-rank
percentile, the "highest percentile with at least ten samples beyond it"
rule, the open-loop rate search, backlog detection and the run-to-run
spread that regression bounds are derived from.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest one the sample supports (see :func:`tail_percentile`).
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10

#: Regression bounds: three times the observed spread, so the spread
#: stays below a third of the bound, within these limits.
BOUND_FLOOR = 0.03
BOUND_CAP = 0.10

#: Backlog growth below this many seconds of lateness is jitter, not a queue.
BACKLOG_FLOOR_S = 0.001

#: The rate search stops once the failing rate is within this share of
#: the passing one, or, when nothing passed, at or below
#: ``SEARCH_FLOOR_RPS``.
SEARCH_BRACKET = 0.05
SEARCH_FLOOR_RPS = 50.0


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (any order): the value at
    1-based rank ``ceil(pct/100 * n)``.  Returns 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with at least :data:`MIN_BEYOND`
    samples beyond it, or ``None`` when even the median lacks them."""
    for pct in TAIL_CANDIDATES:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def summarize(samples: Sequence[float]) -> dict:
    """Median, supported tail percentile, count, min and max."""
    ordered = sorted(samples)
    pct = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "p50": nearest_rank(ordered, 50.0),
        "tail_pct": pct,
        "tail": nearest_rank(ordered, pct) if pct is not None else None,
        "min": ordered[0] if ordered else 0.0,
        "max": ordered[-1] if ordered else 0.0,
    }


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``, exclusive method)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0
    return abs(q3 - q1) / abs(median)


def suggest_bound(values: Sequence[float]) -> float:
    """Regression bound for a metric: three times its observed spread,
    clamped to ``[BOUND_FLOOR, BOUND_CAP]``."""
    return min(BOUND_CAP, max(BOUND_FLOOR, 3.0 * spread(values)))


def backlog_growing(lateness: Sequence[float]) -> bool:
    """Did an open-loop step build a queue?

    ``lateness`` is each request's delay from its scheduled send to its
    response, in send order.  The step grew a backlog when the median of
    its last quarter exceeds twice that of its first quarter (or of
    :data:`BACKLOG_FLOOR_S`, so sub-millisecond jitter on an idle server
    does not read as growth).
    """
    if len(lateness) < 8:
        return False
    quarter = len(lateness) // 4
    first = statistics.median(lateness[:quarter])
    last = statistics.median(lateness[-quarter:])
    return last > 2.0 * max(first, BACKLOG_FLOOR_S)


class RateSearch:
    """Highest passing offered rate: double until a step fails, then
    bisect until the bracket is within :data:`SEARCH_BRACKET` of the
    passing rate.

    Feed each step's verdict to :meth:`record`; :attr:`rate` is the next
    rate to offer and :attr:`best` the highest rate that passed so far.
    """

    def __init__(self, start: float) -> None:
        self.passed = 0.0
        self.failed: float | None = None
        self.rate = float(start)
        self.steps: list[tuple[float, bool]] = []

    @property
    def best(self) -> float:
        return self.passed

    @property
    def done(self) -> bool:
        if self.failed is None:
            return False
        if self.passed == 0.0:
            return self.failed <= SEARCH_FLOOR_RPS
        return self.failed - self.passed <= SEARCH_BRACKET * self.passed

    def record(self, rate: float, ok: bool) -> None:
        self.steps.append((rate, ok))
        if ok:
            self.passed = max(self.passed, rate)
        elif self.failed is None or rate < self.failed:
            self.failed = rate
        if self.failed is None:
            self.rate = self.passed * 2.0
        else:
            self.rate = round((self.passed + self.failed) / 2.0)
