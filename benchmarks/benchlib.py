"""Shared timing and percentile helpers for the benchmark suite.

Every bench file used to carry its own copy of the min-of-N timing loop
and an ad-hoc sorted-list percentile; they live here now.  Percentiles
are computed by folding the samples through the observability layer's
log-bucketed histogram (:class:`repro.obs.metrics.HistogramSnapshot`),
so a p95 printed into a BENCH artifact and the ``storage.scan.seconds``
p95 that ``repro stats`` reports at runtime come from exactly the same
code — comparable numbers, one quantile definition (~±12% relative
bucket error, documented there).
"""

from __future__ import annotations

import gc
import math
import time
from typing import Callable, Iterable, TypeVar

from repro.obs.metrics import HistogramSnapshot, MetricsRegistry

T = TypeVar("T")


def time_once(fn: Callable[[], T]) -> tuple[float, T]:
    """One timed call: ``(elapsed seconds, return value)``."""
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def best_of(fn: Callable[[], T], rounds: int = 5) -> tuple[float, T]:
    """min-of-N timing — the suite's variance-resistant convention.

    Returns the best elapsed time and the *last* round's return value
    (every benchmark's workload is deterministic across rounds).
    """
    best = math.inf
    value: T = None  # type: ignore[assignment]
    for _ in range(rounds):
        elapsed, value = time_once(fn)
        if elapsed < best:
            best = elapsed
    return best, value


def interleaved_pairs(first: Callable[[], float],
                      second: Callable[[], float],
                      rounds: int = 5) -> list[tuple[float, float]]:
    """``rounds`` paired timings of two workloads, alternating the order.

    Each callable returns its own elapsed seconds.  Even rounds run
    ``first`` first, odd rounds ``second`` first, so warm-cache and
    host-drift bias does not always land on one side; ``gc.collect()``
    runs before every call.  Compare the two sides per pair (both saw
    the same stretch of host speed) and gate on the median of those
    per-round ratios.
    """
    pairs = []
    for index in range(rounds):
        calls = (first, second) if index % 2 == 0 else (second, first)
        elapsed = {}
        for call in calls:
            gc.collect()
            elapsed[call] = call()
        pairs.append((elapsed[first], elapsed[second]))
    return pairs


def histogram_of(values: Iterable[float]) -> HistogramSnapshot:
    """Fold raw samples through the runtime histogram type."""
    registry = MetricsRegistry()
    handle = registry.histogram("bench")
    for value in values:
        handle.observe(value)
    return handle.snapshot()


def percentile(values: "list[float]", fraction: float) -> float:
    """The ``fraction`` quantile of ``values``, histogram semantics."""
    return histogram_of(values).percentile(fraction)


def latency_summary_ms(values: "list[float]") -> dict:
    """The ``{p50, p95, max}`` millisecond dict BENCH artifacts embed."""
    snapshot = histogram_of(values)
    return {
        "p50": round(snapshot.percentile(0.50) * 1000, 3),
        "p95": round(snapshot.percentile(0.95) * 1000, 3),
        "max": round((snapshot.vmax if snapshot.count else 0.0) * 1000, 3),
    }
