"""Measurement helpers: percentiles, machine speed, self time, storage probe.

Nothing here reaches inside ``src/``: the probe wraps a store through its
public protocol and opens spans on the session's own tracer, and the
self-time arithmetic reads the finished spans a traced query leaves.
"""

from __future__ import annotations

import bisect
import math
import multiprocessing
import resource
import threading
import time
from statistics import median
from typing import Callable, Iterable

#: A percentile needs this many samples above it to be reported.
TAIL_SAMPLES = 10


# ---------------------------------------------------------------------------
# Exact order statistics
# ---------------------------------------------------------------------------

def min_samples(fraction: float) -> int:
    """Fewest samples for which ``fraction`` has TAIL_SAMPLES above it."""
    n = 1
    while n - math.ceil(fraction * n) < TAIL_SAMPLES:
        n += 1
    return n


def order_statistic(samples: Iterable[float], fraction: float) -> float:
    """The nearest-rank ``fraction`` quantile of the raw samples.

    Exact (no bucketing): the value at rank ``ceil(fraction * n)`` of the
    sorted samples.  Raises ``ValueError`` when fewer than
    :data:`TAIL_SAMPLES` samples lie above that rank, so an undersized
    run fails loudly instead of reporting its maximum as a percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(fraction * n))
    if n - rank < TAIL_SAMPLES:
        raise ValueError(f"p{fraction * 100:g} needs {min_samples(fraction)}"
                         f" samples, got {n}")
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

#: Typical duration of :func:`_calibration_work` on the reference machine
#: (a 2-vCPU x86-64 VM, CPython 3.11).  Normalized times read as seconds
#: on that machine at that speed.
REFERENCE_CALIBRATION_S = 0.002

#: Re-measure the machine's speed after this much measured work.
CALIBRATION_INTERVAL_S = 0.1

#: Calibrations within this many seconds of a sample set its speed.
SPEED_WINDOW_S = 0.5


def _calibration_work() -> int:
    """A fixed interpreter-bound workload: dict, string, sort, objects."""
    table: dict[str, int] = {}
    for i in range(3600):
        key = f"k{i % 1500}"
        table[key] = table.get(key, 0) + i
    pairs = sorted(table.items(), key=lambda item: item[1])
    spans = [_Span(value, value + 1) for _key, value in pairs]
    return sum(span.end - span.start for span in spans)


class _Span:
    """A small slotted object, so calibration allocates like the engine."""

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int) -> None:
        self.start = start
        self.end = end


class SpeedTrack:
    """The machine's speed over a run, sampled with a fixed workload.

    On a shared host the same interpreter work takes up to ~1.5x longer
    in some seconds than in others, and process CPU time slows with it,
    so wall and CPU time alike drift with neighbours' load.  The track
    times :func:`_calibration_work` between measured operations;
    :meth:`normalize` scales a raw duration taken at time ``t`` by
    ``REFERENCE_CALIBRATION_S`` over the median calibration within
    :data:`SPEED_WINDOW_S` of ``t`` (at least the three nearest).  One
    calibration is a few milliseconds and catches short bursts, so the
    window smooths them out and only the slower drift is corrected.  The
    calibration runs outside every timed region, in the benchmark's own
    code, so it is identical on any two commits being compared.
    """

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []
        self._last = -math.inf

    def measure(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            started = time.perf_counter()
            _calibration_work()
            ended = time.perf_counter()
            self.points.append(((started + ended) / 2, ended - started))
        self._last = time.perf_counter()

    def maybe_measure(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            self.measure()

    def factor(self, at: float) -> float:
        """Reference over current speed, from the calibrations near ``at``."""
        points = self.points
        lo = bisect.bisect_left(points, (at - SPEED_WINDOW_S,))
        hi = bisect.bisect_right(points, (at + SPEED_WINDOW_S,))
        nearby = points[lo:hi]
        if len(nearby) < 3:
            index = bisect.bisect(points, (at,))
            nearby = sorted(points[max(0, index - 3):index + 3],
                            key=lambda point: abs(point[0] - at))[:3]
        return REFERENCE_CALIBRATION_S / median(
            seconds for _t, seconds in nearby)

    def normalize(self, samples: Iterable[tuple[float, float]]
                  ) -> list[float]:
        """``[(time, raw seconds)]`` → reference-speed seconds."""
        return [raw * self.factor(at) for at, raw in samples]

    def calibration_s(self) -> float:
        return median(seconds for _t, seconds in self.points)


# ---------------------------------------------------------------------------
# Span self time, per thread track
# ---------------------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus same-track children.

    Spans are grouped by their thread track (``tid``).  Within a track
    they nest (each thread keeps its own span stack), so a span's direct
    children are the spans one level deeper that lie inside it.  Spans on
    other tracks — pool threads working for a parent on the main thread —
    are never subtracted from that parent, and never summed into it.
    Returns ``{id(span): seconds}``.
    """
    result: dict[int, float] = {}
    for track in _tracks(spans).values():
        track.sort(key=lambda span: (span.start, -span.end))
        stack: list = []
        for span in track:
            while stack and stack[-1].end <= span.start:
                stack.pop()
            result[id(span)] = span.end - span.start
            if stack:
                result[id(stack[-1])] -= span.end - span.start
            stack.append(span)
    return result


def track_walls(spans) -> dict[int, float]:
    """Per track, the length of the union of its spans' intervals."""
    walls: dict[int, float] = {}
    for tid, track in _tracks(spans).items():
        total, reach = 0.0, -math.inf
        for span in sorted(track, key=lambda span: span.start):
            if span.end > reach:
                total += span.end - max(span.start, reach)
                reach = span.end
        walls[tid] = total
    return walls


def track_self_over_wall(spans) -> float:
    """Largest per-track ratio of summed self time to the track's wall.

    By construction at most 1 (up to float rounding); a larger value
    would mean the arithmetic counted some interval twice.
    """
    selfs = self_times(spans)
    walls = track_walls(spans)
    summed: dict[int, float] = {}
    for span in spans:
        summed[span.tid] = summed.get(span.tid, 0.0) + selfs[id(span)]
    return max((summed[tid] / walls[tid] for tid in summed if walls[tid] > 0),
               default=0.0)


def _tracks(spans) -> dict[int, list]:
    tracks: dict[int, list] = {}
    for span in spans:
        if span.end is not None:
            tracks.setdefault(span.tid, []).append(span)
    return tracks


# ---------------------------------------------------------------------------
# Storage probe
# ---------------------------------------------------------------------------

class StorageProbe:
    """A delegating :class:`StorageBackend` that times every storage call.

    ``select``/``estimate``/``select_batches``/``ingest`` are timed and
    counted; each timed call also opens a ``storage.*`` span on the
    tracer ``current_tracer()`` returns, so the traced query's self-time
    arithmetic sees storage as a child layer on the calling thread's
    track.  ``select_batches`` is exposed only when the wrapped store has
    it — the vectorized executor feature-detects it with ``getattr`` — so
    the engine takes exactly the code paths it takes without the probe.
    Everything else delegates unchanged.
    """

    def __init__(self, inner, current_tracer: Callable[[], object]
                 = lambda: None) -> None:
        self.inner = inner
        self.current_tracer = current_tracer
        self.backend_name = inner.backend_name
        self._lock = threading.Lock()
        self.reset()
        if hasattr(inner, "select_batches"):
            self.select_batches = self._select_batches

    def reset(self) -> None:
        with self._lock:
            self.seconds = {"select": 0.0, "estimate": 0.0, "ingest": 0.0}
            self.calls = {"select": 0, "estimate": 0, "ingest": 0}
            self.fetched = 0
            self.matched = 0

    def _timed(self, name: str, call: Callable):
        tracer = self.current_tracer()
        started = time.perf_counter()
        if tracer is None:
            value = call()
        else:
            with tracer.span(f"storage.{name}"):
                value = call()
        elapsed = time.perf_counter() - started
        with self._lock:
            self.seconds[name] += elapsed
            self.calls[name] += 1
        return value

    def select(self, profile, predicate, spec=None):
        survivors, fetched = self._timed(
            "select", lambda: self.inner.select(profile, predicate, spec))
        with self._lock:
            self.fetched += fetched
            self.matched += len(survivors)
        return survivors, fetched

    def _select_batches(self, profile, predicate, spec=None):
        batches, fetched = self._timed(
            "select",
            lambda: self.inner.select_batches(profile, predicate, spec))
        with self._lock:
            self.fetched += fetched
            self.matched += sum(len(batch) for batch in batches)
        return batches, fetched

    def estimate(self, profile, spec=None):
        return self._timed("estimate",
                           lambda: self.inner.estimate(profile, spec))

    def ingest(self, events):
        return self._timed("ingest", lambda: self.inner.ingest(events))

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

def _child_peak_kib(pid: int) -> int:
    """A live child's peak resident set (``VmHWM``), 0 if unreadable."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = sum(_child_peak_kib(child.pid)
                   for child in multiprocessing.active_children())
    return (own + children) / 1024.0
