"""Self-test of the benchmark's own arithmetic.

Checks the per-track self-time computation on hand-built nested and
overlapping spans from two threads, the same on a real two-thread
:class:`~repro.obs.trace.Tracer` recording, and the exact order
statistics.  The traced run calls :func:`run` before measuring and counts
a failure against ``failed``; run it alone with::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

from probes import (min_samples, order_statistic, self_times,  # noqa: E402
                    track_self_over_wall, track_walls)


def _span(name: str, start: float, end: float, tid: int) -> SimpleNamespace:
    return SimpleNamespace(name=name, start=start, end=end, tid=tid)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0, abs_tol=1e-9)


def check_synthetic() -> list[str]:
    """Two tracks whose spans overlap in time; nesting only within each."""
    # Track 0 (main): query [0,10] > parse [0,1], execute-ish plan [1,2];
    # the main thread then waits while track 1 works from 2 to 9.
    # Track 1 (pool): schedule [2,6] > scan [3,5] > storage [3.5,4.5];
    # join [6,9] > storage [7,8].  Track 1 overlaps track 0's query span
    # but must not be subtracted from it.
    query = _span("query", 0, 10, 0)
    parse = _span("parse", 0, 1, 0)
    plan = _span("plan", 1, 2, 0)
    schedule = _span("schedule", 2, 6, 1)
    scan = _span("scan", 3, 5, 1)
    storage1 = _span("storage.select", 3.5, 4.5, 1)
    join = _span("join", 6, 9, 1)
    storage2 = _span("storage.select", 7, 8, 1)
    spans = [storage1, scan, schedule, storage2, join, parse, plan, query]
    selfs = self_times(spans)
    expected = [(query, 8), (parse, 1), (plan, 1), (schedule, 2), (scan, 1),
                (storage1, 1), (join, 2), (storage2, 1)]
    errors = [f"self({span.name}@{span.start}) = {selfs[id(span)]}, "
              f"expected {want}"
              for span, want in expected
              if not _close(selfs[id(span)], want)]
    walls = track_walls(spans)
    if not (_close(walls[0], 10) and _close(walls[1], 7)):
        errors.append(f"track walls {walls}, expected {{0: 10, 1: 7}}")
    ratio = track_self_over_wall(spans)
    if not _close(ratio, 1.0):
        errors.append(f"self/wall ratio {ratio}, expected 1.0")
    return errors


def check_tracer() -> list[str]:
    """A real tracer fed from two threads running at the same time."""
    from repro.obs.trace import Tracer

    tracer = Tracer()

    def work(label: str) -> None:
        with tracer.span(f"{label}.outer"):
            time.sleep(0.002)
            with tracer.span(f"{label}.inner"):
                time.sleep(0.003)
            time.sleep(0.001)

    with tracer.span("root"):
        other = threading.Thread(target=work, args=("pool",))
        other.start()
        work("main")
        other.join(timeout=5)
    if other.is_alive():
        return ["tracer self-test thread did not finish"]
    spans = tracer.spans()
    errors = []
    if len({span.tid for span in spans}) != 2:
        errors.append("expected spans on two thread tracks")
    selfs = self_times(spans)
    by_name = {span.name: span for span in spans}
    outer = by_name["pool.outer"]
    inner = by_name["pool.inner"]
    if not _close(selfs[id(outer)],
                  (outer.end - outer.start) - (inner.end - inner.start)):
        errors.append("pool.outer self time is not duration minus child")
    root = by_name["root"]
    main_outer = by_name["main.outer"]
    if not _close(selfs[id(root)], (root.end - root.start)
                  - (main_outer.end - main_outer.start)):
        errors.append("root self time subtracted a span of another track")
    if track_self_over_wall(spans) > 1 + 1e-9:
        errors.append("a track's self time exceeds its wall time")
    return errors


def check_percentiles() -> list[str]:
    errors = []
    samples = list(range(1, 1001))          # 1..1000
    if order_statistic(samples, 0.99) != 990:
        errors.append("p99 of 1..1000 should be 990")
    if order_statistic(samples, 0.5) != 500:
        errors.append("p50 of 1..1000 should be 500")
    if min_samples(0.99) != 1000 or min_samples(0.9) != 100:
        errors.append("min_samples disagrees with the ten-above rule")
    try:
        order_statistic(range(999), 0.99)
        errors.append("p99 of 999 samples should be refused")
    except ValueError:
        pass
    return errors


def run() -> list[str]:
    return check_synthetic() + check_tracer() + check_percentiles()


if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print(f"FAIL: {problem}")
    print("self-test ok" if not problems else f"{len(problems)} failure(s)")
    sys.exit(1 if problems else 0)
