"""Storage ablations for the §2.1 write-path/read-path claims.

The paper lists data deduplication, in-memory indexes, batch commit, and
time+space partitioning as the storage optimizations.  Each benchmark
isolates one of them:

* ingest throughput with small vs large batch commits;
* ingest volume with and without burst merging (dedup);
* point-pattern lookup through the indexes vs a full partition scan;
* partition pruning vs scanning all partitions for a pinned agent+day;
* single-pattern ``select`` (fetch + residual predicate) for a selective
  and a scan-heavy data query.

Every benchmark runs against the storage backend chosen by the
``--backend {row,sqlite,sharded(row),...}`` selector (default ``row``),
e.g.::

    PYTHONPATH=src python -m pytest benchmarks/bench_storage.py --backend sqlite

so the same workload compares substrates directly.  The final test
guards the metrics overhead on the row store's scan-heavy select.
"""

from __future__ import annotations

import pytest

import benchlib
from repro.engine.planner import DataQuery, plan_multievent
from repro.lang.parser import parse
from repro.model.timeutil import Window
from repro.storage.backend import ScanOrder, ScanSpec, create_backend
from repro.storage.ingest import IngestPipeline, ingest_chunked
from repro.storage.stats import PatternProfile
from repro.storage.store import EventStore
from repro.telemetry import build_demo_scenario

EVENTS_PER_HOST = 800

# A selective pattern: one subject name, answerable from posting indexes.
SELECTIVE_AIQL = '''
proc p["sqlservr.exe"] write file f as e1
return f
'''

# A scan-heavy pattern: every file read/write survives the indexes and the
# residual amount filter must touch each candidate.
SCAN_HEAVY_AIQL = '''
amount > 5000
proc p read || write file f as e1
return f
'''


def _single_pattern(aiql: str) -> DataQuery:
    plan = plan_multievent(parse(aiql))
    assert len(plan.data_queries) == 1
    return plan.data_queries[0]


@pytest.fixture(scope="module")
def event_stream():
    scenario = build_demo_scenario(events_per_host=EVENTS_PER_HOST)
    return scenario.events()


@pytest.fixture(scope="module")
def loaded_store(event_stream, backend_name):
    store = create_backend(backend_name)
    store.ingest(event_stream)
    return store


@pytest.mark.benchmark(group="storage-ingest")
def test_ingest_batched(benchmark, event_stream, backend_name):
    def run():
        store = create_backend(backend_name)
        with IngestPipeline(store, batch_size=2000) as pipeline:
            pipeline.add_all(event_stream)
        return len(store)

    assert benchmark(run) == len(event_stream)


@pytest.mark.benchmark(group="storage-ingest")
def test_ingest_chunked(benchmark, event_stream, backend_name):
    """The chunked append path: whole chunks through ``add_batch`` with a
    progress callback, instead of one pipeline call per event."""
    progress_ticks = []

    def run():
        progress_ticks.clear()
        store = create_backend(backend_name)
        stats = ingest_chunked(store, event_stream, chunk_size=2000,
                               progress=progress_ticks.append)
        assert stats.committed == len(store)
        return len(store)

    assert benchmark(run) == len(event_stream)
    assert len(progress_ticks) == (len(event_stream) + 1999) // 2000
    assert progress_ticks[-1].committed == len(event_stream)


@pytest.mark.benchmark(group="storage-ingest")
def test_ingest_unbatched(benchmark, event_stream, backend_name):
    def run():
        store = create_backend(backend_name)
        with IngestPipeline(store, batch_size=1) as pipeline:
            pipeline.add_all(event_stream)
        return len(store)

    assert benchmark(run) == len(event_stream)


@pytest.mark.benchmark(group="storage-ingest")
def test_ingest_with_merge_dedup(benchmark, event_stream, backend_name):
    def run():
        store = create_backend(backend_name)
        with IngestPipeline(store, batch_size=2000,
                            merge_window=15.0) as pipeline:
            pipeline.add_all(event_stream)
        return len(store)

    stored = benchmark(run)
    assert stored < len(event_stream)  # dedup removed burst duplicates


@pytest.mark.benchmark(group="storage-lookup")
def test_indexed_lookup(benchmark, loaded_store):
    """Selective pattern answered through the backend's access paths."""
    profile = PatternProfile(event_type="file",
                             operations=frozenset({"write"}),
                             subject_exact="sqlservr.exe")

    def run():
        return len(loaded_store.candidates(profile))

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="storage-lookup")
def test_full_scan_lookup(benchmark, loaded_store):
    """The same pattern answered by scanning every event."""

    def run():
        return sum(
            1 for event in loaded_store.scan()
            if event.event_type == "file" and event.operation == "write"
            and event.subject.exe_name == "sqlservr.exe")

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="storage-select")
def test_select_selective_single_pattern(benchmark, loaded_store):
    """Index-friendly select: one subject name + residual predicate."""
    dq = _single_pattern(SELECTIVE_AIQL)

    def run():
        events, _fetched = loaded_store.select(dq.profile, dq.compiled)
        return len(events)

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="storage-select")
def test_select_scan_heavy_single_pattern(benchmark, loaded_store):
    """Scan-heavy select: the residual amount filter touches every
    file read/write, so the backend's evaluation mode dominates."""
    dq = _single_pattern(SCAN_HEAVY_AIQL)

    def run():
        events, _fetched = loaded_store.select(dq.profile, dq.compiled)
        return len(events)

    assert benchmark(run) > 0


@pytest.mark.benchmark(group="storage-select")
def test_select_scan_heavy_top_k(benchmark, loaded_store):
    """The same scan-heavy select with a pushed ``ScanOrder``: the
    backend may stop materializing once the newest 25 survivors are
    pinned down, so this should beat the unordered select above."""
    dq = _single_pattern(SCAN_HEAVY_AIQL)
    spec = ScanSpec(order=ScanOrder(descending=True, limit=25))

    def run():
        events, _fetched = loaded_store.select(dq.profile, dq.compiled,
                                               spec)
        return len(events)

    assert benchmark(run) == 25


@pytest.mark.benchmark(group="storage-pruning")
def test_partition_pruned_scan(benchmark, loaded_store):
    window = loaded_store.span
    quarter = Window(window.start, window.start + window.duration / 4)

    def run():
        return len(loaded_store.scan(quarter, {3}))

    benchmark(run)


@pytest.mark.benchmark(group="storage-pruning")
def test_unpruned_scan_then_filter(benchmark, loaded_store):
    window = loaded_store.span
    quarter = Window(window.start, window.start + window.duration / 4)

    def run():
        return sum(1 for event in loaded_store.scan()
                   if quarter.contains(event.ts) and event.agentid == 3)

    benchmark(run)


def test_metrics_overhead_within_budget(event_stream):
    """Guard: metrics-on / tracing-off execution stays within 5% of a
    metrics-off baseline on the scan-heavy select.

    Recording through a handle is an ``enabled`` check plus int/dict
    updates at per-scan granularity — this pins that design down so a
    future per-*event* metric can't sneak into the hot loop unnoticed.
    min-of-N on both sides keeps scheduler noise out of the ratio; a
    small absolute epsilon keeps sub-millisecond timings from flaking
    the gate on timer jitter.
    """
    from repro.obs.metrics import REGISTRY

    store = EventStore()
    store.ingest(event_stream)
    dq = _single_pattern(SCAN_HEAVY_AIQL)

    def scan() -> int:
        events, _fetched = store.select(dq.profile, dq.compiled)
        return len(events)

    rounds = 9
    assert scan() > 0   # warm caches before either timed side
    was_enabled = REGISTRY.enabled
    try:
        REGISTRY.enabled = False
        disabled_time, _ = benchlib.best_of(scan, rounds=rounds)
        REGISTRY.enabled = True
        enabled_time, _ = benchlib.best_of(scan, rounds=rounds)
    finally:
        REGISTRY.enabled = was_enabled
    overhead = enabled_time / disabled_time if disabled_time else 1.0
    print(f"\nmetrics overhead: off {disabled_time * 1000:.3f} ms, "
          f"on {enabled_time * 1000:.3f} ms (x{overhead:.3f})")
    assert enabled_time <= disabled_time * 1.05 + 0.0005, (
        f"metrics-on scan {enabled_time * 1000:.3f} ms exceeds the 5% "
        f"budget over {disabled_time * 1000:.3f} ms")
