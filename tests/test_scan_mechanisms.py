"""Deterministic checks that the always-on scan optimizations engage.

Binding and temporal pushdown, histogram-based estimates and top-k
pushdown have no off switch, so these tests pin
the observable effect of each on the scenario that motivated it —
fetched-row counts, plan order, trace spans — instead of timing it.
The reference for "nothing pushed" is ``propagate=False``: with no
propagation there are no bindings or bounds to push, so it stays an
independent baseline whose rows every backend must reproduce.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.executor import EngineOptions, execute
from repro.lang.parser import parse
from repro.model.entities import FileEntity, ProcessEntity
from repro.model.timeutil import parse_timestamp
from repro.storage.backend import create_backend

#: ``columnar`` is the deprecated alias of ``row``; it stays in the matrix
#: while the benchmark still selects it by that name.
BACKENDS = ("row", "columnar", "sqlite")

DEFAULT = EngineOptions()
UNPROPAGATED = EngineOptions(propagate=False)

NOISE_EVENTS = 3_000


def _stores(events) -> dict:
    stores = {}
    for name in BACKENDS:
        store = create_backend(name)
        store.ingest(events)
        stores[name] = store
    return stores


def _fetched(result) -> dict[str, int]:
    return {trace.event_var: trace.fetched
            for trace in result.execution.patterns}


# ---------------------------------------------------------------------------
# Identity-binding pushdown
# ---------------------------------------------------------------------------

# The selective read pins ``f`` to one identity, which then restricts the
# broad all-file-writes pattern inside its scan.
PUSHDOWN_AIQL = '''
proc r["rare.exe"] read file f as e1
proc w write file f as e2
with e1 before e2
return distinct f
'''


def _pushdown_events():
    """One rare read pinning ``f``, then a sea of unrelated writes."""
    agent = 1
    rare = ProcessEntity(agent, 1, "rare.exe")
    target = FileEntity(agent, "/data/target")
    store = create_backend("row")
    store.record(1000.0, agent, "read", rare, target)
    writers = [ProcessEntity(agent, 10 + index, f"writer{index}.exe")
               for index in range(8)]
    for index in range(NOISE_EVENTS):
        store.record(2000.0 + index, agent, "write",
                     writers[index % len(writers)],
                     FileEntity(agent, f"/noise/{index % 4096}"))
    for index in range(3):
        store.record(40_000.0 + index, agent, "write",
                     writers[index], target)
    return store.scan()


class TestBindingPushdown:
    @pytest.fixture(scope="class")
    def stores(self):
        return _stores(_pushdown_events())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bound_pattern_fetches_fewer_rows(self, stores, backend):
        query = parse(PUSHDOWN_AIQL)
        pushed = execute(stores[backend], query, DEFAULT)
        unpushed = execute(stores[backend], query, UNPROPAGATED)
        assert pushed.rows == unpushed.rows == [("/data/target",)]
        assert _fetched(pushed)["e2"] < _fetched(unpushed)["e2"]


# ---------------------------------------------------------------------------
# Temporal-bounds pushdown
# ---------------------------------------------------------------------------

# A before-chain whose middle pattern shares no variable with the others:
# only the propagated (transitive) temporal bounds can restrict its scan
# to the sliver after the late anchor.
TEMPORAL_AIQL = '''
proc r["rare.exe"] read file f as e1
proc w write file g as e2
proc t["tail%"] write file f as e3
with e1 before e2, e2 before e3
return distinct f
'''

#: Spreads the noise over several day buckets, so partition pruning and
#: the in-partition ts clamp both take part.
TEMPORAL_SPACING = 120.0


def _temporal_events():
    """Days of noise, then a rare anchor read and the chain completions."""
    agent = 1
    store = create_backend("row")
    writers = [ProcessEntity(agent, 10 + index, f"writer{index}.exe")
               for index in range(8)]
    for index in range(NOISE_EVENTS):
        store.record(1000.0 + index * TEMPORAL_SPACING, agent, "write",
                     writers[index % len(writers)],
                     FileEntity(agent, f"/noise/{index % 4096}"))
    anchor_ts = 1000.0 + NOISE_EVENTS * TEMPORAL_SPACING
    rare = ProcessEntity(agent, 1, "rare.exe")
    tail = ProcessEntity(agent, 2, "tail.exe")
    target = FileEntity(agent, "/data/target")
    store.record(anchor_ts, agent, "read", rare, target)
    for index in range(3):
        store.record(anchor_ts + 10 + index, agent, "write",
                     writers[index], FileEntity(agent, f"/mid/{index}"))
        store.record(anchor_ts + 20 + index, agent, "write", tail, target)
    return store.scan()


class TestTemporalPushdown:
    @pytest.fixture(scope="class")
    def stores(self):
        return _stores(_temporal_events())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bounded_pattern_fetches_fewer_rows(self, stores, backend):
        query = parse(TEMPORAL_AIQL)
        pushed = execute(stores[backend], query, DEFAULT)
        unpushed = execute(stores[backend], query, UNPROPAGATED)
        assert pushed.rows == unpushed.rows == [("/data/target",)]
        # e2 is restricted by temporal bounds alone.
        assert _fetched(pushed)["e2"] < _fetched(unpushed)["e2"]


# ---------------------------------------------------------------------------
# Histogram estimates
# ---------------------------------------------------------------------------

# One day bucket with skewed timestamps: bulk.exe's writes land in the
# early hours, probe.exe's reads inside the queried afternoon window.
# Scaling each posting list by the window's share of the bucket would
# rank the (truly tiny) in-window bulk pattern as the more expensive one;
# per-posting equi-depth histograms see its in-window mass is 5 events
# and run it first.
SKEW_DAY = "01/02/2000"
SKEW_AIQL = f'''
(from "{SKEW_DAY} 10:00:00" to "{SKEW_DAY} 16:00:00")
proc a["bulk.exe"] write file f as e1
proc b["probe.exe"] read file f as e2
with e1 before e2
return distinct f
'''

SKEW_BULK_EVENTS = 3_000
SKEW_PROBE_EVENTS = 2_000


def _skewed_events():
    day = parse_timestamp(SKEW_DAY)
    agent = 1
    store = create_backend("row")
    bulk = ProcessEntity(agent, 1, "bulk.exe")
    probe = ProcessEntity(agent, 2, "probe.exe")
    target = FileEntity(agent, "/data/target")
    for index in range(SKEW_BULK_EVENTS):
        store.record(day + 1000.0 + index, agent, "write", bulk,
                     FileEntity(agent, f"/bulk/{index % 4096}"))
    for index in range(5):
        store.record(day + 36_100.0 + index, agent, "write", bulk, target)
    for index in range(SKEW_PROBE_EVENTS):
        store.record(day + 36_200.0 + index, agent, "read", probe,
                     FileEntity(agent, f"/probe/{index % 4096}"))
    for index in range(3):
        store.record(day + 56_500.0 + index, agent, "read", probe, target)
    return store.scan()


class TestHistogramEstimates:
    @pytest.fixture(scope="class")
    def stores(self):
        return _stores(_skewed_events())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_skewed_workload_plans_selective_pattern_first(self, stores,
                                                           backend):
        query = parse(SKEW_AIQL)
        result = execute(stores[backend], query, DEFAULT)
        assert result.execution.order == ["e1", "e2"]
        assert result.rows == [("/data/target",)]
        assert execute(stores[backend], query,
                       UNPROPAGATED).rows == result.rows


# ---------------------------------------------------------------------------
# Top-k pushdown
# ---------------------------------------------------------------------------

# A scan-heavy single-pattern projection: about half the writes survive
# the amount filter, and the return clause reads two columns.
SCAN_HEAVY_AIQL = '''
amount > 5000
proc p write file f as e1
return f, e1.amount
'''

# The same scan, explicitly time-ordered, only the newest 25 wanted.
TOPK_AIQL = '''
amount > 5000
proc p write file f as e1
return f, e1.amount, e1.ts sort by e1.ts desc top 25
'''

#: Large enough that the survivors outnumber the rows one ordered-scan
#: chunk walks (``repro.storage.store.ORDERED_CHUNK``).
SCAN_HEAVY_EVENTS = 10_000


def _scan_heavy_events():
    """A sea of writes with varied amounts; ~half survive the filter."""
    agent = 1
    store = create_backend("row")
    writers = [ProcessEntity(agent, 10 + index, f"writer{index}.exe")
               for index in range(8)]
    for index in range(SCAN_HEAVY_EVENTS):
        store.record(1000.0 + index * 0.5, agent, "write",
                     writers[index % len(writers)],
                     FileEntity(agent, f"/data/{index % 4096}"),
                     amount=(index * 7919) % 10_000)
    return store.scan()


class TestVectorizedAndTopK:
    @pytest.fixture(scope="class")
    def stores(self):
        return _stores(_scan_heavy_events())

    def test_rows_agree_across_backends(self, stores):
        for aiql in (SCAN_HEAVY_AIQL, TOPK_AIQL):
            query = parse(aiql)
            reference = execute(stores["row"], query).rows
            assert reference
            for name in BACKENDS[1:]:
                assert execute(stores[name], query).rows == reference, name

    def test_topk_scan_fetches_below_survivor_count(self, stores):
        store = stores["row"]
        query = parse(TOPK_AIQL)
        result = execute(store, query, DEFAULT)
        assert len(result.rows) == 25
        survivors = len(execute(store, replace(query, top=None)).rows)
        assert survivors > 25
        assert _fetched(result)["e1"] < survivors
