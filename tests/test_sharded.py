"""Shard-boundary behavior of the scatter-gather tier.

The generic backend contract already runs verbatim against
``sharded(row)`` (a CI matrix leg); this file pins down what only a
*sharded* store can get wrong: routing, empty and skewed shards,
coordinator-side shard pruning, merged statistics, the global top-k
merge, and the failure model (worker death →
``ShardFailedError`` + restart, never a hang or a silent partial
result).
"""

import pytest

from repro.engine.filters import compile_atoms
from repro.errors import StorageError
from repro.model.entities import FileEntity, ProcessEntity
from repro.model.timeutil import Window
from repro.storage import Fault, ShardedStore, ShardFailedError
from repro.storage.backend import ScanOrder, ScanSpec, create_backend
from repro.storage.sharded import DEFAULT_SHARDS, parse_backend_name
from repro.storage.stats import PatternProfile

PROFILE = PatternProfile(event_type="file", operations=frozenset({"write"}))
MATCH_ALL = compile_atoms(())


def fill(store, agents, events_per_agent=10):
    events = []
    for agent in agents:
        proc = ProcessEntity(agentid=agent, pid=7, exe_name="svc.exe")
        target = FileEntity(agentid=agent, name=f"/var/data/{agent}")
        for i in range(events_per_agent):
            events.append(store.record(
                ts=float(i), agentid=agent, operation="write",
                subject=proc, obj=target, amount=10 * i))
    return events


@pytest.fixture
def store():
    with ShardedStore(shards=4, backend="row", bucket_seconds=1000) as s:
        yield s


class TestRouting:
    def test_events_land_on_their_agent_hash_shard(self, store):
        fill(store, agents=(0, 1, 2, 3, 4, 5))
        for agent in (0, 1, 2, 3, 4, 5):
            assert store.shard_of(agent) == agent % 4
            got = store.scan(agentids={agent})
            assert len(got) == 10
            assert {e.agentid for e in got} == {agent}

    def test_ids_are_globally_monotonic_across_shards(self, store):
        events = fill(store, agents=(1, 2, 3))
        assert [e.id for e in events] == list(range(1, 31))
        merged = store.scan()
        assert [(e.ts, e.id) for e in merged] == sorted(
            (e.ts, e.id) for e in events)


class TestEmptyAndSkewedShards:
    def test_empty_shards_contribute_nothing(self, store):
        # Agents 1 and 2 leave shards 0 and 3 completely empty.
        fill(store, agents=(1, 2))
        assert len(store) == 20
        assert len(store.scan()) == 20
        assert store.estimate(PROFILE, ScanSpec()) == 20
        got, fetched = store.select(PROFILE, MATCH_ALL, ScanSpec())
        assert len(got) == 20 and fetched == 20
        assert store.access_path(PROFILE, ScanSpec()).rows > 0

    def test_empty_store_everywhere(self, store):
        assert len(store) == 0
        assert store.span is None
        assert store.scan() == []
        assert store.select(PROFILE, MATCH_ALL, ScanSpec()) == ([], 0)
        assert store.estimate(PROFILE, ScanSpec()) == 0
        assert store.access_path(PROFILE, ScanSpec()).name == "no-partitions"

    def test_all_events_hash_to_one_shard(self, store):
        # 4, 8, 12 ≡ 0 (mod 4): worst-case skew, everything on shard 0.
        events = fill(store, agents=(4, 8, 12))
        assert {store.shard_of(e.agentid) for e in events} == {0}
        got, fetched = store.select(
            PROFILE, MATCH_ALL,
            ScanSpec(order=ScanOrder(descending=True, limit=4)))
        assert [(e.ts, e.id) for e in got] == sorted(
            ((e.ts, e.id) for e in events),
            key=lambda pair: (-pair[0], pair[1]))[:4]
        assert fetched == 30


class TestShardPruning:
    def test_agentid_spec_skips_rpc_to_pruned_shards(self, store):
        fill(store, agents=(0, 1, 2, 3))
        before = store.pruned_rounds
        got = store.candidates(PROFILE, ScanSpec(agentids=frozenset({1, 5})))
        # agents 1 and 5 both hash to shard 1 — three shards pruned.
        assert store.pruned_rounds - before == 3
        assert {e.agentid for e in got} == {1}

    def test_pruned_shards_are_never_contacted(self, store):
        """The skip is a real non-round-trip: kill shard 0's worker
        outright and queries restricted to other shards still answer."""
        fill(store, agents=(1, 2))
        store._shards[0].process.terminate()
        store._shards[0].process.join(timeout=5)
        spec = ScanSpec(agentids=frozenset({1}))
        got, _ = store.select(PROFILE, MATCH_ALL, spec)
        assert {e.agentid for e in got} == {1}
        # ... while touching the dead shard surfaces the failure.
        with pytest.raises(ShardFailedError):
            store.select(PROFILE, MATCH_ALL, ScanSpec())
        assert store.restarts == 1

    def test_unsatisfiable_spec_short_circuits_without_rpc(self, store):
        fill(store, agents=(1,))
        for shard in store._shards:
            shard.process.terminate()
        empty = ScanSpec(agentids=frozenset())
        assert store.select(PROFILE, MATCH_ALL, empty) == ([], 0)
        assert store.candidates(PROFILE, empty) == []
        assert store.estimate(PROFILE, empty) == 0
        assert store.access_path(PROFILE, empty).name == "unsatisfiable"


class TestMergedStatistics:
    # "columnar" is the deprecated alias of "row".
    @pytest.mark.parametrize("inner", ["row", "columnar", "sqlite"])
    def test_estimate_parity_with_single_node(self, inner):
        single = create_backend(inner, bucket_seconds=100.0)
        events = fill(single, agents=(1, 2, 3, 4, 5), events_per_agent=20)
        with ShardedStore(shards=4, backend=inner,
                          bucket_seconds=100.0) as sharded:
            sharded.ingest(events)
            specs = (
                ScanSpec(),
                ScanSpec(agentids=frozenset({2, 3})),
                ScanSpec(window=Window(5.0, 15.0)),
                ScanSpec(window=Window(5.0, 15.0),
                         agentids=frozenset({1, 4})),
            )
            for spec in specs:
                assert (sharded.estimate(PROFILE, spec)
                        == single.estimate(PROFILE, spec)), spec

    def test_introspection_matches_single_node(self):
        single = create_backend("row", bucket_seconds=100.0)
        events = fill(single, agents=(1, 2, 3), events_per_agent=15)
        with ShardedStore(shards=2, backend="row",
                          bucket_seconds=100.0) as sharded:
            sharded.ingest(events)
            assert len(sharded) == len(single)
            assert sharded.span == single.span
            assert sharded.agentids == single.agentids
            assert sharded.entity_count == single.entity_count
            assert sharded.partition_count == single.partition_count
            assert sharded.dedup_ratio == pytest.approx(single.dedup_ratio)


class TestBatchGather:
    def test_global_topk_trim_across_shards(self):
        single = create_backend("row", bucket_seconds=1000)
        events = fill(single, agents=(1, 2, 3, 4), events_per_agent=12)
        with ShardedStore(shards=3, backend="row",
                          bucket_seconds=1000) as sharded:
            sharded.ingest(events)
            spec = ScanSpec(order=ScanOrder(descending=True, limit=5))
            survivors, _ = sharded.select(PROFILE, MATCH_ALL, spec)
            got = [(event.ts, event.id) for event in survivors]
            want = sorted(((e.ts, e.id) for e in events),
                          key=lambda pair: (-pair[0], pair[1]))[:5]
            assert got == want

    def test_sharded_row_has_no_batch_surface(self):
        # The deprecated columnar alias hosts the row store too: neither
        # spelling grows a column-batch scan.
        for inner in ("row", "columnar"):
            with ShardedStore(shards=2, backend=inner) as sharded:
                assert sharded.backend_name == "sharded(row)"
                assert not hasattr(sharded, "select_batches")


class TestFailureModel:
    def test_kill_mid_select_raises_shard_failed(self, store):
        fill(store, agents=(0, 1, 2, 3))
        store.arm_fault(2, Fault(point="shard.worker.select", mode="kill"))
        with pytest.raises(ShardFailedError) as caught:
            store.select(PROFILE, MATCH_ALL, ScanSpec())
        assert caught.value.shards == (2,)
        assert store.restarts == 1
        # The store stays available; the restarted shard is empty (its
        # data is gone until the durability follow-up) but the other
        # three still answer.
        got, _ = store.select(PROFILE, MATCH_ALL, ScanSpec())
        assert {e.agentid for e in got} == {0, 1, 3}

    def test_answered_worker_error_is_not_a_death(self, store):
        """An exception the worker *answers* with (here an injected
        OSError subclass) must re-raise coordinator-side without being
        mistaken for transport death — no restart, no data loss."""
        from repro.storage.faults import FaultTriggered
        fill(store, agents=(0, 1, 2, 3))
        store.arm_fault(1, Fault(point="shard.worker.select", mode="error"))
        with pytest.raises(FaultTriggered):
            store.select(PROFILE, MATCH_ALL, ScanSpec())
        assert store.restarts == 0
        got, _ = store.select(PROFILE, MATCH_ALL, ScanSpec())
        assert {e.agentid for e in got} == {0, 1, 2, 3}

    def test_ingest_tracking_skips_the_failed_sub_batch(self, store):
        fill(store, agents=(0, 1))
        store.arm_fault(1, Fault(point="shard.worker.ingest", mode="kill"))
        # Build loose events through a scratch single-node store so ids
        # do not collide with the coordinator's allocator.
        scratch = create_backend("row", bucket_seconds=1000)
        extra = []
        for agent in (0, 1):
            source = ProcessEntity(agentid=agent, pid=9, exe_name="late.exe")
            extra.append(scratch.record(
                ts=50.0, agentid=agent, operation="write", subject=source,
                obj=FileEntity(agentid=agent, name="/late")))
        before = len(store)
        with pytest.raises(ShardFailedError):
            store.ingest(extra)
        # Shard 0's sub-batch committed and is tracked; shard 1's died
        # with the worker and must not be counted.
        assert len(store) == before + 1

    def test_close_is_graceful_and_idempotent(self):
        sharded = ShardedStore(shards=2, backend="row")
        fill(sharded, agents=(1, 2))
        processes = [shard.process for shard in sharded._shards]
        sharded.close()
        sharded.close()
        assert all(not process.is_alive() for process in processes)
        with pytest.raises(StorageError):
            sharded.scan()


class TestRegistryAndNaming:
    def test_parse_backend_name(self):
        assert parse_backend_name("sharded") == ("row", DEFAULT_SHARDS)
        assert parse_backend_name("sharded(row)") == (
            "row", DEFAULT_SHARDS)
        assert parse_backend_name("sharded(sqlite,6)") == ("sqlite", 6)
        with pytest.raises(StorageError):
            parse_backend_name("columnar")
        with pytest.raises(StorageError):
            parse_backend_name("sharded(row,two)")

    def test_create_backend_with_explicit_shard_count(self):
        with create_backend("sharded(columnar,3)") as sharded:
            # The deprecated alias names the row store.
            assert sharded.shards == 3
            assert sharded.backend_name == "sharded(row)"

    def test_unknown_inner_backend_fails_fast(self):
        with pytest.raises(StorageError):
            ShardedStore(shards=2, backend="parquet")

    def test_sharded_does_not_nest(self):
        with pytest.raises(StorageError):
            ShardedStore(shards=2, backend="sharded(row)")
