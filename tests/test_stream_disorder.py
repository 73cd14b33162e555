"""Out-of-order and duplicate arrival: dedup + partition routing.

System monitoring feeds are only *roughly* time-ordered — agents batch,
clocks skew, retries duplicate.  These tests lock in how the write path
behaves under non-monotonic timestamps and repeated events, on both
ingest surfaces: batch (:class:`IngestPipeline`) and stream-published
(:class:`EventBus`), across every storage backend.
"""

from __future__ import annotations

import random

import pytest

from repro import AiqlSession
from repro.model.entities import FileEntity, ProcessEntity
from repro.model.events import Event
from repro.model.timeutil import Window
from repro.storage.backend import create_backend
from repro.storage.dedup import EventMerger, ReplayDeduper
from repro.storage.durable import DurableStore, recover
from repro.storage.ingest import IngestPipeline
from repro.storage.partition import Hypertable
from repro.storage.wal import WriteAheadLog
from repro.stream import EventBus

#: ``columnar`` is the deprecated alias of ``row``; it stays in the matrix
#: while the benchmark still selects it by that name.
BACKENDS = ("row", "columnar", "sqlite")


def _event(eid: int, ts: float, *, agent: int = 1, pid: int = 10,
           exe: str = "w.exe", path: str = "/f", amount: int = 1) -> Event:
    return Event(id=eid, ts=ts, agentid=agent, operation="write",
                 subject=ProcessEntity(agent, pid, exe),
                 object=FileEntity(agent, path), amount=amount)


def _shuffled_events(n: int = 400, seed: int = 11) -> list[Event]:
    """Events over several buckets and agents, in scrambled time order."""
    rng = random.Random(seed)
    events = [
        _event(i + 1, rng.uniform(0.0, 4000.0),
               agent=rng.choice((1, 2, 3)),
               pid=rng.choice((10, 11)),
               path=f"/data/{i % 7}")
        for i in range(n)
    ]
    rng.shuffle(events)
    return events


# ---------------------------------------------------------------------------
# EventMerger under disorder and duplicates
# ---------------------------------------------------------------------------

class TestMergerDisorder:
    def test_out_of_order_within_window_still_merges(self):
        merger = EventMerger(merge_window=5.0)
        assert merger.push(_event(1, 100.0, amount=10)) == []
        # A straggler with an *earlier* timestamp inside the window is
        # merged into the pending event (gap measured signed).
        assert merger.push(_event(2, 97.0, amount=5)) == []
        final = merger.flush()
        assert len(final) == 1
        assert final[0].amount == 15
        assert final[0].ts == 100.0        # first-seen event anchors

    def test_gap_beyond_window_emits_the_pending_event(self):
        merger = EventMerger(merge_window=5.0)
        merger.push(_event(1, 100.0, amount=10))
        emitted = merger.push(_event(2, 200.0, amount=5))
        assert [e.id for e in emitted] == [1]
        assert [e.id for e in merger.flush()] == [2]

    def test_duplicate_events_collapse_to_one(self):
        """The same agent record delivered twice (retry) merges away."""
        merger = EventMerger(merge_window=5.0)
        original = _event(1, 100.0, amount=10)
        duplicate = _event(1, 100.0, amount=10)
        merger.push(original)
        assert merger.push(duplicate) == []
        final = merger.flush()
        assert len(final) == 1 and final[0].amount == 20
        assert merger.merged_away == 1

    def test_flush_emits_in_time_order_despite_arrival_order(self):
        merger = EventMerger(merge_window=0.5)
        for eid, ts in ((1, 300.0), (2, 100.0), (3, 200.0)):
            merger.push(_event(eid, ts, pid=eid, path=f"/{eid}"))
        assert [e.ts for e in merger.flush()] == [100.0, 200.0, 300.0]


# ---------------------------------------------------------------------------
# Partition routing under non-monotonic timestamps
# ---------------------------------------------------------------------------

class TestPartitionRoutingDisorder:
    def test_hypertable_routes_by_timestamp_not_arrival(self):
        table = Hypertable(bucket_seconds=1000.0)
        for event in _shuffled_events():
            table.add(event)
        for partition in table.partitions():
            agentid, bucket = partition.key
            lo, hi = bucket * 1000.0, (bucket + 1) * 1000.0
            for event in partition.events():
                assert event.agentid == agentid
                assert lo <= event.ts < hi

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_scan_is_time_ordered_after_disordered_ingest(self, backend_name):
        store = create_backend(backend_name, bucket_seconds=1000.0)
        events = _shuffled_events()
        with IngestPipeline(store, batch_size=64) as pipeline:
            pipeline.add_all(events)
        got = store.scan()
        assert len(got) == len(events)
        assert [(e.ts, e.id) for e in got] == sorted(
            (e.ts, e.id) for e in events)
        # Window pruning stays exact at bucket edges under disorder.
        window = Window(1000.0, 2000.0)
        expected = sorted((e.ts, e.id) for e in events
                          if window.contains(e.ts))
        assert [(e.ts, e.id) for e in store.scan(window)] == expected

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_stream_published_store_equals_batch_ingested(self, backend_name):
        """The async bus path and the batch pipeline build the same
        store from the same disordered feed."""
        events = _shuffled_events()
        batch_store = create_backend(backend_name, bucket_seconds=1000.0)
        with IngestPipeline(batch_store, batch_size=50) as pipeline:
            pipeline.add_all(events)
        stream_store = create_backend(backend_name, bucket_seconds=1000.0)
        bus = EventBus(batch_size=37)
        bus.attach_store(stream_store)
        bus.publish_many(events)
        bus.close()
        assert len(stream_store) == len(batch_store)
        assert ([(e.id, e.ts, e.agentid) for e in stream_store.scan()]
                == [(e.id, e.ts, e.agentid) for e in batch_store.scan()])
        assert stream_store.partition_count == batch_store.partition_count

    def test_stream_published_duplicates_merge_like_batch(self):
        """Duplicate + out-of-order arrivals dedup identically on both
        ingest surfaces when a merge window is configured."""
        events = []
        for i in range(20):
            events.append(_event(2 * i + 1, 100.0 + i * 0.1, amount=1))
        events.append(_event(99, 100.0, amount=1))     # late duplicate burst
        batch_store = create_backend("row")
        with IngestPipeline(batch_store, batch_size=8,
                            merge_window=10.0) as pipeline:
            pipeline.add_all(events)
        stream_store = create_backend("row")
        bus = EventBus(batch_size=8)
        bus.attach_store(stream_store, merge_window=10.0)
        bus.publish_many(events)
        bus.close()
        assert len(stream_store) == len(batch_store) == 1
        assert (stream_store.scan()[0].amount
                == batch_store.scan()[0].amount == 21)


# ---------------------------------------------------------------------------
# Durable replay under disorder and duplicates
# ---------------------------------------------------------------------------

class TestDurableReplayDisorder:
    """WAL replay meets the same feed pathologies live ingest does:
    duplicated batches (at-least-once shippers) and non-monotonic
    timestamps.  Recovery must converge to the same store a clean batch
    ingest builds — on every backend the durable tier can wrap."""

    def test_replay_deduper_admits_each_event_once(self):
        deduper = ReplayDeduper()
        events = _shuffled_events(50)
        assert deduper.admit_batch(events) == events
        assert deduper.admit_batch(events) == []       # full replay dup
        assert deduper.admit_batch(events[25:]) == []  # suffix overlap
        assert deduper.duplicates == 75
        assert len(deduper) == 50
        # Same id but different (agentid, ts) is a different event.
        other = _event(1, 9999.0, agent=3)
        assert deduper.admit(other)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_disordered_duplicated_wal_recovers_like_batch(
            self, tmp_path, backend_name):
        events = _shuffled_events(300)
        chunks = [events[i:i + 60] for i in range(0, 300, 60)]
        directory = tmp_path / backend_name
        directory.mkdir()
        with WriteAheadLog(directory / "wal.log") as wal:
            for chunk in (chunks[2], chunks[0], chunks[1],   # out of order
                          chunks[0],                         # duplicated
                          chunks[3], chunks[4], chunks[3]):
                wal.append_events(chunk)
        recovered = recover(directory, backend=backend_name,
                            bucket_seconds=1000.0)
        assert recovered.recovery.deduplicated == 120
        expected = create_backend(backend_name, bucket_seconds=1000.0)
        with IngestPipeline(expected, batch_size=64) as pipeline:
            pipeline.add_all(events)
        assert ([(e.id, e.ts, e.agentid) for e in recovered.scan()]
                == [(e.id, e.ts, e.agentid) for e in expected.scan()])
        assert recovered.partition_count == expected.partition_count
        recovered.close()

    def test_durable_reopen_after_duplicate_suffix_append(self, tmp_path):
        """A shipper retry re-appends an already-applied suffix; the next
        recovery (and the one after it) both land on the same state."""
        events = _shuffled_events(200)
        store = DurableStore(tmp_path / "dur", bucket_seconds=1000.0)
        store.ingest(events[:150])
        store.close()
        with WriteAheadLog(tmp_path / "dur" / "wal.log") as wal:
            wal.append_events(events[100:150])      # retried suffix
            wal.append_events(events[150:])         # then new data
        for _round in range(2):                     # recover twice
            recovered = recover(tmp_path / "dur", bucket_seconds=1000.0)
            assert len(recovered) == 200
            assert sorted(e.id for e in recovered.scan()) == sorted(
                e.id for e in events)
            recovered.close()


# ---------------------------------------------------------------------------
# Standing queries under bounded disorder
# ---------------------------------------------------------------------------

class TestStandingQueriesUnderDisorder:
    AIQL = ('proc p["a.exe"] write file f as e1\n'
            'proc q["b.exe"] read file f as e2\n'
            'with e1 before e2 within 30 sec\n'
            'return f')

    def test_lateness_window_preserves_exactness(self):
        """With disorder bounded by the configured lateness, stream
        results still equal the batch engine on the final store."""
        rng = random.Random(3)
        events = []
        for i in range(300):
            ts = float(i)
            if i % 20 == 5:
                events.append(Event(i + 1, ts, 1, "write",
                                    ProcessEntity(1, 1, "a.exe"),
                                    FileEntity(1, f"/d/{i % 9}")))
            elif i % 20 == 9:
                events.append(Event(i + 1, ts, 1, "read",
                                    ProcessEntity(1, 2, "b.exe"),
                                    FileEntity(1, f"/d/{(i - 4) % 9}")))
            else:
                events.append(Event(i + 1, ts, 1, "write",
                                    ProcessEntity(1, 3, "noise.exe"),
                                    FileEntity(1, "/noise")))
        # Bounded disorder: jitter arrival within ±4 seconds of ts order.
        events.sort(key=lambda e: e.ts + rng.uniform(-4.0, 4.0))
        session = AiqlSession()
        stream = session.stream(batch_size=16, lateness=8.0)
        standing = session.register(self.AIQL)
        stream.publish_many(events)
        stream.close()
        batch = session.query(self.AIQL)
        assert standing.result().rows == batch.rows
        assert standing.matches > 0

    def test_anomaly_anchor_waits_for_the_lateness_allowance(self):
        """A windowless anomaly query anchors its pane grid at the
        stream's earliest timestamp; an in-allowance straggler arriving
        *before* the first batch's minimum must still move the anchor, or
        every pane shifts and stream-vs-batch equivalence breaks."""
        aiql = ('window = 10 sec, step = 10 sec\n'
                'proc p write file f as evt\n'
                'return p, count(evt) as n\n'
                'group by p')
        events = [_event(1, 25.0), _event(2, 26.0),
                  _event(3, 3.0),                  # early straggler
                  _event(4, 40.0), _event(5, 55.0)]
        session = AiqlSession()
        stream = session.stream(batch_size=2, lateness=30.0)
        standing = session.register(aiql)
        stream.publish_many(events)
        stream.close()
        batch = session.query(aiql)
        assert standing.result().rows == batch.rows
        assert batch.rows[0][0].endswith("00:00:03")   # anchored at ts=3
