"""Tests for the EventStore facade: candidates, estimates, ingest."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.filters import Atom, compile_atoms, type_operation_atoms
from repro.engine.planner import plan_multievent
from repro.errors import DataModelError, StorageError
from repro.lang.parser import parse
from repro.model.entities import FileEntity, NetworkEntity, ProcessEntity
from repro.model.events import Event
from repro.model.timeutil import Window
from repro.storage.backend import IdentityBindings, ScanSpec
from repro.storage.ingest import IngestPipeline
from repro.storage.stats import PatternProfile
from repro.storage.store import EventStore


@pytest.fixture
def store() -> EventStore:
    st = EventStore(bucket_seconds=1000)
    writer = ProcessEntity(1, 10, "writer.exe")
    reader = ProcessEntity(1, 11, "reader.exe")
    remote = ProcessEntity(2, 12, "remote.exe")
    for i in range(50):
        st.record(float(i), 1, "write", writer,
                  FileEntity(1, f"/data/{i % 5}.txt"), amount=100)
    for i in range(10):
        st.record(100.0 + i, 1, "read", reader,
                  FileEntity(1, "/data/0.txt"), amount=10)
    st.record(500.0, 2, "write", remote,
              NetworkEntity(2, "10.0.0.2", 1, "8.8.8.8", 53))
    return st


class TestConstruction:
    def test_bad_bucket_size(self):
        with pytest.raises(StorageError):
            EventStore(bucket_seconds=0)

    def test_partitions_split_by_agent_and_bucket(self, store):
        # Agent 1's events share bucket [0, 1000); agent 2's event sits in
        # the same bucket but its own agent partition.
        assert store.partition_count == 2
        assert store.agentids == {1, 2}


class TestRecordAndScan:
    def test_record_interns_entities(self, store):
        # writer.exe appears in 50 events but is one entity.
        assert store.entity_count < 70
        assert store.dedup_ratio > 0.5

    def test_scan_orders_by_time(self, store):
        events = store.scan()
        assert [e.ts for e in events] == sorted(e.ts for e in events)
        assert len(events) == 61

    def test_scan_with_window_and_agent(self, store):
        got = store.scan(Window(100.0, 200.0), {1})
        assert len(got) == 10
        assert all(e.operation == "read" for e in got)

    def test_record_validates_operation(self, store):
        with pytest.raises(DataModelError):
            store.record(0.0, 1, "accept", ProcessEntity(1, 1, "x"),
                         FileEntity(1, "/f"))

    def test_span_and_agentids(self, store):
        assert store.agentids == {1, 2}
        assert store.span.contains(500.0)


class TestCandidates:
    def test_exact_subject_path(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}),
                                 subject_exact="reader.exe")
        got = store.candidates(profile)
        assert len(got) == 10

    def test_like_object_path_is_superset_of_matches(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}),
                                 object_like="%/data/0%")
        got = store.candidates(profile)
        # Candidates may over-approximate (the chosen index depends on the
        # costed paths) but must include every true match.
        matching = [e for e in got if e.operation == "write"
                    and e.object.name == "/data/0.txt"]
        assert len(matching) == 10

    def test_candidates_clipped_to_window(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}))
        got = store.candidates(profile, ScanSpec(window=Window(0.0, 10.0)))
        assert len(got) == 10

    def test_estimate_close_to_truth_for_exact(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}),
                                 subject_exact="reader.exe")
        assert store.estimate(profile) == 10

    def test_estimate_zero_for_absent_agent(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}))
        assert store.estimate(profile, ScanSpec(agentids={99})) == 0

    def test_candidates_superset_of_matches(self, store):
        """The chosen access path never loses a matching event."""
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}),
                                 subject_exact="writer.exe")
        candidate_ids = {e.id for e in store.candidates(profile)}
        for event in store.scan():
            if (event.event_type == "file" and event.operation == "write"
                    and event.subject.exe_name == "writer.exe"):
                assert event.id in candidate_ids


class TestResidualSelect:
    """``select`` applies the generated residual exactly, whatever the
    access path fetched."""

    OPS = frozenset({"read", "write"})

    def _select(self, store, *atoms, spec=None):
        compiled = compile_atoms(
            [*type_operation_atoms("file", self.OPS), *atoms])
        profile = PatternProfile(event_type="file", operations=self.OPS)
        return store.select(profile, compiled, spec)

    @pytest.fixture
    def amounts_store(self) -> EventStore:
        store = EventStore(bucket_seconds=1000)
        writer = ProcessEntity(1, 10, "writer.exe")
        reader = ProcessEntity(1, 11, "reader.exe")
        for i in range(40):
            store.record(float(i), 1, "write", writer,
                         FileEntity(1, f"/data/{i % 4}.txt"), amount=10 * i)
        for i in range(10):
            store.record(2000.0 + i, 2, "read", reader,
                         FileEntity(2, "/data/0.txt"), amount=5)
        return store

    def test_string_valued_ordered_atom_matches_nothing(self, amounts_store):
        # number <op> string is False, not an error.
        events, fetched = self._select(
            amounts_store, Atom("event", "amount", ">", "high"))
        assert events == [] and fetched == 50

    def test_in_atom_on_numeric_column(self, amounts_store):
        events, _fetched = self._select(
            amounts_store, Atom("event", "amount", "in", (5, 30)))
        assert {e.amount for e in events} == {5, 30}
        assert len(events) == 11

    def test_amount_range_filter(self, amounts_store):
        events, _fetched = self._select(
            amounts_store, Atom("event", "amount", ">", 100),
            Atom("event", "amount", "<=", 200))
        assert sorted(e.amount for e in events) == list(range(110, 210, 10))

    def test_window_clips_out_of_order_records(self):
        store = EventStore(bucket_seconds=10_000)
        proc = ProcessEntity(1, 1, "p.exe")
        for ts in (5.0, 1.0, 3.0, 9.0):  # out of order on purpose
            store.record(ts, 1, "write", proc, FileEntity(1, "/f"))
        assert [e.ts for e in store.scan(Window(2.0, 8.0))] == [3.0, 5.0]
        events, _fetched = self._select(
            store, spec=ScanSpec(window=Window(2.0, 8.0)))
        assert sorted(e.ts for e in events) == [3.0, 5.0]


class TestLargeBindingSets:
    """Binding sets of any size produce exactly the post-filter's
    survivors."""

    def _wide_store(self, count: int) -> EventStore:
        store = EventStore(bucket_seconds=10_000)
        for index in range(count):
            store.record(float(index), 1, "write",
                         ProcessEntity(1, index + 10, f"proc{index}.exe"),
                         FileEntity(1, f"/data/{index}"))
        return store

    def _write_query(self):
        return plan_multievent(parse(
            "proc p write file f as e1 return f")).data_queries[0]

    def test_large_binding_set_matches_post_filter(self):
        store = self._wide_store(400)
        identities = frozenset(
            ProcessEntity(1, index + 10, f"proc{index}.exe").identity
            for index in range(300))
        dq = self._write_query()
        bindings = IdentityBindings(subjects=identities)
        survivors, _fetched = store.select(
            dq.profile, dq.compiled, ScanSpec(bindings=bindings))
        assert len(survivors) == 300
        assert all(bindings.admits(e) for e in survivors)
        assert store.estimate(dq.profile, ScanSpec(bindings=bindings)) == 300

    def test_sparse_binding_set_matches_post_filter(self):
        store = self._wide_store(200)
        identities = frozenset(
            ProcessEntity(1, index + 10, f"proc{index}.exe").identity
            for index in range(0, 40, 2))
        dq = self._write_query()
        bindings = IdentityBindings(subjects=identities)
        survivors, _fetched = store.select(dq.profile, dq.compiled,
                                           ScanSpec(bindings=bindings))
        baseline, _ = store.select(dq.profile, dq.compiled)
        expected = sorted(e.id for e in baseline if bindings.admits(e))
        assert sorted(e.id for e in survivors) == expected
        assert len(expected) == 20


class TestIngestPipeline:
    def _event(self, eid, ts):
        return Event(id=eid, ts=ts, agentid=1, operation="write",
                     subject=ProcessEntity(1, 1, "w"),
                     object=FileEntity(1, "/f"), amount=1)

    def test_batches_commit_at_threshold(self):
        store = EventStore()
        pipeline = IngestPipeline(store, batch_size=10)
        for i in range(25):
            pipeline.add(self._event(i, float(i)))
        assert len(store) == 20  # two full batches committed
        stats = pipeline.close()
        assert len(store) == 25
        assert stats.batches == 3
        assert stats.received == stats.committed == 25

    def test_merging_reduces_committed(self):
        store = EventStore()
        with IngestPipeline(store, batch_size=100,
                            merge_window=10.0) as pipeline:
            for i in range(30):
                pipeline.add(self._event(i, 0.1 * i))
        assert len(store) == 1
        assert pipeline.stats.merged_away == 29

    def test_closed_pipeline_rejects_events(self):
        store = EventStore()
        pipeline = IngestPipeline(store, batch_size=10)
        pipeline.close()
        with pytest.raises(StorageError):
            pipeline.add(self._event(1, 1.0))

    def test_bad_batch_size(self):
        with pytest.raises(StorageError):
            IngestPipeline(EventStore(), batch_size=0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.floats(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["read", "write"]),
    st.integers(min_value=0, max_value=4)), max_size=80))
def test_candidates_equal_scan_filter(specs):
    """Property: index-backed candidates + residual == full scan filter."""
    store = EventStore(bucket_seconds=2000)
    for index, (ts, agent, op, fid) in enumerate(specs):
        store.record(ts, agent, op, ProcessEntity(agent, 1, "p.exe"),
                     FileEntity(agent, f"/f/{fid}"), amount=1)
    profile = PatternProfile(event_type="file",
                             operations=frozenset({"write"}),
                             object_exact="/f/0")
    window = Window(1000.0, 9000.0)
    got = {e.id for e in store.candidates(
               profile, ScanSpec(window=window, agentids={1, 2}))
           if e.operation == "write" and e.object.name == "/f/0"}
    expected = {e.id for e in store.scan(window, {1, 2})
                if e.operation == "write" and e.object.name == "/f/0"}
    assert got == expected
