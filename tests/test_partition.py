"""Tests for the hypertable (time/space partitioning)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import StorageError
from repro.model.entities import FileEntity, ProcessEntity
from repro.model.events import Event
from repro.model.timeutil import SECONDS_PER_DAY, Window
from repro.storage.partition import Hypertable


def make_event(eid: int, ts: float, agentid: int) -> Event:
    subject = ProcessEntity(agentid, 10, "p.exe")
    return Event(id=eid, ts=ts, agentid=agentid, operation="write",
                 subject=subject, object=FileEntity(agentid, "/tmp/f"))


class TestHypertable:
    def test_partition_key_combines_agent_and_bucket(self):
        table = Hypertable(bucket_seconds=100)
        table.add(make_event(1, 50, 1))
        table.add(make_event(2, 150, 1))
        table.add(make_event(3, 50, 2))
        assert table.partition_count == 3
        assert len(table) == 3

    def test_prune_by_agent(self):
        table = Hypertable(bucket_seconds=100)
        for agent in (1, 2, 3):
            table.add(make_event(agent, 50, agent))
        pruned = table.prune(None, {2})
        assert len(pruned) == 1
        assert pruned[0].key[0] == 2

    def test_prune_by_window_excludes_disjoint_buckets(self):
        table = Hypertable(bucket_seconds=100)
        table.add(make_event(1, 50, 1))
        table.add(make_event(2, 250, 1))
        pruned = table.prune(Window(200, 300), None)
        assert [p.key[1] for p in pruned] == [2]

    def test_prune_keeps_partially_overlapping_buckets(self):
        table = Hypertable(bucket_seconds=100)
        table.add(make_event(1, 99.5, 1))
        assert table.prune(Window(99, 101), None)
        assert not table.prune(Window(100, 200), None)

    def test_prune_zone_map_skips_miss_within_overlapping_bucket(self):
        # The bucket [0, 100) overlaps the window, but the actual data
        # span (one event at ts=50) does not: the time-index zone map
        # prunes the partition, which bucket-boundary pruning alone kept.
        table = Hypertable(bucket_seconds=100)
        table.add(make_event(1, 50, 1))
        assert not table.prune(Window(99, 101), None)
        assert table.prune(Window(50, 51), None)
        # Inclusive start / exclusive end at the zone edges.
        assert table.prune(Window(50, 100), None)
        assert not table.prune(Window(0, 50), None)

    def test_span_covers_all_events(self):
        table = Hypertable()
        assert table.span is None
        table.add(make_event(1, 10.0, 1))
        table.add(make_event(2, 99.0, 1))
        span = table.span
        assert span.start == 10.0
        assert span.contains(99.0)

    def test_agentids(self):
        table = Hypertable()
        table.add(make_event(1, 10.0, 4))
        table.add(make_event(2, 20.0, 9))
        assert table.agentids == {4, 9}

    def test_bad_bucket_size(self):
        with pytest.raises(StorageError):
            Hypertable(bucket_seconds=0)

    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=5 * SECONDS_PER_DAY),
        st.integers(min_value=1, max_value=4)), max_size=60),
        st.floats(min_value=0, max_value=4 * SECONDS_PER_DAY),
        st.floats(min_value=1, max_value=2 * SECONDS_PER_DAY))
    def test_pruned_scan_equals_full_filter(self, specs, start, length):
        """Partition completeness: pruning + clip == global filter."""
        table = Hypertable()
        events = [make_event(i, ts, agent)
                  for i, (ts, agent) in enumerate(specs)]
        for event in events:
            table.add(event)
        window = Window(start, start + length)
        agents = {1, 2}
        got = []
        for partition in table.prune(window, agents):
            got.extend(partition.events_in(window))
        expected = [e for e in events
                    if window.contains(e.ts) and e.agentid in agents]
        assert sorted(e.id for e in got) == sorted(e.id for e in expected)


class TestPartitionIndexes:
    def test_partition_maintains_all_indexes(self):
        table = Hypertable()
        table.add(make_event(1, 10.0, 1))
        partition = next(table.partitions())
        assert partition.by_type_operation.count(("file", "write")) == 1
        assert partition.by_subject_name.count("p.exe") == 1
        assert partition.by_object_value.count(("file", "/tmp/f")) == 1
        assert len(partition) == 1
