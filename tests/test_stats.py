"""Tests for selectivity estimation (the pruning-power signal)."""

import pytest

from repro.model.entities import FileEntity, NetworkEntity, ProcessEntity
from repro.model.timeutil import Window
from repro.storage.partition import Partition
from repro.storage.stats import (PatternProfile, estimate_partition,
                                 estimate_total)

from tests.conftest import BASE_TS


@pytest.fixture
def partition() -> Partition:
    from repro.model.events import Event
    part = Partition((1, 0))
    writer = ProcessEntity(1, 1, "writer.exe")
    rare = ProcessEntity(1, 2, "rare.exe")
    for index in range(90):
        part.add(Event(id=index, ts=float(index), agentid=1,
                       operation="write", subject=writer,
                       object=FileEntity(1, f"/bulk/{index % 9}"),
                       amount=1))
    for index in range(10):
        part.add(Event(id=100 + index, ts=100.0 + index, agentid=1,
                       operation="read", subject=rare,
                       object=FileEntity(1, "/secret"), amount=1))
    return part


class TestEstimatePartition:
    def test_exact_subject_estimate_is_exact(self, partition):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}),
                                 subject_exact="rare.exe")
        assert estimate_partition(partition, profile, None) == 10

    def test_type_operation_bound(self, partition):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}))
        assert estimate_partition(partition, profile, None) == 90

    def test_min_of_bounds_wins(self, partition):
        # subject narrows to 10, operation narrows to 90: min is 10.
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read", "write"}),
                                 subject_exact="rare.exe")
        assert estimate_partition(partition, profile, None) == 10

    def test_like_estimates_via_key_scan(self, partition):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}),
                                 subject_like="%rare%")
        assert estimate_partition(partition, profile, None) == 10

    def test_object_exact(self, partition):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}),
                                 object_exact="/secret")
        assert estimate_partition(partition, profile, None) == 10

    def test_object_like(self, partition):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}),
                                 object_like="%/bulk/0%")
        assert estimate_partition(partition, profile, None) == 10

    def test_window_scales_estimate(self, partition):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}))
        # Half the partition's time range -> roughly half the bound.
        scaled = estimate_partition(partition, profile, Window(0.0, 50.0))
        assert 30 <= scaled <= 60

    def test_empty_window_is_zero(self, partition):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}))
        assert estimate_partition(partition, profile,
                                  Window(5000.0, 6000.0)) == 0

    def test_absent_value_estimates_zero(self, partition):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}),
                                 subject_exact="ghost.exe")
        assert estimate_partition(partition, profile, None) == 0

    def test_empty_partition(self):
        empty = Partition((9, 0))
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}))
        assert estimate_partition(empty, profile, None) == 0

    def test_total_sums_partitions(self, partition):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}))
        assert estimate_total([partition, partition], profile, None) == 20


class TestEstimateOrdersPatterns:
    def test_estimates_track_true_cardinality_order(self, partition):
        """The estimate need not be exact, but must order patterns right."""
        rare = PatternProfile(event_type="file",
                              operations=frozenset({"read"}),
                              subject_exact="rare.exe")
        bulk = PatternProfile(event_type="file",
                              operations=frozenset({"write"}))
        assert (estimate_partition(partition, rare, None)
                < estimate_partition(partition, bulk, None))
