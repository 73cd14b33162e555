"""Time- and space-partitioned storage: the hypertable.

System monitoring data exhibits strong spatial (host) and temporal
properties, and §2.1 exploits this by partitioning storage along both
dimensions ("time and space partitioning, and hypertable").  A
:class:`Hypertable` maps a partition key ``(agentid, time bucket)`` to a
:class:`Partition`; queries prune partitions by their global time window and
agent constraints before touching any event.

Each partition maintains the in-memory indexes the engine's data queries
use: a time index plus posting indexes on (event type, operation), subject
executable name, the object's default attribute, and entity identity.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from repro.errors import StorageError
from repro.model.events import Event
from repro.model.timeutil import SECONDS_PER_DAY, SPAN_EPSILON, Window
from repro.storage.indexes import PostingIndex, TimeIndex
from repro.storage.scanstats import PartitionStatistics

PartitionKey = tuple[int, int]


class Partition:
    """All events of one agent within one time bucket, fully indexed."""

    __slots__ = ("key", "time_index", "by_type_operation",
                 "by_subject_name", "by_object_value", "by_subject_id",
                 "by_object_id", "stats")

    def __init__(self, key: PartitionKey) -> None:
        self.key = key
        # Lazily built equi-depth timestamp histograms per posting key,
        # feeding the skew-aware windowed estimates in stats.py.
        self.stats = PartitionStatistics()
        self.time_index = TimeIndex()
        self.by_type_operation = PostingIndex()
        self.by_subject_name = PostingIndex()
        # Keyed by (event_type, value) because the default attribute differs
        # per object type (file name vs destination IP vs exe name).
        self.by_object_value = PostingIndex()
        # Keyed by entity identity tuples: the access paths behind the
        # scheduler's identity-binding pushdown.
        self.by_subject_id = PostingIndex()
        self.by_object_id = PostingIndex()

    def add(self, event: Event) -> None:
        self.time_index.add(event)
        etype = event.event_type
        self.by_type_operation.add((etype, event.operation), event)
        self.by_subject_name.add(event.subject.exe_name, event)
        self.by_object_value.add((etype, event.object.default_attribute),
                                 event)
        self.by_subject_id.add(event.subject.identity, event)
        self.by_object_id.add(event.object.identity, event)

    def events(self) -> list[Event]:
        return self.time_index.all()

    def events_in(self, window: Window) -> list[Event]:
        return self.time_index.range(window.start, window.end)

    @property
    def min_ts(self) -> float:
        return self.time_index.min_ts

    @property
    def max_ts(self) -> float:
        return self.time_index.max_ts

    def __len__(self) -> int:
        return len(self.time_index)


class Hypertable:
    """Partitioned event table keyed by ``(agentid, time bucket)``.

    ``bucket_seconds`` controls the temporal granularity (one day by
    default, matching the paper's per-day hypertable chunks).
    """

    def __init__(self, bucket_seconds: float = SECONDS_PER_DAY) -> None:
        if bucket_seconds <= 0:
            raise StorageError("bucket size must be positive")
        self.bucket_seconds = bucket_seconds
        self._partitions: dict[PartitionKey, Partition] = {}
        self._count = 0
        self._min_ts = math.inf
        self._max_ts = -math.inf

    def _bucket(self, ts: float) -> int:
        return int(ts // self.bucket_seconds)

    def key_for(self, event: Event) -> PartitionKey:
        return (event.agentid, self._bucket(event.ts))

    def add(self, event: Event) -> None:
        key = self.key_for(event)
        partition = self._partitions.get(key)
        if partition is None:
            partition = Partition(key)
            self._partitions[key] = partition
        partition.add(event)
        self._count += 1
        if event.ts < self._min_ts:
            self._min_ts = event.ts
        if event.ts > self._max_ts:
            self._max_ts = event.ts

    def add_all(self, events: Iterable[Event]) -> None:
        for event in events:
            self.add(event)

    def partitions(self) -> Iterator[Partition]:
        return iter(self._partitions.values())

    def prune(self, window: Window | None,
              agentids: set[int] | None) -> list[Partition]:
        """Partitions that can possibly contain matching events.

        This is the partition-pruning step every data query starts with:
        only partitions whose agent is allowed and whose time bucket
        intersects the window are consulted.  Inside an overlapping
        bucket, the time index's min/max zone map prunes partitions whose
        *actual* data span still misses the window — the case propagated
        temporal bounds create, narrowing a query to a sliver of one
        bucket.
        """
        selected: list[Partition] = []
        for (agentid, bucket), partition in self._partitions.items():
            if agentids is not None and agentid not in agentids:
                continue
            if window is not None:
                bucket_start = bucket * self.bucket_seconds
                bucket_end = bucket_start + self.bucket_seconds
                if bucket_end <= window.start or bucket_start >= window.end:
                    continue
                if (partition.max_ts < window.start
                        or partition.min_ts >= window.end):
                    continue
            selected.append(partition)
        return selected

    @property
    def agentids(self) -> set[int]:
        return {agentid for agentid, _bucket in self._partitions}

    @property
    def span(self) -> Window | None:
        """The closed time span of stored data, or None when empty."""
        if self._count == 0:
            return None
        # Padded so the half-open window includes the final event.
        return Window(self._min_ts, self._max_ts + SPAN_EPSILON)

    def __len__(self) -> int:
        return self._count

    @property
    def partition_count(self) -> int:
        return len(self._partitions)
