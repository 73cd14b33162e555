"""Domain-specific storage: pluggable backends over hypertable partitions.

The :class:`~repro.storage.backend.StorageBackend` protocol is the seam;
``row`` (:class:`EventStore`) is the one in-memory implementation, with
``sqlite`` provided by :mod:`repro.baselines.sqlite_backend` (imported
lazily through the registry to keep this package import-light).  The
deprecated name ``columnar`` resolves to ``row``.
"""

from repro.storage.backend import (AccessPathInfo, IdentityBindings,
                                   ScanSpec,
                                   StorageBackend, TemporalBounds,
                                   available_backends, create_backend,
                                   register_backend, select_via_candidates)
from repro.storage.dedup import EntityInterner, EventMerger, ReplayDeduper
from repro.storage.durable import DurableStore, RecoveryStats, recover
from repro.storage.faults import (FAULT_MODES, FAULT_POINTS, Fault,
                                  FaultInjector, FaultTriggered)
from repro.storage.indexes import (PostingIndex, TimeIndex, like_match,
                                   like_to_regex)
from repro.storage.ingest import IngestPipeline, IngestStats
from repro.storage.partition import Hypertable, Partition
from repro.storage.scanstats import (EquiDepthHistogram, FrequencySketch,
                                     PartitionStatistics)
from repro.storage.sharded import ShardedStore, ShardFailedError
from repro.storage.shardrpc import SHARD_FAULT_POINTS
from repro.storage.stats import PatternProfile, estimate_total
from repro.storage.store import EventStore
from repro.storage.wal import WalRecord, WriteAheadLog

__all__ = [
    "AccessPathInfo", "IdentityBindings", "ScanSpec", "StorageBackend",
    "TemporalBounds",
    "available_backends", "create_backend",
    "register_backend", "select_via_candidates",
    "EntityInterner", "EventMerger", "ReplayDeduper",
    "DurableStore", "RecoveryStats", "recover",
    "FAULT_MODES", "FAULT_POINTS", "Fault", "FaultInjector",
    "FaultTriggered",
    "WalRecord", "WriteAheadLog",
    "PostingIndex", "TimeIndex",
    "like_match", "like_to_regex", "IngestPipeline", "IngestStats",
    "Hypertable", "Partition", "PatternProfile", "estimate_total",
    "EquiDepthHistogram", "FrequencySketch", "PartitionStatistics",
    "EventStore",
    "ShardedStore", "ShardFailedError", "SHARD_FAULT_POINTS",
]
