"""The sharded scatter-gather execution tier (coordinator side).

:class:`ShardedStore` hash-partitions events by ``agentid`` across N
worker processes (``agentid % shards``), each hosting one ordinary
registered single-node backend behind the pickle RPC loop of
:mod:`repro.storage.shardrpc`.  The coordinator implements the full
:class:`~repro.storage.backend.StorageBackend` protocol by scattering
each scan to the relevant shards — the whole
:class:`~repro.storage.backend.ScanSpec` crosses the boundary, so every
single-node pushdown (window, agentids, bindings, bounds, order)
applies *inside* each shard — and gathering:

* ``estimate`` sums the shard estimates.  Shards partition the event
  space disjointly and each shard runs the same per-partition
  statistics a single node would over the same partitions, so the sum
  is exactly the single-node estimate for the row backend and the
  scheduler's pruning-power ordering is unchanged;
* ``select``/``candidates``/``scan`` merge per-shard results under the
  canonical ``(ts, id)`` comparator.  With a pushed
  :class:`~repro.storage.backend.ScanOrder` limit each shard returns
  its local top-k and the coordinator heap-merges the global top-k —
  the row store's per-partition union → ``heapq.nsmallest`` merge,
  applied one level up.

**Shard pruning:** a spec whose ``agentids`` set maps onto a strict
subset of the shards never round-trips to the others — routing and
pruning use the same hash, so a shard that cannot own a requested agent
cannot hold a matching event.  (Identity *bindings* do not prune
shards: nothing guarantees a bound entity's agentid equals the event's
routing agentid, and bindings stay a per-shard pushdown hint.)

**Failure model:** a worker that dies mid-request (crash, OOM kill,
chaos ``kill`` fault) surfaces as :class:`ShardFailedError` after the
round drains — never a hang, never a silently partial result.  The dead
worker is restarted empty so the store stays available; restoring its
data is the durability tier's job (see ROADMAP: sharded standing-query
state + WAL-backed shard recovery is the named follow-up).

Writes route per shard: ``ingest`` splits each batch by routing hash
and pipelines one sub-batch RPC per shard (send all, then collect
acks), which is what lets stream ingest through
:meth:`~repro.stream.bus.EventBus.attach_store` parallelize across
worker processes.  The coordinator allocates event ids and tracks
``span``/``agentids``/``len`` locally on the write path, so the
scheduler's introspection never pays an RPC.
"""

from __future__ import annotations

import heapq
import threading
import weakref
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import StorageError
from repro.model.entities import Entity, ProcessEntity
from repro.model.events import Event, validate_operation
from repro.model.timeutil import SECONDS_PER_DAY, SPAN_EPSILON, Window
from repro.obs.clock import monotonic
from repro.obs.metrics import REGISTRY
from repro.storage.backend import (BACKEND_ALIASES, AccessPathInfo,
                                   ScanSpec, resolve_spec)
from repro.storage.faults import Fault
from repro.storage.shardrpc import (SPAWN_CONTEXT, recv_msg, send_msg,
                                    worker_main)
from repro.storage.stats import PatternProfile

if TYPE_CHECKING:
    from repro.engine.filters import CompiledPredicate
    from repro.obs.metrics import MetricsSnapshot

#: Default worker count when a shard count is not given explicitly.
DEFAULT_SHARDS = 2

#: Seconds a graceful shutdown waits per worker before terminating it.
_SHUTDOWN_GRACE = 5.0


class ShardFailedError(StorageError):
    """A shard worker died mid-request (no results were returned)."""

    def __init__(self, message: str, shards: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.shards = tuple(shards)


def parse_backend_name(name: str) -> tuple[str, int]:
    """Parse ``sharded`` / ``sharded(inner)`` / ``sharded(inner,N)``."""
    if name == "sharded":
        return "row", DEFAULT_SHARDS
    if not (name.startswith("sharded(") and name.endswith(")")):
        raise StorageError(f"not a sharded backend name: {name!r}")
    inner = name[len("sharded("):-1]
    shards = DEFAULT_SHARDS
    if "," in inner:
        inner, _, count = inner.partition(",")
        inner = inner.strip()
        try:
            shards = int(count)
        except ValueError:
            raise StorageError(
                f"bad shard count in backend name {name!r}") from None
    return inner or "row", shards


def register_sharded(register) -> None:
    """Hook for the backend registry: the parameterized sharded family."""
    for inner in ("row", "sqlite"):
        register(f"sharded({inner})",
                 _factory(inner))
    register("sharded", _factory("row"))


def _factory(inner: str):
    def build(bucket_seconds: float = SECONDS_PER_DAY) -> "ShardedStore":
        return ShardedStore(shards=DEFAULT_SHARDS, backend=inner,
                            bucket_seconds=bucket_seconds)
    return build


class _Shard:
    """One worker process + its coordinator-side pipe endpoint."""

    __slots__ = ("index", "backend", "bucket_seconds", "process", "conn")

    def __init__(self, index: int, backend: str,
                 bucket_seconds: float) -> None:
        self.index = index
        self.backend = backend
        self.bucket_seconds = bucket_seconds
        parent_conn, child_conn = SPAWN_CONTEXT.Pipe()
        self.process = SPAWN_CONTEXT.Process(
            target=worker_main, args=(child_conn, backend, bucket_seconds),
            name=f"aiql-shard-{index}", daemon=True)
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    def send(self, method: str, args: tuple) -> None:
        send_msg(self.conn, (method, args))

    def recv(self) -> tuple[str, object]:
        """One ``("ok", value)`` / ``("err", exception)`` reply frame.

        The status stays explicit rather than re-raising here: a worker
        legitimately answers with ``OSError`` subclasses (injected
        ``FaultTriggered``, say), and the coordinator must never confuse
        an *answered* error with transport death (``EOFError``/raw
        ``OSError`` out of ``recv_bytes``), which alone means the worker
        is gone and warrants a restart.
        """
        return recv_msg(self.conn)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, graceful: bool = True) -> None:
        if graceful and self.alive:
            try:
                self.send("shutdown", ())
                if self.conn.poll(_SHUTDOWN_GRACE):
                    recv_msg(self.conn)
            except (OSError, EOFError, BrokenPipeError):
                pass
        self.process.join(timeout=_SHUTDOWN_GRACE if graceful else 0.1)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=_SHUTDOWN_GRACE)
        try:
            self.conn.close()
        except OSError:
            pass


def _finalize_shards(shards: list["_Shard"]) -> None:
    """GC/exit safety net: never leak worker processes."""
    for shard in shards:
        try:
            shard.stop(graceful=False)
        except Exception:
            pass


class ShardedStore:
    """Agent-hash partitioned scatter-gather over N worker backends.

    ``backend`` names the single-node backend every worker hosts; any
    registered non-sharded name works (``row``/``sqlite``).
    The instance is thread-safe: the EventBus delivery thread and the
    web server's request threads may call it concurrently, and one
    coordinator lock serializes RPC rounds
    (workers still execute their shard's scan in parallel *within* a
    round — that is where the speedup lives).
    """

    def __init__(self, shards: int = DEFAULT_SHARDS, backend: str = "row",
                 bucket_seconds: float = SECONDS_PER_DAY) -> None:
        if shards < 1:
            raise StorageError("shard count must be at least 1")
        if backend.startswith("sharded"):
            raise StorageError("sharded backends do not nest")
        backend = BACKEND_ALIASES.get(backend, backend)
        self.backend_name = f"sharded({backend})"
        self.shard_backend = backend
        # Probe the hosted backend *before* spawning anything: an unknown
        # name fails fast here instead of crashing N fresh workers.
        from repro.storage.backend import create_backend
        create_backend(backend, bucket_seconds)
        self._shards = [_Shard(i, backend, bucket_seconds)
                        for i in range(shards)]
        self._lock = threading.Lock()
        self._count = 0
        self._max_id = 0
        self._min_ts = float("inf")
        self._max_ts = float("-inf")
        self._agentids: set[int] = set()
        self._closed = False
        self.restarts = 0
        #: Auto-restarts per shard index — a flapping worker shows up
        #: here, where a single total would hide *which* shard flaps.
        self.restarts_by_shard: dict[int, int] = {}
        #: RPC rounds skipped entirely by shard pruning (test observability).
        self.pruned_rounds = 0
        self._finalizer = weakref.finalize(self, _finalize_shards,
                                           self._shards)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shard_of(self, agentid: int) -> int:
        """The worker that owns every event of ``agentid``."""
        return agentid % len(self._shards)

    def _relevant(self, spec: ScanSpec) -> list[int]:
        """Shard indexes a spec can touch (the shard-pruning rule).

        Only the spatial restriction prunes: routing hashes the event's
        ``agentid``, so ``spec.agentids`` maps exactly onto the shards
        that could hold a match.  Everything else (bindings, bounds,
        window) stays a per-shard pushdown.
        """
        if spec.agentids is None:
            return list(range(len(self._shards)))
        return sorted({self.shard_of(agentid) for agentid in spec.agentids})

    # ------------------------------------------------------------------
    # RPC rounds
    # ------------------------------------------------------------------
    def _round(self, targets: list[int], method: str, args_for,
               ) -> dict[int, object]:
        """One pipelined scatter-gather: send to all targets, then drain.

        Every targeted shard gets exactly one reply slot; a worker that
        died is recorded, the remaining replies still drain (connection
        hygiene — the next round must find every pipe empty), dead
        workers restart empty, and the round raises
        :class:`ShardFailedError`.  Worker-side exceptions re-raise
        coordinator-side after the drain.
        """
        self._check_open()
        started = monotonic()
        shards = [self._shards[i] for i in targets]
        dead: list[int] = []
        app_error: BaseException | None = None
        replies: dict[int, object] = {}
        for shard in shards:
            try:
                shard.send(method, args_for(shard.index))
            except (OSError, BrokenPipeError, ValueError):
                dead.append(shard.index)
        for shard in shards:
            if shard.index in dead:
                continue
            try:
                status, value = shard.recv()
            except (EOFError, OSError, BrokenPipeError):
                dead.append(shard.index)
                continue
            # Per-shard round-trip: scatter start → this shard's reply
            # drained.  Pipelined rounds overlap worker execution, so
            # later drains include the earlier ones' wait — this is the
            # latency a query *experiences* per shard, which is the SLO
            # signal, not the worker's service time.
            REGISTRY.histogram(
                f"shard.rpc.seconds[shard={shard.index}]").observe(
                monotonic() - started)
            if status == "err":  # answered error: worker is fine
                if app_error is None:
                    app_error = value
            else:
                replies[shard.index] = value
        REGISTRY.counter(f"shard.rpc.rounds[method={method}]").inc()
        if dead:
            for index in dead:
                self._restart(index)
            raise ShardFailedError(
                f"shard worker(s) {sorted(dead)} died during {method!r}; "
                f"restarted empty (no partial results were returned)",
                shards=sorted(dead))
        if app_error is not None:
            raise app_error
        return replies

    def _scatter(self, spec: ScanSpec, method: str, args: tuple,
                 ) -> list[object]:
        """Spec-pruned round with identical args; replies in shard order."""
        targets = self._relevant(spec)
        pruned = len(self._shards) - len(targets)
        self.pruned_rounds += pruned
        if pruned:
            REGISTRY.counter("shard.pruned_rounds").inc(pruned)
        if not targets:
            return []
        with self._lock:
            replies = self._round(targets, method, lambda index: args)
        return [replies[index] for index in targets]

    def _restart(self, index: int) -> None:
        shard = self._shards[index]
        shard.stop(graceful=False)
        self._shards[index] = _Shard(index, shard.backend,
                                     shard.bucket_seconds)
        self.restarts += 1
        self.restarts_by_shard[index] = \
            self.restarts_by_shard.get(index, 0) + 1
        REGISTRY.counter(f"shard.restarts[shard={index}]").inc()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("sharded store is closed")

    # ------------------------------------------------------------------
    # Write path (per-shard batch routing)
    # ------------------------------------------------------------------
    def record(self, ts: float, agentid: int, operation: str,
               subject: ProcessEntity, obj: Entity, amount: int = 0,
               failcode: int = 0) -> Event:
        """Build one event, route it to its shard, and return it.

        Ids allocate coordinator-side (monotonic across shards) so the
        canonical ``(ts, id)`` tiebreak stays globally meaningful;
        entity interning happens worker-side where the entities live.
        """
        operation = validate_operation(obj.entity_type, operation)
        event = Event(id=self._max_id + 1, ts=ts, agentid=agentid,
                      operation=operation, subject=subject, object=obj,
                      amount=amount, failcode=failcode)
        self.ingest([event])
        return event

    def ingest(self, events: Iterable[Event]) -> int:
        """Split a batch by routing hash; one pipelined sub-batch per shard.

        The write-path tracking (count, span, agentids, max id) updates
        only for acknowledged sub-batches, so a failed round never
        counts events the dead shard lost.
        """
        batch = list(events)
        if not batch:
            return 0
        per_shard: dict[int, list[Event]] = {}
        for event in batch:
            per_shard.setdefault(self.shard_of(event.agentid),
                                 []).append(event)
        targets = sorted(per_shard)
        with self._lock:
            try:
                replies = self._round(targets, "ingest",
                                      lambda index: (per_shard[index],))
            except ShardFailedError as failure:
                for index in targets:
                    if index not in failure.shards:
                        self._track(per_shard[index])
                raise
            for index in targets:
                self._track(per_shard[index])
        return sum(replies.values())

    def _track(self, batch: list[Event]) -> None:
        self._count += len(batch)
        for event in batch:
            if event.id > self._max_id:
                self._max_id = event.id
            if event.ts < self._min_ts:
                self._min_ts = event.ts
            if event.ts > self._max_ts:
                self._max_ts = event.ts
            self._agentids.add(event.agentid)

    # ------------------------------------------------------------------
    # Read path (scatter + (ts, id) gather)
    # ------------------------------------------------------------------
    def scan(self, window: Window | None = None,
             agentids: set[int] | None = None) -> list[Event]:
        spec = ScanSpec(window=window,
                        agentids=(frozenset(agentids)
                                  if agentids is not None else None))
        merged: list[Event] = []
        for events in self._scatter(spec, "scan", (window, agentids)):
            merged.extend(events)
        merged.sort(key=lambda e: (e.ts, e.id))
        return merged

    def candidates(self, profile: PatternProfile,
                   spec: ScanSpec | None = None) -> list[Event]:
        spec = resolve_spec(spec)
        if spec.unsatisfiable:
            return []
        merged: list[Event] = []
        for events in self._scatter(spec, "candidates", (profile, spec)):
            merged.extend(events)
        merged.sort(key=lambda e: (e.ts, e.id))
        return merged

    def select(self, profile: PatternProfile,
               predicate: "CompiledPredicate",
               spec: ScanSpec | None = None) -> tuple[list[Event], int]:
        """Scatter the spec, gather the global survivors.

        Each shard applies the identical spec, so with a pushed order
        limit every shard returns its own true first/last-k — the union
        provably contains the global winners and a bounded heap merge
        (``heapq.nsmallest`` under the order's ``(±ts, id)`` key)
        finishes the job, mirroring the row store's per-partition merge
        one level up.  Only the predicate's atoms cross the wire; workers
        re-fuse them.
        """
        spec = resolve_spec(spec)
        if spec.unsatisfiable:
            return [], 0
        results = self._scatter(spec, "select",
                                (profile, predicate.atoms, spec))
        survivors: list[Event] = []
        fetched = 0
        for events, examined in results:
            survivors.extend(events)
            fetched += examined
        order, limit = spec.order, spec.effective_limit
        if order is not None:
            key = order.key()
            if limit is not None:
                return heapq.nsmallest(limit, survivors, key=key), fetched
            survivors.sort(key=key)
            return survivors, fetched
        survivors.sort(key=lambda e: (e.ts, e.id))
        if limit is not None:
            del survivors[limit:]
        return survivors, fetched

    def estimate(self, profile: PatternProfile,
                 spec: ScanSpec | None = None) -> int:
        """Summed shard estimates (the merged-statistics gather).

        Shards hold disjoint partition sets of the same hypertable, and
        per-shard estimates sum over partitions, so the total equals the
        single-node estimate and the scheduler's pruning-power ordering
        is unchanged by sharding.
        """
        spec = resolve_spec(spec)
        if spec.unsatisfiable:
            return 0
        return sum(self._scatter(spec, "estimate", (profile, spec)))

    def access_path(self, profile: PatternProfile,
                    spec: ScanSpec | None = None) -> AccessPathInfo:
        spec = resolve_spec(spec)
        if spec.unsatisfiable:
            return AccessPathInfo("unsatisfiable", 0)
        infos = [info for info in
                 self._scatter(spec, "access_path", (profile, spec))
                 if info.name not in ("no-partitions", "unsatisfiable")]
        if not infos:
            return AccessPathInfo("no-partitions", 0)
        chosen: dict[str, int] = {}
        considered: dict[str, int] = {}
        for info in infos:
            chosen[info.name] = chosen.get(info.name, 0) + info.rows
            for name, rows in info.considered:
                considered[name] = considered.get(name, 0) + rows
        dominant = max(chosen, key=lambda name: (chosen[name], name))
        name = (dominant if len(chosen) == 1
                else f"{dominant}+{len(chosen) - 1} other")
        return AccessPathInfo(name=name, rows=sum(chosen.values()),
                              considered=tuple(sorted(considered.items())))

    # ------------------------------------------------------------------
    # Faults / lifecycle
    # ------------------------------------------------------------------
    def arm_fault(self, shard: int, fault: Fault) -> None:
        """Arm a worker-side fault point (the chaos harness' hook)."""
        with self._lock:
            self._round([shard], "arm_fault", lambda index: (fault,))

    def close(self) -> None:
        """Graceful shutdown: drain, ack, join every worker."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        self._stop_all()

    def _stop_all(self) -> None:
        for shard in self._shards:
            shard.stop(graceful=True)

    def __enter__(self) -> "ShardedStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def span(self) -> Window | None:
        if self._count == 0:
            return None
        return Window(self._min_ts, self._max_ts + SPAN_EPSILON)

    @property
    def agentids(self) -> set[int]:
        return set(self._agentids)

    def _stats(self) -> list[dict]:
        with self._lock:
            replies = self._round(list(range(len(self._shards))),
                                  "stats", lambda index: ())
        return [replies[index] for index in sorted(replies)]

    def worker_metrics(self) -> "list[MetricsSnapshot]":
        """Each worker's metrics snapshot, in shard order.

        Plain mergeable data over the same RPC everything else uses;
        :meth:`repro.core.session.AiqlSession.metrics` folds these into
        the coordinator's own snapshot.
        """
        with self._lock:
            replies = self._round(list(range(len(self._shards))),
                                  "metrics", lambda index: ())
        return [replies[index] for index in sorted(replies)]

    def coordinator_stats(self) -> dict:
        """Merged introspection: shard health the workers can't see.

        Restart counts live here (a restarted worker has no memory of
        having died), keyed per shard so a flapping worker stands out.
        """
        return {
            "shards": len(self._shards),
            "backend": self.shard_backend,
            "restarts": self.restarts,
            "restarts_by_shard": dict(sorted(
                self.restarts_by_shard.items())),
            "pruned_rounds": self.pruned_rounds,
        }

    @property
    def entity_count(self) -> int:
        # Entity identities embed the agentid, so shard-local intern
        # tables are disjoint and the sum is the single-node count.
        return sum(stats["entity_count"] for stats in self._stats())

    @property
    def dedup_ratio(self) -> float:
        stats = self._stats()
        total = sum(s["events"] for s in stats)
        if total == 0:
            return 0.0
        # Intern-call volume is proportional to events per shard, so the
        # event-weighted mean of shard ratios is the global ratio.
        return sum(s["dedup_ratio"] * s["events"] for s in stats) / total

    @property
    def partition_count(self) -> int:
        return sum(stats["partition_count"] for stats in self._stats())

    def __len__(self) -> int:
        return self._count
