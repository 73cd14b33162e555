"""The pluggable storage seam: the :class:`StorageBackend` protocol.

The paper's claim (Figure 1) is that interactive attack investigation
requires co-designing the storage substrate with the execution engine.  To
compare substrates fairly — and to let future PRs add sharded, async, or
multi-process stores — every engine component depends on this protocol
instead of a concrete store.  Two single-node implementations ship:

* ``row`` — :class:`repro.storage.store.EventStore`, the in-memory
  hypertable with per-partition posting indexes;
* ``sqlite`` — :class:`repro.baselines.sqlite_backend.SqliteEventStore`,
  an indexed SQLite table behind the same surface.

Backends register by name in a factory registry; sessions, the CLI, and
the benchmarks all select one through :func:`create_backend`.  The
deprecated name ``columnar`` still resolves, to ``row``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Iterable, Protocol,
                    runtime_checkable)

from repro.errors import StorageError
from repro.model.entities import Entity, ProcessEntity
from repro.model.events import Event
from repro.model.timeutil import SECONDS_PER_DAY, Window
from repro.obs.clock import monotonic
from repro.obs.metrics import REGISTRY
from repro.storage.stats import PatternProfile

if TYPE_CHECKING:
    from repro.engine.filters import CompiledPredicate


@dataclass(frozen=True, slots=True)
class TemporalBounds:
    """Propagated timestamp bounds for one data query.

    The scheduler's temporal propagation (§2.3) derives, from the
    temporal relations and the timestamp ranges of already-executed
    partner patterns, an interval every useful candidate of a pattern
    must fall into.  Passing that interval *into* the backend lets the
    restriction prune during the scan — partition zone pruning plus a
    costed time-index range scan (row store), or indexed
    ``BETWEEN``/comparison predicates (SQLite) — instead of
    post-filtering materialized survivors.

    Unlike a half-open :class:`~repro.model.timeutil.Window`, each side
    carries its own inclusivity: a strict ``before`` derives an
    *exclusive* bound (``ts > lo``) while the ``within d`` bound is
    *inclusive* (``ts <= hi``).  Keeping inclusivity first-class means
    the edges are exact; backends that prefer window arithmetic convert
    with :meth:`clamp_window`, which nudges by one ulp exactly where the
    half-open convention requires it.

    Bounds are a *hint*: backends may ignore them because the scheduler
    keeps an exact per-event post-filter as a correctness fallback.
    """

    lo: float = -math.inf
    hi: float = math.inf
    lo_strict: bool = False   # True: ts > lo, False: ts >= lo
    hi_strict: bool = False   # True: ts < hi, False: ts <= hi

    def __bool__(self) -> bool:
        return self.lo != -math.inf or self.hi != math.inf

    @property
    def unsatisfiable(self) -> bool:
        """True when no timestamp can satisfy the bounds."""
        return (self.lo > self.hi
                or (self.lo == self.hi
                    and (self.lo_strict or self.hi_strict)))

    def admits(self, ts: float) -> bool:
        """Exact per-event test (the post-filter fallback)."""
        if ts < self.lo or (ts == self.lo and self.lo_strict):
            return False
        if ts > self.hi or (ts == self.hi and self.hi_strict):
            return False
        return True

    def clamp_window(self, window: Window | None) -> Window | None:
        """Tightest half-open window covering ``bounds ∩ window``.

        This is the shared lowering used by backends whose scan machinery
        is window-shaped (partition pruning, sorted-column binary search):
        a strict lower bound becomes the next representable float (``ts >
        lo`` ⇔ ``ts >= nextafter(lo)``), an inclusive upper bound nudges
        the half-open end one ulp up.  Returns ``None`` when nothing
        constrains the scan, and a zero-length window when the
        combination is empty.
        """
        start = self.lo
        if self.lo_strict and start != -math.inf:
            start = math.nextafter(start, math.inf)
        end = self.hi
        if not self.hi_strict and end != math.inf:
            end = math.nextafter(end, math.inf)
        if window is not None:
            start = max(start, window.start)
            end = min(end, window.end)
        if start == -math.inf and end == math.inf:
            return None
        if start >= end:
            point = (start if math.isfinite(start)
                     else end if math.isfinite(end) else 0.0)
            return Window(point, point)
        return Window(start, end)


@dataclass(frozen=True, slots=True)
class IdentityBindings:
    """Propagated entity-identity restrictions for one data query.

    The scheduler's binding propagation (§2.3) restricts a pattern's
    subject/object to entity identities already seen by executed partner
    patterns.  Passing the sets *into* the backend lets the restriction
    prune during the scan — via identity posting lists (row store) or
    compiled ``IN (...)`` predicates (SQLite) — instead of
    post-filtering materialized survivors.

    ``None`` on a side means unrestricted; an *empty* set means the
    propagated variable has no admissible identity, so no event can match
    and backends short-circuit without touching a partition.
    """

    subjects: frozenset[tuple] | None = None
    objects: frozenset[tuple] | None = None

    def __bool__(self) -> bool:
        return self.subjects is not None or self.objects is not None

    @property
    def unsatisfiable(self) -> bool:
        """True when a bound side admits no identity at all."""
        return (self.subjects is not None and not self.subjects
                or self.objects is not None and not self.objects)

    def admits(self, event: Event) -> bool:
        """Exact per-event membership test (the post-filter fallback)."""
        if (self.subjects is not None
                and event.subject.identity not in self.subjects):
            return False
        if (self.objects is not None
                and event.object.identity not in self.objects):
            return False
        return True


@dataclass(frozen=True, slots=True)
class ScanOrder:
    """Pushed-down result ordering for one physical scan.

    The engine's canonical result order is ``(ts, id)`` ascending — the
    documented tiebreak every surface (executor sort, stream matchers,
    golden files) relies on.  A ``ScanOrder`` asks the backend to return
    survivors in that order (or its descending mirror) and, with
    ``limit``, to stop materializing past the first N: the top-k
    pushdown that turns "scan everything, sort, slice" into a bounded
    scan.

    Descending semantics mirror a stable descending sort on ``ts``: the
    comparator is ``(-ts, id)`` ascending, i.e. largest timestamps
    first and, among equal timestamps, *smallest* ids first — exactly
    what the executor's stable multi-pass sort produces.  Backends that
    cannot honor the order may ignore it (it is a hint like the rest of
    the spec); callers keep their own ordering/truncation as fallback,
    but a backend that *does* honor it must return the true first/last
    ``limit`` survivors under that comparator.
    """

    descending: bool = False
    limit: int | None = None

    def key(self) -> Callable[[Event], tuple]:
        """Per-event comparator key (ascending in the requested order)."""
        if self.descending:
            return lambda event: (-event.ts, event.id)
        return lambda event: (event.ts, event.id)


def take_ordered(events: Iterable[Event], order: ScanOrder,
                 limit: int) -> list[Event]:
    """True first/last-``limit`` survivors under the order's comparator.

    Shared by backends that collect unordered survivor streams (posting
    lists, SQL candidate sets): a bounded heap keeps memory at O(limit)
    and returns the winners sorted in the requested order.
    """
    if order.descending:
        # nlargest by (ts, -id) == nsmallest by (-ts, id): latest first,
        # ties broken toward the smallest id, matching a stable
        # descending sort on ts.
        return heapq.nsmallest(limit, events,
                               key=lambda e: (-e.ts, e.id))
    return heapq.nsmallest(limit, events, key=lambda e: (e.ts, e.id))


@dataclass(frozen=True, slots=True)
class ScanSpec:
    """Everything one physical scan is allowed to assume — in one value.

    The scan surface used to carry its reasoning as a positional tail
    (``window, agentids, bindings, bounds``) duplicated across every
    backend, the scheduler, the parallel executor, and the anomaly
    engine; each new pushdown meant a five-way signature change.  A
    ``ScanSpec`` is that reasoning as a first-class object:

    * ``window`` — the query's half-open time window (header clause or a
      parallel sub-query slice);
    * ``agentids`` — the spatial restriction (``None`` = all agents);
    * ``bindings`` — propagated identity restrictions (§2.3);
    * ``bounds`` — propagated per-side-inclusive timestamp bounds;
    * ``limit`` — optional cap on returned survivors (limit pushdown
      for callers that only need the first N);
    * ``order`` — pushed-down ``(ts, id)`` result ordering with an
      optional top-k limit (:class:`ScanOrder`).  A backend honoring it
      returns the true first/last N survivors already sorted.

    Hints stay hints: a backend may ignore ``bindings``/``bounds``
    because the engine keeps exact post-filters as a correctness
    fallback, but ``select`` results must respect them exactly, and
    ``estimate`` must honor them consistently with ``candidates``.
    The two normalizations every backend needs are shared here:
    :attr:`unsatisfiable` (no event can match; short-circuit without
    touching a partition) and :meth:`clamped` (bounds folded into the
    half-open window machinery partitions prune with).
    """

    window: Window | None = None
    agentids: frozenset[int] | None = None
    bindings: IdentityBindings | None = None
    bounds: TemporalBounds | None = None
    limit: int | None = None
    order: ScanOrder | None = None

    @property
    def effective_limit(self) -> int | None:
        """The tightest survivor cap carried by the spec (either field)."""
        limits = [cap for cap in (self.limit,
                                  self.order.limit if self.order else None)
                  if cap is not None]
        return min(limits) if limits else None

    @property
    def unsatisfiable(self) -> bool:
        """True when no stored event can possibly satisfy the spec.

        Consistent with :meth:`clamped` by construction: the temporal
        side is unsatisfiable exactly when the clamped window is empty,
        which covers disjoint ``window``/``bounds`` combinations and the
        equal-bounds edge cases (an inclusive point bound stays
        satisfiable, either strict side makes it empty).
        """
        if self.agentids is not None and not self.agentids:
            return True
        if self.bindings is not None and self.bindings.unsatisfiable:
            return True
        if self.bounds is not None and self.bounds.unsatisfiable:
            return True
        clamped = self.clamped()
        if clamped is not None and clamped.start >= clamped.end:
            return True
        return False

    def clamped(self) -> Window | None:
        """``bounds ∩ window`` as one half-open window (shared lowering).

        Idempotent: re-clamping a spec whose window already carries the
        intersection — with or without the original bounds still attached
        — returns the same window, so the lowering can run at any layer
        without compounding (the contract suite's property test locks
        this in).
        """
        if self.bounds is not None and self.bounds:
            return self.bounds.clamp_window(self.window)
        return self.window

    def admits(self, event: Event) -> bool:
        """Exact per-event test of the carried hints (post-filter)."""
        if self.bounds is not None and not self.bounds.admits(event.ts):
            return False
        if self.bindings is not None and not self.bindings.admits(event):
            return False
        return True


#: The spec every hint-less call site means: scan it all.
FULL_SCAN = ScanSpec()


def resolve_spec(spec: ScanSpec | None) -> ScanSpec:
    """The one spec-defaulting normalization every backend shares."""
    return spec if spec is not None else FULL_SCAN


@dataclass(frozen=True, slots=True)
class AccessPathInfo:
    """One backend's chosen physical access path for a scan.

    ``name`` is the dominant per-partition choice (the one covering the
    most costed rows), ``rows`` the total costed candidate rows across
    partitions, and ``considered`` every enumerated ``(path, rows)``
    alternative — the raw material of ``explain()`` output.
    """

    name: str
    rows: int
    considered: tuple[tuple[str, int], ...] = ()

    def describe(self) -> str:
        return f"{self.name} (~{self.rows} rows)"


@runtime_checkable
class StorageBackend(Protocol):
    """What the engine needs from a storage substrate.

    The surface is the four operations of the paper's storage tier — the
    agent write path (``record``/``ingest``), the index-backed candidate
    fetch, cardinality estimation for pruning-power scheduling, and full
    scans — plus ``select``, the fused fetch-and-filter entry point that
    lets a backend evaluate a pattern's residual predicate its own way,
    and ``access_path``, which reports the physical path the backend
    would choose without fetching (the ``explain()`` surface).

    ``candidates``/``select``/``estimate`` take the whole physical-scan
    contract as a single :class:`ScanSpec`.  Backends *may* ignore the
    binding/bounds hints inside it because the scheduler keeps exact
    post-filters as a correctness fallback; ``select`` results must
    respect the hints exactly (the shared :func:`select_via_candidates`
    already guarantees this for row-at-a-time backends), and
    ``estimate`` must honor them consistently with ``candidates`` — the
    scheduler re-orders patterns on these estimates, and a divergence
    would make ordering decisions about scans that return something
    else.
    """

    backend_name: str

    # Write path -------------------------------------------------------
    def record(self, ts: float, agentid: int, operation: str,
               subject: ProcessEntity, obj: Entity, amount: int = 0,
               failcode: int = 0) -> Event: ...

    def ingest(self, events: Iterable[Event]) -> int: ...

    # Read path --------------------------------------------------------
    def scan(self, window: Window | None = None,
             agentids: set[int] | None = None) -> list[Event]: ...

    def candidates(self, profile: PatternProfile,
                   spec: ScanSpec | None = None) -> list[Event]: ...

    def select(self, profile: PatternProfile,
               predicate: "CompiledPredicate",
               spec: ScanSpec | None = None) -> tuple[list[Event], int]: ...

    def estimate(self, profile: PatternProfile,
                 spec: ScanSpec | None = None) -> int: ...

    def access_path(self, profile: PatternProfile,
                    spec: ScanSpec | None = None) -> AccessPathInfo: ...

    # Introspection ----------------------------------------------------
    @property
    def span(self) -> Window | None: ...

    @property
    def agentids(self) -> set[int]: ...

    @property
    def entity_count(self) -> int: ...

    @property
    def dedup_ratio(self) -> float: ...

    @property
    def partition_count(self) -> int: ...

    def __len__(self) -> int: ...


def select_via_candidates(backend: StorageBackend, profile: PatternProfile,
                          predicate: "CompiledPredicate",
                          spec: ScanSpec | None = None,
                          ) -> tuple[list[Event], int]:
    """Default ``select``: candidate fetch + fused per-event residual.

    Backends share this implementation (the row store overrides only the
    ordered top-k case).  Returns ``(survivors, fetched)`` where
    ``fetched`` is the candidate-list size (for execution reports).  An
    unsatisfiable spec short-circuits, and the spec's binding/bounds
    hints are enforced exactly on the survivors, whatever the backend's
    ``candidates`` chose to do with them.

    The survivor stream is lazy: with a plain ``limit`` the filter loop
    stops the moment it has enough (instead of building the full
    survivor list and slicing), and with a pushed :class:`ScanOrder`
    a bounded heap keeps only the best ``limit`` seen so far — O(limit)
    memory however large the candidate set.
    """
    if spec is None:
        spec = FULL_SCAN
    if spec.unsatisfiable:
        return [], 0
    started = monotonic()
    fetched = backend.candidates(profile, spec)
    test = predicate.event_predicate
    bounds, bindings = spec.bounds, spec.bindings
    if bounds is not None and bounds:
        in_bounds = bounds.admits
        if bindings is not None and bindings:
            admits = bindings.admits
            survivors = (event for event in fetched
                         if in_bounds(event.ts) and admits(event)
                         and test(event))
        else:
            survivors = (event for event in fetched
                         if in_bounds(event.ts) and test(event))
    elif bindings is not None and bindings:
        admits = bindings.admits
        survivors = (event for event in fetched
                     if admits(event) and test(event))
    else:
        survivors = (event for event in fetched if test(event))
    order, limit = spec.order, spec.effective_limit
    if order is not None:
        if limit is not None:
            selected = take_ordered(survivors, order, limit)
        else:
            selected = sorted(survivors, key=order.key())
    elif limit is not None:
        selected = []
        for event in survivors:
            selected.append(event)
            if len(selected) >= limit:
                break
    else:
        selected = list(survivors)
    record_scan(len(fetched), len(selected), monotonic() - started)
    return selected, len(fetched)


# Scan telemetry handles, created once at import.  Scans through the
# shared path above report through :func:`record_scan`, so the counters
# mean the same thing on every backend; under sharding the inner backend
# runs in the worker process and these land in the worker's registry,
# which is what makes coordinator-merged totals equal the sum of worker
# snapshots.
_SCAN_COUNT = REGISTRY.counter("storage.scan.count")
_SCAN_FETCHED = REGISTRY.counter("storage.scan.fetched")
_SCAN_MATCHED = REGISTRY.counter("storage.scan.matched")
_SCAN_SECONDS = REGISTRY.histogram("storage.scan.seconds")


def record_scan(fetched: int, matched: int, elapsed: float) -> None:
    """Record one physical scan (candidate rows, survivors, duration)."""
    _SCAN_COUNT.inc()
    _SCAN_FETCHED.inc(fetched)
    _SCAN_MATCHED.inc(matched)
    _SCAN_SECONDS.observe(elapsed)


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------

BackendFactory = Callable[[float], StorageBackend]

#: The backends that ship with the repo.  A static tuple so surfaces that
#: only need the names (CLI ``--backend`` choices) avoid importing the
#: implementations.
BUILTIN_BACKENDS = ("row", "sqlite")

#: The sharded scatter-gather family (each hosts a builtin per worker).
SHARDED_BACKENDS = ("sharded", "sharded(row)", "sharded(sqlite)")

#: Deprecated backend names and the backend each resolves to.  The
#: ``columnar`` store was folded into ``row``; its name (also inside
#: ``sharded(columnar[,N])``) still works for existing scripts and
#: benchmarks, and is listed nowhere else.
BACKEND_ALIASES = {"columnar": "row"}

_FACTORIES: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> None:
    """Register a backend factory (``factory(bucket_seconds) -> backend``)."""
    _FACTORIES[name] = factory


def _ensure_builtins() -> None:
    # Imported lazily: the concrete stores import engine/baseline modules
    # that must not load just because the protocol module did.
    if "row" not in _FACTORIES:
        from repro.storage.store import EventStore
        register_backend("row", EventStore)
    if "sqlite" not in _FACTORIES:
        from repro.baselines.sqlite_backend import SqliteEventStore
        register_backend("sqlite", SqliteEventStore)
    if "sharded" not in _FACTORIES:
        from repro.storage.sharded import register_sharded
        register_sharded(register_backend)


def available_backends() -> tuple[str, ...]:
    """Registered backend names (builtin ones always included)."""
    _ensure_builtins()
    return tuple(sorted(_FACTORIES))


def create_backend(name: str,
                   bucket_seconds: float = SECONDS_PER_DAY) -> StorageBackend:
    """Instantiate a backend by registry name (or deprecated alias)."""
    _ensure_builtins()
    name = BACKEND_ALIASES.get(name, name)
    factory = _FACTORIES.get(name)
    if factory is None and name.startswith("sharded("):
        # Parameterized spellings ("sharded(row,4)") construct
        # directly; the fixed-arity family is registered above.
        from repro.storage.sharded import ShardedStore, parse_backend_name
        inner, shards = parse_backend_name(name)
        return ShardedStore(shards=shards, backend=inner,
                            bucket_seconds=bucket_seconds)
    if factory is None:
        raise StorageError(
            f"unknown storage backend {name!r} "
            f"(available: {', '.join(sorted(_FACTORIES))})")
    return factory(bucket_seconds)
