"""Worker side of the sharded execution tier: a pickle RPC loop over pipes.

One shard worker = one OS process hosting one ordinary registered
single-node backend (``row``/``sqlite``).  The coordinator
(:class:`repro.storage.sharded.ShardedStore`) talks to it over a
:func:`multiprocessing.Pipe` connection pair with length-prefixed pickle
frames: every message is ``pickle.dumps(obj)`` sent through
``Connection.send_bytes`` (which writes a 32-bit length header before
the body, so a reader always knows where a frame ends and a torn frame
is detected as a short read, never mis-parsed).

The worker protocol is deliberately narrow — requests are
``(method, args)`` tuples and the *only* scan-shaping value that ever
crosses the boundary is a :class:`~repro.storage.backend.ScanSpec`
(``tools/check_invariants.py`` enforces this statically).  Residual
predicates cross as their :class:`~repro.engine.filters.Atom` tuples
(pure picklable data) and are re-fused worker-side with
:func:`~repro.engine.filters.compile_atoms`; the generated function
itself never needs to pickle.

Workers are always started from the ``spawn`` context (see
:data:`SPAWN_CONTEXT`): the coordinator lives in processes that may
already run threads (the streaming :class:`~repro.stream.bus.EventBus`,
the web server's request threads), and forking a multi-threaded process can
deadlock the child on locks held by threads that do not survive the
fork.  The invariant checker bans any other start method in ``src/``.

Fault injection reuses the :mod:`repro.storage.faults` idiom: the
coordinator can arm a :class:`~repro.storage.faults.Fault` at the named
points below, and the chaos harness uses ``kill`` mode to SIGKILL a
worker mid-request — the coordinator must then surface a clean
:class:`~repro.storage.sharded.ShardFailedError` instead of hanging or
silently returning partial results.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import TYPE_CHECKING, Any

from repro.storage.backend import create_backend
from repro.storage.faults import FaultInjector

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

#: The one multiprocessing context sharded code may use (never ``fork``:
#: the coordinator may already run bus/executor threads).
SPAWN_CONTEXT = multiprocessing.get_context("spawn")

#: Worker-side fault points, named ``shard.worker.<method>``.  Distinct
#: from the WAL points in :data:`repro.storage.faults.FAULT_POINTS` so
#: the durability chaos matrix stays exactly the WAL's.
SHARD_FAULT_POINTS = (
    "shard.worker.ingest",
    "shard.worker.candidates",
    "shard.worker.select",
    "shard.worker.estimate",
)

_PROTOCOL = pickle.HIGHEST_PROTOCOL


def send_msg(conn: "Connection", payload: object) -> None:
    """One length-prefixed pickle frame (header + body via send_bytes)."""
    conn.send_bytes(pickle.dumps(payload, _PROTOCOL))


def recv_msg(conn: "Connection") -> Any:
    """Read one frame; raises ``EOFError`` when the peer died."""
    return pickle.loads(conn.recv_bytes())


def _dispatch(backend, faults: FaultInjector, method: str,
              args: tuple) -> object:
    """Execute one request against the hosted backend.

    Scan methods receive ``(profile, spec)`` or ``(profile, atoms,
    spec)`` — the spec is always the last positional argument, so every
    pushdown (window, agentids, bindings, bounds, order)
    applies *inside* the shard exactly as it would on a single node.
    """
    faults.crash_point(f"shard.worker.{method}")
    if method == "ingest":
        return backend.ingest(args[0])
    if method == "scan":
        window, agentids = args
        return backend.scan(window, agentids)
    if method == "candidates":
        profile, spec = args
        return backend.candidates(profile, spec)
    if method == "select":
        from repro.engine.filters import compile_atoms
        profile, atoms, spec = args
        return backend.select(profile, compile_atoms(atoms), spec)
    if method == "estimate":
        profile, spec = args
        return backend.estimate(profile, spec)
    if method == "access_path":
        profile, spec = args
        return backend.access_path(profile, spec)
    if method == "stats":
        return {
            "events": len(backend),
            "entity_count": backend.entity_count,
            "dedup_ratio": backend.dedup_ratio,
            "partition_count": backend.partition_count,
        }
    if method == "metrics":
        # The worker's whole process-local registry as one picklable
        # snapshot — scan counters/timings accumulated by the hosted
        # backend's instrumented select paths.  The coordinator merges
        # these with its own snapshot (counters sum, histogram buckets
        # add), which is what makes sharded totals equal single-node
        # totals.
        from repro.obs.metrics import REGISTRY
        return REGISTRY.snapshot()
    if method == "arm_fault":
        faults.arm(args[0])
        return None
    if method == "ping":
        return backend.backend_name
    raise ValueError(f"unknown shard RPC method {method!r}")


def worker_main(conn: "Connection", backend_name: str,
                bucket_seconds: float) -> None:
    """The request loop one shard worker runs until shutdown.

    Spawn-friendly module-level entry point.  Every request gets exactly
    one reply: ``("ok", value)`` or ``("err", exception)`` — a raised
    exception is answered, not fatal, so one bad query never kills the
    shard.  Exceptions that refuse to pickle degrade to a
    :class:`~repro.errors.StorageError` carrying their repr.
    """
    backend = create_backend(backend_name, bucket_seconds)
    faults = FaultInjector()
    while True:
        try:
            request = recv_msg(conn)
        except (EOFError, OSError):
            break  # coordinator went away; die quietly
        method, args = request
        if method == "shutdown":
            send_msg(conn, ("ok", None))
            break
        try:
            result = _dispatch(backend, faults, method, args)
            reply = ("ok", result)
        except BaseException as exc:  # noqa: BLE001 — must answer, not die
            try:
                pickle.dumps(exc, _PROTOCOL)
            except Exception:
                from repro.errors import StorageError
                exc = StorageError(f"shard worker error in {method}: "
                                   f"{exc!r}")
            reply = ("err", exc)
        try:
            send_msg(conn, reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()
