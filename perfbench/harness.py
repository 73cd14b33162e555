"""Measurement loops for the end-to-end (untraced) and per-layer runs.

Each workload is one closed loop driven through the public API.  Engine
threads and shard workers are pinned to :data:`WORKERS`.  Outputs are
checked as they are produced: every query's rows against a reference
computed once on a different backend, the recovered durable store
against the published events, and every standing rule against batch
execution on the recovered store.  Mismatches and exceptions count in
``failed``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import selftest
from probes import (SpeedTrack, StorageProbe, min_samples,
                    order_statistic, peak_rss_mb, self_times,
                    track_self_over_wall)
from repro import AiqlSession
from repro.baselines.sqlite_backend import RelationalBaseline
from repro.errors import TranslationError
from repro.lang.parser import parse
from repro.obs.metrics import REGISTRY
from repro.storage.backend import create_backend
from repro.storage.durable import DurableStore
from repro.stream import ContinuousRuntime, EventBus
from workloads import (BATCH_EVENTS, CHECKPOINTS_PER_ROUND,
                       STANDING_RULES, Query, Workload)

#: Engine threads and shard worker processes: two, or fewer CPUs.
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: Set-ups per run (setup_s is their median) and timed recoveries.
SETUPS = 5
RECOVERIES = 3

#: Share of the measuring window over which ingest batches are spread;
#: the recoveries are spread over the rest.
INGEST_SHARE = 0.6

#: Calibrations taken back to back around each long operation.
CALIBRATION_BURST = 9

#: Traced run: untraced/traced catalog pass pairs, and SQL passes.
TRACED_PASSES = 12
SQL_PASSES = 3

ENGINE_SPANS = ("plan", "schedule", "scan", "join", "project", "windows")


class Tally:
    """Attempted and failed operations; failures are reported to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


class PeakRss:
    """Running maximum of this process's plus its workers' peak RSS."""

    def __init__(self) -> None:
        self.value = 0.0

    def sample(self) -> None:
        self.value = max(self.value, peak_rss_mb())


def digest(rows) -> str:
    """Order-insensitive hash of a result's rows (duplicates kept)."""
    return hashlib.blake2b(
        "\n".join(sorted(map(repr, rows))).encode("utf-8"),
        digest_size=16).hexdigest()


def backend_of(workload: Workload) -> str:
    return (f"sharded(row,{WORKERS})" if workload.sharded
            else workload.backend)


def close_store(store) -> None:
    close = getattr(store, "close", None)
    if close is not None:
        close()


@contextmanager
def frozen_gc():
    """Collect once, then keep the set-up's objects out of later GCs."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# Query phase
# ---------------------------------------------------------------------------

def reference_digests(workload: Workload, events) -> dict[str, str]:
    """Every query's rows on the workload's reference backend."""
    session = AiqlSession(store=create_backend(workload.reference),
                          max_workers=WORKERS)
    try:
        session.ingest(events)
        return {query.id: digest(session.query(query.aiql).rows)
                for query in workload.catalog}
    finally:
        close_store(session.store)


def check_rows(tally: Tally, query: Query, rows,
               reference: dict[str, str]) -> None:
    if query.must_match:
        tally.check(bool(rows), f"{query.id}: empty result")
    tally.check(digest(rows) == reference[query.id],
                f"{query.id}: rows differ from the reference backend")


def run_pass(session, workload: Workload, tally: Tally, reference,
             latencies: list[tuple[float, float]] | None = None) -> float:
    """One untraced catalog pass; returns its wall seconds.

    ``latencies`` collects ``(time, seconds)`` per successful query.
    """
    results = []
    started = time.perf_counter()
    for query in workload.catalog:
        begun = time.perf_counter()
        try:
            rows = session.query(query.aiql).rows
        except Exception as exc:   # counted, and the run goes on
            tally.check(False, f"{query.id}: {type(exc).__name__}: {exc}")
            continue
        if latencies is not None:
            ended = time.perf_counter()
            latencies.append(((begun + ended) / 2, ended - begun))
        results.append((query, rows))
    elapsed = time.perf_counter() - started
    for query, rows in results:
        check_rows(tally, query, rows, reference)
    return elapsed


def set_up(workload: Workload, events, tally: Tally, reference,
           store=None) -> tuple[AiqlSession, float]:
    """Session and store (workers spawn here), bulk ingest, warm-up pass."""
    started = time.perf_counter()
    session = AiqlSession(store=store if store is not None
                          else create_backend(backend_of(workload)),
                          max_workers=WORKERS)
    session.ingest(events)
    run_pass(session, workload, tally, reference)
    return session, time.perf_counter() - started


# ---------------------------------------------------------------------------
# Ingest phase
# ---------------------------------------------------------------------------

class IngestRound:
    """One publish of the workload's events: bus → rules → durable store.

    ``traced`` wraps this round's own durable store (``ingest`` and
    ``checkpoint``) and the rules' ``on_batch`` with timers for the
    per-layer numbers.
    """

    def __init__(self, workload: Workload, events, directory: Path,
                 traced: bool) -> None:
        self.events = events
        self.directory = directory
        self.batch = BATCH_EVENTS
        self.inner = create_backend(backend_of(workload))
        self.store = DurableStore(
            directory, backend=self.inner, sync="always",
            auto_checkpoint=math.ceil(len(events)
                                      / (CHECKPOINTS_PER_ROUND + 0.5)))
        self.runtime = ContinuousRuntime()
        for name, text in STANDING_RULES:
            self.runtime.register(parse(text), name=name)
        self.bus = EventBus(batch_size=self.batch)
        self.bus.attach_store(self.store, chunk_size=self.batch)
        self._next = 0
        self.finished = False
        self.batch_samples: list[tuple[float, float]] = []
        self.match_seconds = 0.0
        self.append_seconds = 0.0
        self.checkpoint_seconds: list[float] = []
        self.wal_bytes = 0
        self.state_max = 0
        if traced:
            self.bus.subscribe(self._timed_on_batch)
            self._wrap_store()
        else:
            self.bus.subscribe(self.runtime.on_batch)

    def _timed_on_batch(self, events, watermark) -> None:
        started = time.perf_counter()
        self.runtime.on_batch(events, watermark)
        self.match_seconds += time.perf_counter() - started
        self.state_max = max(self.state_max, max(
            standing.state_size() for standing in self.runtime.queries))

    def _wrap_store(self) -> None:
        store = self.store
        ingest, checkpoint = store.ingest, store.checkpoint
        pre_reset: list[int] = []

        def timed_checkpoint() -> int:
            pre_reset.append(store.wal_size)
            started = time.perf_counter()
            number = checkpoint()
            self.checkpoint_seconds.append(time.perf_counter() - started)
            return number

        def timed_ingest(batch) -> int:
            before = store.wal_size
            checkpoints = len(self.checkpoint_seconds)
            started = time.perf_counter()
            count = ingest(batch)
            elapsed = time.perf_counter() - started
            self.append_seconds += elapsed - sum(
                self.checkpoint_seconds[checkpoints:])
            # A checkpoint inside ingest truncates the WAL after the
            # append; its pre-truncation size ends this batch's record.
            self.wal_bytes += (pre_reset.pop() if pre_reset
                               else store.wal_size) - before
            return count

        store.checkpoint = timed_checkpoint
        store.ingest = timed_ingest

    @property
    def done(self) -> bool:
        return self._next >= len(self.events)

    @property
    def progress(self) -> float:
        return min(1.0, self._next / len(self.events))

    def publish_batch(self) -> None:
        """Publish and flush the next batch, timed."""
        start = self._next
        begun = time.perf_counter()
        self.bus.publish_many(self.events[start:start + self.batch])
        self.bus.flush()
        ended = time.perf_counter()
        self._next = start + self.batch
        self.batch_samples.append(((begun + ended) / 2, ended - begun))

    def finish(self) -> None:
        """Close the feed: end-of-stream panes, final commit, WAL close."""
        self.bus.close()
        self.runtime.finish()
        self.store.close()
        self.finished = True

    def publish(self) -> float:
        """Publish every event in one go; returns elapsed wall seconds."""
        started = time.perf_counter()
        while not self.done:
            self.publish_batch()
        self.finish()
        return time.perf_counter() - started

    def close(self) -> None:
        close_store(self.inner)


def check_recovered(tally: Tally, store, round_: IngestRound) -> None:
    """Every published event is back; every rule equals batch rows."""
    events = round_.events
    tally.check(len(store) == len(events),
                f"recovered {len(store)} of {len(events)} events")
    tally.check(sorted(event.id for event in store.scan())
                == sorted(event.id for event in events),
                "recovered event ids differ from the published ones")
    session = AiqlSession(store=store, max_workers=WORKERS)
    for standing, (name, text) in zip(round_.runtime.queries,
                                      STANDING_RULES):
        try:
            batch_rows = session.query(text).rows
        except Exception as exc:   # counted, and the run goes on
            tally.check(False, f"rule {name}: {type(exc).__name__}: {exc}")
            continue
        tally.check(digest(standing.result().rows) == digest(batch_rows),
                    f"rule {name}: stream result differs from batch rows")


def open_recovered(workload: Workload, round_: IngestRound) -> DurableStore:
    """Recover the round's durable directory to a queryable store."""
    return DurableStore(round_.directory,
                        backend=create_backend(backend_of(workload)),
                        sync="always")


def check_and_close(tally: Tally, store: DurableStore, round_: IngestRound,
                    rss: PeakRss, full_check: bool) -> None:
    """Every recovery holds all published events; ``full_check`` also
    compares event ids and every rule against batch execution."""
    try:
        if full_check:
            check_recovered(tally, store, round_)
            rss.sample()
        else:
            tally.check(len(store) == len(round_.events),
                        "recovered store is missing events")
    finally:
        store.close()
        close_store(store.inner)


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(workload: Workload, seed: int, seconds: float,
               workdir: Path):
    """End-to-end metrics, every time normalized by a SpeedTrack.

    One session is set up and then serves catalog passes for ``seconds``
    of pass time.  The other timed operations interleave with the
    passes, so every figure samples the same stretch of the host's
    speed: the remaining set-ups early on, the ingest batches over the
    first INGEST_SHARE of the window, the recoveries over the rest.

    Returns the gated metrics and, in ``samples``, every reported figure
    with its sample count — also the tails and few-sample timings that
    run-to-run noise on a shared host keeps from being gated.
    """
    tally = Tally()
    rss = PeakRss()
    speed = SpeedTrack()
    events = workload.events(seed)
    reference = reference_digests(workload, events)
    setups: list[tuple[float, float]] = []

    def timed(operation):
        """Run a long operation between calibration bursts, GC frozen."""
        speed.measure(repeats=CALIBRATION_BURST)
        gc.collect()
        gc.freeze()
        started = time.perf_counter()
        value = operation()
        ended = time.perf_counter()
        speed.measure(repeats=CALIBRATION_BURST)
        return ((started + ended) / 2, ended - started), value

    def extra_setup() -> None:
        sample, (other, _) = timed(
            lambda: set_up(workload, events, tally, reference))
        setups.append(sample)
        close_store(other.store)

    sample, (session, _) = timed(
        lambda: set_up(workload, events, tally, reference))
    setups.append(sample)
    round_ = IngestRound(workload, events, workdir / "round", traced=False)
    recoveries: list[tuple[float, float]] = []

    def recover_next() -> None:
        sample, store = timed(lambda: open_recovered(workload, round_))
        recoveries.append(sample)
        check_and_close(tally, store, round_, rss,
                        full_check=len(recoveries) == RECOVERIES)

    # Shares of the pass-time window at which each operation is due.
    setup_at = [INGEST_SHARE * (k + 1) / SETUPS for k in range(SETUPS - 1)]
    recover_at = [INGEST_SHARE + (1 - INGEST_SHARE) * (k + 0.5) / RECOVERIES
                  for k in range(RECOVERIES)]
    window = seconds
    passes: list[tuple[float, float]] = []
    queries: list[tuple[float, float]] = []
    pass_time = 0.0
    try:
        with frozen_gc():
            while True:
                share = pass_time / window
                if share >= 1 and len(passes) >= min_samples(0.5):
                    break
                speed.maybe_measure()
                started = time.perf_counter()
                elapsed = run_pass(session, workload, tally, reference,
                                   queries)
                passes.append((started + elapsed / 2, elapsed))
                pass_time += elapsed
                share = pass_time / window
                if len(setups) < SETUPS and share >= setup_at[len(setups) - 1]:
                    extra_setup()
                while (not round_.done
                       and round_.progress < share / INGEST_SHARE):
                    round_.publish_batch()
                    speed.maybe_measure()
                if round_.done and not round_.finished:
                    round_.finish()
                    rss.sample()
                if (round_.finished and len(recoveries) < RECOVERIES
                        and share >= recover_at[len(recoveries)]):
                    recover_next()
            while len(setups) < SETUPS:
                extra_setup()
            while not round_.done:
                round_.publish_batch()
                speed.maybe_measure()
            if not round_.finished:
                round_.finish()
            while len(recoveries) < RECOVERIES:
                recover_next()
            rss.sample()
    finally:
        close_store(session.store)
        round_.close()

    catalog = speed.normalize(passes)
    latency = speed.normalize(queries)
    batch = speed.normalize(round_.batch_samples)
    metrics = {
        "setup_s": (median(speed.normalize(setups)), "s"),
        "catalog_ms.p50": (order_statistic(catalog, 0.5) * 1e3, "ms"),
        "batch_ms.p50": (order_statistic(batch, 0.5) * 1e3, "ms"),
        "ingest_eps": (len(events) / sum(batch), "1/s"),
        "rss_mb": (rss.value, "MB"),
    }
    ungated = {
        "catalog_ms.p90": _tail(catalog, 0.9, 1e3, "ms"),
        "query_ms.p50": _tail(latency, 0.5, 1e3, "ms"),
        "query_ms.p99": _tail(latency, 0.99, 1e3, "ms"),
        "batch_ms.p99": _tail(batch, 0.99, 1e3, "ms"),
        "recovery_s": {"value": median(speed.normalize(recoveries)),
                       "unit": "s", "samples": len(recoveries)},
    }
    samples = {"setup_s": len(setups), "catalog_ms": len(passes),
               "batch_ms": len(batch), "ungated": ungated,
               "calibration_ms": speed.calibration_s() * 1e3,
               "calibrations": len(speed.points),
               "raw": {"setup_s": median(s for _t, s in setups),
                       "catalog_ms.p50": order_statistic(
                           [s for _t, s in passes], 0.5) * 1e3,
                       "batch_ms.p50": order_statistic(
                           [s for _t, s in round_.batch_samples], 0.5)
                       * 1e3}}
    return tally, metrics, samples


def _tail(values: list[float], fraction: float, scale: float,
          unit: str) -> dict:
    """A percentile with its sample count; None when undersampled."""
    value = (order_statistic(values, fraction) * scale
             if len(values) >= min_samples(fraction) else None)
    return {"value": value, "unit": unit, "samples": len(values)}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def query_layers(spans, query: Query) -> dict[str, float]:
    """One traced query's layer seconds (engine spans: self per track)."""
    selfs = self_times(spans)
    out = dict.fromkeys(("parse", "analyze", "execute", "storage",
                         "engine_self", *ENGINE_SPANS), 0.0)
    for span in spans:
        duration = span.end - span.start
        if span.name in ("parse", "analyze"):
            out[span.name] += duration
        elif span.name == "query":
            out["execute"] += duration
        elif span.name.startswith("storage."):
            out["storage"] += duration
        elif span.name in ENGINE_SPANS:
            out[span.name] += selfs[id(span)]
            out["engine_self"] += selfs[id(span)]
    out["execute"] -= out["parse"] + out["analyze"]
    out["anomaly"] = (out["execute"] - out["storage"]
                      if query.kind == "anomaly" else 0.0)
    return out


class ShardCounters:
    """Worker scan time and coordinator RPC rounds, read as deltas."""

    def __init__(self, session) -> None:
        self.session = session

    def read(self) -> tuple[float, float, int]:
        hist = self.session.metrics().histograms.get("storage.scan.seconds")
        rounds = sum(value for name, value
                     in REGISTRY.snapshot().counters.items()
                     if name.startswith("shard.rpc.rounds[")
                     and "method=metrics" not in name)
        pruned = self.session.store.coordinator_stats()["pruned_rounds"]
        return (hist.total if hist is not None else 0.0), rounds, pruned


def traced_queries(workload: Workload, events, tally: Tally, reference):
    """Untraced/traced pass pairs through a storage probe."""
    holder: list[AiqlSession] = []
    tracing = [False]
    probe = StorageProbe(
        create_backend(backend_of(workload)),
        current_tracer=lambda: holder[0].last_trace() if tracing[0] else None)
    session, _ = set_up(workload, events, tally, reference, store=probe)
    holder.append(session)
    ingest_s = probe.seconds["ingest"]
    shard = ShardCounters(session) if workload.sharded else None
    layers: dict[str, list[float]] = {}
    walls, cpus, traced_walls = [], [], []
    untraced: dict[str, list[float]] = {}
    worst = 0.0
    try:
        with frozen_gc():
            for _ in range(TRACED_PASSES):
                # Untraced pass straight on the store: no probe, no spans.
                session.store = probe.inner
                latencies: list[tuple[float, float]] = []
                cpu = time.process_time()
                walls.append(run_pass(session, workload, tally, reference,
                                      latencies))
                cpus.append(time.process_time() - cpu)
                for query, (_at, latency) in zip(workload.catalog,
                                                 latencies):
                    untraced.setdefault(query.id, []).append(latency)

                session.store = probe
                probe.reset()
                before = shard.read() if shard is not None else None
                tracing[0] = True
                totals: dict[str, float] = {}
                result_rows = 0
                started = time.perf_counter()
                for query in workload.catalog:
                    result = session.query(query.aiql, trace=True)
                    spans = session.last_trace().spans()
                    for name, value in query_layers(spans, query).items():
                        totals[name] = totals.get(name, 0.0) + value
                    worst = max(worst, track_self_over_wall(spans))
                    result_rows += len(result.rows)
                    check_rows(tally, query, result.rows, reference)
                traced_walls.append(time.perf_counter() - started)
                tracing[0] = False
                totals.update(
                    select=probe.seconds["select"],
                    estimate=probe.seconds["estimate"],
                    select_calls=probe.calls["select"],
                    estimate_calls=probe.calls["estimate"],
                    fetched=probe.fetched, matched=probe.matched,
                    result_rows=result_rows)
                if shard is not None:
                    after = shard.read()
                    totals.update(
                        rpc=probe.seconds["select"] + probe.seconds["estimate"]
                        - (after[0] - before[0]),
                        rounds=after[1] - before[1],
                        pruned=after[2] - before[2])
                for name, value in totals.items():
                    layers.setdefault(name, []).append(value)
    finally:
        session.store = probe
        close_store(probe.inner)
    tally.check(worst <= 1 + 1e-9,
                f"a track's self time exceeds its wall time ({worst:.6f})")
    return {
        "layers": {name: median(values) for name, values in layers.items()},
        "ingest_s": ingest_s,
        "wall": median(walls), "cpu": median(cpus),
        "traced_wall": median(traced_walls),
        "untraced_query": {qid: median(values)
                           for qid, values in untraced.items()},
        "self_over_wall": worst,
    }


def sql_baseline(workload: Workload, events, untraced_query):
    """SQL catalog time over the queries the translator accepts."""
    baseline = RelationalBaseline(optimized=workload.sql_optimized)
    try:
        baseline.load_events(events)
        baseline.finalize()
        translated = []
        for query in workload.catalog:
            try:
                baseline.run_query(parse(query.aiql))
            except TranslationError:
                continue
            translated.append(query)
        passes = [sum(baseline.run_query(parse(query.aiql)).elapsed
                      for query in translated)
                  for _ in range(SQL_PASSES)]
    finally:
        baseline.close()
    sql = median(passes)
    aiql = sum(untraced_query[query.id] for query in translated)
    return sql, sql / aiql, len(translated)


def wal_only_recovery(events, batch: int, directory: Path,
                      tally: Tally) -> float:
    """Recovery time of the same batches logged with no checkpoint."""
    plain = DurableStore(directory, backend="row", sync="never")
    for start in range(0, len(events), batch):
        plain.ingest(events[start:start + batch])
    plain.close()
    seconds = []
    for _ in range(RECOVERIES):
        started = time.perf_counter()
        recovered = DurableStore(directory, backend="row", sync="never")
        seconds.append(time.perf_counter() - started)
        tally.check(len(recovered) == len(events),
                    "WAL-only recovery lost events")
        recovered.close()
    return median(seconds)


def _fsyncs() -> int:
    hist = REGISTRY.snapshot().histograms.get("wal.fsync.seconds")
    return hist.count if hist is not None else 0


def per_layer(workload: Workload, seed: int, seconds: float,
              workdir: Path):
    """Per-layer metrics from the traced run (raw times, not normalized;
    ``machine.calibration_ms`` records the host's speed during the run)."""
    tally = Tally()
    speed = SpeedTrack()
    speed.measure(repeats=CALIBRATION_BURST)
    for problem in selftest.run():
        tally.check(False, f"self-test: {problem}")
    tally.check(True, "self-test")
    events = workload.events(seed)
    reference = reference_digests(workload, events)

    queries = traced_queries(workload, events, tally, reference)
    layers = queries["layers"]
    sql_s, speedup, translated = sql_baseline(workload, events,
                                              queries["untraced_query"])

    round_ = IngestRound(workload, events, workdir / "traced", traced=True)
    fsyncs = _fsyncs()
    try:
        publish_s = round_.publish()
    finally:
        round_.close()
    fsyncs = _fsyncs() - fsyncs
    recoveries = []
    for attempt in range(RECOVERIES):
        with frozen_gc():
            started = time.perf_counter()
            store = open_recovered(workload, round_)
            recoveries.append(time.perf_counter() - started)
        check_and_close(tally, store, round_, PeakRss(),
                        full_check=attempt == RECOVERIES - 1)
    bare = create_backend("row")
    row_append = 0.0
    for start in range(0, len(events), round_.batch):
        begun = time.perf_counter()
        bare.ingest(events[start:start + round_.batch])
        row_append += time.perf_counter() - begun
    wal_only_s = wal_only_recovery(events, round_.batch,
                                   workdir / "wal-only", tally)
    speed.measure(repeats=CALIBRATION_BURST)

    def ms(name: str) -> float:
        return layers.get(name, 0.0) * 1e3

    per_kilo = 1e6 / len(events)        # total seconds -> ms per 1k events
    checkpoint_s = sum(round_.checkpoint_seconds)
    checkpoints = len(round_.checkpoint_seconds)
    fetched = layers["fetched"]
    metrics = {
        "lang.parse_ms": (ms("parse"), "ms"),
        "lang.analyze_ms": (ms("analyze"), "ms"),
        "engine.execute_ms": (ms("execute"), "ms"),
        "engine.anomaly_ms": (ms("anomaly"), "ms"),
        "engine.self_ms": (ms("engine_self"), "ms"),
        **{f"engine.{name}_ms": (ms(name), "ms") for name in ENGINE_SPANS},
        "engine.self_over_wall_max": (queries["self_over_wall"], "ratio"),
        "storage.select_ms": (ms("select"), "ms"),
        "storage.select_calls": (layers["select_calls"], "count"),
        "storage.estimate_ms": (ms("estimate"), "ms"),
        "storage.estimate_calls": (layers["estimate_calls"], "count"),
        "storage.rows_fetched": (fetched, "count"),
        "storage.rows_matched": (layers["matched"], "count"),
        "storage.matched_per_fetched": (
            layers["matched"] / fetched if fetched else 0.0, "ratio"),
        "storage.fetched_per_result_row": (
            fetched / max(1.0, layers["result_rows"]), "ratio"),
        "storage.ingest_s": (queries["ingest_s"], "s"),
        "storage.sharded.rpc_ms": (ms("rpc"), "ms"),
        "storage.sharded.rounds": (layers.get("rounds", 0.0), "count"),
        "storage.sharded.pruned_rounds": (layers.get("pruned", 0.0),
                                          "count"),
        "stream.match_ms": (round_.match_seconds * per_kilo, "ms"),
        "stream.bus_ms": ((sum(s for _t, s in round_.batch_samples)
                           - round_.match_seconds
                           - round_.append_seconds - checkpoint_s)
                          * per_kilo, "ms"),
        "stream.matches": (sum(q.matches for q in round_.runtime.queries),
                           "count"),
        "stream.state_max": (round_.state_max, "count"),
        "stream.evicted": (sum(q.evicted for q in round_.runtime.queries),
                           "count"),
        "stream.publish_s": (publish_s, "s"),
        "storage.durable.append_ms": (round_.append_seconds * per_kilo, "ms"),
        "storage.row.append_ms": (row_append * per_kilo, "ms"),
        "storage.wal_bytes_per_event": (round_.wal_bytes / len(events), "B"),
        "storage.wal.fsyncs": (fsyncs, "count"),
        "storage.durable.checkpoints": (checkpoints, "count"),
        "storage.durable.checkpoint_ms": (
            checkpoint_s * 1e3 / max(1, checkpoints), "ms"),
        "storage.recover_s": (median(recoveries), "s"),
        "storage.recover_wal_only_s": (wal_only_s, "s"),
        "cpu_ms": (queries["cpu"] * 1e3, "ms"),
        "wall_ms": (queries["wall"] * 1e3, "ms"),
        "trace.overhead": (queries["traced_wall"] / queries["wall"], "ratio"),
        "baselines.sql.catalog_ms": (sql_s * 1e3, "ms"),
        "baselines.sql.speedup": (speedup, "ratio"),
        "baselines.sql.queries": (translated, "count"),
        "machine.calibration_ms": (speed.calibration_s() * 1e3, "ms"),
    }
    metrics["failed_ratio"] = (tally.failed / tally.attempted, "ratio")
    samples = {"traced_passes": TRACED_PASSES, "sql_passes": SQL_PASSES,
               "recoveries": RECOVERIES,
               "ingest_batches": len(round_.batch_samples)}
    return tally, metrics, samples
