"""Durability benchmark: WAL overhead, recovery time, checkpoint cost.

The acceptance number for the durability tier: streamed ingest through a
:class:`~repro.storage.durable.DurableStore` (WAL-append before every
batch) must cost at most **2x** the in-memory ``attach_store`` path.
Also measured: full ``recover()`` wall time for the same log (the
pay-on-crash cost the checkpoint cadence bounds), recovery from a
checkpoint plus a short WAL tail, and the checkpoint snapshot itself.

Writes ``BENCH_durability.json`` so CI can archive the trajectory next
to ``BENCH_stream.json``.  Scale knobs:

* ``REPRO_BENCH_DURABILITY_EVENTS``        — stream length (default 50000)
* ``REPRO_BENCH_DURABILITY_MAX_OVERHEAD``  — asserted ingest-overhead
  ceiling (default 2.0; the acceptance bound)

The overhead is the median of per-round durable/in-memory ratios over
five interleaved rounds that alternate which side runs first
(:func:`benchlib.interleaved_pairs`): one pair per round sees one
stretch of host speed, so a slow moment cannot land on one side only.
Recovery through a checkpoint is gated the same way: the median of five
interleaved per-round ratios against WAL-only recovery must stay under
1.5x.

The WAL runs ``sync="close"`` here: per-batch fsync measures the disk,
not the code, and CI disks vary wildly.  The fsync policies produce
byte-identical logs (see ``test_wal.py``), so the overhead ratio of the
framing/codec path is the portable number.

Run directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_durability.py -q -s
"""

from __future__ import annotations

import json
import os
import shutil
import time
from statistics import median

import benchlib
from repro.model.entities import FileEntity, NetworkEntity, ProcessEntity
from repro.model.events import Event
from repro.storage.durable import DurableStore, recover
from repro.storage.store import EventStore
from repro.stream import EventBus

EVENTS = int(os.environ.get("REPRO_BENCH_DURABILITY_EVENTS", "50000"))
ROUNDS = 5
MAX_OVERHEAD = float(os.environ.get(
    "REPRO_BENCH_DURABILITY_MAX_OVERHEAD", "2.0"))
BATCH = 2048


def _build_stream(n: int) -> list[Event]:
    """The bench_stream feed shape: two hosts, entity reuse, rare signal."""
    workers = [ProcessEntity(1 + (i % 2), 100 + i, f"worker{i}.exe")
               for i in range(50)]
    malware = ProcessEntity(1, 7, "sbblv.exe")
    files = [FileEntity(1, f"/srv/data/{i}.log") for i in range(100)]
    c2 = NetworkEntity(1, "10.0.0.1", 5000, "203.0.113.9", 443)
    events: list[Event] = []
    for i in range(n):
        ts = i * 0.01
        if i % 1000 == 13:
            events.append(Event(i + 1, ts, 1, "write", malware, c2,
                                amount=9000))
        else:
            worker = workers[i % 50]
            events.append(Event(i + 1, ts, worker.agentid, "write",
                                worker, files[i % 100], amount=10))
    return events


def _stream_into(store, events: list[Event]) -> float:
    """Publish the full stream through a bus into ``store``; wall time."""
    bus = EventBus(batch_size=BATCH)
    bus.attach_store(store)

    def publish() -> None:
        for start in range(0, len(events), BATCH):
            bus.publish_many(events[start:start + BATCH])
            bus.flush()
        bus.close()

    elapsed, _ = benchlib.time_once(publish)
    assert len(store) == len(events)
    return elapsed


def test_durable_ingest_overhead_and_recovery_time(tmp_path):
    stream = _build_stream(EVENTS + BATCH)
    events, tail = stream[:EVENTS], stream[EVENTS:]
    durable_dir = tmp_path / "durable"
    wal_bytes = 0

    def in_memory() -> float:
        # Baseline: the in-memory attach_store path.
        return _stream_into(EventStore(), events)

    def durable() -> float:
        # Same stream, WAL-appended ahead of every batch; the last
        # round's directory stays for the recovery measurements.
        nonlocal wal_bytes
        shutil.rmtree(durable_dir, ignore_errors=True)
        store = DurableStore(durable_dir, sync="close")
        elapsed = _stream_into(store, events)
        wal_bytes = store.wal_size
        store.close()
        return elapsed

    pairs = benchlib.interleaved_pairs(in_memory, durable, ROUNDS)
    ratios = [durable_s / baseline_s for baseline_s, durable_s in pairs]
    overhead = median(ratios)
    baseline = median(baseline_s for baseline_s, _ in pairs)
    durable_median = median(durable_s for _, durable_s in pairs)

    # Recovery: the last round's log stays WAL-only; a copy of it is
    # bounded by a checkpoint (timed) plus a short post-checkpoint tail.
    checkpointed_dir = tmp_path / "checkpointed"
    shutil.copytree(durable_dir, checkpointed_dir)
    bounded = recover(checkpointed_dir)
    started = time.perf_counter()
    bounded.checkpoint()
    checkpoint_elapsed = time.perf_counter() - started
    wal_bytes_after_checkpoint = bounded.wal_size
    bounded.ingest(tail)
    bounded.close()

    def recovery(path, expected: int):
        def timed() -> float:
            started = time.perf_counter()
            recovered = recover(path)
            elapsed = time.perf_counter() - started
            assert len(recovered) == expected
            recovered.close()
            return elapsed
        return timed

    recovery_pairs = benchlib.interleaved_pairs(
        recovery(durable_dir, len(events)),
        recovery(checkpointed_dir, len(stream)), ROUNDS)
    recovery_ratios = [checkpointed_s / wal_only_s
                       for wal_only_s, checkpointed_s in recovery_pairs]
    recovery_ratio = median(recovery_ratios)
    full_recovery = median(wal_only_s for wal_only_s, _ in recovery_pairs)
    checkpointed_recovery = median(
        checkpointed_s for _, checkpointed_s in recovery_pairs)

    per_100k = full_recovery * 100_000 / len(events)
    report = {
        "events": len(events),
        "batch_size": BATCH,
        "wal_sync_policy": "close",
        "rounds": ROUNDS,
        "baseline_ingest_sec": round(baseline, 4),
        "durable_ingest_sec": round(durable_median, 4),
        "durable_ingest_overhead": round(overhead, 3),
        "durable_ingest_overhead_per_round": [round(r, 3) for r in ratios],
        "max_overhead_bound": MAX_OVERHEAD,
        "wal_bytes": wal_bytes,
        "wal_bytes_per_event": round(wal_bytes / len(events), 1),
        "wal_bytes_after_checkpoint": wal_bytes_after_checkpoint,
        "recovery_sec_wal_only": round(full_recovery, 4),
        "recovery_sec_per_100k_events": round(per_100k, 4),
        "checkpoint_sec": round(checkpoint_elapsed, 4),
        "recovery_sec_after_checkpoint": round(checkpointed_recovery, 4),
        "recovery_after_checkpoint_ratio": round(recovery_ratio, 3),
        "recovery_after_checkpoint_ratio_per_round": [
            round(r, 3) for r in recovery_ratios],
    }
    with open("BENCH_durability.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"\ndurability: {len(events)} events; durable ingest "
          f"{overhead:.2f}x the in-memory path (median of {ROUNDS} "
          f"interleaved rounds, per-round "
          f"{', '.join(f'{r:.2f}' for r in ratios)}; medians "
          f"{durable_median:.2f}s vs {baseline:.2f}s); WAL-only recovery "
          f"{full_recovery:.2f}s ({per_100k:.2f}s/100k events); "
          f"checkpoint {checkpoint_elapsed:.2f}s, recovery after it "
          f"{checkpointed_recovery:.2f}s ({recovery_ratio:.2f}x WAL-only, "
          f"per-round {', '.join(f'{r:.2f}' for r in recovery_ratios)})")

    assert overhead <= MAX_OVERHEAD, (
        f"durable ingest cost {overhead:.2f}x the in-memory path "
        f"(median of {ROUNDS} rounds: {ratios}; bound {MAX_OVERHEAD}x; "
        f"override with REPRO_BENCH_DURABILITY_MAX_OVERHEAD)")
    # What a checkpoint buys is a bounded WAL (here: truncated to the
    # header) without regressing recovery — the segment loads with the
    # same batch codec the WAL replays with, so at equal event counts
    # the two paths cost about the same.
    assert wal_bytes_after_checkpoint < 1024, \
        "checkpoint did not truncate the WAL"
    assert recovery_ratio < 1.5, (
        f"recovery through a checkpoint cost {recovery_ratio:.2f}x "
        f"WAL-only replay (median of {ROUNDS} rounds: {recovery_ratios}; "
        f"medians {checkpointed_recovery:.2f}s vs {full_recovery:.2f}s)")
