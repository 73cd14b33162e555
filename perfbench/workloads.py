"""Workload definitions: seeded inputs, query catalogs and standing rules.

Every workload drives one closed loop (a single analyst or publisher that
waits for each reply) through the public API in two phases:

* **query phase** — repeated passes of the workload's query catalog over a
  store that was bulk-loaded with :meth:`AiqlSession.ingest`;
* **ingest phase** — the workload's events published in small batches
  through an :class:`EventBus` into the eight standing rules and a
  :class:`DurableStore` (``sync="always"``, periodic auto-checkpoints),
  followed by ``recover()``.

The workloads differ in their data, backend and catalog, and in how much
of the measuring window each phase gets.  The program only ever sees the
generated events; the seed is a benchmark argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.investigate import FIGURE4_QUERIES, FIGURE5_QUERIES
from repro.model.entities import FileEntity, NetworkEntity, ProcessEntity
from repro.model.events import Event
from repro.telemetry import build_case2_scenario, build_demo_scenario

#: The eight standing rules the streaming tier is benchmarked with: a
#: within-chained exfil correlation, selective and LIKE patterns, a broad
#: residual filter, a pattern that never matches the feed (pure filter
#: cost) and a sliding-window volume anomaly.
STANDING_RULES: tuple[tuple[str, str], ...] = (
    ("exfil",
     'proc p["sbblv.exe"] read file f as e1\n'
     'proc p write ip i as e2\n'
     'with e1 before e2 within 30 sec\n'
     'return f, i'),
    ("c2-beacon",
     'proc p write ip i[dstip = "203.0.113.9"] as e1 return distinct p, i'),
    ("large-transfer",
     'amount > 5000\nproc p read || write file f as e1 return f'),
    ("worker1-audit",
     'proc p["worker1.exe"] write file f as e1 return f'),
    ("malware-sweep",
     'proc p["%sbblv%"] write ip i as e1 return p'),
    ("process-start",
     'proc p start proc c as e1 return c'),
    ("path-watch",
     'proc p["worker2.exe"] write file f["%/srv/data/7%"] as e1 return f'),
    ("volume-anomaly",
     'window = 10 sec, step = 10 sec\n'
     'proc p write ip i as evt\n'
     'return p, sum(evt.amount) as total\n'
     'group by p\n'
     'having total > 5000'),
)

#: Events per host of the Figure-4 and Figure-5 scenarios (~57k / ~17.8k).
FIG4_EVENTS_PER_HOST = 8000
FIG5_EVENTS_PER_HOST = 2500

#: Events per published batch (the stream tier's default bus batch).
BATCH_EVENTS = 64

#: Auto-checkpoints per ingest round; recovery then reads the last
#: checkpoint plus a WAL tail of about half a checkpoint interval.
CHECKPOINTS_PER_ROUND = 4

#: Length of the seeded two-host feed: 1100 batches.
FEED_EVENTS = 1100 * BATCH_EVENTS


@dataclass(frozen=True)
class Query:
    """One catalog entry: label, AIQL text and query class."""

    id: str
    aiql: str
    kind: str          # multievent / dependency / anomaly
    must_match: bool   # every Figure-4/5 query finds the injected attack


@dataclass(frozen=True)
class Workload:
    name: str
    events: Callable[[int], list[Event]]
    catalog: tuple[Query, ...]
    backend: str            # store the query phase and the ingest phase use
    reference: str          # different backend computing reference rows
    sharded: bool = False
    sql_optimized: bool = True   # Fig 4: optimized SQL; Fig 5: unoptimized


def _catalog(entries) -> tuple[Query, ...]:
    return tuple(Query(entry.id, entry.aiql, entry.kind, True)
                 for entry in entries)


def _rules_catalog() -> tuple[Query, ...]:
    return tuple(Query(name, text,
                       "anomaly" if text.startswith("window") else
                       "multievent", False)
                 for name, text in STANDING_RULES)


def fig4_events(seed: int) -> list[Event]:
    return build_demo_scenario(events_per_host=FIG4_EVENTS_PER_HOST,
                               seed=seed).events()


def fig5_events(seed: int) -> list[Event]:
    return build_case2_scenario(events_per_host=FIG5_EVENTS_PER_HOST,
                                seed=seed).events()


def stream_feed(seed: int, n: int = FEED_EVENTS) -> list[Event]:
    """A seeded two-host feed at 100 events/s with sparse attack signal.

    Benign worker processes write log files (occasionally a large
    transfer); once per 1000 events the ``sbblv.exe`` malware reads a
    file and, a few events later, writes to the C2 address.  The seed
    picks the workers, files, amounts and the attack offsets, so every
    seed has the same shape and a different event stream.
    """
    rng = random.Random(seed)
    workers = [ProcessEntity(1 + (i % 2), 100 + i, f"worker{i}.exe")
               for i in range(50)]
    malware = ProcessEntity(1, 7, "sbblv.exe")
    files = [FileEntity(1 + (i % 2), f"/srv/data/{i}.log")
             for i in range(100)]
    c2 = NetworkEntity(1, "10.0.0.1", 5000, "203.0.113.9", 443)
    attack: dict[int, str] = {}
    for block in range(0, n, 1000):
        read_at = block + rng.randrange(0, 900)
        attack[read_at] = "read"
        attack[read_at + rng.randrange(1, 50)] = "write"
    events: list[Event] = []
    for i in range(n):
        ts = i * 0.01
        step = attack.get(i)
        if step == "read":
            target = files[rng.randrange(0, 100, 2)]   # host-1 files
            events.append(Event(i + 1, ts, 1, "read", malware, target,
                                amount=rng.randrange(6000, 12000)))
        elif step == "write":
            events.append(Event(i + 1, ts, 1, "write", malware, c2,
                                amount=rng.randrange(6000, 12000)))
        else:
            worker = workers[rng.randrange(50)]
            target = files[rng.randrange(worker.agentid - 1, 100, 2)]
            amount = (rng.randrange(5001, 9000) if rng.random() < 0.002
                      else rng.randrange(1, 100))
            events.append(Event(i + 1, ts, worker.agentid, "write",
                                worker, target, amount=amount))
    return events


WORKLOADS: dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("fig4-row", fig4_events, _catalog(FIGURE4_QUERIES),
                 backend="row", reference="columnar"),
        Workload("fig5-columnar", fig5_events, _catalog(FIGURE5_QUERIES),
                 backend="columnar", reference="row", sql_optimized=False),
        Workload("stream-ingest", stream_feed, _rules_catalog(),
                 backend="row", reference="columnar"),
        Workload("fig4-sharded", fig4_events, _catalog(FIGURE4_QUERIES),
                 backend="sharded(row,2)", reference="row",
                 sharded=True),
    )
}
