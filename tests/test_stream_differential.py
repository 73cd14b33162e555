"""Stream-vs-batch differential: the continuous runtime's acceptance bar.

For every figure-4/figure-5 catalog query, registered as a standing query
and fed the full scenario stream in timestamp order, the accumulated
result must be *byte-identical* (columns and rows) to the batch engine
executing the same query on the fully-ingested store — on every storage
backend.  A second suite locks in the bounded-state guarantee: under a
100k-event stream, a ``within``-chained standing query's matcher state
stays bounded and eviction demonstrably runs.

CI's backend matrix restricts each leg via ``REPRO_CONTRACT_BACKENDS``,
mirroring the backend contract suite.
"""

from __future__ import annotations

import os

import pytest

from repro import AiqlSession
from repro.investigate import FIGURE4_QUERIES, FIGURE5_QUERIES
from repro.model.entities import FileEntity, ProcessEntity
from repro.model.events import Event

#: ``columnar`` is the deprecated alias of ``row``; it stays in the matrix
#: while the benchmark still selects it by that name.
ALL_BACKENDS = ("row", "columnar", "sqlite")

BACKENDS = tuple(
    name for name in os.environ.get("REPRO_CONTRACT_BACKENDS",
                                    ",".join(ALL_BACKENDS)).split(",")
    if name) or ALL_BACKENDS


@pytest.fixture(params=BACKENDS, scope="module")
def backend_name(request) -> str:
    return request.param


def _replay(scenario, backend_name: str, catalog):
    """One stream replay: every catalog query standing over one feed."""
    session = AiqlSession(backend=backend_name)
    stream = session.stream(batch_size=997)   # before the first register()
    standing = {entry.id: session.register(entry.aiql, name=entry.id)
                for entry in catalog}
    stream.publish_many(scenario.events())
    stream.close()
    return session, standing


@pytest.fixture(scope="module")
def figure4_replay(backend_name, demo_scenario):
    return _replay(demo_scenario, backend_name, FIGURE4_QUERIES)


@pytest.fixture(scope="module")
def figure5_replay(backend_name, case2_scenario):
    return _replay(case2_scenario, backend_name, FIGURE5_QUERIES)


@pytest.mark.parametrize("entry", list(FIGURE4_QUERIES), ids=lambda e: e.id)
def test_figure4_stream_equals_batch(entry, figure4_replay):
    session, standing = figure4_replay
    batch = session.query(entry.aiql)
    live = standing[entry.id].result()
    assert live.columns == batch.columns, entry.id
    assert live.rows == batch.rows, entry.id
    assert live.kind == batch.kind, entry.id


@pytest.mark.parametrize("entry", list(FIGURE5_QUERIES), ids=lambda e: e.id)
def test_figure5_stream_equals_batch(entry, figure5_replay):
    session, standing = figure5_replay
    batch = session.query(entry.aiql)
    live = standing[entry.id].result()
    assert live.columns == batch.columns, entry.id
    assert live.rows == batch.rows, entry.id
    assert live.kind == batch.kind, entry.id


def test_store_matches_direct_ingest(figure4_replay, demo_scenario):
    """The async ingest path loads exactly the published stream."""
    session, _standing = figure4_replay
    assert session.event_count == len(demo_scenario.events())


# ---------------------------------------------------------------------------
# Bounded state under a 100k-event stream
# ---------------------------------------------------------------------------

BOUNDED_AIQL = ('proc p["dropper.exe"] write file f as e1\n'
                'proc q["scanner.exe"] read file f as e2\n'
                'with e1 before e2 within 60 sec\n'
                'return f')


def _bounded_stream(n: int):
    """n events, one per second: sparse dropper/scanner pairs in noise."""
    noise_procs = [ProcessEntity(1, 100 + i, f"worker{i}.exe")
                   for i in range(50)]
    dropper = ProcessEntity(1, 9, "dropper.exe")
    scanner = ProcessEntity(1, 8, "scanner.exe")
    files = [FileEntity(1, f"/data/{i}") for i in range(200)]
    for i in range(n):
        ts = float(i)
        if i % 500 == 37:
            yield Event(i + 1, ts, 1, "write", dropper, files[i % 200],
                        amount=10)
        elif i % 500 == 57:
            yield Event(i + 1, ts, 1, "read", scanner, files[(i - 20) % 200],
                        amount=10)
        else:
            yield Event(i + 1, ts, 1, "write", noise_procs[i % 50],
                        files[i % 200], amount=1)


def test_matcher_state_stays_bounded_under_100k_events():
    n = 100_000
    session = AiqlSession()
    stream = session.stream(batch_size=2048)
    standing = session.register(BOUNDED_AIQL)
    events = list(_bounded_stream(n))
    max_state = 0
    for start in range(0, n, 8192):
        stream.publish_many(events[start:start + 8192])
        stream.flush()
        max_state = max(max_state, standing.state_size())
    stream.close()
    # The within-chain bounds retention to 60 stream-seconds: far below
    # the 400 pattern events (and the 100k stream) ever buffered at once.
    assert max_state <= 60
    assert standing.evicted > 0                      # eviction verified
    assert standing.matches == 200
    # And exactness is not traded away for the bound.
    assert standing.result().rows == session.query(BOUNDED_AIQL).rows
