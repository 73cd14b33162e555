"""Anomaly-engine scaling: window count and group count sweeps.

Not a paper figure, but an ablation DESIGN.md calls for: the sliding-window
engine's cost model.  The steady-state fast path (cached having decisions
for groups in long empty streaks) is what keeps whole-day windows at
10-second steps tractable; the sweep shows cost growth with step
granularity and with the number of active groups.

Like the figure harnesses, the sweep runs against the backend selected
by ``--backend {row,sqlite,sharded(row),...}`` (default ``row``), so the
anomaly engine's cost model can be compared per storage substrate.
"""

from __future__ import annotations

import pytest

from repro.engine.anomaly import execute_anomaly
from repro.lang.parser import parse
from repro.model.entities import NetworkEntity, ProcessEntity
from repro.model.timeutil import parse_timestamp
from repro.storage.backend import StorageBackend, create_backend

BASE = parse_timestamp("06/10/2026")


def transfer_store(backend: str, groups: int, events_per_group: int,
                   spacing: float = 120.0) -> StorageBackend:
    store = create_backend(backend)
    conn = NetworkEntity(3, "10.0.0.3", 50000, "203.0.113.129", 443)
    for pid in range(1, groups + 1):
        proc = ProcessEntity(3, pid, f"worker{pid}.exe")
        for index in range(events_per_group):
            amount = 900_000 if index == events_per_group - 1 else 100
            store.record(BASE + pid + index * spacing, 3, "write", proc,
                         conn, amount=amount)
    return store


def anomaly_query(window: str, step: str) -> str:
    return f'''(at "06/10/2026")
window = {window}, step = {step}
proc p write ip i as evt
return p, avg(evt.amount) as amt
group by p
having (amt > 2 * (amt + amt[1] + amt[2]) / 3)'''


@pytest.mark.parametrize("window,step", [("1 min", "10 sec"),
                                         ("1 min", "1 min"),
                                         ("10 min", "10 min")])
@pytest.mark.benchmark(group="anomaly-step")
def test_step_granularity(benchmark, backend_name, window, step):
    """Whole-day sweep: finer steps mean more windows."""
    store = transfer_store(backend_name, groups=3, events_per_group=60)
    query = parse(anomaly_query(window, step))
    output = benchmark(lambda: execute_anomaly(store, query))
    assert output.rows  # the burst is found at every granularity


@pytest.mark.parametrize("groups", [1, 10, 50])
@pytest.mark.benchmark(group="anomaly-groups")
def test_group_count(benchmark, backend_name, groups):
    """Cost growth with the number of concurrently tracked groups."""
    store = transfer_store(backend_name, groups=groups, events_per_group=40)
    query = parse(anomaly_query("1 min", "30 sec"))
    output = benchmark(lambda: execute_anomaly(store, query))
    assert output.rows
