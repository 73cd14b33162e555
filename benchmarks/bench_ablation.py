"""Engine ablations for the §2.3 scheduling claims.

The optimized scheduler orders patterns by pruning power and propagates
bindings between data queries.  Each configuration runs the full
Figure 4 query set so the benchmark table shows each optimization's
contribution.  DESIGN.md calls these out as the design choices under
test.  The scan optimizations that travel with propagation (binding and
temporal pushdown, histogram estimates, top-k pushdown) are always
on; ``tests/test_scan_mechanisms.py`` checks that
each one engages.

Every query runs serially on the calling thread, so timings do not
depend on the host's core count.
"""

from __future__ import annotations

import time

import pytest

from repro.engine.executor import EngineOptions, execute
from repro.lang.parser import parse

CONFIGURATIONS = {
    "full": EngineOptions(),
    "no_prioritize": EngineOptions(prioritize=False),
    "no_propagate": EngineOptions(propagate=False),
    "none": EngineOptions(prioritize=False, propagate=False),
}


def _run_catalog(env, options: EngineOptions) -> int:
    total_rows = 0
    for entry in env.catalog:
        result = execute(env.store, parse(entry.aiql), options)
        total_rows += len(result.rows)
    return total_rows


@pytest.fixture(scope="module")
def reference_rows(fig4_env):
    return _run_catalog(fig4_env, CONFIGURATIONS["full"])


@pytest.mark.parametrize("name", list(CONFIGURATIONS))
@pytest.mark.benchmark(group="ablation-scheduler")
def test_scheduler_ablation(benchmark, fig4_env, reference_rows, name):
    options = CONFIGURATIONS[name]
    rows = benchmark.pedantic(_run_catalog, args=(fig4_env, options),
                              rounds=2, iterations=1, warmup_rounds=1)
    # Optimizations must never change results, only speed.
    assert rows == reference_rows


def test_analyzer_overhead_is_negligible():
    """Acceptance check: the semantic analyzer that now fronts every
    ``AiqlSession.query``/``register`` costs under 5 ms per catalog
    query — static analysis must never be the reason to skip linting.
    """
    from repro.analysis import analyze
    from repro.investigate import FIGURE4_QUERIES, FIGURE5_QUERIES

    entries = list(FIGURE4_QUERIES) + list(FIGURE5_QUERIES)
    for entry in entries:        # warm imports/caches outside the clock
        assert analyze(entry.aiql) == [], entry.id

    rounds = 5
    started = time.perf_counter()
    for _ in range(rounds):
        for entry in entries:
            analyze(entry.aiql)
    per_query = (time.perf_counter() - started) / (rounds * len(entries))
    print(f"\nanalyzer overhead: {per_query * 1000:.3f} ms per catalog "
          f"query ({len(entries)} queries, {rounds} rounds)")
    assert per_query < 0.005
