"""Top-level query execution: dispatch, projection, and reporting.

This is the *AIQL Query Execution Engine* box of Figure 1.  It accepts a
parsed query of any of the three classes, routes it through the right
machinery (dependency queries are first rewritten to multievent queries,
§2.3), and projects the joined bindings through the ``return`` clause with
the context-aware shortcuts of §2.2.1.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import SemanticError
from repro.obs.clock import monotonic
from repro.obs.trace import NULL_TRACER
from repro.lang.ast import (AnomalyQuery, DependencyQuery, MultieventQuery,
                            Query, ReturnItem, VarRef)
from repro.core.results import QueryResult
from repro.engine.anomaly import execute_anomaly
from repro.engine.dependency import rewrite_dependency
from repro.engine.joiner import Binding, run_plan
from repro.engine.options import DEFAULT_OPTIONS, EngineOptions
from repro.engine.planner import QueryPlan, plan_multievent
from repro.engine.scheduler import Scheduler
from repro.storage.backend import StorageBackend

__all__ = ["DEFAULT_OPTIONS", "EngineOptions", "execute", "explain",
           "project_bindings"]


def execute(store: StorageBackend, query: Query,
            options: EngineOptions = DEFAULT_OPTIONS) -> QueryResult:
    """Execute a parsed AIQL query and return its result table."""
    if isinstance(query, MultieventQuery):
        return _execute_multievent(store, query, options)
    if isinstance(query, DependencyQuery):
        rewritten = rewrite_dependency(query)
        result = _execute_multievent(store, rewritten, options)
        return QueryResult(columns=result.columns, rows=result.rows,
                           elapsed=result.elapsed, kind="dependency",
                           report=result.report, execution=result.execution)
    if isinstance(query, AnomalyQuery):
        output = execute_anomaly(store, query, options)
        return QueryResult(columns=output.columns, rows=output.rows,
                           elapsed=output.report.elapsed, kind="anomaly",
                           report=output.report.describe(),
                           execution=output.report)
    raise SemanticError(f"unknown query type: {type(query).__name__}")


def explain(store: StorageBackend, query: Query,
            options: EngineOptions = DEFAULT_OPTIONS) -> str:
    """Describe how the engine would execute a query (plan + estimates).

    Per pattern, the statistics-based estimate and the access path the
    backend would choose for the scan — the static half of the
    ``--explain`` surface.  Actual per-pattern row counts come from
    executing with ``options.explain`` on and reading the report.
    """
    if isinstance(query, DependencyQuery):
        inner = rewrite_dependency(query)
        return ("dependency query compiled to multievent query:\n"
                + explain(store, inner, options))
    if isinstance(query, AnomalyQuery):
        spec = query.window_spec
        return (f"anomaly query: 1 pattern, window={spec.width:.0f}s "
                f"step={spec.step:.0f}s, sliding-window aggregation")
    plan = plan_multievent(query)
    lines = ["multievent query plan:"]
    decisions = Scheduler(store, options).explain(plan)
    for dq, estimate, info in sorted(decisions,
                                     key=lambda entry: (entry[1],
                                                        entry[0].index)):
        ops = "||".join(sorted(dq.operations))
        lines.append(f"  {dq.event_var}: {dq.event_type}/{ops} "
                     f"estimated {estimate} events via {info.name}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Multievent execution + projection
# ---------------------------------------------------------------------------

def _execute_multievent(store: StorageBackend, query: MultieventQuery,
                        options: EngineOptions) -> QueryResult:
    started = monotonic()
    tracer = options.tracer or NULL_TRACER
    with tracer.span("plan"):
        plan = plan_multievent(query)
    bindings, report = run_plan(store, plan, options)
    with tracer.span("project") as span:
        columns, rows = project_bindings(plan, query, bindings)
        span.set(bindings=len(bindings), rows=len(rows))
    elapsed = monotonic() - started
    report.elapsed = elapsed
    return QueryResult(columns=columns, rows=rows, elapsed=elapsed,
                       kind="multievent", report=report.describe(),
                       execution=report)


def project_bindings(plan: QueryPlan, query: MultieventQuery,
                     bindings: list[Binding],
                     ) -> tuple[list[str], list[tuple]]:
    """Project joined bindings through a query's return clause.

    Shared by the optimized engine and the graph baseline so that both
    produce identical result tables from their (differently computed)
    binding sets.  Applies the stable result order (or the explicit
    ``sort by``), ``distinct``, and ``top``.
    """
    projectors = [_compile_projection(item, plan)
                  for item in query.return_items]
    columns = [item.name for item in query.return_items]
    if query.top is not None and not query.distinct:
        # Bounded heap instead of full-sort-then-slice: nsmallest on the
        # composite (sort keys, time order) key returns exactly the rows
        # the stable multi-pass sort would have put first, in the same
        # order, without ordering the entire binding set.  Unsound under
        # ``distinct`` (dedup below the cut can promote later rows), so
        # that combination keeps the full sort.
        chosen = heapq.nsmallest(query.top, bindings,
                                 key=_composite_sort_key(query, plan))
        return columns, [tuple(project(binding) for project in projectors)
                         for binding in chosen]
    if query.sort_by:
        ordered = _sorted_by_keys(bindings, query, plan)
    else:
        ordered = _ordered(bindings, plan)
    rows = [tuple(project(binding) for project in projectors)
            for binding in ordered]
    if query.distinct:
        rows = list(dict.fromkeys(rows))
    if query.top is not None:
        rows = rows[:query.top]
    return columns, rows


def _sorted_by_keys(bindings: list[Binding], query: MultieventQuery,
                    plan: QueryPlan) -> list[Binding]:
    from repro.engine.planner import binding_getter
    event_vars = {dq.event_var for dq in plan.data_queries}
    getters = [(binding_getter(key.expr, plan.variable_types, event_vars),
                key.descending) for key in query.sort_by]
    ordered = _ordered(bindings, plan)  # stable tiebreak: time order
    for getter, descending in reversed(getters):
        ordered.sort(key=lambda b: _null_safe_key(getter(b)),
                     reverse=descending)
    return ordered


class _Reversed:
    """Inverts comparison order of a wrapped key (descending sort keys).

    Wrapping a key in ``_Reversed`` inside a composite tuple makes a
    single ascending sort reproduce what a stable ``reverse=True`` pass
    on that key would: larger values first, equal values decided by the
    tuple's remaining components exactly as a stable sort preserves
    their relative order.
    """

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value

    def __hash__(self) -> int:  # pragma: no cover - keys are never hashed
        return hash(self.value)


def _composite_sort_key(query: MultieventQuery,
                        plan: QueryPlan) -> Callable[[Binding], tuple]:
    """One key function equivalent to the stable multi-pass sort.

    Reversed stable single-key sorts compose into a lexicographic
    comparison of ``(key1, key2, ..., time order)`` with descending keys
    order-inverted — which is what lets ``heapq.nsmallest`` select a
    ``top N`` without sorting everything.
    """
    from repro.engine.planner import binding_getter
    event_var_set = {dq.event_var for dq in plan.data_queries}
    getters = [(binding_getter(key.expr, plan.variable_types, event_var_set),
                key.descending) for key in query.sort_by]
    event_vars = [dq.event_var for dq in plan.data_queries]

    def key(binding: Binding) -> tuple:
        parts: list[object] = []
        for getter, descending in getters:
            part = _null_safe_key(getter(binding))
            parts.append(_Reversed(part) if descending else part)
        parts.append(tuple((binding[var].ts, binding[var].id)  # type: ignore
                           for var in event_vars))
        return tuple(parts)

    return key


def _null_safe_key(value: object) -> tuple:
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, value)
    return (2, str(value))


def _ordered(rows: list[Binding], plan: QueryPlan) -> list[Binding]:
    """Stable result order: by the (timestamp, id) of the declared patterns.

    Event ids break timestamp ties so the order is a property of the
    binding set alone, not of join generation order — which is what lets
    the continuous-query runtime reproduce batch results byte-for-byte
    from matches discovered in a different order.
    """
    event_vars = [dq.event_var for dq in plan.data_queries]

    def key(binding: Binding) -> tuple:
        return tuple((binding[var].ts, binding[var].id)  # type: ignore
                     for var in event_vars)

    return sorted(rows, key=key)


def _compile_projection(item: ReturnItem,
                        plan: QueryPlan) -> Callable[[Binding], object]:
    from repro.engine.planner import binding_getter
    expr = item.expr
    if not isinstance(expr, VarRef):
        raise SemanticError(
            f"multievent return items must be variables or attributes, "
            f"got {expr!r}")
    event_vars = {dq.event_var for dq in plan.data_queries}
    return binding_getter(expr, plan.variable_types, event_vars)
