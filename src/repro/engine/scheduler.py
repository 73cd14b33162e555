"""The optimized scheduler: pruning-power ordering + binding propagation.

This is the first key insight of §2.3: "for a query with multiple event
patterns, we prioritize the search of event patterns with higher pruning
power, maximizing the reduction of irrelevant events as early as possible."

Concretely the scheduler:

1. estimates each data query's match cardinality from storage statistics
   and executes the most selective pattern first;
2. after each pattern executes, *propagates bindings* to the remaining
   patterns — shared entity variables restrict candidates to already-seen
   entity identities, and temporal relationships narrow the remaining
   patterns' time windows;
3. short-circuits to an empty result the moment any pattern has no match.

Both optimizations are individually toggleable so the ablation benchmark
can measure their contribution.  Whatever propagation derives always
travels into the backend scan inside the
:class:`~repro.storage.backend.ScanSpec`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

from repro.model.events import Event
from repro.model.timeutil import Window
from repro.obs.clock import monotonic
from repro.obs.trace import NULL_TRACER
from repro.engine.options import DEFAULT_OPTIONS, EngineOptions
from repro.engine.planner import DataQuery, QueryPlan
from repro.storage.backend import (IdentityBindings, ScanSpec,
                                   StorageBackend, TemporalBounds)


def annotate_path(name: str, spec: ScanSpec) -> str:
    """Append the spec's order pushdown to an access-path name.

    The explain surface's rendering of whether a top-k limit was pushed
    into the scan (``first``/``last`` = ascending/descending time order).
    """
    parts = [name]
    if spec.order is not None and spec.order.limit is not None:
        direction = "last" if spec.order.descending else "first"
        parts.append(f"limit={spec.order.limit}({direction})")
    return " ".join(parts)


def describe_spec(spec: ScanSpec) -> str:
    """Compact one-line ScanSpec summary for span attributes.

    Binding sets and windows can be huge; the trace wants their *shape*
    (set sizes, bound presence), not their contents.
    """
    parts = []
    if spec.window is not None:
        parts.append(f"window=[{spec.window.start:.0f},{spec.window.end:.0f})")
    if spec.agentids is not None:
        parts.append(f"agents={len(spec.agentids)}")
    if spec.bindings is not None:
        subjects = spec.bindings.subjects
        objects = spec.bindings.objects
        parts.append("bindings=subj:%s/obj:%s" % (
            "-" if subjects is None else len(subjects),
            "-" if objects is None else len(objects)))
    if spec.bounds is not None:
        parts.append("bounds=(%s,%s)" % (
            "-inf" if spec.bounds.lo == -math.inf else f"{spec.bounds.lo:.0f}",
            "inf" if spec.bounds.hi == math.inf else f"{spec.bounds.hi:.0f}"))
    if spec.order is not None and spec.order.limit is not None:
        direction = "last" if spec.order.descending else "first"
        parts.append(f"order={direction}:{spec.order.limit}")
    return " ".join(parts) or "full-scan"


@dataclass
class PatternExecution:
    """Trace of one data query's execution (for explain/report output)."""

    event_var: str
    estimate: int
    fetched: int
    matched: int
    elapsed: float
    path: str = ""          # chosen access path (explain mode only)


@dataclass
class ExecutionReport:
    """What the engine did for one query — shown in the UI status area."""

    order: list[str] = field(default_factory=list)
    patterns: list[PatternExecution] = field(default_factory=list)
    short_circuited: bool = False
    joined_rows: int = 0
    elapsed: float = 0.0

    def describe(self) -> str:
        lines = [f"pattern order: {' -> '.join(self.order) or '(none)'}"]
        for trace in self.patterns:
            path = f" path={trace.path}" if trace.path else ""
            lines.append(
                f"  {trace.event_var}:{path} estimate={trace.estimate} "
                f"fetched={trace.fetched} matched={trace.matched} "
                f"({trace.elapsed * 1000:.1f} ms)")
        if self.short_circuited:
            lines.append("  short-circuited: a pattern had no matches")
        lines.append(f"joined rows: {self.joined_rows}")
        lines.append(f"total: {self.elapsed * 1000:.1f} ms")
        return "\n".join(lines)


@dataclass
class ScheduledMatches:
    """Per-pattern candidate lists in execution order, ready to join."""

    order: list[DataQuery]
    events: dict[int, list[Event]]  # data-query index -> matches
    report: ExecutionReport


class Scheduler:
    """Executes a plan's data queries in pruning-power order.

    Works against any :class:`~repro.storage.backend.StorageBackend`; each
    pattern's fetch-and-filter goes through the backend's ``select`` so a
    batch-evaluating substrate can push the residual predicate into its
    scan.  Propagated identity-binding sets and temporal bounds travel
    *into* the backend inside the
    :class:`~repro.storage.backend.ScanSpec`, pruning candidates during
    the scan; the in-engine post-filters stay as a correctness fallback
    for backends that ignore the hints.  Remaining patterns are also
    re-estimated under the current bindings and bounds after each step,
    so pruning-power ordering reacts to propagation.

    Temporal bounds are *transitive*: a chain ``e1 before e2``, ``e2
    before e3`` narrows e3 the moment e1 executes, even though they share
    no relation or variable, via the plan's shortest-path closure over
    the temporal-constraint graph.  Narrowing is also *two-sided*: after
    each execution the recorded span of every already-executed pattern is
    re-tightened against its partners' spans (an executed broad pattern
    shrinks retroactively once a later anchor pins the chain), so the
    bounds derived from it stop covering events that can no longer pair.
    """

    def __init__(self, store: StorageBackend,
                 options: EngineOptions = DEFAULT_OPTIONS) -> None:
        self._store = store
        self._options = options
        self._prioritize = options.prioritize
        self._propagate = options.propagate
        self._explain = options.explain
        self._verify = options.verify_plans
        self._tracer = options.tracer or NULL_TRACER
        self._trace_on = options.tracer is not None

    def run(self, plan: QueryPlan) -> ScheduledMatches:
        """Fetch and filter matches for every pattern."""
        started = monotonic()
        report = ExecutionReport()

        estimates = {
            dq.index: self._store.estimate(
                dq.profile, ScanSpec(window=plan.window,
                                     agentids=_agents(dq)))
            for dq in plan.data_queries
        }
        ordered = list(plan.data_queries)
        if self._prioritize:
            ordered.sort(key=lambda dq: (estimates[dq.index], dq.index))

        # Binding state threaded through pattern executions.
        closure = plan.temporal_closure() if self._propagate else {}
        identity_sets: dict[str, set[tuple]] = {}
        ts_bounds: dict[str, tuple[float, float]] = {}
        matches: dict[int, list[Event]] = {}
        executed: list[tuple[DataQuery, list[Event]]] = []

        for position, dq in enumerate(ordered):
            step_started = monotonic()
            bounds = (self._bounds_for(dq, closure, ts_bounds)
                      if self._propagate else None)
            bindings = (self._bindings_for(dq, identity_sets)
                        if self._propagate else None)
            # A pushed ScanOrder truncates at the backend; that is only
            # sound when no post-filter can thin the survivors further
            # (the planner already restricts it to single-pattern plans,
            # where nothing propagates — the guard keeps it that way).
            spec = ScanSpec(window=plan.window, agentids=_agents(dq),
                            bindings=bindings, bounds=bounds,
                            order=(plan.scan_order
                                   if bindings is None and bounds is None
                                   else None))
            if self._verify:
                # Soundness gate: re-derive what this spec may claim from
                # the plan and the current propagation state, before the
                # backend acts on any of its hints.
                from repro.engine.verify import verify_spec
                verify_spec(plan, dq, spec, closure=closure,
                            identity_sets=identity_sets,
                            ts_bounds=ts_bounds)
            with self._tracer.span("scan", pattern=dq.event_var) as scan_span:
                survivors, fetched = self._store.select(
                    dq.profile, dq.compiled, spec)
                if bindings is not None:
                    # Correctness fallback: exact even when the backend
                    # ignored (or only partially applied) the pushdown
                    # hint.
                    admits = bindings.admits
                    survivors = [event for event in survivors
                                 if admits(event)]
                if bounds is not None:
                    # Same fallback for the temporal hint.
                    in_bounds = bounds.admits
                    survivors = [event for event in survivors
                                 if in_bounds(event.ts)]
            matches[dq.index] = survivors
            step_elapsed = monotonic() - step_started
            # Path introspection happens off the clock: it re-costs the
            # scan (a COUNT on sqlite) and must not pollute the timing
            # the explain surface reports.
            path = (annotate_path(
                        self._store.access_path(dq.profile, spec).name, spec)
                    if self._explain else "")
            if self._trace_on:
                # Attribute hydration is also off the clock (and off the
                # hot path entirely — the null tracer skips it).
                scan_span.set(spec=describe_spec(spec),
                              estimate=estimates[dq.index],
                              fetched=fetched, matched=len(survivors),
                              bytes_hydrated=_shallow_bytes(survivors),
                              path=path)
            report.patterns.append(PatternExecution(
                event_var=dq.event_var, estimate=estimates[dq.index],
                fetched=fetched, matched=len(survivors),
                elapsed=step_elapsed, path=path))
            if not survivors:
                report.short_circuited = True
                report.order = [d.event_var for d in ordered]
                report.elapsed = monotonic() - started
                return ScheduledMatches(order=ordered, events={
                    d.index: matches.get(d.index, [])
                    for d in plan.data_queries}, report=report)
            if self._propagate:
                executed.append((dq, survivors))
                self._update_bindings(dq, survivors, identity_sets,
                                      ts_bounds)
                self._narrow_executed_spans(closure, ts_bounds, executed)
                self._reorder_remaining(ordered, position, dq, estimates,
                                        plan.window, identity_sets, closure,
                                        ts_bounds)
        report.order = [dq.event_var for dq in ordered]
        report.elapsed = monotonic() - started
        return ScheduledMatches(order=ordered, events=matches, report=report)

    def explain(self,
                plan: QueryPlan) -> list[tuple[DataQuery, int, "object"]]:
        """Static per-pattern scan decisions, without executing.

        Returns ``(data query, statistics-based estimate, access path)``
        triples — the plan half of the ``explain()`` surface; the
        execution half (actual rows) comes from running with
        ``options.explain`` on.
        """
        decisions = []
        for dq in plan.data_queries:
            spec = ScanSpec(window=plan.window, agentids=_agents(dq),
                            order=plan.scan_order)
            # Diagnostic path: estimate and access_path may re-cost the
            # same scan (sqlite answers both with a COUNT); explain is
            # explicitly requested and never on the execution hot path.
            estimate = self._store.estimate(dq.profile, spec)
            info = self._store.access_path(dq.profile, spec)
            decisions.append((dq, estimate,
                              replace(info, name=annotate_path(info.name,
                                                               spec))))
        return decisions

    def _reorder_remaining(self, ordered: list[DataQuery], position: int,
                           executed: DataQuery, estimates: dict[int, int],
                           window: Window | None,
                           identity_sets: dict[str, set[tuple]],
                           closure: dict[tuple[str, str], float],
                           ts_bounds: dict[str, tuple[float, float]],
                           ) -> None:
        """Re-estimate unexecuted patterns under bindings and bounds.

        Binding propagation changes pruning power mid-flight: a pattern
        that looked expensive upfront may be nearly free once its entity
        variables are pinned or its time interval collapses.  Only the
        patterns sharing a variable the just-executed pattern bound — or
        reachable from it through the temporal closure — can have changed
        cost, so only those are re-estimated.  Only worth re-sorting when
        at least two patterns remain.
        """
        remaining = ordered[position + 1:]
        if not (self._prioritize and len(remaining) > 1):
            return
        updated_vars = {executed.subject_var, executed.object_var}
        executed_var = executed.event_var
        changed = False
        for dq in remaining:
            temporally_linked = ((executed_var, dq.event_var) in closure
                                 or (dq.event_var, executed_var) in closure)
            if updated_vars.isdisjoint(dq.variables) and not temporally_linked:
                continue
            estimates[dq.index] = self._store.estimate(
                dq.profile, ScanSpec(
                    window=window, agentids=_agents(dq),
                    bindings=self._bindings_for(dq, identity_sets),
                    bounds=self._bounds_for(dq, closure, ts_bounds)))
            changed = True
        if not changed:
            return
        remaining.sort(key=lambda dq: (estimates[dq.index], dq.index))
        ordered[position + 1:] = remaining

    # ------------------------------------------------------------------
    # Binding propagation
    # ------------------------------------------------------------------
    @staticmethod
    def _bounds_for(dq: DataQuery,
                    closure: dict[tuple[str, str], float],
                    ts_bounds: dict[str, tuple[float, float]],
                    ) -> TemporalBounds | None:
        """Timestamp bounds for this pattern from executed partners.

        For every executed pattern u reachable through the temporal
        closure: if u precedes this pattern (total ``within`` D over the
        tightest chain), candidates need ``ts > u_min`` — the weakest
        sound bound over all possible partner events — and, when D is
        finite, ``ts <= u_max + D`` (the ``within`` bound is inclusive).
        Symmetrically when this pattern precedes u: ``ts < u_max`` and,
        with finite D, ``ts >= u_min - D``.

        Inclusivity is carried per side instead of being folded into a
        half-open window here, so each backend lowers it exactly — a
        partner event exactly at ``u_max + D`` must survive, one exactly
        at ``u_min`` must not.  Equal bound values keep the *strict*
        variant (the tighter of the two sound restrictions).
        """
        lo, hi = -math.inf, math.inf
        lo_strict = hi_strict = False
        var = dq.event_var
        for partner, (partner_lo, partner_hi) in ts_bounds.items():
            if partner == var:
                continue
            delay = closure.get((partner, var))
            if delay is not None:      # partner (transitively) before var
                if partner_lo > lo or (partner_lo == lo and not lo_strict):
                    lo, lo_strict = partner_lo, True
                if delay != math.inf and partner_hi + delay < hi:
                    hi, hi_strict = partner_hi + delay, False
            delay = closure.get((var, partner))
            if delay is not None:      # var (transitively) before partner
                if partner_hi < hi or (partner_hi == hi and not hi_strict):
                    hi, hi_strict = partner_hi, True
                if delay != math.inf and partner_lo - delay > lo:
                    lo, lo_strict = partner_lo - delay, False
        if lo == -math.inf and hi == math.inf:
            return None
        return TemporalBounds(lo=lo, hi=hi, lo_strict=lo_strict,
                              hi_strict=hi_strict)

    def _narrow_executed_spans(self, closure: dict[tuple[str, str], float],
                               ts_bounds: dict[str, tuple[float, float]],
                               executed: list[tuple[DataQuery, list[Event]]],
                               ) -> None:
        """Two-sided interval narrowing over the executed patterns.

        The bounds a remaining pattern derives from an executed partner u
        use u's recorded ``(min ts, max ts)`` span — but a pattern that
        executed *later* can invalidate much of that span.  With ``e1
        before e2 within d`` and e2 executed first over a broad interval,
        e1's single match at t pins e2's *usable* events to ``(t, t+d]``;
        any bound still derived from e2's full span is sound but loose.

        After each execution, re-tighten every executed pattern's span to
        the events of it that survive the bounds induced by its partners'
        current spans, iterating to a fixpoint (the graphs are tiny).
        Dropping span-mass here is sound because ``_bounds_for`` is
        sound: an event outside those bounds cannot appear in any
        complete match, so no remaining pattern needs to pair with it.
        """
        if len(executed) < 2 or not closure:
            return
        for _round in range(len(executed)):
            changed = False
            for dq, events in executed:
                var = dq.event_var
                current = ts_bounds.get(var)
                if current is None:
                    continue
                bounds = self._bounds_for(dq, closure, ts_bounds)
                if bounds is None or not bounds:
                    continue
                admits = bounds.admits
                narrowed_lo = math.inf
                narrowed_hi = -math.inf
                for event in events:
                    ts = event.ts
                    if current[0] <= ts <= current[1] and admits(ts):
                        if ts < narrowed_lo:
                            narrowed_lo = ts
                        if ts > narrowed_hi:
                            narrowed_hi = ts
                if narrowed_lo > narrowed_hi:
                    # No executed event survives its partners' bounds: the
                    # join is already doomed, and the current (wider) span
                    # stays sound for the remaining scans.
                    continue
                narrowed = (max(narrowed_lo, current[0]),
                            min(narrowed_hi, current[1]))
                if narrowed != current:
                    ts_bounds[var] = narrowed
                    changed = True
            if not changed:
                break

    @staticmethod
    def _bindings_for(dq: DataQuery,
                      identity_sets: dict[str, set[tuple]],
                      ) -> IdentityBindings | None:
        """Pushdown hint for one pattern from the propagated binding state."""
        subjects = identity_sets.get(dq.subject_var)
        objects = identity_sets.get(dq.object_var)
        if subjects is None and objects is None:
            return None
        return IdentityBindings(
            subjects=frozenset(subjects) if subjects is not None else None,
            objects=frozenset(objects) if objects is not None else None)

    def _update_bindings(self, dq: DataQuery, events: list[Event],
                         identity_sets: dict[str, set[tuple]],
                         ts_bounds: dict[str, tuple[float, float]]) -> None:
        subject_ids = {event.subject.identity for event in events}
        object_ids = {event.object.identity for event in events}
        for var, ids in ((dq.subject_var, subject_ids),
                         (dq.object_var, object_ids)):
            existing = identity_sets.get(var)
            identity_sets[var] = ids if existing is None else existing & ids
        timestamps = [event.ts for event in events]
        ts_bounds[dq.event_var] = (min(timestamps), max(timestamps))


def _shallow_bytes(events: list[Event]) -> int:
    """Shallow memory of the survivor objects the scan hydrated.

    Only computed when tracing is on; an honest lower bound (entity
    payloads are shared/interned, so deep sizes would double-count).
    """
    return sum(sys.getsizeof(event) for event in events)


def _agents(dq: DataQuery) -> set[int] | None:
    return set(dq.agentids) if dq.agentids is not None else None
