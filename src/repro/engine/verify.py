"""Plan-soundness verification: re-derive every pushdown, independently.

With :attr:`~repro.engine.options.EngineOptions.verify_plans` on, the
scheduler hands each :class:`~repro.storage.backend.ScanSpec` it is about
to execute to :func:`verify_spec`, together with the propagation state
the spec was derived from.  The verifier recomputes, from the query plan
and that state alone, what a sound spec is allowed to claim:

* **temporal bounds** — a pushed bound must not be tighter than the
  interval implied by the temporal closure and the executed partners'
  recorded spans; a tighter bound could drop events that still have
  partners;
* **scan order** — a pushed order/limit truncates *inside* the backend,
  which is only sound when nothing downstream can thin survivors: a
  single-pattern plan, a ``top N`` without ``distinct``, canonical time
  order, and no bindings/bounds on the same scan;
* **identity bindings** — a pushed binding set must be exactly the
  propagated identity set of its variable: anything smaller may exclude
  events whose entities still have join partners, anything larger (or a
  set with no executed partner at all) restricts on evidence the plan
  does not have.

The checks are deliberately written against the *query* and the raw
propagation state, not by calling the scheduler's own derivation helpers
— a bug in those helpers is exactly what this module exists to catch.
Violations raise :class:`PlanVerificationError` (an
:class:`~repro.errors.ExecutionError`).
"""

from __future__ import annotations

import math

from repro.engine.planner import DataQuery, QueryPlan
from repro.errors import DataModelError, ExecutionError
from repro.model.events import canonical_event_attribute
from repro.storage.backend import ScanSpec, TemporalBounds


class PlanVerificationError(ExecutionError):
    """A scheduler-emitted ScanSpec failed static soundness checks."""


def verify_spec(plan: QueryPlan, dq: DataQuery, spec: ScanSpec, *,
                closure: dict[tuple[str, str], float],
                identity_sets: dict[str, set[tuple]],
                ts_bounds: dict[str, tuple[float, float]]) -> None:
    """Check one emitted spec against its plan and propagation state."""
    problems: list[str] = []
    _check_bounds(dq, spec, closure, ts_bounds, problems)
    _check_order(plan, dq, spec, problems)
    _check_bindings(dq, spec, identity_sets, problems)
    if problems:
        raise PlanVerificationError(
            f"unsound scan spec for pattern {dq.event_var!r}: "
            + "; ".join(problems))


# ---------------------------------------------------------------------------
# Temporal bounds: never tighter than the closure implies
# ---------------------------------------------------------------------------

def implied_bounds(dq: DataQuery,
                   closure: dict[tuple[str, str], float],
                   ts_bounds: dict[str, tuple[float, float]],
                   ) -> TemporalBounds | None:
    """Tightest sound bound interval for this pattern, re-derived.

    For an executed partner u with recorded span ``[u_lo, u_hi]``:
    ``u`` before this pattern within D forces ``ts > u_lo`` (strict) and
    ``ts <= u_lo + ... u_hi + D`` (inclusive, finite D only); the
    symmetric rules apply when this pattern precedes u.  The weakest
    bound over all partner events is the sound one per partner; the
    tightest across partners survives.
    """
    lo, hi = -math.inf, math.inf
    lo_strict = hi_strict = False
    var = dq.event_var
    for partner, (partner_lo, partner_hi) in ts_bounds.items():
        if partner == var:
            continue
        delay = closure.get((partner, var))
        if delay is not None:
            if partner_lo > lo or (partner_lo == lo and not lo_strict):
                lo, lo_strict = partner_lo, True
            if delay != math.inf and partner_hi + delay < hi:
                hi, hi_strict = partner_hi + delay, False
        delay = closure.get((var, partner))
        if delay is not None:
            if partner_hi < hi or (partner_hi == hi and not hi_strict):
                hi, hi_strict = partner_hi, True
            if delay != math.inf and partner_lo - delay > lo:
                lo, lo_strict = partner_lo - delay, False
    if lo == -math.inf and hi == math.inf:
        return None
    return TemporalBounds(lo=lo, hi=hi, lo_strict=lo_strict,
                          hi_strict=hi_strict)


def _check_bounds(dq: DataQuery, spec: ScanSpec,
                  closure: dict[tuple[str, str], float],
                  ts_bounds: dict[str, tuple[float, float]],
                  problems: list[str]) -> None:
    bounds = spec.bounds
    if bounds is None:
        return
    implied = implied_bounds(dq, closure, ts_bounds)
    if implied is None:
        if bounds.lo != -math.inf or bounds.hi != math.inf:
            problems.append(
                "temporal bounds pushed although no executed partner "
                "implies any")
        return
    # The spec may be looser than implied (that only costs work), never
    # tighter: every timestamp the implied interval admits must survive.
    lower_ok = (bounds.lo < implied.lo
                or (bounds.lo == implied.lo
                    and (not bounds.lo_strict or implied.lo_strict)))
    upper_ok = (bounds.hi > implied.hi
                or (bounds.hi == implied.hi
                    and (not bounds.hi_strict or implied.hi_strict)))
    if not lower_ok:
        problems.append(
            f"lower temporal bound {_side(bounds.lo, bounds.lo_strict, '>')} "
            f"is tighter than the implied "
            f"{_side(implied.lo, implied.lo_strict, '>')}")
    if not upper_ok:
        problems.append(
            f"upper temporal bound {_side(bounds.hi, bounds.hi_strict, '<')} "
            f"is tighter than the implied "
            f"{_side(implied.hi, implied.hi_strict, '<')}")


def _side(value: float, strict: bool, direction: str) -> str:
    op = direction if strict else direction + "="
    return f"(ts {op} {value})"


# ---------------------------------------------------------------------------
# Scan order: truncation only where nothing downstream can thin survivors
# ---------------------------------------------------------------------------

def _check_order(plan: QueryPlan, dq: DataQuery, spec: ScanSpec,
                 problems: list[str]) -> None:
    order = spec.order
    if order is None:
        return
    query = plan.query
    if len(plan.data_queries) != 1:
        problems.append(
            "order/limit pushed into a multi-pattern plan (the join "
            "reorders rows)")
    if spec.bindings is not None or spec.bounds is not None:
        problems.append(
            "order/limit pushed together with bindings/bounds (post-"
            "filters could thin survivors below the cut)")
    if query.distinct:
        problems.append(
            "order/limit pushed despite 'distinct' (dedup below the cut "
            "could surface rows past the first N)")
    if query.top is None:
        if order.limit is not None:
            problems.append(
                f"scan limit {order.limit} pushed although the query has "
                f"no 'top N'")
    elif order.limit is not None and order.limit < query.top:
        problems.append(
            f"scan limit {order.limit} is smaller than the query's "
            f"top {query.top}")
    descending = False
    if query.sort_by:
        sound_sort = False
        if len(query.sort_by) == 1:
            key = query.sort_by[0]
            if key.expr.variable == dq.event_var:
                try:
                    attribute = canonical_event_attribute(
                        key.expr.attribute or "id")
                except DataModelError:
                    attribute = None
                sound_sort = attribute == "ts"
                descending = key.descending
        if not sound_sort:
            problems.append(
                "order/limit pushed although the query's sort order is "
                "not the scan's time order")
    if order.descending != descending:
        problems.append(
            f"scan order direction (descending={order.descending}) does "
            f"not match the query's (descending={descending})")


# ---------------------------------------------------------------------------
# Identity bindings: exactly the propagated identity sets
# ---------------------------------------------------------------------------

def _check_bindings(dq: DataQuery, spec: ScanSpec,
                    identity_sets: dict[str, set[tuple]],
                    problems: list[str]) -> None:
    if spec.bindings is None:
        return
    for side, variable, ids in (
            ("subject", dq.subject_var, spec.bindings.subjects),
            ("object", dq.object_var, spec.bindings.objects)):
        if ids is None:
            continue
        known = identity_sets.get(variable)
        if known is None:
            problems.append(
                f"{side} bindings pushed for {variable!r} although no "
                f"executed pattern bound it")
            continue
        missing = frozenset(known) - ids
        extra = ids - frozenset(known)
        if missing:
            noun = ("identity that still has" if len(missing) == 1
                    else "identities that still have")
            problems.append(
                f"{side} binding set for {variable!r} excludes "
                f"{len(missing)} propagated {noun} join partners")
        if extra:
            problems.append(
                f"{side} binding set for {variable!r} admits {len(extra)} "
                f"identit{'y' if len(extra) == 1 else 'ies'} no executed "
                f"pattern produced")
