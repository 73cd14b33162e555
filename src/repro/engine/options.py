"""Engine options, shared by every execution layer.

One frozen options object travels from the session facade through the
executor, the anomaly engine, the scheduler and the joiner — instead of
an ever-growing keyword tail duplicated at each hop.  The ablation
benchmark flips the two scheduling levers to measure the paper's
optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


@dataclass(frozen=True, slots=True)
class EngineOptions:
    """The paper's two scheduling levers plus diagnostics and limits.

    ``prioritize`` orders patterns by pruning power and ``propagate``
    hands bindings and temporal bounds from executed patterns to the
    remaining ones (§2.3); defaults are the paper's configuration, and
    results are identical with either off.  Propagated restrictions
    always travel into the backend scan inside the
    :class:`~repro.storage.backend.ScanSpec`, together with the consumed
    column set and any time-ordered ``top N``; single-pattern queries on
    a backend with ``select_batches`` run over column batches.

    ``explain`` records the chosen access path per pattern in the
    execution report (the ``repro query --explain`` surface).
    ``verify_plans`` re-derives every emitted ``ScanSpec`` from the plan
    and query alone and raises
    :class:`~repro.engine.verify.PlanVerificationError` on any unsound
    pushdown — a debugging/CI harness, off by default.  ``row_limit``
    caps the intermediate join rows of one whole query (``None`` =
    :data:`repro.engine.joiner.DEFAULT_ROW_LIMIT`); exceeding it raises
    :class:`~repro.errors.ExecutionError`.  Every query runs serially on
    the calling thread; process-level parallelism belongs to the
    ``sharded`` storage tier.
    """

    prioritize: bool = True      # pruning-power pattern ordering
    propagate: bool = True       # binding propagation between patterns
    explain: bool = False        # record access paths in execution reports
    verify_plans: bool = False   # statically check every emitted ScanSpec
    row_limit: int | None = None
    # Span sink for this execution; None = tracing off.  Excluded from
    # equality/hash/repr: a tracer is a per-query collection vessel, not
    # a behavioural lever (results are identical with or without one).
    tracer: "Tracer | None" = field(default=None, compare=False, repr=False)


DEFAULT_OPTIONS = EngineOptions()
