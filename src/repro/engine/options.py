"""Engine feature toggles, shared by every execution layer.

One frozen options object travels from the session facade through the
executor, the anomaly engine, the scheduler and the joiner — instead of
an ever-growing keyword tail duplicated at each hop.  The ablation
benchmark flips individual flags to measure each optimization's
contribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


@dataclass(frozen=True, slots=True)
class EngineOptions:
    """Feature toggles for the engine's optimizations.

    Defaults are the paper's configuration.  ``pushdown`` controls whether
    propagated identity bindings and temporal bounds are handed to the
    storage backend inside the :class:`~repro.storage.backend.ScanSpec`
    (on) or applied by post-filtering survivors in the engine (off);
    results are identical either way.  ``temporal_pushdown`` and
    ``bitmap_bindings`` are finer-grained levers under ``pushdown``: the
    first isolates the temporal-bounds scan pushdown (off = exact
    post-filtering of the propagated bounds), the second the dense
    bitmap/bloom/intersection representation of large binding sets (off =
    per-element set probes).  ``histogram_estimates`` selects the
    per-partition equi-depth timestamp histograms for windowed
    cardinality estimates (off = the old uniform-time scaling; ordering
    may differ, results never do).  ``vectorized`` enables the columnar
    batch fast path for single-pattern queries: the backend returns
    projected column slices (:class:`~repro.storage.backend.ColumnBatch`)
    and the engine builds result rows without materializing per-event
    ``Event`` objects or per-binding dicts.  ``projection_pushdown``
    threads the set of columns the query actually consumes into each
    pattern's scan; ``topk_pushdown`` lowers a ``top N`` over time order
    into the scan as a :class:`~repro.storage.backend.ScanOrder` so
    backends stop materializing past the first/last N survivors.  All
    three are byte-identical levers — results never change, only where
    the work happens.  ``explain`` makes the scheduler record
    the chosen access path per pattern in the execution report (the
    ``repro query --explain`` surface).  ``verify_plans`` re-derives
    every :class:`~repro.storage.backend.ScanSpec` the scheduler emits
    from the plan and query alone and raises
    :class:`~repro.engine.verify.PlanVerificationError` on any unsound
    pushdown (a projection missing a consumed column, a temporal bound
    tighter than the closure implies, an order limit where post-filters
    could still thin survivors, a binding set not justified by executed
    partners) — a debugging/CI harness, off by default.  ``row_limit``
    caps the intermediate join rows of one whole query (``None`` =
    :data:`repro.engine.joiner.DEFAULT_ROW_LIMIT`); exceeding it raises
    :class:`~repro.errors.ExecutionError`.  Every query runs serially on
    the calling thread; process-level parallelism belongs to the
    ``sharded`` storage tier.
    """

    prioritize: bool = True      # pruning-power pattern ordering
    propagate: bool = True       # binding propagation between patterns
    pushdown: bool = True        # bindings/bounds pushed into backend scans
    temporal_pushdown: bool = True   # temporal bounds as scan predicates
    bitmap_bindings: bool = True     # bitmap/bloom large-binding-set tiers
    histogram_estimates: bool = True  # equi-depth ts histograms in estimates
    vectorized: bool = True      # columnar batch path, no per-row Events
    projection_pushdown: bool = True  # needed-column sets into ScanSpec
    topk_pushdown: bool = True   # ts-ordered limit into ScanSpec
    explain: bool = False        # record access paths in execution reports
    verify_plans: bool = False   # statically check every emitted ScanSpec
    row_limit: int | None = None
    # Span sink for this execution; None = tracing off.  Excluded from
    # equality/hash/repr: a tracer is a per-query collection vessel, not
    # a behavioural lever (results are identical with or without one).
    tracer: "Tracer | None" = field(default=None, compare=False, repr=False)


DEFAULT_OPTIONS = EngineOptions()
