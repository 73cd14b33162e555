"""Storage statistics feeding the engine's pruning-power estimation.

The optimized scheduler (§2.3) prioritizes event patterns "with higher
pruning power".  Pruning power is the inverse of estimated match
cardinality, and that estimate comes from the per-partition posting-index
cardinalities collected here: how many events carry a given (event type,
operation) pair, subject name, or object value.

Estimates are exact for exact-match constraints (they read posting sizes)
and computed by key-space matching for LIKE patterns; both are cheap because
the distinct-value vocabulary of audit data is small relative to event
volume.  *Windowed* estimates no longer assume events are time-uniform
inside a bucket: each constrained dimension consults a lazily built
equi-depth timestamp histogram over its own posting list
(:mod:`repro.storage.scanstats`), so a process whose activity clusters
outside the window estimates near zero instead of "its share of the
bucket".  Uniform window scaling survives only for propagated binding
sets, whose members change per query step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.model.events import Event
from repro.model.timeutil import Window
from repro.storage.indexes import like_match, like_to_regex
from repro.storage.partition import Partition

if TYPE_CHECKING:
    from repro.storage.backend import IdentityBindings


@dataclass(frozen=True, slots=True)
class PatternProfile:
    """The index-visible parts of one event pattern's data query.

    ``subject_exact``/``subject_like`` constrain the subject executable
    name; ``object_exact``/``object_like`` constrain the object's default
    attribute.  ``operations`` is the allowed operation set (possibly from a
    ``read || write`` alternation) and ``event_type`` the object type; every
    pattern has both, so the ``(event type, operation)`` postings always
    bound the scan.
    """

    event_type: str
    operations: frozenset[str]
    subject_exact: str | None = None
    subject_like: str | None = None
    object_exact: str | None = None
    object_like: str | None = None


def _profile_postings(partition: Partition, profile: PatternProfile,
                      ) -> list[tuple[object, Callable[[], Sequence[Event]]]]:
    """Per-dimension posting fetchers for the profile's constraints.

    Each entry is ``(histogram cache key, events factory)``; the factory
    yields exactly the events the dimension's posting index holds for the
    constrained value, which is both the exact unwindowed bound and the
    population a windowed histogram is built over.
    """
    etype = profile.event_type
    ops = tuple(sorted(profile.operations))
    type_ops = partition.by_type_operation

    def _type_ops() -> list[Event]:
        merged: list[Event] = []
        for op in ops:
            merged.extend(type_ops.lookup((etype, op)))
        return merged

    dims: list[tuple[object, Callable[[], Sequence[Event]]]] = [
        (("type+op", etype, ops), _type_ops)]
    if profile.subject_exact is not None:
        name = profile.subject_exact
        dims.append((("subject", name),
                     lambda: partition.by_subject_name.lookup(name)))
    elif profile.subject_like is not None:
        pattern = profile.subject_like
        dims.append((("subject~", pattern),
                     lambda: partition.by_subject_name.lookup_like(pattern)))
    if profile.object_exact is not None:
        key = (etype, profile.object_exact)
        dims.append((("object", key),
                     lambda: partition.by_object_value.lookup(key)))
    elif profile.object_like is not None:
        pattern = profile.object_like
        regex = like_to_regex(pattern)
        index = partition.by_object_value

        def _object_like() -> list[Event]:
            merged: list[Event] = []
            for key in index.keys():
                if (key[0] == etype and isinstance(key[1], str)
                        and regex.match(key[1])):
                    merged.extend(index.lookup(key))
            return merged

        dims.append((("object~", etype, pattern), _object_like))
    return dims


def _binding_bound(count: int, in_window: int, total: int) -> int:
    """Uniform window scaling for one exact binding-posting count."""
    if count == 0 or in_window == 0:
        return 0
    return max(1, round(count * in_window / total))


def estimate_partition(partition: Partition, profile: PatternProfile,
                       window: Window | None,
                       bindings: "IdentityBindings | None" = None) -> int:
    """Estimated number of events in this partition matching the profile.

    The estimate is the minimum across the independent per-index bounds —
    the tightest single-index bound, which is exactly the candidate-list
    size the executor would fetch.  Without a window the bounds are the
    raw posting sizes.  With one, each constrained dimension asks its own
    equi-depth timestamp histogram how much of *its* posting list falls
    inside the window, so in-bucket skew stops fooling the scheduler.
    Propagated identity bindings contribute their exact posting counts
    (uniformly scaled to the window — binding sets are per-query-step and
    not worth a histogram build), so pruning-power ordering reacts to
    binding propagation.
    """
    total = len(partition)
    if total == 0:
        return 0
    if window is not None:
        return _estimate_windowed(partition, profile, window, bindings)
    bounds = [total]
    if bindings is not None:
        if bindings.subjects is not None:
            bounds.append(partition.by_subject_id.count_many(
                bindings.subjects))
        if bindings.objects is not None:
            bounds.append(partition.by_object_id.count_many(
                bindings.objects))
    bounds.append(sum(
        partition.by_type_operation.count((profile.event_type, op))
        for op in profile.operations))
    if profile.subject_exact is not None:
        bounds.append(partition.by_subject_name.count(profile.subject_exact))
    elif profile.subject_like is not None:
        bounds.append(partition.by_subject_name.count_like(
            profile.subject_like))
    if profile.object_exact is not None:
        bounds.append(partition.by_object_value.count(
            (profile.event_type, profile.object_exact)))
    elif profile.object_like is not None:
        bounds.append(sum(
            len(partition.by_object_value.lookup(key))
            for key in partition.by_object_value.keys()
            if key[0] == profile.event_type and isinstance(key[1], str)
            and like_match(profile.object_like, key[1])))
    return min(bounds)


def _estimate_windowed(partition: Partition, profile: PatternProfile,
                       window: Window,
                       bindings: "IdentityBindings | None") -> int:
    """Histogram-based windowed estimate (skew-aware)."""
    total = len(partition)
    in_window = partition.time_index.count_range(window.start, window.end)
    if in_window == 0:
        return 0
    bounds = [in_window]
    if bindings is not None:
        if bindings.subjects is not None:
            bounds.append(_binding_bound(
                partition.by_subject_id.count_many(bindings.subjects),
                in_window, total))
        if bindings.objects is not None:
            bounds.append(_binding_bound(
                partition.by_object_id.count_many(bindings.objects),
                in_window, total))
    stats = partition.stats
    for key, events_factory in _profile_postings(partition, profile):
        histogram = stats.histogram(
            key, total, lambda fetch=events_factory: [
                event.ts for event in fetch()])
        bounds.append(histogram.estimate_range(window.start, window.end))
    return min(bounds)


def estimate_total(partitions: list[Partition], profile: PatternProfile,
                   window: Window | None,
                   bindings: "IdentityBindings | None" = None) -> int:
    """Total estimated cardinality over a pruned partition list."""
    return sum(estimate_partition(p, profile, window, bindings)
               for p in partitions)
