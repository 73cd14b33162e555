"""In-memory indexes used inside storage partitions.

The paper's storage layer (§2.1) relies on *in-memory indexes* over the
security-related attributes so that event patterns with selective
constraints (a process name, a file path, a destination IP) can be answered
without scanning a partition.  Two index shapes cover AIQL's constraint
vocabulary:

* :class:`PostingIndex` — an inverted index from an exact attribute value to
  the list of events carrying it.  LIKE patterns are answered by matching
  the (comparatively few) distinct keys against the pattern and unioning
  posting lists.
* :class:`TimeIndex` — a sorted timestamp array answering half-open window
  lookups with binary search.
"""

from __future__ import annotations

import bisect
import functools
import re
from collections import defaultdict
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.model.events import Event

if TYPE_CHECKING:
    from repro.model.timeutil import Window

_TS = attrgetter("ts")


@functools.lru_cache(maxsize=4096)
def like_to_regex(pattern: str) -> re.Pattern[str]:
    """Compile a SQL-LIKE pattern (``%``/``_`` wildcards) to a regex.

    Matching is case-insensitive, mirroring SQLite's LIKE so that the
    differential tests against the relational baseline agree byte-for-byte.
    Compiled patterns are cached: index scans match one pattern against
    many distinct keys, and estimation repeats the same patterns per
    partition.
    """
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)


def like_match(pattern: str, value: str) -> bool:
    """Reference LIKE matcher (used directly by filters and property tests)."""
    return like_to_regex(pattern).match(value) is not None


class PostingIndex:
    """Inverted index: attribute value -> posting list of events.

    Posting lists preserve insertion order; partitions insert in timestamp
    order so the lists stay time-sorted, which the scheduler exploits when
    clipping candidate lists to a narrowed time window.
    """

    __slots__ = ("_postings",)

    def __init__(self) -> None:
        self._postings: dict[object, list[Event]] = defaultdict(list)

    def add(self, key: object, event: Event) -> None:
        self._postings[key].append(event)

    def lookup(self, key: object) -> list[Event]:
        """Events with exactly this attribute value (empty if none)."""
        return self._postings.get(key, [])

    def lookup_like(self, pattern: str) -> list[Event]:
        """Union of posting lists whose key matches a LIKE pattern."""
        regex = like_to_regex(pattern)
        matched: list[Event] = []
        for key, events in self._postings.items():
            if isinstance(key, str) and regex.match(key):
                matched.extend(events)
        return matched

    def lookup_many(self, keys: Iterable[object]) -> list[Event]:
        """Union of posting lists for a set of exact keys.

        The access path behind identity-binding pushdown: propagated
        binding sets are usually tiny, so the merged lists are the
        cheapest superset the partition can offer.  The merge is sorted
        by ``(ts, id)`` so the result never depends on the iteration
        order of the (hash-ordered) key set — candidate order feeds the
        joiner and must be deterministic across processes.

        A key set larger than the partition's distinct-key vocabulary is
        answered by intersecting the posting keys with the set instead of
        probing per element, bounding the work by
        ``min(|keys|, |vocabulary|)`` however large the propagated binding
        set grows.
        """
        merged: list[Event] = []
        for key in self._probe_keys(keys):
            events = self._postings.get(key)
            if events:
                merged.extend(events)
        merged.sort(key=lambda event: (event.ts, event.id))
        return merged

    def _probe_keys(self, keys: Iterable[object]) -> Iterable[object]:
        if (isinstance(keys, (set, frozenset))
                and len(keys) > len(self._postings)):
            return self._postings.keys() & keys
        return keys

    def count(self, key: object) -> int:
        events = self._postings.get(key)
        return len(events) if events is not None else 0

    def count_many(self, keys: Iterable[object]) -> int:
        """Total posting size over a set of exact keys (path costing)."""
        postings = self._postings
        return sum(len(postings[key]) for key in self._probe_keys(keys)
                   if key in postings)

    def count_like(self, pattern: str) -> int:
        """Match count for a LIKE pattern without materializing events."""
        regex = like_to_regex(pattern)
        return sum(
            len(events) for key, events in self._postings.items()
            if isinstance(key, str) and regex.match(key))

    def keys(self) -> Iterator[object]:
        return iter(self._postings)

    @property
    def distinct(self) -> int:
        return len(self._postings)

    def __len__(self) -> int:
        return sum(len(events) for events in self._postings.values())


class TimeIndex:
    """A partition's events sorted by ``(ts, id)``, searched by timestamp.

    Partitions append events roughly in order; the index keeps a dirty flag
    and re-sorts lazily on first lookup after out-of-order inserts.
    Lookups bisect the event list itself on ``ts`` (no parallel timestamp
    array to keep in step).
    """

    __slots__ = ("_events", "_sorted", "min_ts", "max_ts")

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._sorted = True
        # Zone map over the stored timestamps: lets partition pruning test
        # a narrowed window against the *actual* data span, not just the
        # bucket boundaries.
        self.min_ts = float("inf")
        self.max_ts = float("-inf")

    def add(self, event: Event) -> None:
        # Tie-aware: equal timestamps must still order by id, or the
        # ordered-scan early termination would trust a (ts, id) order
        # that an equal-ts, out-of-order-id ingest silently broke.
        if self._events:
            last = self._events[-1]
            if event.ts < last.ts or (event.ts == last.ts
                                      and event.id < last.id):
                self._sorted = False
        self._events.append(event)
        if event.ts < self.min_ts:
            self.min_ts = event.ts
        if event.ts > self.max_ts:
            self.max_ts = event.ts

    def _ensure_sorted(self) -> None:
        if self._sorted:
            return
        self._events.sort(key=lambda event: (event.ts, event.id))
        self._sorted = True

    def _span(self, start: float, end: float) -> tuple[int, int]:
        """Row span of ``start <= ts < end`` in the sorted list."""
        self._ensure_sorted()
        events = self._events
        return (bisect.bisect_left(events, start, key=_TS),
                bisect.bisect_left(events, end, key=_TS))

    def range(self, start: float, end: float) -> list[Event]:
        """Events with ``start <= ts < end`` in timestamp order."""
        lo, hi = self._span(start, end)
        return self._events[lo:hi]

    def count_range(self, start: float, end: float) -> int:
        lo, hi = self._span(start, end)
        return hi - lo

    def all(self) -> list[Event]:
        self._ensure_sorted()
        return list(self._events)

    def ordered_span(self, window: "Window | None" = None,
                     ) -> tuple[list[Event], int, int]:
        """The ``(ts, id)``-sorted backing list plus the window's row span.

        Exposes the sorted order *in place* (no copy) so ordered scans
        can walk it chunk-at-a-time from either end and stop early; the
        caller must treat the list as read-only.
        """
        if window is None:
            self._ensure_sorted()
            return self._events, 0, len(self._events)
        lo, hi = self._span(window.start, window.end)
        return self._events, lo, hi

    def __len__(self) -> int:
        return len(self._events)


def clip_to_window(events: Iterable[Event], start: float,
                   end: float) -> list[Event]:
    """Filter an event list to a half-open window (non-index fallback)."""
    return [evt for evt in events if start <= evt.ts < end]
