"""Backend conformance: one contract, every substrate.

Every :class:`~repro.storage.backend.StorageBackend` implementation must
answer the same candidate/estimate/select/ingest assertions, and — the
strongest check — produce byte-identical query results through the full
engine.  The suite is parametrized over the registry so a future backend
joins the contract by adding its name.

Since the ScanSpec refactor, ``candidates``/``select``/``estimate`` take
the whole physical-scan contract as a single
:class:`~repro.storage.backend.ScanSpec`; the equivalence cases in
:class:`TestScanSpec` lock in that the spec composes exactly like the old
positional hints did.
"""

from __future__ import annotations

import math
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import AiqlSession
from repro.engine.executor import EngineOptions
from repro.engine.planner import plan_multievent
from repro.errors import StorageError
from repro.lang.parser import parse
from repro.model.entities import FileEntity, NetworkEntity, ProcessEntity
from repro.model.events import Event
from repro.model.timeutil import Window
from repro.storage.backend import (BACKEND_ALIASES, IdentityBindings,
                                   ScanOrder, ScanSpec, StorageBackend,
                                   TemporalBounds, available_backends,
                                   create_backend)
from repro.storage.stats import PatternProfile

from tests.conftest import AGENT, BASE_TS, QUERY1, QUERY1_ROW

#: ``columnar`` is the deprecated alias of ``row``; it stays in the matrix
#: while the benchmark still selects it by that name.
ALL_BACKENDS = ("row", "columnar", "sqlite")

# CI's backend matrix restricts each leg to one substrate; name-based -k
# selection would mis-select tests whose ids mention another backend.
BACKENDS = tuple(
    name for name in os.environ.get("REPRO_CONTRACT_BACKENDS",
                                    ",".join(ALL_BACKENDS)).split(",")
    if name) or ALL_BACKENDS


@pytest.fixture(params=BACKENDS)
def backend_name(request) -> str:
    return request.param


@pytest.fixture
def store(backend_name):
    store = create_backend(backend_name, bucket_seconds=1000)
    writer = ProcessEntity(1, 10, "writer.exe")
    reader = ProcessEntity(1, 11, "reader.exe")
    remote = ProcessEntity(2, 12, "remote.exe")
    for i in range(50):
        store.record(float(i), 1, "write", writer,
                     FileEntity(1, f"/data/{i % 5}.txt"), amount=100)
    for i in range(10):
        store.record(100.0 + i, 1, "read", reader,
                     FileEntity(1, "/data/0.txt"), amount=10)
    store.record(500.0, 2, "write", remote,
                 NetworkEntity(2, "10.0.0.2", 1, "8.8.8.8", 53))
    return store


def test_registry_knows_all_builtins():
    assert set(BACKENDS) - set(BACKEND_ALIASES) <= set(available_backends())
    # A deprecated alias resolves but is not advertised.
    assert not set(BACKEND_ALIASES) & set(available_backends())
    assert create_backend("columnar").backend_name == "row"
    with pytest.raises(StorageError):
        create_backend("no-such-backend")


def test_protocol_conformance(store):
    assert isinstance(store, StorageBackend)
    assert store.backend_name in BACKENDS


class TestRecordAndScan:
    def test_record_interns_entities(self, store):
        assert store.entity_count < 70
        assert store.dedup_ratio > 0.5

    def test_scan_orders_by_time(self, store):
        events = store.scan()
        assert len(events) == 61
        assert [(e.ts, e.id) for e in events] == sorted(
            (e.ts, e.id) for e in events)

    def test_scan_with_window_and_agent(self, store):
        got = store.scan(Window(100.0, 200.0), {1})
        assert len(got) == 10
        assert all(e.operation == "read" for e in got)

    def test_span_agentids_partitions(self, store):
        assert store.agentids == {1, 2}
        assert store.span.contains(500.0)
        # One partition per (agent, 1000 s bucket): everything so far
        # sits in bucket 0 of agents 1 and 2.  A write at ts=1500 opens
        # bucket 1 only if the store honours the 1000 s width (the
        # default one-day width would keep it in bucket 0).
        assert store.partition_count == 2
        store.record(1500.0, 1, "write", ProcessEntity(1, 10, "writer.exe"),
                     FileEntity(1, "/data/0.txt"), amount=100)
        assert store.partition_count == 3


class TestCandidatesAndEstimates:
    def test_exact_subject_candidates(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}),
                                 subject_exact="reader.exe")
        matching = [e for e in store.candidates(profile)
                    if e.subject.exe_name == "reader.exe"
                    and e.operation == "read"]
        assert len(matching) == 10

    def test_candidates_superset_of_matches(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}),
                                 object_like="%/data/0%")
        candidate_ids = {e.id for e in store.candidates(profile)}
        for event in store.scan():
            if (event.event_type == "file" and event.operation == "write"
                    and event.object.name == "/data/0.txt"):
                assert event.id in candidate_ids

    def test_candidates_clipped_to_window(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}))
        got = store.candidates(profile, ScanSpec(window=Window(0.0, 10.0)))
        assert {e.id for e in got} == {
            e.id for e in store.scan(Window(0.0, 10.0))
            if e.operation == "write"}

    def test_estimate_upper_bounds_truth(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}),
                                 subject_exact="reader.exe")
        assert store.estimate(profile) >= 10

    def test_estimate_zero_for_absent_agent(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}))
        assert store.estimate(profile, ScanSpec(agentids={99})) == 0

    def test_estimate_zero_implies_no_matches(self, store):
        profile = PatternProfile(event_type="ip",
                                 operations=frozenset({"connect"}))
        if store.estimate(profile) == 0:
            assert store.candidates(profile) == []

    def test_access_path_reports_a_name_and_cost(self, store):
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"read"}),
                                 subject_exact="reader.exe")
        info = store.access_path(profile)
        assert info.name
        assert info.rows >= 10
        assert info.describe().startswith(info.name)
        # The unsatisfiable short-circuit never costs a scan.
        empty = store.access_path(profile, ScanSpec(agentids=frozenset()))
        assert empty.rows == 0


class TestSelect:
    SCAN_AIQL = ("amount >= 100\n"
                 "proc p write file f as e1 return f")

    def test_select_equals_scan_plus_filter(self, store):
        dq = plan_multievent(parse(self.SCAN_AIQL)).data_queries[0]
        events, fetched = store.select(dq.profile, dq.compiled)
        expected = {e.id for e in store.scan() if dq.predicate(e)}
        assert {e.id for e in events} == expected
        assert fetched >= len(events)

    def test_select_respects_window_and_agents(self, store):
        dq = plan_multievent(parse(self.SCAN_AIQL)).data_queries[0]
        window = Window(10.0, 30.0)
        events, _fetched = store.select(
            dq.profile, dq.compiled, ScanSpec(window=window, agentids={1}))
        expected = {e.id for e in store.scan(window, {1})
                    if dq.predicate(e)}
        assert {e.id for e in events} == expected


class TestIdentityPushdown:
    """Tentpole contract: identity bindings pushed into the scan prune
    candidates but never change ``select`` results — with the empty set
    short-circuiting and unknown identities matching nothing."""

    SCAN_AIQL = "proc p read || write file f as e1 return f"

    WRITER_ID = ProcessEntity(1, 10, "writer.exe").identity
    READER_ID = ProcessEntity(1, 11, "reader.exe").identity
    FILE0_ID = FileEntity(1, "/data/0.txt").identity

    def _dq(self):
        return plan_multievent(parse(self.SCAN_AIQL)).data_queries[0]

    @pytest.mark.parametrize("bindings", [
        IdentityBindings(subjects=frozenset({WRITER_ID})),
        IdentityBindings(objects=frozenset({FILE0_ID})),
        IdentityBindings(subjects=frozenset({WRITER_ID, READER_ID}),
                         objects=frozenset({FILE0_ID})),
    ], ids=["subject", "object", "both"])
    def test_pushdown_equals_post_filter(self, store, bindings):
        dq = self._dq()
        pushed, fetched = store.select(dq.profile, dq.compiled,
                                       ScanSpec(bindings=bindings))
        baseline, baseline_fetched = store.select(dq.profile, dq.compiled)
        filtered = [e for e in baseline if bindings.admits(e)]
        assert [(e.id, e.ts) for e in sorted(pushed, key=lambda e: e.id)] \
            == [(e.id, e.ts) for e in sorted(filtered, key=lambda e: e.id)]
        assert fetched <= baseline_fetched

    def test_empty_binding_set_short_circuits(self, store):
        dq = self._dq()
        spec = ScanSpec(bindings=IdentityBindings(subjects=frozenset()))
        assert spec.unsatisfiable
        assert store.select(dq.profile, dq.compiled, spec) == ([], 0)
        assert store.estimate(dq.profile, spec) == 0
        assert store.candidates(dq.profile, spec) == []

    def test_unknown_identities_match_nothing(self, store):
        dq = self._dq()
        ghost = ProcessEntity(9, 999, "ghost.exe").identity
        spec = ScanSpec(bindings=IdentityBindings(
            subjects=frozenset({ghost})))
        survivors, _fetched = store.select(dq.profile, dq.compiled, spec)
        assert survivors == []
        assert store.estimate(dq.profile, spec) == 0

    def test_estimate_reacts_to_bindings(self, store):
        dq = self._dq()
        unrestricted = store.estimate(dq.profile)
        bound = store.estimate(dq.profile, ScanSpec(
            bindings=IdentityBindings(
                subjects=frozenset({self.READER_ID}))))
        assert 0 < bound <= unrestricted
        # 10 reader events exist; the binding bound must be tight enough
        # to reorder scheduling (strictly below the 60 file events).
        assert bound < unrestricted or unrestricted == bound == 10

    def test_candidates_keep_true_matches(self, store):
        dq = self._dq()
        bindings = IdentityBindings(objects=frozenset({self.FILE0_ID}))
        candidate_ids = {e.id for e in store.candidates(
            dq.profile, ScanSpec(bindings=bindings))}
        for event in store.scan():
            if (dq.predicate(event) and bindings.admits(event)):
                assert event.id in candidate_ids

    def test_bindings_compose_with_window_and_agents(self, store):
        dq = self._dq()
        window = Window(0.0, 30.0)
        bindings = IdentityBindings(subjects=frozenset({self.WRITER_ID}))
        survivors, _fetched = store.select(
            dq.profile, dq.compiled,
            ScanSpec(window=window, agentids={1}, bindings=bindings))
        expected = {e.id for e in store.scan(window, {1})
                    if dq.predicate(e) and bindings.admits(e)}
        assert {e.id for e in survivors} == expected


class TestTemporalBoundsPushdown:
    """Tentpole contract: temporal bounds pushed into the scan prune
    candidates but never change ``select`` results — with per-side
    inclusivity exact at the window edges and the empty interval
    short-circuiting."""

    SCAN_AIQL = "proc p read || write file f as e1 return f"

    WRITER_ID = ProcessEntity(1, 10, "writer.exe").identity
    FILE0_ID = FileEntity(1, "/data/0.txt").identity

    def _dq(self):
        return plan_multievent(parse(self.SCAN_AIQL)).data_queries[0]

    @pytest.mark.parametrize("bounds", [
        TemporalBounds(lo=10.0, lo_strict=True),
        TemporalBounds(lo=10.0, lo_strict=False),
        TemporalBounds(hi=104.0, hi_strict=True),
        TemporalBounds(hi=104.0, hi_strict=False),
        TemporalBounds(lo=5.0, hi=103.0, lo_strict=True),
        TemporalBounds(lo=100.0, hi=100.0),   # single admissible instant
    ], ids=["lo-strict", "lo-inclusive", "hi-strict", "hi-inclusive",
            "two-sided", "point"])
    def test_bounds_equal_post_filter(self, store, bounds):
        dq = self._dq()
        pushed, fetched = store.select(dq.profile, dq.compiled,
                                       ScanSpec(bounds=bounds))
        baseline, baseline_fetched = store.select(dq.profile, dq.compiled)
        filtered = [e for e in baseline if bounds.admits(e.ts)]
        assert sorted((e.id, e.ts) for e in pushed) \
            == sorted((e.id, e.ts) for e in filtered)
        assert fetched <= baseline_fetched

    def test_inclusive_hi_keeps_edge_event(self, store):
        """The ``within`` bound is inclusive: an event exactly at ``hi``
        must survive the pushdown (the edge the half-open window
        convention silently dropped before inclusivity was first-class).
        """
        dq = self._dq()
        bounds = TemporalBounds(lo=100.0, lo_strict=True, hi=101.0)
        survivors, _fetched = store.select(dq.profile, dq.compiled,
                                           ScanSpec(bounds=bounds))
        assert sorted(e.ts for e in survivors) == [101.0]

    def test_strict_bounds_drop_edge_events(self, store):
        dq = self._dq()
        bounds = TemporalBounds(lo=100.0, lo_strict=True,
                                hi=102.0, hi_strict=True)
        survivors, _fetched = store.select(dq.profile, dq.compiled,
                                           ScanSpec(bounds=bounds))
        assert sorted(e.ts for e in survivors) == [101.0]

    def test_empty_interval_short_circuits(self, store):
        dq = self._dq()
        for bounds in (TemporalBounds(lo=50.0, hi=40.0),
                       TemporalBounds(lo=50.0, hi=50.0, lo_strict=True),
                       TemporalBounds(lo=50.0, hi=50.0, hi_strict=True)):
            spec = ScanSpec(bounds=bounds)
            assert bounds.unsatisfiable and spec.unsatisfiable
            assert store.select(dq.profile, dq.compiled, spec) == ([], 0)
            assert store.estimate(dq.profile, spec) == 0
            assert store.candidates(dq.profile, spec) == []

    def test_bounds_compose_with_window_and_bindings(self, store):
        dq = self._dq()
        window = Window(0.0, 120.0)
        bindings = IdentityBindings(subjects=frozenset({self.WRITER_ID}))
        bounds = TemporalBounds(lo=10.0, lo_strict=True, hi=30.0)
        survivors, _fetched = store.select(
            dq.profile, dq.compiled,
            ScanSpec(window=window, agentids={1}, bindings=bindings,
                     bounds=bounds))
        expected = {e.id for e in store.scan(window, {1})
                    if dq.predicate(e) and bindings.admits(e)
                    and bounds.admits(e.ts)}
        assert {e.id for e in survivors} == expected
        assert expected  # the combination must actually select something

    def test_candidates_keep_true_matches_under_bounds(self, store):
        dq = self._dq()
        bounds = TemporalBounds(lo=3.0, hi=105.0, lo_strict=True)
        candidate_ids = {e.id for e in store.candidates(
            dq.profile, ScanSpec(bounds=bounds))}
        for event in store.scan():
            if dq.predicate(event) and bounds.admits(event.ts):
                assert event.id in candidate_ids

    def test_estimate_reacts_to_bounds(self, store):
        dq = self._dq()
        unrestricted = store.estimate(dq.profile)
        bounded = store.estimate(dq.profile, ScanSpec(
            bounds=TemporalBounds(lo=100.0, hi=104.0)))
        assert 0 < bounded <= unrestricted


class TestScanSpec:
    """Satellite lock-in: the single ScanSpec composes exactly like the
    old positional hints, its normalizations are shared, and its limit is
    honored after the exact hint filters."""

    PROFILE = PatternProfile(event_type="file",
                             operations=frozenset({"write"}))

    def test_default_spec_is_a_full_scan(self, store):
        assert ({e.id for e in store.candidates(self.PROFILE)}
                == {e.id for e in store.candidates(self.PROFILE,
                                                   ScanSpec())})

    def test_bounds_equal_their_clamped_window(self, store):
        """A window-shaped bounds hint and the equivalent window give the
        same candidates — the shared ``clamped()`` lowering."""
        bounds = TemporalBounds(lo=5.0, hi=20.0, hi_strict=True)
        via_bounds = store.candidates(self.PROFILE, ScanSpec(bounds=bounds))
        spec = ScanSpec(bounds=bounds)
        assert spec.clamped() == Window(5.0, 20.0)
        via_window = store.candidates(self.PROFILE,
                                      ScanSpec(window=spec.clamped()))
        assert (sorted((e.id, e.ts) for e in via_bounds)
                == sorted((e.id, e.ts) for e in via_window))

    def test_window_and_bounds_intersect(self, store):
        spec = ScanSpec(window=Window(0.0, 30.0),
                        bounds=TemporalBounds(lo=10.0, hi=40.0))
        got = store.candidates(self.PROFILE, spec)
        assert got
        assert all(10.0 <= e.ts < 30.0 for e in got)

    @pytest.mark.parametrize("spec", [
        ScanSpec(agentids=frozenset()),
        ScanSpec(bindings=IdentityBindings(objects=frozenset())),
        ScanSpec(bounds=TemporalBounds(lo=5.0, hi=1.0)),
        ScanSpec(window=Window(10.0, 10.0)),
    ], ids=["no-agents", "empty-bindings", "empty-bounds", "empty-window"])
    def test_unsatisfiable_specs_short_circuit(self, store, spec):
        assert spec.unsatisfiable
        dq = plan_multievent(parse(
            "proc p write file f as e1 return f")).data_queries[0]
        assert store.candidates(self.PROFILE, spec) == []
        assert store.estimate(self.PROFILE, spec) == 0
        assert store.select(dq.profile, dq.compiled, spec) == ([], 0)

    def test_limit_truncates_after_exact_filters(self, store):
        dq = plan_multievent(parse(
            "proc p write file f as e1 return f")).data_queries[0]
        full, _ = store.select(dq.profile, dq.compiled)
        limited, _ = store.select(dq.profile, dq.compiled,
                                  ScanSpec(limit=5))
        assert len(limited) == 5
        assert {e.id for e in limited} <= {e.id for e in full}

    def test_spec_admits_is_the_post_filter(self, store):
        bounds = TemporalBounds(lo=10.0, hi=20.0)
        bindings = IdentityBindings(
            subjects=frozenset({ProcessEntity(1, 10, "writer.exe").identity}))
        spec = ScanSpec(bindings=bindings, bounds=bounds)
        for event in store.scan():
            assert spec.admits(event) == (bounds.admits(event.ts)
                                          and bindings.admits(event))


class TestClampedNormalization:
    """Satellite lock-in: ``clamped()`` is idempotent and consistent
    with ``unsatisfiable`` — re-lowering a spec whose window already
    carries the intersection changes nothing, and the temporal side is
    unsatisfiable exactly when the clamped window is empty."""

    @staticmethod
    def _respec(spec: ScanSpec, keep_bounds: bool) -> ScanSpec:
        from dataclasses import replace
        return replace(spec, window=spec.clamped(),
                       bounds=spec.bounds if keep_bounds else None)

    _finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
    _maybe_lo = st.one_of(st.just(-math.inf), _finite)
    _maybe_hi = st.one_of(st.just(math.inf), _finite)

    @st.composite
    @staticmethod
    def _specs(draw):
        window = None
        if draw(st.booleans()):
            start = draw(TestClampedNormalization._finite)
            end = start + draw(st.floats(min_value=0.0, max_value=1e6,
                                         allow_nan=False))
            window = Window(start, end)
        bounds = None
        if draw(st.booleans()):
            bounds = TemporalBounds(
                lo=draw(TestClampedNormalization._maybe_lo),
                hi=draw(TestClampedNormalization._maybe_hi),
                lo_strict=draw(st.booleans()),
                hi_strict=draw(st.booleans()))
        return ScanSpec(window=window, bounds=bounds)

    @given(spec=_specs())
    @settings(max_examples=300, deadline=None)
    def test_clamped_is_idempotent(self, spec):
        once = spec.clamped()
        # Re-lowering with the intersection as the window — whether the
        # bounds are still attached or already folded away — is a no-op.
        assert self._respec(spec, keep_bounds=True).clamped() == once
        assert self._respec(spec, keep_bounds=False).clamped() == once

    @given(spec=_specs())
    @settings(max_examples=300, deadline=None)
    def test_unsatisfiable_iff_clamped_window_is_empty(self, spec):
        clamped = spec.clamped()
        empty = clamped is not None and clamped.start >= clamped.end
        assert spec.unsatisfiable == empty
        # Re-lowering preserves the verdict too.
        assert self._respec(spec, keep_bounds=True).unsatisfiable == empty

    def test_equal_inclusive_bounds_admit_the_point(self):
        """``lo == hi`` with both sides inclusive is a single admissible
        instant — satisfiable, and the clamped window still covers it."""
        spec = ScanSpec(bounds=TemporalBounds(lo=50.0, hi=50.0))
        assert not spec.unsatisfiable
        clamped = spec.clamped()
        assert clamped is not None and clamped.contains(50.0)

    def test_equal_bounds_with_a_strict_side_are_unsatisfiable(self):
        for bounds in (TemporalBounds(lo=50.0, hi=50.0, lo_strict=True),
                       TemporalBounds(lo=50.0, hi=50.0, hi_strict=True)):
            assert ScanSpec(bounds=bounds).unsatisfiable

    def test_point_bounds_outside_the_window_are_unsatisfiable(self, store):
        """The window∩bounds edge the old per-field check missed: an
        inclusive point bound exactly at the half-open window end."""
        spec = ScanSpec(window=Window(0.0, 5.0),
                        bounds=TemporalBounds(lo=5.0, hi=5.0))
        assert spec.unsatisfiable
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}))
        assert store.candidates(profile, spec) == []
        assert store.estimate(profile, spec) == 0

    def test_disjoint_window_and_bounds_are_unsatisfiable(self, store):
        spec = ScanSpec(window=Window(0.0, 10.0),
                        bounds=TemporalBounds(lo=20.0, hi=30.0))
        assert spec.unsatisfiable
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}))
        assert store.candidates(profile, spec) == []
        assert store.estimate(profile, spec) == 0


class TestHistogramEstimates:
    """Satellite lock-in: windowed estimates consult per-partition
    equi-depth timestamp histograms, so in-bucket skew stops fooling the
    scheduler — and the estimate stays within a bounded factor of truth
    on skewed *and* uniform data."""

    BUCKET = 100_000.0

    def _skewed_store(self, backend_name):
        """One bucket: bulk.exe's writes cluster early, probe.exe's reads
        late; the window covers only the late sliver."""
        store = create_backend(backend_name, bucket_seconds=self.BUCKET)
        bulk = ProcessEntity(1, 1, "bulk.exe")
        probe = ProcessEntity(1, 2, "probe.exe")
        for i in range(900):
            store.record(float(i), 1, "write", bulk,
                         FileEntity(1, f"/noise/{i % 7}"))
        for i in range(100):
            store.record(90_000.0 + i, 1, "read", probe,
                         FileEntity(1, "/hot"))
        return store

    WINDOW = Window(90_000.0, 100_000.0)
    BULK = PatternProfile(event_type="file",
                          operations=frozenset({"write"}),
                          subject_exact="bulk.exe")
    PROBE = PatternProfile(event_type="file",
                           operations=frozenset({"read"}),
                           subject_exact="probe.exe")

    def test_skew_aware_estimates_order_patterns_right(self, backend_name):
        store = self._skewed_store(backend_name)
        spec = ScanSpec(window=self.WINDOW)
        bulk = store.estimate(self.BULK, spec)
        probe = store.estimate(self.PROBE, spec)
        # Truth: 0 bulk events and 100 probe events in the window.  The
        # uniform assumption gives bulk ~2x probe; histograms must invert
        # that so the scheduler runs the genuinely selective pattern
        # first.
        assert bulk < probe

    def test_estimate_within_bounded_factor_of_truth(self, backend_name):
        store = self._skewed_store(backend_name)
        for profile, window, actual in (
                (self.PROBE, self.WINDOW, 100),
                (self.PROBE, Window(90_000.0, 90_050.0), 50),
                (self.BULK, Window(0.0, 450.0), 450),      # uniform region
                (self.BULK, Window(100.0, 200.0), 100)):
            estimate = store.estimate(profile, ScanSpec(window=window))
            assert actual / 2 <= estimate <= actual * 2, (
                profile, window, estimate)

    def test_zero_estimate_still_implies_no_matches(self, backend_name):
        """Histogram estimates can undercut the candidate *superset* (a
        cheap access path may fetch unrelated in-window events), but a
        zero estimate must still mean zero true matches."""
        store = self._skewed_store(backend_name)
        bulk_dq = plan_multievent(parse(
            'proc p["bulk.exe"] write file f as e1 return f'
        )).data_queries[0]
        probe_dq = plan_multievent(parse(
            'proc p["probe.exe"] read file f as e1 return f'
        )).data_queries[0]
        for window in (Window(50_000.0, 60_000.0), self.WINDOW,
                       Window(899.0, 900.0), Window(0.0, 1.0)):
            for profile, dq in ((self.BULK, bulk_dq),
                                (self.PROBE, probe_dq)):
                spec = ScanSpec(window=window)
                if store.estimate(profile, spec) == 0:
                    survivors, _ = store.select(dq.profile, dq.compiled,
                                                spec)
                    assert survivors == []


class TestEstimateParity:
    """Satellite lock-in: all backends honor agentids and window bounds
    identically at partition edges (half-open, inclusive start)."""

    BUCKET = 100.0

    @pytest.fixture
    def edge_store(self, backend_name):
        store = create_backend(backend_name, bucket_seconds=self.BUCKET)
        proc = ProcessEntity(1, 1, "edge.exe")
        # One event exactly on a partition boundary, one just inside the
        # previous bucket, one in another agent's partition.
        store.record(100.0, 1, "write", proc, FileEntity(1, "/edge"))
        store.record(99.0, 1, "write", proc, FileEntity(1, "/inside"))
        store.record(100.0, 2, "write", ProcessEntity(2, 2, "other.exe"),
                     FileEntity(2, "/other"))
        return store

    PROFILE = PatternProfile(event_type="file",
                             operations=frozenset({"write"}))

    def test_window_start_is_inclusive_at_partition_edge(self, edge_store):
        spec = ScanSpec(window=Window(100.0, 100.0001), agentids={1})
        assert edge_store.estimate(self.PROFILE, spec) >= 1
        got = edge_store.candidates(self.PROFILE, spec)
        assert [e.ts for e in got] == [100.0]

    def test_window_end_is_exclusive_at_partition_edge(self, edge_store):
        spec = ScanSpec(window=Window(0.0, 100.0), agentids={1})
        got = edge_store.candidates(self.PROFILE, spec)
        assert [e.ts for e in got] == [99.0]
        # estimate may over-approximate but must not claim the pruned
        # boundary event once nothing is in-window.
        assert edge_store.estimate(
            self.PROFILE,
            ScanSpec(window=Window(99.5, 100.0), agentids={1})) <= 1

    def test_estimate_honors_agent_restriction(self, edge_store):
        assert edge_store.estimate(self.PROFILE,
                                   ScanSpec(agentids={2})) >= 1
        assert edge_store.estimate(self.PROFILE,
                                   ScanSpec(agentids={99})) == 0
        assert edge_store.estimate(self.PROFILE,
                                   ScanSpec(agentids=set())) == 0
        assert edge_store.candidates(self.PROFILE,
                                     ScanSpec(agentids=set())) == []

    def test_zero_estimate_implies_no_candidates(self, edge_store):
        for window in (None, Window(0.0, 100.0), Window(100.0, 200.0),
                       Window(100.0, 100.0), Window(50.0, 150.0)):
            for agents in (None, {1}, {2}, set()):
                spec = ScanSpec(window=window, agentids=agents)
                if edge_store.estimate(self.PROFILE, spec) == 0:
                    assert edge_store.candidates(self.PROFILE, spec) == []

    def test_estimate_honors_bounds_like_candidates(self, edge_store):
        """``estimate`` must apply a ``TemporalBounds`` hint exactly as
        ``candidates`` does — the scheduler re-orders patterns on these
        counts, and a divergence would rank scans against numbers that
        describe a different fetch."""
        cases = (
            TemporalBounds(lo=99.0, hi=99.0),            # inclusive point
            TemporalBounds(lo=99.0, lo_strict=True),     # drops ts=99
            TemporalBounds(hi=99.0, hi_strict=True),     # drops ts=99
            TemporalBounds(lo=100.0, hi=100.0),          # partition edge
            TemporalBounds(lo=98.0, hi=98.5),            # miss inside span
            TemporalBounds(lo=200.0, hi=100.0),          # unsatisfiable
        )
        for bounds in cases:
            for agents in (None, {1}, {2}):
                spec = ScanSpec(agentids=agents, bounds=bounds)
                got = edge_store.candidates(self.PROFILE, spec)
                estimate = edge_store.estimate(self.PROFILE, spec)
                if estimate == 0:
                    assert got == [], bounds
                if got:
                    assert estimate >= 1, bounds
                assert all(bounds.admits(e.ts) for e in got), bounds

    def test_bounds_window_equivalence(self, edge_store):
        """Bounds expressible as a half-open window give the same
        candidates as passing that window directly."""
        bounds = TemporalBounds(lo=99.0, hi=100.0, hi_strict=True)
        via_bounds = edge_store.candidates(
            self.PROFILE, ScanSpec(agentids={1}, bounds=bounds))
        via_window = edge_store.candidates(
            self.PROFILE, ScanSpec(window=Window(99.0, 100.0),
                                   agentids={1}))
        assert ([(e.id, e.ts) for e in via_bounds]
                == [(e.id, e.ts) for e in via_window])

    def test_merged_shard_estimates_match_single_node(self, backend_name,
                                                      edge_store):
        """Sharding must not move the scheduler's numbers: the sum of
        per-shard estimates over the same events equals this backend's
        single-node estimate for every edge-case spec above (shards hold
        disjoint partition subsets, and estimates sum over partitions)."""
        if backend_name.startswith("sharded"):
            pytest.skip("already sharded — the tier does not nest")
        from repro.storage.sharded import ShardedStore
        specs = (
            ScanSpec(),
            ScanSpec(agentids=frozenset({1})),
            ScanSpec(agentids=frozenset({2})),
            ScanSpec(agentids=frozenset({99})),
            ScanSpec(window=Window(100.0, 100.0001), agentids=frozenset({1})),
            ScanSpec(window=Window(0.0, 100.0)),
            ScanSpec(bounds=TemporalBounds(lo=99.0, hi=99.0)),
            ScanSpec(bounds=TemporalBounds(lo=200.0, hi=100.0)),
        )
        with ShardedStore(shards=2, backend=backend_name,
                          bucket_seconds=self.BUCKET) as sharded:
            sharded.ingest(edge_store.scan())
            for spec in specs:
                assert (sharded.estimate(self.PROFILE, spec)
                        == edge_store.estimate(self.PROFILE, spec)), spec


class TestTemporalBoundary:
    """Satellite lock-in: an event exactly at the propagated (inclusive)
    ``within`` edge must survive window narrowing on every backend."""

    AIQL = ('proc p["a.exe"] write file f as e1\n'
            'proc q read file f as e2\n'
            'with e1 before e2 within 10 sec\n'
            'return f')

    def _session(self, backend_name: str) -> AiqlSession:
        session = AiqlSession(backend=backend_name)
        writer = ProcessEntity(1, 10, "a.exe")
        reader = ProcessEntity(1, 11, "b.exe")
        shared = FileEntity(1, "/x")
        session.store.record(100.0, 1, "write", writer, shared)
        # Exactly at the inclusive 'within' bound: 110 - 100 == 10.
        session.store.record(110.0, 1, "read", reader, shared)
        # Just past the bound: must stay excluded.
        session.store.record(110.0001, 1, "read", reader, shared)
        return session

    @pytest.mark.parametrize("propagate", [True, False])
    @pytest.mark.parametrize("prioritize", [True, False])
    def test_within_edge_event_survives(self, backend_name, propagate,
                                        prioritize):
        session = self._session(backend_name)
        options = EngineOptions(propagate=propagate, prioritize=prioritize)
        assert session.query(self.AIQL, options).rows == [("/x",)]

    def test_strict_before_bound_stays_exclusive(self, backend_name):
        session = AiqlSession(backend=backend_name)
        writer = ProcessEntity(1, 10, "a.exe")
        reader = ProcessEntity(1, 11, "b.exe")
        shared = FileEntity(1, "/x")
        # Simultaneous events: 'before' is strict, so no match — narrowing
        # must not widen into including ties.
        session.store.record(100.0, 1, "read", reader, shared)
        session.store.record(100.0, 1, "write", writer, shared)
        aiql = ('proc p["a.exe"] write file f as e1\n'
                'proc q read file f as e2\n'
                'with e1 before e2\nreturn f')
        for propagate in (True, False):
            rows = session.query(
                aiql, EngineOptions(propagate=propagate)).rows
            assert rows == []


class TestIngest:
    def _event(self, eid: int, ts: float) -> Event:
        return Event(id=eid, ts=ts, agentid=1, operation="write",
                     subject=ProcessEntity(1, 1, "w"),
                     object=FileEntity(1, "/f"), amount=1)

    def test_ingest_preserves_ids_and_count(self, backend_name):
        store = create_backend(backend_name)
        events = [self._event(100 + i, float(i)) for i in range(20)]
        assert store.ingest(events) == 20
        assert len(store) == 20
        assert [e.id for e in store.scan()] == [100 + i for i in range(20)]

    def test_ingest_interns_entities(self, backend_name):
        store = create_backend(backend_name)
        store.ingest(self._event(i, float(i)) for i in range(10))
        assert store.entity_count == 2
        assert store.dedup_ratio > 0.5

    def test_record_after_ingest_never_reuses_ids(self, backend_name):
        store = create_backend(backend_name)
        store.ingest([self._event(7, 1.0)])
        recorded = store.record(2.0, 1, "read", ProcessEntity(1, 2, "r"),
                                FileEntity(1, "/g"))
        assert recorded.id == 8
        events = store.scan()
        assert len(events) == 2
        assert {e.operation for e in events} == {"write", "read"}


class TestLikeSemantics:
    def test_unicode_case_folding_is_not_lost(self, backend_name):
        # U+212A KELVIN SIGN folds to 'k' under the engine's re.IGNORECASE
        # but not under SQL LIKE; candidates must stay a superset.
        store = create_backend(backend_name)
        store.record(1.0, 1, "write",
                     ProcessEntity(1, 1, "Kelvin.exe"),
                     FileEntity(1, "/f"))
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}),
                                 subject_like="k%")
        assert len(store.candidates(profile)) == 1
        assert store.estimate(profile) >= 1


def test_sqlite_backend_migrates_pre_pushdown_archive(tmp_path):
    """A persistent table written before the identity-key columns existed
    is upgraded in place, and pushdown works against the backfilled keys."""
    import json
    import sqlite3

    from repro.baselines.sqlite_backend import SqliteEventStore
    from repro.storage.serialize import entity_to_dict

    path = str(tmp_path / "old.db")
    subject = ProcessEntity(1, 7, "old.exe")
    obj = FileEntity(1, "/archived")
    payload = json.dumps({"amount": 5, "failcode": 0,
                          "subject": entity_to_dict(subject),
                          "object": entity_to_dict(obj)},
                         separators=(",", ":"))
    conn = sqlite3.connect(path)
    conn.execute("""
        CREATE TABLE backend_events (
            id INTEGER NOT NULL, ts REAL NOT NULL, agentid INTEGER NOT NULL,
            etype TEXT NOT NULL, op TEXT NOT NULL,
            subject_name TEXT NOT NULL, object_value TEXT,
            payload TEXT NOT NULL)
    """)
    conn.execute(
        "INSERT INTO backend_events VALUES (1, 2.0, 1, 'file', 'write', "
        "'old.exe', '/archived', ?)", (payload,))
    conn.commit()
    conn.close()

    store = SqliteEventStore(path=path)
    try:
        assert len(store) == 1
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}))
        hit = store.candidates(profile, ScanSpec(bindings=IdentityBindings(
            subjects=frozenset({subject.identity}))))
        assert [e.id for e in hit] == [1]
        miss = store.candidates(profile, ScanSpec(bindings=IdentityBindings(
            subjects=frozenset(
                {ProcessEntity(1, 8, "new.exe").identity}))))
        assert miss == []
    finally:
        store.close()


def test_sqlite_backend_reopens_persistent_path(tmp_path):
    from repro.baselines.sqlite_backend import SqliteEventStore
    path = str(tmp_path / "events.db")
    first = SqliteEventStore(path=path)
    first.record(5.0, 1, "write", ProcessEntity(1, 1, "p"),
                 FileEntity(1, "/f"))
    first.close()
    reopened = SqliteEventStore(path=path)
    try:
        assert len(reopened) == 1
        assert reopened.span is not None and reopened.span.contains(5.0)
        recorded = reopened.record(6.0, 1, "read", ProcessEntity(1, 2, "q"),
                                   FileEntity(1, "/f"))
        assert recorded.id == 2
        assert len(reopened.scan()) == 2
    finally:
        reopened.close()


def test_sqlite_sketch_caps_over_budget_binding_estimates():
    """A binding set too large for the SQL parameter budget still bounds
    the estimate, via the identity-key frequency sketches."""
    from repro.baselines.sqlite_backend import SqliteEventStore
    store = SqliteEventStore()
    try:
        writer = ProcessEntity(1, 1, "w.exe")
        for i in range(50):
            store.record(float(i), 1, "write", writer,
                         FileEntity(1, f"/data/{i}"))
        profile = PatternProfile(event_type="file",
                                 operations=frozenset({"write"}))
        huge = frozenset(FileEntity(1, f"/ghost/{i}").identity
                         for i in range(store.MAX_BINDING_PARAMS + 10))
        spec = ScanSpec(bindings=IdentityBindings(objects=huge))
        # No ghost file was ever written: the SQL WHERE dropped the
        # over-budget side, but the sketch knows the answer is ~0.  A
        # count-min sketch may over-count on hash collisions (the hash is
        # salted per process), so assert "near zero", not exactly zero.
        assert store.estimate(profile, spec) <= 5
        few_real = frozenset(FileEntity(1, f"/data/{i}").identity
                             for i in range(10))
        mixed = huge | few_real
        assert len(mixed) > store.MAX_BINDING_PARAMS
        capped = store.estimate(
            profile, ScanSpec(bindings=IdentityBindings(objects=mixed)))
        assert 10 <= capped <= 50
    finally:
        store.close()


class TestFullEngineAgreement:
    """The decisive contract: identical rows through the whole engine."""

    def _attack_session(self, backend_name: str) -> AiqlSession:
        session = AiqlSession(backend=backend_name)
        cmd = ProcessEntity(AGENT, 100, "cmd.exe", start_time=BASE_TS)
        osql = ProcessEntity(AGENT, 101, "osql.exe",
                             start_time=BASE_TS + 10)
        sqlservr = ProcessEntity(AGENT, 50, "sqlservr.exe",
                                 start_time=BASE_TS - 1000)
        sbblv = ProcessEntity(AGENT, 102, "sbblv.exe",
                              start_time=BASE_TS + 20)
        dump = FileEntity(AGENT, r"C:\backup\backup1.dmp")
        conn = NetworkEntity(AGENT, "10.0.0.3", 50000, "203.0.113.129", 443)
        store = session.store
        store.record(BASE_TS + 10, AGENT, "start", cmd, osql)
        store.record(BASE_TS + 60, AGENT, "write", sqlservr, dump,
                     amount=500_000)
        store.record(BASE_TS + 120, AGENT, "read", sbblv, dump,
                     amount=500_000)
        store.record(BASE_TS + 150, AGENT, "write", sbblv, conn,
                     amount=500_000)
        svchost = ProcessEntity(AGENT, 200, "svchost.exe",
                                start_time=BASE_TS)
        for index in range(120):
            log = FileEntity(AGENT, rf"C:\Windows\log{index % 40}.txt")
            store.record(BASE_TS + 300 + index, AGENT, "write", svchost,
                         log, amount=10)
        return session

    def test_query1_attack_chain(self, backend_name):
        session = self._attack_session(backend_name)
        result = session.query(QUERY1)
        assert result.rows == [QUERY1_ROW]

    def test_query1_pushdown_matches_post_filter(self, backend_name):
        """Pushed bindings and bounds vs a run that propagates (and so
        pushes) nothing: identical rows."""
        session = self._attack_session(backend_name)
        pushed = session.query(QUERY1).rows
        unpushed = session.query(QUERY1, EngineOptions(propagate=False)).rows
        assert pushed == unpushed == [QUERY1_ROW]

    def test_anomaly_query_agrees_with_row(self, backend_name):
        aiql = ('window = 1 min, step = 1 min\n'
                'proc p write file f as evt\n'
                'return p, sum(evt.amount) as total\n'
                'group by p\n'
                'having total > 1000')
        rows = self._attack_session(backend_name).query(aiql).rows
        expected = self._attack_session("row").query(aiql).rows
        assert rows == expected


class TestOrderPushdown:
    """Tentpole contract: a pushed :class:`ScanOrder` limit returns the
    true first/last-k survivors under the ``(ts, id)`` comparator —
    ties at the cut included — already sorted, on every backend."""

    SCAN_AIQL = ("amount >= 100\n"
                 "proc p write file f as e1 return f")

    @pytest.fixture
    def tied_store(self, backend_name):
        """Five events per timestamp, ingested in reverse id order.

        Any limit that cuts inside a tie group must pick the smallest
        ids — ascending *and* descending (descending ties keep ascending
        ids, mirroring a stable descending sort on ts).  Reverse ingest
        makes sortedness something the backend must maintain, not an
        accident of insertion order.
        """
        store = create_backend(backend_name, bucket_seconds=1000)
        writer = ProcessEntity(1, 10, "writer.exe")
        events = []
        eid = 0
        for step in range(8):
            for dup in range(5):
                eid += 1
                events.append(Event(
                    id=eid, ts=float(step * 10), agentid=1,
                    operation="write", subject=writer,
                    object=FileEntity(1, f"/t/{dup}.txt"),
                    amount=100 + dup))
        store.ingest(list(reversed(events)))
        return store

    def _dq(self):
        return plan_multievent(parse(self.SCAN_AIQL)).data_queries[0]

    @pytest.mark.parametrize("descending", [False, True],
                             ids=["asc", "desc"])
    @pytest.mark.parametrize("limit", [3, 7, 12, 40, 100])
    def test_ordered_limit_is_sort_then_slice(self, tied_store,
                                              descending, limit):
        dq = self._dq()
        order = ScanOrder(descending=descending, limit=limit)
        got, fetched = tied_store.select(dq.profile, dq.compiled,
                                         ScanSpec(order=order))
        full, full_fetched = tied_store.select(dq.profile, dq.compiled)
        expected = sorted(full, key=order.key())[:limit]
        assert [(e.ts, e.id) for e in got] \
            == [(e.ts, e.id) for e in expected]
        assert fetched <= full_fetched

    def test_limit_larger_than_result_returns_everything(self, tied_store):
        dq = self._dq()
        order = ScanOrder(descending=True, limit=1000)
        got, _fetched = tied_store.select(dq.profile, dq.compiled,
                                          ScanSpec(order=order))
        assert len(got) == 40
        assert [(e.ts, e.id) for e in got] \
            == sorted(((e.ts, e.id) for e in got),
                      key=lambda pair: (-pair[0], pair[1]))

    def test_order_without_limit_sorts_survivors(self, tied_store):
        dq = self._dq()
        order = ScanOrder(descending=True)
        got, _fetched = tied_store.select(dq.profile, dq.compiled,
                                          ScanSpec(order=order))
        assert [(e.ts, e.id) for e in got] \
            == sorted(((e.ts, e.id) for e in got),
                      key=lambda pair: (-pair[0], pair[1]))
        assert len(got) == 40

    @pytest.mark.parametrize("descending", [False, True],
                             ids=["asc", "desc"])
    def test_order_composes_with_window(self, tied_store, descending):
        dq = self._dq()
        order = ScanOrder(descending=descending, limit=4)
        window = Window(10.0, 60.0)
        got, _fetched = tied_store.select(dq.profile, dq.compiled,
                                          ScanSpec(window=window,
                                                   order=order))
        full = [e for e in tied_store.scan(window) if dq.predicate(e)]
        expected = sorted(full, key=order.key())[:4]
        assert [(e.ts, e.id) for e in got] \
            == [(e.ts, e.id) for e in expected]

    def test_order_composes_with_residual_filter(self, tied_store):
        """The limit counts *survivors*: rows failing the residual
        predicate must not starve true matches behind the cut."""
        aiql = "amount >= 103\nproc p write file f as e1 return f"
        dq = plan_multievent(parse(aiql)).data_queries[0]
        order = ScanOrder(descending=True, limit=6)
        got, _fetched = tied_store.select(dq.profile, dq.compiled,
                                          ScanSpec(order=order))
        full, _ = tied_store.select(dq.profile, dq.compiled)
        expected = sorted(full, key=order.key())[:6]
        assert [(e.ts, e.id) for e in got] \
            == [(e.ts, e.id) for e in expected]
        assert all(e.amount >= 103 for e in got)

    def test_effective_limit_takes_tighter_cap(self, tied_store):
        dq = self._dq()
        spec = ScanSpec(limit=3, order=ScanOrder(limit=10))
        assert spec.effective_limit == 3
        got, _fetched = tied_store.select(dq.profile, dq.compiled, spec)
        assert len(got) == 3
