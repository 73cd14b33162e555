"""Plan-soundness verification: the catalogs pass, corrupted specs fail.

Positive direction: with ``EngineOptions.verify_plans`` on, every
figure-4/figure-5 catalog query executes cleanly on every storage backend
under each optimizer-lever combination — the scheduler never emits a
:class:`~repro.storage.backend.ScanSpec` the independent re-derivation in
:mod:`repro.engine.verify` rejects.  Negative direction: hand-corrupted
specs (over-tight bounds, unjustified order or bindings) raise
:class:`PlanVerificationError` with a message naming the exact
violation.

CI's backend matrix restricts each leg via ``REPRO_CONTRACT_BACKENDS``,
mirroring the backend contract suite.
"""

from __future__ import annotations

import math
import os

import pytest

from repro.engine.executor import execute
from repro.engine.options import EngineOptions
from repro.engine.planner import plan_multievent
from repro.engine.verify import (PlanVerificationError, implied_bounds,
                                 verify_spec)
from repro.investigate import FIGURE4_QUERIES, FIGURE5_QUERIES
from repro.lang.parser import parse
from repro.storage.backend import (IdentityBindings, ScanOrder, ScanSpec,
                                   TemporalBounds, create_backend)

#: ``columnar`` is the deprecated alias of ``row``; it stays in the matrix
#: while the benchmark still selects it by that name.
ALL_BACKENDS = ("row", "columnar", "sqlite")

BACKENDS = tuple(
    name for name in os.environ.get("REPRO_CONTRACT_BACKENDS",
                                    ",".join(ALL_BACKENDS)).split(",")
    if name) or ALL_BACKENDS

#: Each lever combination exercises a different spec-derivation path in
#: the scheduler (full propagation state, no propagation state,
#: plan-order patterns).  The verifier must accept the emitted specs
#: under all of them.
LEVERS = {
    "default": EngineOptions(verify_plans=True),
    "no-propagate": EngineOptions(verify_plans=True, propagate=False),
    "no-prioritize": EngineOptions(verify_plans=True, prioritize=False),
    "none": EngineOptions(verify_plans=True, prioritize=False,
                          propagate=False),
}


@pytest.fixture(params=BACKENDS, scope="module")
def backend_name(request) -> str:
    return request.param


@pytest.fixture(scope="module")
def demo_store(backend_name, demo_scenario):
    store = create_backend(backend_name)
    demo_scenario.load(store)
    return store


@pytest.fixture(scope="module")
def case2_store(backend_name, case2_scenario):
    store = create_backend(backend_name)
    case2_scenario.load(store)
    return store


def _run_under_all_levers(store, entry):
    query = parse(entry.aiql)
    baseline = execute(store, query)
    for name, options in LEVERS.items():
        result = execute(store, query, options)
        assert result.rows == baseline.rows, f"{entry.id} under {name}"


@pytest.mark.parametrize("entry", list(FIGURE4_QUERIES), ids=lambda e: e.id)
def test_figure4_catalog_verifies(entry, demo_store):
    _run_under_all_levers(demo_store, entry)


@pytest.mark.parametrize("entry", list(FIGURE5_QUERIES), ids=lambda e: e.id)
def test_figure5_catalog_verifies(entry, case2_store):
    _run_under_all_levers(case2_store, entry)


# ---------------------------------------------------------------------------
# The verifier is actually in the loop (both execution paths)
# ---------------------------------------------------------------------------

class TestVerifierIsWired:
    def test_scheduler_path_calls_verifier(self, exfil_session, monkeypatch):
        import repro.engine.verify as verify_mod
        calls = []
        real = verify_mod.verify_spec
        def spy(plan, dq, spec, **state):
            calls.append(dq.event_var)
            return real(plan, dq, spec, **state)
        monkeypatch.setattr(verify_mod, "verify_spec", spy)
        from tests.conftest import QUERY1
        exfil_session.query(QUERY1, options=EngineOptions(verify_plans=True))
        assert len(calls) >= 4  # one spec per executed pattern, at least

    def test_off_by_default(self, exfil_session, monkeypatch):
        import repro.engine.verify as verify_mod
        def explode(*args, **kwargs):
            raise AssertionError("verifier ran with verify_plans=False")
        monkeypatch.setattr(verify_mod, "verify_spec", explode)
        from tests.conftest import QUERY1
        exfil_session.query(QUERY1)  # default options: must not verify


# ---------------------------------------------------------------------------
# Corrupted specs: every check fires, with a precise message
# ---------------------------------------------------------------------------

TWO_PATTERN = ('proc p1 write file f1 as e1\n'
               'proc p2 read file f1 as e2\n'
               'with e1 before e2 within 10 sec\n'
               'return p1.exe_name, f1.name')

F1_IDS = {("file", 1, "/a"), ("file", 1, "/b"), ("file", 1, "/c")}


@pytest.fixture()
def two_pattern():
    plan = plan_multievent(parse(TWO_PATTERN))
    dq = next(d for d in plan.data_queries if d.event_var == "e2")
    state = dict(closure=plan.temporal_closure(),
                 identity_sets={"f1": set(F1_IDS)},
                 ts_bounds={"e1": (100.0, 200.0)})
    return plan, dq, state


class TestCorruptedSpecs:
    def test_scheduler_shaped_spec_is_sound(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(
            bindings=IdentityBindings(objects=frozenset(F1_IDS)),
            bounds=TemporalBounds(lo=100.0, hi=210.0, lo_strict=True))
        verify_spec(plan, dq, spec, **state)  # must not raise

    def test_bounds_tighter_than_closure_implies(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(bounds=TemporalBounds(lo=150.0, hi=180.0))
        with pytest.raises(PlanVerificationError) as info:
            verify_spec(plan, dq, spec, **state)
        message = str(info.value)
        assert "lower temporal bound" in message
        assert "upper temporal bound" in message
        assert "tighter than the implied" in message

    def test_bounds_without_any_executed_partner(self, two_pattern):
        plan, dq, state = two_pattern
        state["ts_bounds"] = {}
        spec = ScanSpec(bounds=TemporalBounds(lo=5.0))
        with pytest.raises(PlanVerificationError,
                           match="no executed partner implies any"):
            verify_spec(plan, dq, spec, **state)

    def test_looser_bounds_are_fine(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(bounds=TemporalBounds(lo=50.0, hi=500.0))
        verify_spec(plan, dq, spec, **state)  # looser only costs work

    def test_order_in_multi_pattern_plan(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(order=ScanOrder(descending=True, limit=3))
        with pytest.raises(PlanVerificationError,
                           match="multi-pattern plan"):
            verify_spec(plan, dq, spec, **state)

    def test_bindings_dropping_live_identity(self, two_pattern):
        plan, dq, state = two_pattern
        shrunk = frozenset(sorted(F1_IDS)[:2])
        spec = ScanSpec(bindings=IdentityBindings(objects=shrunk))
        with pytest.raises(
                PlanVerificationError,
                match="excludes 1 propagated identity that still has "
                      "join partners"):
            verify_spec(plan, dq, spec, **state)

    def test_bindings_inventing_identity(self, two_pattern):
        plan, dq, state = two_pattern
        padded = frozenset(F1_IDS) | {("file", 9, "/ghost")}
        spec = ScanSpec(bindings=IdentityBindings(objects=padded))
        with pytest.raises(PlanVerificationError,
                           match="admits 1 identity no executed pattern "
                                 "produced"):
            verify_spec(plan, dq, spec, **state)

    def test_bindings_for_unbound_variable(self, two_pattern):
        plan, dq, state = two_pattern
        spec = ScanSpec(bindings=IdentityBindings(
            subjects=frozenset({("proc", 1, 2, 0.0)})))
        with pytest.raises(PlanVerificationError,
                           match="although no executed pattern bound it"):
            verify_spec(plan, dq, spec, **state)


SINGLE_TOP = ('proc p1 write file f1 as e1\n'
              'return p1.exe_name, f1.name\n'
              'sort by e1.ts desc\ntop 5')


class TestOrderRules:
    @pytest.fixture()
    def single_top(self):
        plan = plan_multievent(parse(SINGLE_TOP))
        return plan, plan.data_queries[0]

    def empty_state(self):
        return dict(closure={}, identity_sets={}, ts_bounds={})

    def test_sound_topk_spec(self, single_top):
        plan, dq = single_top
        spec = ScanSpec(order=ScanOrder(descending=True, limit=5))
        verify_spec(plan, dq, spec, **self.empty_state())

    def test_limit_below_top(self, single_top):
        plan, dq = single_top
        spec = ScanSpec(order=ScanOrder(descending=True, limit=3))
        with pytest.raises(PlanVerificationError,
                           match="smaller than the query's top 5"):
            verify_spec(plan, dq, spec, **self.empty_state())

    def test_direction_mismatch(self, single_top):
        plan, dq = single_top
        spec = ScanSpec(order=ScanOrder(descending=False, limit=5))
        with pytest.raises(PlanVerificationError,
                           match="does not match the query's"):
            verify_spec(plan, dq, spec, **self.empty_state())

    def test_order_with_coexisting_bounds(self, single_top):
        plan, dq = single_top
        spec = ScanSpec(order=ScanOrder(descending=True, limit=5),
                        bounds=TemporalBounds(lo=1.0))
        with pytest.raises(PlanVerificationError,
                           match="together with bindings/bounds"):
            verify_spec(plan, dq, spec, **self.empty_state())

    def test_limit_without_top(self):
        plan = plan_multievent(parse(
            'proc p1 write file f1 as e1\n'
            'return p1.exe_name\nsort by e1.ts'))
        spec = ScanSpec(order=ScanOrder(limit=7))
        with pytest.raises(PlanVerificationError,
                           match="although the query has no 'top N'"):
            verify_spec(plan, plan.data_queries[0], spec,
                        **self.empty_state())


# ---------------------------------------------------------------------------
# The re-derivation helpers themselves
# ---------------------------------------------------------------------------

class TestDerivations:
    def test_implied_bounds_from_executed_partner(self, two_pattern):
        plan, dq, state = two_pattern
        bounds = implied_bounds(dq, state["closure"], state["ts_bounds"])
        assert bounds == TemporalBounds(lo=100.0, hi=210.0, lo_strict=True,
                                        hi_strict=False)

    def test_implied_bounds_none_without_partners(self, two_pattern):
        plan, dq, state = two_pattern
        assert implied_bounds(dq, state["closure"], {}) is None
        assert implied_bounds(dq, {}, state["ts_bounds"]) is None

    def test_implied_bounds_unbounded_delay(self):
        # A plain 'before' (no within) bounds only one side per direction.
        plan = plan_multievent(parse(
            'proc p1 write file f1 as e1\n'
            'proc p2 read file f1 as e2\n'
            'with e1 before e2\n'
            'return p1.exe_name, f1.name'))
        dq = next(d for d in plan.data_queries if d.event_var == "e2")
        bounds = implied_bounds(dq, plan.temporal_closure(),
                                {"e1": (100.0, 200.0)})
        assert bounds.lo == 100.0 and bounds.lo_strict
        assert bounds.hi == math.inf
