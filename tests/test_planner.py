"""Tests for query planning: data-query synthesis + constraint chaining."""

import pytest

from repro.errors import SemanticError
from repro.lang.parser import parse
from repro.engine.planner import plan_multievent


def plan(source: str):
    return plan_multievent(parse(source))


class TestDataQueries:
    def test_one_data_query_per_pattern(self):
        p = plan('proc a start proc b as e1\nproc b write file f as e2\n'
                 'return f')
        assert len(p.data_queries) == 2
        assert p.data_queries[0].event_type == "proc"
        assert p.data_queries[1].event_type == "file"

    def test_operations_validated_against_object_type(self):
        with pytest.raises(Exception):
            plan('proc a accept file f as e1\nreturn f')

    def test_subject_must_be_process(self):
        with pytest.raises(SemanticError, match="subjects must be"):
            plan('file f write file g as e1\nreturn g')

    def test_profile_extracts_exact_and_like(self):
        p = plan('proc a["cmd.exe"] write file f["%mal%"] as e1\nreturn f')
        profile = p.data_queries[0].profile
        assert profile.subject_exact == "cmd.exe"
        assert profile.object_like == "%mal%"
        assert profile.event_type == "file"
        assert profile.operations == frozenset({"write"})

    def test_profile_prefers_exact_over_like(self):
        p = plan('proc a["cmd.exe", exe_name = "cmd.exe"] write file f '
                 'as e1\nreturn f')
        assert p.data_queries[0].profile.subject_exact == "cmd.exe"


class TestConstraintChaining:
    def test_variable_constraints_union_across_patterns(self):
        # f1 is constrained in e1 only, but the chained constraint must
        # also restrict e2's data query (§2.2.1 Query 1: the same f1).
        p = plan('proc a write file f1["%backup%"] as e1\n'
                 'proc b read file f1 as e2\nreturn f1')
        assert p.data_queries[1].profile.object_like == "%backup%"

    def test_agent_pin_from_subject_bracket(self):
        p = plan('proc a[agentid = 7] write file f as e1\nreturn f')
        assert p.data_queries[0].agentids == frozenset({7})

    def test_global_agent_pin_applies_to_all(self):
        p = plan('agentid = 3\nproc a start proc b as e1\n'
                 'proc b write file f as e2\nreturn f')
        assert all(dq.agentids == frozenset({3}) for dq in p.data_queries)

    def test_conflicting_agent_pins_empty(self):
        p = plan('agentid = 3\nproc a[agentid = 4] write file f as e1\n'
                 'return f')
        assert p.data_queries[0].agentids == frozenset()


class TestSharedVariables:
    def test_shared_variable_map(self):
        p = plan('proc a start proc b as e1\nproc b write file f as e2\n'
                 'proc b read file f as e3\nreturn f')
        shared = p.shared_variables()
        assert shared["b"] == [0, 1, 2]
        assert shared["f"] == [1, 2]
        assert "a" not in shared

    def test_variable_types_collected(self):
        p = plan('proc a write ip i as e1\nreturn i')
        assert p.variable_types == {"a": "proc", "i": "ip"}


class TestTemporalNormalization:
    def test_after_rewritten_to_before(self):
        p = plan('proc a start proc b as e1\nproc b start proc c as e2\n'
                 'with e2 after e1\nreturn c')
        assert p.temporal[0].relation == "before"
        assert (p.temporal[0].left, p.temporal[0].right) == ("e1", "e2")


class TestErrorPropagation:
    def test_unexpected_attribute_error_propagates(self, monkeypatch):
        """Only DataModelError means "no such attribute"; anything else
        escapes instead of silently dropping the scan-order pushdown."""
        import repro.engine.planner as planner

        def broken(name):
            raise RuntimeError("attribute registry failed")

        query = parse('proc p write file f as e1\n'
                      'return f sort by e1.ts desc top 3')
        assert plan_multievent(query).scan_order is not None
        monkeypatch.setattr(planner, "canonical_event_attribute", broken)
        with pytest.raises(RuntimeError, match="registry failed"):
            plan_multievent(query)
