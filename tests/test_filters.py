"""Tests for predicate compilation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SemanticError
from repro.lang.ast import Constraint
from repro.model.entities import FileEntity, NetworkEntity, ProcessEntity
from repro.model.events import Event
from repro.engine.filters import (Atom, compile_atoms,
                                  compile_entity_constraint,
                                  compile_global_constraint, value_test)


def file_event(exe="cmd.exe", path="/tmp/f", agentid=1, amount=0,
               user="bob"):
    subject = ProcessEntity(agentid, 10, exe, user=user)
    return Event(id=1, ts=5.0, agentid=agentid, operation="write",
                 subject=subject, object=FileEntity(agentid, path),
                 amount=amount)


def ip_event(dst="9.9.9.9", port=443):
    subject = ProcessEntity(1, 10, "curl")
    conn = NetworkEntity(1, "10.0.0.1", 1000, dst, port)
    return Event(id=2, ts=6.0, agentid=1, operation="write",
                 subject=subject, object=conn, amount=10)


class TestEntityConstraints:
    def test_default_attribute_like_on_subject(self):
        predicate = compile_entity_constraint(
            Constraint(None, "like", "%cmd.exe"), "proc", "subject")
        assert predicate(file_event(exe="cmd.exe"))
        assert predicate(file_event(exe=r"C:\cmd.exe"))
        assert not predicate(file_event(exe="powershell.exe"))

    def test_default_attribute_on_object_depends_on_type(self):
        predicate = compile_entity_constraint(
            Constraint(None, "=", "9.9.9.9"), "ip", "object")
        assert predicate(ip_event(dst="9.9.9.9"))
        assert not predicate(ip_event(dst="1.1.1.1"))

    def test_named_comparison(self):
        predicate = compile_entity_constraint(
            Constraint("dst_port", ">=", 1024), "ip", "object")
        assert predicate(ip_event(port=8080))
        assert not predicate(ip_event(port=443))

    def test_alias_resolution(self):
        predicate = compile_entity_constraint(
            Constraint("dstip", "=", "9.9.9.9"), "ip", "object")
        assert predicate(ip_event())

    def test_in_operator(self):
        predicate = compile_entity_constraint(
            Constraint("user", "in", ("bob", "eve")), "proc", "subject")
        assert predicate(file_event(user="bob"))
        assert not predicate(file_event(user="alice"))

    def test_equality_is_case_sensitive_like_sql(self):
        predicate = compile_entity_constraint(
            Constraint(None, "=", "CMD.EXE"), "proc", "subject")
        assert not predicate(file_event(exe="cmd.exe"))

    def test_like_is_case_insensitive_like_sql(self):
        predicate = compile_entity_constraint(
            Constraint(None, "like", "CMD%"), "proc", "subject")
        assert predicate(file_event(exe="cmd.exe"))

    def test_mixed_type_ordered_comparison_is_false(self):
        predicate = compile_entity_constraint(
            Constraint("user", ">", 5), "proc", "subject")
        assert not predicate(file_event())

    def test_like_needs_string_pattern(self):
        with pytest.raises(SemanticError):
            compile_entity_constraint(Constraint(None, "like", 5),
                                      "proc", "subject")


class TestGlobalConstraints:
    def test_agentid(self):
        predicate = compile_global_constraint(Constraint("agentid", "=", 1))
        assert predicate(file_event(agentid=1))
        assert not predicate(file_event(agentid=2))

    def test_amount_threshold(self):
        predicate = compile_global_constraint(
            Constraint("amount", ">", 100))
        assert predicate(file_event(amount=500))
        assert not predicate(file_event(amount=5))

    def test_alias(self):
        predicate = compile_global_constraint(Constraint("size", ">=", 10))
        assert predicate(file_event(amount=10))

    def test_missing_attribute_rejected(self):
        with pytest.raises(SemanticError):
            compile_global_constraint(Constraint(None, "=", 5))


class TestConjunction:
    def test_empty_accepts_all(self):
        assert compile_atoms([])(file_event())

    def test_single_passthrough(self):
        predicate = compile_atoms([Atom("event", "amount", ">", 1)])
        assert predicate(file_event(amount=2))
        assert not predicate(file_event(amount=0))

    def test_all_must_hold(self):
        predicate = compile_atoms([Atom("event", "amount", ">", 1),
                                   Atom("event", "agentid", "=", 1)])
        assert predicate(file_event(amount=2, agentid=1))
        assert not predicate(file_event(amount=2, agentid=9))


class TestGeneratedSource:
    def test_guard_atom_runs_before_object_attributes(self):
        # A file object has no dst_port: the type guard must reject the
        # event before the object atom reads the missing attribute.
        predicate = compile_atoms([
            Atom("event", "event_type", "=", "ip"),
            Atom("object", "dst_port", ">", 1000)])
        assert not predicate(file_event())
        assert predicate(ip_event(port=8080))

    def test_values_are_bound_not_spliced(self):
        # A value that would be code if pasted into the source stays data.
        hostile = "x' or True or '"
        predicate = compile_atoms([Atom("subject", "exe_name", "=", hostile)])
        assert not predicate(file_event())
        assert predicate(file_event(exe=hostile))

    def test_unregistered_attribute_is_rejected(self):
        with pytest.raises(SemanticError):
            compile_atoms([Atom("event", "__class__", "=", 1)])
        with pytest.raises(SemanticError):
            compile_atoms([Atom("subject", "name", "=", "x")])
        with pytest.raises(SemanticError):
            compile_atoms([Atom("nowhere", "name", "=", "x")])

    def test_unknown_operator_is_rejected(self):
        with pytest.raises(SemanticError):
            compile_atoms([Atom("event", "amount", "<>", 1)])

    def test_numeric_comparison_inlines_without_calls(self):
        predicate = compile_atoms([Atom("event", "amount", ">", 10),
                                   Atom("event", "amount", "in", (5, 50))])
        assert predicate(file_event(amount=50))
        assert not predicate(file_event(amount=5))
        assert not predicate(file_event(amount=7))

    def test_empty_condition_accepts_all(self):
        # No atoms compiles to a predicate that admits every event type.
        predicate = compile_atoms([])
        assert predicate(file_event())
        assert predicate(ip_event())

    def test_none_valued_ordered_atom_matches_nothing(self):
        predicate = compile_atoms([Atom("event", "amount", "<", None)])
        assert not predicate(file_event(amount=0))


# ---------------------------------------------------------------------------
# Differential: generated predicate == value_test, atom by atom
# ---------------------------------------------------------------------------

#: Attributes per atom target, with values of the type each one holds.
_TARGET_ATTRIBUTES = {
    "event": ("operation", "amount", "failcode", "agentid", "ts",
              "event_type"),
    "subject": ("exe_name", "user", "pid", "cmdline"),
    "object": ("agentid",),
}

_VALUES = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=600),
    st.floats(min_value=-5, max_value=600, allow_nan=False),
    st.sampled_from(["", "a", "cmd.exe", "bob", "write", "read", "file",
                     "ip", "/tmp/f", "9.9.9.9", "CMD.EXE", "Bob"]))

_LIKE_PATTERNS = st.sampled_from(
    ["%", "cmd%", "%EXE", "b_b", "%/tmp%", "", "_", "%9.9%", "w%e"])


@st.composite
def _atoms(draw):
    target = draw(st.sampled_from(sorted(_TARGET_ATTRIBUTES)))
    attribute = draw(st.sampled_from(_TARGET_ATTRIBUTES[target]))
    op = draw(st.sampled_from(
        ["=", "!=", "in", "<", "<=", ">", ">=", "like"]))
    if op == "like":
        value = draw(_LIKE_PATTERNS)
    elif op == "in":
        value = tuple(draw(st.lists(_VALUES, max_size=4)))
    else:
        value = draw(_VALUES)
    return Atom(target, attribute, op, value)


@st.composite
def _events(draw):
    agentid = draw(st.integers(min_value=1, max_value=3))
    subject = ProcessEntity(
        agentid, draw(st.integers(min_value=1, max_value=500)),
        draw(st.sampled_from(["cmd.exe", "CMD.EXE", "bob", "a", ""])),
        user=draw(st.sampled_from(["bob", "Bob", "eve", ""])),
        cmdline=draw(st.sampled_from(["", "cmd.exe /c", "w%e"])))
    if draw(st.booleans()):
        obj = FileEntity(agentid, draw(st.sampled_from(["/tmp/f", "a"])))
        operation = draw(st.sampled_from(["read", "write", "execute"]))
    else:
        obj = NetworkEntity(agentid, "10.0.0.1", 1000,
                            draw(st.sampled_from(["9.9.9.9", "1.1.1.1"])),
                            draw(st.integers(min_value=1, max_value=9000)))
        operation = draw(st.sampled_from(["read", "write", "connect"]))
    return Event(id=draw(st.integers(min_value=1, max_value=10)),
                 ts=draw(st.floats(min_value=0, max_value=600,
                                   allow_nan=False)),
                 agentid=agentid, operation=operation, subject=subject,
                 object=obj,
                 amount=draw(st.integers(min_value=0, max_value=600)),
                 failcode=draw(st.integers(min_value=0, max_value=3)))


def _reference(atom: Atom, event: Event) -> bool:
    """One atom through value_test, the reference semantics."""
    if atom.target == "event":
        holder = event
    elif atom.target == "subject":
        holder = event.subject
    else:
        holder = event.object
    return value_test(atom.op, atom.value)(getattr(holder, atom.attribute))


@settings(max_examples=300, deadline=None)
@given(st.lists(_atoms(), max_size=4), st.lists(_events(), min_size=1,
                                                max_size=8))
def test_generated_predicate_equals_value_test(atoms, events):
    """Property: the generated conjunction == all(value_test) per atom."""
    predicate = compile_atoms(atoms)
    for event in events:
        expected = all(_reference(atom, event) for atom in atoms)
        assert predicate(event) is expected
