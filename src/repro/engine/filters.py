"""Predicate compilation: AIQL constraints -> fast event filters.

Constraints appear in three positions — entity brackets on a pattern's
subject, entity brackets on its object, and global header clauses — and
every one lowers to a structured :class:`Atom` (``<target.attribute> <op>
<value>``).  A pattern's full residual predicate is a
:class:`CompiledPredicate`: the atom conjunction plus one generated
per-event function, ``lambda e: (...) and (...)``, that every backend and
the stream matcher evaluate per candidate event.

Generating the conjunction as one expression keeps the per-event cost at
one call instead of one closure call per atom.  :func:`value_test` stays
the reference semantics; the generated code reproduces it exactly (the
differential property test in ``tests/test_filters.py`` holds them
together).  Atom values and compiled LIKE regexes are bound through the
evaluation namespace, never spliced into the source text, and attribute
names must come from the canonical attribute registries.

Comparison semantics match SQLite (the relational baseline) so differential
tests agree: ``=`` on strings is case-sensitive, ``like`` is
case-insensitive, ordered comparisons between a number and a string are
False rather than an error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import CodeType
from typing import Callable, Sequence

from repro.errors import SemanticError
from repro.lang.ast import Constraint
from repro.model.entities import (DEFAULT_ATTRIBUTE, FILE, NETWORK, PROCESS,
                                  canonical_attribute, entity_attributes)
from repro.model.events import (EVENT_ATTRIBUTES, Event,
                                canonical_event_attribute)
from repro.storage.indexes import like_to_regex

EventPredicate = Callable[[Event], bool]
ValueTest = Callable[[object], bool]

_NUMERIC = (int, float)


def _compare(op: str, left: object, right: object) -> bool:
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "in":
        return left in right  # type: ignore[operator]
    # Ordered comparisons: numbers with numbers, strings with strings.
    if isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC):
        pass
    elif isinstance(left, str) and isinstance(right, str):
        pass
    else:
        return False
    if op == "<":
        return left < right  # type: ignore[operator]
    if op == "<=":
        return left <= right  # type: ignore[operator]
    if op == ">":
        return left > right  # type: ignore[operator]
    if op == ">=":
        return left >= right  # type: ignore[operator]
    raise SemanticError(f"unknown comparison operator {op!r}")


@dataclass(frozen=True, slots=True)
class Atom:
    """One residual conjunct: ``<target.attribute> <op> <value>``.

    ``target`` names where the left-hand side lives: ``"event"`` for
    event-level attributes (including the virtual ``event_type``),
    ``"subject"``/``"object"`` for entity attributes.  An atom is pure,
    picklable data: shard workers receive atoms and compile them locally.
    """

    target: str      # "event" | "subject" | "object"
    attribute: str   # canonical attribute name
    op: str
    value: object


def value_test(op: str, value: object) -> ValueTest:
    """Compile ``<op> <value>`` to a test over candidate left-hand values.

    The reference semantics of one atom.  :func:`compile_atoms` generates
    code that must agree with it on every value.
    """
    if op == "like":
        if not isinstance(value, str):
            raise SemanticError("like patterns must be strings")
        regex = like_to_regex(value)
        return lambda candidate: (isinstance(candidate, str)
                                  and regex.match(candidate) is not None)
    return lambda candidate: _compare(op, candidate, value)


def entity_atom(constraint: Constraint, entity_type: str, role: str) -> Atom:
    """Lower one bracket constraint on the subject or object to an atom."""
    attribute = constraint.attribute
    if attribute is None:
        attribute = DEFAULT_ATTRIBUTE[entity_type]
    else:
        attribute = canonical_attribute(entity_type, attribute)
    if constraint.op == "like" and not isinstance(constraint.value, str):
        raise SemanticError("like patterns must be strings")
    return Atom(target=role, attribute=attribute, op=constraint.op,
                value=constraint.value)


def global_atom(constraint: Constraint) -> Atom:
    """Lower a header constraint (applies to the event itself) to an atom."""
    if constraint.attribute is None:
        raise SemanticError("global constraints need an attribute name")
    attribute = canonical_event_attribute(constraint.attribute)
    if constraint.op == "like" and not isinstance(constraint.value, str):
        raise SemanticError("like patterns must be strings")
    return Atom(target="event", attribute=attribute, op=constraint.op,
                value=constraint.value)


def type_operation_atoms(event_type: str,
                         operations: frozenset[str]) -> tuple[Atom, Atom]:
    """The guard every pattern predicate starts with.

    The store's best access path may be a subject-name index whose posting
    lists span all event types, so the residual must re-check both.
    """
    return (Atom("event", "event_type", "=", event_type),
            Atom("event", "operation", "in", operations))


def compile_entity_constraint(constraint: Constraint, entity_type: str,
                              role: str) -> EventPredicate:
    """Compile one bracket constraint against the subject or object."""
    return compile_atoms(
        [entity_atom(constraint, entity_type, role)]).event_predicate


def compile_global_constraint(constraint: Constraint) -> EventPredicate:
    """Compile a header constraint (applies to the event itself)."""
    return compile_atoms([global_atom(constraint)]).event_predicate


@dataclass(frozen=True, slots=True)
class CompiledPredicate:
    """A pattern's residual predicate: its atoms and the generated test.

    ``atoms`` is the structured conjunction (what crosses the shard RPC
    boundary); ``event_predicate`` the per-event function generated from
    it by :func:`compile_atoms`.
    """

    atoms: tuple[Atom, ...]
    event_predicate: EventPredicate

    def __call__(self, event: Event) -> bool:
        return self.event_predicate(event)


#: Left-hand-side source per atom target; the attribute is appended.
_TARGETS = {"event": "e.", "subject": "e.subject.", "object": "e.object."}

#: The attribute names each target may read: the canonical registries.
_ATTRIBUTES = {
    "event": frozenset(EVENT_ATTRIBUTES) | {"event_type"},
    "subject": frozenset(entity_attributes(PROCESS)),
    "object": frozenset(entity_attributes(PROCESS)
                        + entity_attributes(FILE)
                        + entity_attributes(NETWORK)),
}

_ORDERED = frozenset({"<", "<=", ">", ">="})


def _atom_source(atom: Atom, index: int, namespace: dict) -> str:
    """One conjunct's source; its value (or regex) joins ``namespace``."""
    prefix = _TARGETS.get(atom.target)
    if prefix is None:
        raise SemanticError(f"unknown atom target {atom.target!r}")
    if atom.attribute not in _ATTRIBUTES[atom.target]:
        raise SemanticError(
            f"{atom.target} has no attribute {atom.attribute!r}")
    lhs = prefix + atom.attribute
    if lhs == "e.event_type":
        lhs = "e.object.entity_type"  # the virtual attribute, read directly
    op, value, name = atom.op, atom.value, f"_v{index}"
    if op == "like":
        if not isinstance(value, str):
            raise SemanticError("like patterns must be strings")
        namespace[name] = like_to_regex(value).match
        return f"(_isinstance(_x := {lhs}, str) and {name}(_x) is not None)"
    namespace[name] = value
    if op == "=":
        return f"{lhs} == {name}"
    if op == "!=":
        return f"{lhs} != {name}"
    if op == "in":
        return f"{lhs} in {name}"
    if op not in _ORDERED:
        raise SemanticError(f"unknown comparison operator {op!r}")
    # value_test's typing rule: numbers order against numbers, strings
    # against strings, and every other pairing is False.
    if isinstance(value, _NUMERIC):
        return f"(_isinstance(_x := {lhs}, _NUMERIC) and _x {op} {name})"
    if isinstance(value, str):
        return f"(_isinstance(_x := {lhs}, str) and _x {op} {name})"
    return "False"


def compile_atoms(atoms: Sequence[Atom]) -> CompiledPredicate:
    """Generate one per-event function for an atom conjunction.

    The conjuncts run in atom order, so the pattern's type-guard atom
    (see :func:`type_operation_atoms`) is tested before any object
    attribute is read.  The empty conjunction accepts every event.
    """
    atoms = tuple(atoms)
    namespace: dict[str, object] = {"_isinstance": isinstance,
                                    "_NUMERIC": _NUMERIC}
    condition = " and ".join(
        _atom_source(atom, index, namespace)
        for index, atom in enumerate(atoms)) or "True"
    predicate = eval(_code(f"lambda e: {condition}"), namespace)  # noqa: S307
    return CompiledPredicate(atoms=atoms, event_predicate=predicate)


@functools.lru_cache(maxsize=1024)
def _code(source: str) -> CodeType:
    """The compiled residual source.

    Values live in the namespace, not the source, so one code object
    serves every query and shard request that differs only in its
    constants.
    """
    return compile(source, "<residual>", "eval")
