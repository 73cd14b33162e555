"""Query planning: one synthesized data query per event pattern.

§2.3: "Aiql addresses this challenge by synthesizing a SQL data query for
every event pattern and schedules the execution of these data queries using
our optimized scheduling strategy".  In this reproduction the synthesized
data query targets our own storage substrate instead of SQL, but the shape
is identical: a :class:`DataQuery` is the index-visible *profile* (what the
store can answer from postings) plus a fused *residual predicate* (the exact
semantics).

Planning also performs the constraint chaining the language promises: a
variable reused across patterns (``f1`` in Query 1) carries the union of all
its bracket constraints to every occurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from typing import Callable

from repro.errors import DataModelError, SemanticError
from repro.lang.ast import (AttributeRelation, Constraint, EventPattern,
                            MultieventQuery, TemporalRelation, VarRef)
from repro.model.entities import DEFAULT_ATTRIBUTE, canonical_attribute
from repro.model.events import canonical_event_attribute, validate_operation
from repro.model.timeutil import Window
from repro.engine.filters import (CompiledPredicate, EventPredicate,
                                  _compare, compile_atoms, entity_atom,
                                  global_atom, type_operation_atoms)
from repro.storage.backend import ScanOrder
from repro.storage.stats import PatternProfile


@dataclass(frozen=True, slots=True)
class DataQuery:
    """Everything needed to fetch and filter one pattern's matches.

    ``compiled`` carries the residual predicate as its atoms (what a
    shard worker receives) and the generated per-event function;
    ``predicate`` is that function, kept as its own field for direct
    per-event use.
    """

    index: int                       # position in the query's pattern list
    pattern: EventPattern
    event_type: str                  # the object entity type
    operations: frozenset[str]
    profile: PatternProfile
    predicate: EventPredicate
    compiled: CompiledPredicate
    agentids: frozenset[int] | None  # spatial pruning for this pattern
    subject_var: str
    object_var: str

    @property
    def event_var(self) -> str:
        return self.pattern.event_var

    @property
    def variables(self) -> tuple[str, str]:
        return (self.subject_var, self.object_var)


@dataclass(frozen=True, slots=True)
class RelationCheck:
    """A compiled ``with`` attribute relation, evaluated on bindings."""

    left_var: str
    right_var: str
    predicate: Callable[[dict], bool]

    def holds(self, binding: dict) -> bool:
        return self.predicate(binding)


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """A planned multievent query, ready for the scheduler."""

    query: MultieventQuery
    data_queries: tuple[DataQuery, ...]
    window: Window | None
    agentids: frozenset[int] | None
    temporal: tuple[TemporalRelation, ...]  # normalized to 'before'
    variable_types: dict[str, str]
    relations: tuple[RelationCheck, ...] = ()
    #: Pushed-down ``top N`` over time order, only ever set for
    #: single-pattern non-distinct queries whose result order is the
    #: canonical ``(ts, id)`` (or its descending mirror).
    scan_order: ScanOrder | None = None

    def shared_variables(self) -> dict[str, list[int]]:
        """Entity variable -> indexes of patterns where it appears."""
        shared: dict[str, list[int]] = {}
        for data_query in self.data_queries:
            for variable in set(data_query.variables):
                shared.setdefault(variable, []).append(data_query.index)
        return {var: idxs for var, idxs in shared.items() if len(idxs) > 1}

    def temporal_closure(self) -> dict[tuple[str, str], float]:
        """Transitive closure of the plan's ``before`` constraint graph.

        ``(u, v) -> d`` means u's event must precede v's (strictly) with
        ``v.ts - u.ts <= d``; ``d`` is ``inf`` when every path between
        them has an unbounded hop.  Each direct ``u before v [within d]``
        is an edge of weight ``d`` (or ``inf``); a chain composes because
        the deltas add — ``u before v within d1`` and ``v before w within
        d2`` force ``0 < w.ts - u.ts <= d1 + d2`` for any complete match,
        even though u and w share no relation (or variable).  The closure
        is the all-pairs *shortest* path, so the tightest derivable bound
        survives when multiple chains connect a pair.

        This is what lets the scheduler narrow *every* reachable
        pattern's bounds from one executed pattern, not just its direct
        temporal partners.
        """
        return temporal_closure(self.temporal)


def temporal_closure(temporal: tuple[TemporalRelation, ...],
                     ) -> dict[tuple[str, str], float]:
    """All-pairs shortest ``within`` totals over normalized before-edges.

    Floyd–Warshall over the (tiny) event-variable graph.  Presence of a
    key means precedence is derivable; the value is the minimal summed
    ``within`` across connecting paths, ``inf`` when unbounded.
    """
    dist: dict[tuple[str, str], float] = {}
    nodes: set[str] = set()
    for rel in temporal:
        nodes.add(rel.left)
        nodes.add(rel.right)
        weight = rel.within if rel.within is not None else math.inf
        key = (rel.left, rel.right)
        if key not in dist or weight < dist[key]:
            dist[key] = weight
    for via in nodes:
        for src in nodes:
            first = dist.get((src, via))
            if first is None:
                continue
            for dst in nodes:
                second = dist.get((via, dst))
                if second is None:
                    continue
                key = (src, dst)
                total = first + second
                if key not in dist or total < dist[key]:
                    dist[key] = total
    return dist


def _merge_variable_constraints(
        patterns: tuple[EventPattern, ...],
) -> dict[str, tuple[str, tuple[Constraint, ...]]]:
    """Union bracket constraints per entity variable (constraint chaining)."""
    merged: dict[str, tuple[str, list[Constraint]]] = {}
    for pattern in patterns:
        for entity in (pattern.subject, pattern.object):
            entry = merged.setdefault(entity.variable,
                                      (entity.entity_type, []))
            if entry[0] != entity.entity_type:
                raise SemanticError(
                    f"variable {entity.variable!r} used as both {entry[0]} "
                    f"and {entity.entity_type}")
            for constraint in entity.constraints:
                if constraint not in entry[1]:
                    entry[1].append(constraint)
    return {var: (etype, tuple(cons))
            for var, (etype, cons) in merged.items()}


def _split_agent_pin(constraints: tuple[Constraint, ...],
                     ) -> tuple[frozenset[int] | None,
                                tuple[Constraint, ...]]:
    """Extract agentid equality pins usable for partition pruning."""
    pins: frozenset[int] | None = None
    for constraint in constraints:
        if constraint.attribute != "agentid":
            continue
        if constraint.op == "=":
            values = frozenset({int(constraint.value)})  # type: ignore
        elif constraint.op == "in":
            values = frozenset(int(v) for v in constraint.value)  # type: ignore
        else:
            continue
        pins = values if pins is None else (pins & values)
    return pins, constraints


def _index_profile(event_type: str, operations: frozenset[str],
                   subject_constraints: tuple[Constraint, ...],
                   object_constraints: tuple[Constraint, ...],
                   ) -> PatternProfile:
    """Extract the parts of the constraints the posting indexes can answer."""
    subject_exact = subject_like = None
    for constraint in subject_constraints:
        attr = constraint.attribute
        if attr == "agentid":
            continue
        resolved = (DEFAULT_ATTRIBUTE["proc"] if attr is None
                    else canonical_attribute("proc", attr))
        if resolved != "exe_name":
            continue
        if constraint.op == "=" and isinstance(constraint.value, str):
            subject_exact = constraint.value
        elif constraint.op == "like" and subject_exact is None:
            subject_like = str(constraint.value)
    object_exact = object_like = None
    default = DEFAULT_ATTRIBUTE[event_type]
    for constraint in object_constraints:
        attr = constraint.attribute
        if attr == "agentid":
            continue
        resolved = (default if attr is None
                    else canonical_attribute(event_type, attr))
        if resolved != default:
            continue
        if constraint.op == "=" and isinstance(constraint.value, str):
            object_exact = constraint.value
        elif constraint.op == "like" and object_exact is None:
            object_like = str(constraint.value)
    return PatternProfile(event_type=event_type, operations=operations,
                          subject_exact=subject_exact,
                          subject_like=subject_like,
                          object_exact=object_exact,
                          object_like=object_like)


def plan_multievent(query: MultieventQuery) -> QueryPlan:
    """Build the execution plan for a multievent query."""
    header = query.header
    global_agents = header.agentids()
    global_atoms = [global_atom(c) for c in header.constraints
                    if not _is_agent_pin(c)]
    merged = _merge_variable_constraints(query.patterns)
    data_queries: list[DataQuery] = []
    for index, pattern in enumerate(query.patterns):
        subject_type, subject_constraints = merged[pattern.subject.variable]
        object_type, object_constraints = merged[pattern.object.variable]
        if subject_type != "proc":
            raise SemanticError(
                f"pattern {index + 1}: event subjects must be processes, "
                f"got {subject_type!r} for {pattern.subject.variable!r}")
        operations = frozenset(
            validate_operation(object_type, op) for op in pattern.operations)
        # The residual predicate must re-check event type and operation:
        # the store's best access path may be a subject-name index whose
        # posting lists span all event types.
        atoms = list(type_operation_atoms(object_type, operations))
        atoms.extend(global_atoms)
        atoms.extend(entity_atom(c, "proc", "subject")
                     for c in subject_constraints)
        atoms.extend(entity_atom(c, object_type, "object")
                     for c in object_constraints)
        compiled = compile_atoms(atoms)
        subject_pin, _ = _split_agent_pin(subject_constraints)
        agentids = _combine_agents(global_agents, subject_pin)
        profile = _index_profile(object_type, operations,
                                 subject_constraints, object_constraints)
        data_queries.append(DataQuery(
            index=index, pattern=pattern, event_type=object_type,
            operations=operations, profile=profile,
            predicate=compiled.event_predicate, compiled=compiled,
            agentids=agentids,
            subject_var=pattern.subject.variable,
            object_var=pattern.object.variable))
    temporal = tuple(rel.normalized() for rel in query.temporal)
    variable_types = {var: etype for var, (etype, _c) in merged.items()}
    event_vars = {pattern.event_var for pattern in query.patterns}
    relations = tuple(
        _compile_relation(relation, variable_types, event_vars)
        for relation in query.relations)
    queries = tuple(data_queries)
    return QueryPlan(query=query, data_queries=queries,
                     window=header.window,
                     agentids=(frozenset(global_agents)
                               if global_agents is not None else None),
                     temporal=temporal, variable_types=variable_types,
                     relations=relations,
                     scan_order=_derive_scan_order(query, queries))


def _derive_scan_order(query: MultieventQuery,
                       data_queries: tuple[DataQuery, ...],
                       ) -> ScanOrder | None:
    """Lower ``top N`` into a scan-level order when that is sound.

    Only a single-pattern plan can push its result order into the scan
    (a join reorders rows), only without ``distinct`` (dedup below the
    cut could surface rows past the first N survivors), and only when
    the result order is the canonical time order: no ``sort by``, or a
    single ``sort by <event>.ts [desc]`` on the pattern's event
    variable.  Descending maps to the ``(-ts, id)`` comparator — the
    exact order the executor's stable descending sort produces.
    """
    if query.top is None or query.distinct or len(data_queries) != 1:
        return None
    descending = False
    if query.sort_by:
        if len(query.sort_by) != 1:
            return None
        key = query.sort_by[0]
        ref = key.expr
        if ref.variable != data_queries[0].event_var:
            return None
        try:
            attribute = canonical_event_attribute(ref.attribute or "id")
        except DataModelError:
            return None
        if attribute != "ts":
            return None
        descending = key.descending
    return ScanOrder(descending=descending, limit=query.top)


def binding_getter(ref: VarRef, variable_types: dict[str, str],
                   event_vars: set[str]) -> Callable[[dict], object]:
    """Compile a VarRef into a getter over a joined binding.

    Shared by attribute relations, projection, and sort keys: an event
    variable resolves through the event attribute registry (default
    ``id``), an entity variable through its type's registry (default
    attribute when none is written).
    """
    variable = ref.variable
    if variable in event_vars:
        attribute = canonical_event_attribute(ref.attribute or "id")
        return lambda binding: getattr(binding[variable], attribute)
    entity_type = variable_types.get(variable)
    if entity_type is None:
        raise SemanticError(f"unknown variable {variable!r}")
    if ref.attribute is None:
        attribute = DEFAULT_ATTRIBUTE[entity_type]
    else:
        try:
            attribute = canonical_attribute(entity_type, ref.attribute)
        except DataModelError as exc:
            raise SemanticError(str(exc)) from None
    return lambda binding: getattr(binding[variable], attribute)


def _compile_relation(relation: AttributeRelation,
                      variable_types: dict[str, str],
                      event_vars: set[str]) -> RelationCheck:
    left = binding_getter(relation.left, variable_types, event_vars)
    right = binding_getter(relation.right, variable_types, event_vars)
    op = relation.op

    def predicate(binding: dict) -> bool:
        return _compare(op, left(binding), right(binding))

    return RelationCheck(left_var=relation.left.variable,
                         right_var=relation.right.variable,
                         predicate=predicate)


def _is_agent_pin(constraint: Constraint) -> bool:
    return (constraint.attribute == "agentid"
            and constraint.op in ("=", "in"))


def _combine_agents(global_agents: set[int] | None,
                    pattern_pin: frozenset[int] | None,
                    ) -> frozenset[int] | None:
    if global_agents is None and pattern_pin is None:
        return None
    if global_agents is None:
        return pattern_pin
    if pattern_pin is None:
        return frozenset(global_agents)
    return frozenset(global_agents) & pattern_pin
