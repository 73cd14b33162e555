"""Attribute resolution shared by the parser, engine, and translators.

This module implements the *context-aware syntax shortcuts* of §2.2.1: in a
``return`` clause, a bare entity variable stands for its default attribute
(``p1`` -> ``p1.exe_name``, ``f1`` -> ``f1.name``, ``i1`` -> ``i1.dst_ip``),
and attribute names may be written using common aliases (``dstip``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DataModelError, SemanticError
from repro.model.entities import (DEFAULT_ATTRIBUTE, canonical_attribute,
                                  entity_attributes)
from repro.model.events import canonical_event_attribute

__all__ = [
    "AttributeRef",
    "resolve_entity_attribute",
    "resolve_event_attribute",
    "default_attribute",
]


@dataclass(frozen=True, slots=True)
class AttributeRef:
    """A resolved reference ``variable.attribute``.

    ``kind`` is ``"entity"`` or ``"event"`` depending on whether the variable
    names an entity (``p1``) or an event pattern (``evt1``).
    """

    variable: str
    attribute: str
    kind: str

    def __str__(self) -> str:
        return f"{self.variable}.{self.attribute}"


def default_attribute(entity_type: str) -> str:
    """The attribute a bare variable of this type abbreviates."""
    try:
        return DEFAULT_ATTRIBUTE[entity_type]
    except KeyError:
        raise SemanticError(f"unknown entity type: {entity_type!r}") from None


def resolve_entity_attribute(variable: str, entity_type: str,
                             attribute: str | None) -> AttributeRef:
    """Resolve ``var.attr`` (or a bare ``var``) against an entity type."""
    if attribute is None:
        return AttributeRef(variable, default_attribute(entity_type), "entity")
    try:
        resolved = canonical_attribute(entity_type, attribute)
    except DataModelError as exc:
        raise SemanticError(str(exc)) from None
    return AttributeRef(variable, resolved, "entity")


def resolve_event_attribute(variable: str, attribute: str) -> AttributeRef:
    """Resolve ``evt.attr`` against the event attribute registry."""
    try:
        resolved = canonical_event_attribute(attribute)
    except DataModelError as exc:
        raise SemanticError(str(exc)) from None
    return AttributeRef(variable, resolved, "event")


def attributes_for(entity_type: str) -> tuple[str, ...]:
    """All canonical attributes of an entity type (for UI autocomplete)."""
    return entity_attributes(entity_type)
