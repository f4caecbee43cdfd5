"""Property catalog views over the ontology rows, and the kind vocabulary.

Kinds are deliberately coarse: ``"bool"``, ``"int"``, ``"float"``,
``"str"``, ``"list"``.  ``"int"`` and ``"float"`` are mutually
compatible in comparisons (Cypher numeric semantics); everything else
must match exactly.  The linter reads the two views for LNT004 (a
property no dataset produces) and LNT009 (a literal whose kind cannot
match the stored values).
"""

from __future__ import annotations

from repro.ontology.entities import ENTITIES
from repro.ontology.relationships import RELATIONSHIPS

#: label -> {property name -> kind} for every ontology entity.
NODE_PROPERTIES: dict[str, dict[str, str]] = {
    label: definition.properties for label, definition in ENTITIES.items()
}

#: relationship type -> {property name -> kind}, provenance included.
RELATIONSHIP_PROPERTIES: dict[str, dict[str, str]] = {
    rel_type: definition.properties for rel_type, definition in RELATIONSHIPS.items()
}

_KINDS = {bool: "bool", int: "int", float: "float", str: "str", list: "list"}


def value_kind(value: object) -> str | None:
    """The catalog kind of a stored or literal value; None if it has none."""
    return _KINDS.get(type(value))
