"""The IYP ontology: the one place that knows the schema's shape.

Mirrors Tables 6 and 7 of the paper: 24 entity (node) types and 24
relationship types, one row each.  An :class:`EntityDef` row carries the
identifying key property, its value kind and canonical form, and the
other properties written on that label; a :class:`RelationshipDef` row
carries the permitted endpoint pairs (``permits``) and the type-specific
properties; :data:`PROVENANCE` lists the ``reference_*`` properties
every imported link carries.  :func:`node_identity` and
:func:`rel_identity` say what makes two stored elements the same entity.
Everything else — the IYP facade, snapshot diffs and deltas, the store
validator, the query linter, the generated documentation — looks these
rows up instead of keeping a table of its own.
"""

from repro.ontology.entities import ENTITIES, EntityDef, entity, node_identity
from repro.ontology.properties import (
    NODE_PROPERTIES,
    RELATIONSHIP_PROPERTIES,
    value_kind,
)
from repro.ontology.relationships import (
    DATASET_PROPERTY,
    PROVENANCE,
    REFERENCE_PROPERTIES,
    RELATIONSHIPS,
    RelationshipDef,
    rel_identity,
    relationship,
)

__all__ = [
    "DATASET_PROPERTY",
    "ENTITIES",
    "EntityDef",
    "NODE_PROPERTIES",
    "PROVENANCE",
    "REFERENCE_PROPERTIES",
    "RELATIONSHIPS",
    "RELATIONSHIP_PROPERTIES",
    "RelationshipDef",
    "entity",
    "node_identity",
    "rel_identity",
    "relationship",
    "value_kind",
]
