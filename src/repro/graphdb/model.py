"""Graph data model: nodes, relationships, traversal directions.

Nodes carry a set of labels (IYP entity types, e.g. ``AS``, ``Prefix``)
and a property map.  Relationships carry a single type (IYP relationship
types, e.g. ``ORIGINATE``) and a property map; per the paper's design the
same semantic link imported from two datasets yields two parallel
relationships distinguished by their ``reference_name`` property.
"""

from __future__ import annotations

import enum
from typing import Any, Mapping

# Property values permitted in the store.  Lists are allowed (Cypher
# COLLECT round-trips through snapshots) but only scalars are indexable.
SCALAR_TYPES = (str, int, float, bool)


class Direction(enum.Enum):
    """Traversal direction relative to an anchor node."""

    OUT = "out"
    IN = "in"
    BOTH = "both"


def check_property_value(value: Any) -> None:
    """Validate a property value; raises TypeError for unsupported types."""
    if value is None or isinstance(value, SCALAR_TYPES):
        return
    if isinstance(value, (list, tuple)):
        for item in value:
            if not (item is None or isinstance(item, SCALAR_TYPES)):
                raise TypeError(f"unsupported list element {item!r} in property value")
        return
    raise TypeError(f"unsupported property value type {type(value).__name__}")


class Node:
    """A graph node. Instances are owned by their :class:`GraphStore`."""

    __slots__ = ("id", "labels", "properties")

    def __init__(
        self, node_id: int, labels: frozenset[str], properties: dict[str, Any]
    ) -> None:
        self.id = node_id
        self.labels = labels
        self.properties = properties

    def get(self, key: str, default: Any = None) -> Any:
        """Return a property value, or ``default`` when absent."""
        return self.properties.get(key, default)

    def has_label(self, label: str) -> bool:
        """Return True when the node carries ``label``."""
        return label in self.labels

    def __repr__(self) -> str:
        labels = ":".join(sorted(self.labels))
        return f"Node(id={self.id}, labels=:{labels}, properties={self.properties!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Node) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("node", self.id))


class Relationship:
    """A directed, typed edge between two nodes."""

    __slots__ = ("id", "type", "start_id", "end_id", "properties")

    def __init__(
        self,
        rel_id: int,
        rel_type: str,
        start_id: int,
        end_id: int,
        properties: dict[str, Any],
    ) -> None:
        self.id = rel_id
        self.type = rel_type
        self.start_id = start_id
        self.end_id = end_id
        self.properties = properties

    def get(self, key: str, default: Any = None) -> Any:
        """Return a property value, or ``default`` when absent."""
        return self.properties.get(key, default)

    def other_end(self, node_id: int) -> int:
        """Return the endpoint opposite ``node_id``."""
        return self.end_id if node_id == self.start_id else self.start_id

    def __repr__(self) -> str:
        return (
            f"Relationship(id={self.id}, type=:{self.type}, "
            f"{self.start_id}->{self.end_id}, properties={self.properties!r})"
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Relationship) and other.id == self.id

    def __hash__(self) -> int:
        return hash(("rel", self.id))


def freeze_properties(properties: Mapping[str, Any] | None) -> dict[str, Any]:
    """Validate and copy a property mapping (None values are dropped).

    Neo4j semantics: setting a property to null removes it, and absent
    properties read back as null.  Dropping Nones on write gives the same
    observable behaviour.
    """
    result: dict[str, Any] = {}
    if properties:
        for key, value in properties.items():
            if value is None:
                continue
            if not isinstance(value, SCALAR_TYPES):
                check_property_value(value)
                if isinstance(value, tuple):
                    value = list(value)
            result[key] = value
    return result
