"""Exceptions raised by the graph store."""

from __future__ import annotations


class GraphError(Exception):
    """Base class for all graph-store errors."""


class NoSuchNodeError(GraphError):
    """Raised when a node id does not exist in the store."""


class NoSuchRelationshipError(GraphError):
    """Raised when a relationship id does not exist in the store."""


class ConstraintViolationError(GraphError):
    """Raised when a write violates a uniqueness constraint."""


class DanglingEndpointError(GraphError):
    """Raised by bulk loaders for a relationship whose endpoint id does
    not exist in the node records.

    Carries the position of the offending record so a corrupted dump can
    be pinpointed instead of surfacing later as a ``KeyError`` in the
    middle of a query.
    """

    def __init__(
        self, position: int, rel_id: int, endpoint: str, node_id: int
    ) -> None:
        self.position = position
        self.rel_id = rel_id
        self.endpoint = endpoint
        self.node_id = node_id
        super().__init__(
            f"relationship record #{position} (id {rel_id}): "
            f"{endpoint} node {node_id} does not exist"
        )


class ReadOnlyStoreError(GraphError):
    """Raised when a mutating operation reaches a read-only backend
    (e.g. the columnar store, whose arrays may be shared between
    processes)."""
