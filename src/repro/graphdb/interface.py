"""The explicit store contract both graph backends implement.

Historically the dict-of-objects :class:`repro.graphdb.store.GraphStore`
*was* the contract: the Cypher engine, the matcher, the planner's
statistics, the analytics measures and the archive loader were all
written against whatever it happened to expose.  With a second backend
(:mod:`repro.columnar`) the contract needs a name, so this module pins
it as a :class:`typing.Protocol` in two layers:

:class:`GraphReadStore`
    Everything a *read-only* consumer needs: counts, lookups, typed
    adjacency, index metadata, the readers-writer lock surface, and the
    bulk accessors the analytics layer iterates (``node_ids``,
    ``iter_edges``, ``typed_degrees``, ...) and the matcher asks once
    per hop level (``expand_level``, ``having_labels``).  Each backend
    has one adjacency walk, ``expand_level``: ``expand_ids`` and
    ``relationships_of`` read it for one node.  The columnar backend
    implements exactly this and raises
    :class:`~repro.graphdb.errors.ReadOnlyStoreError` from the write
    surface.

:class:`GraphWriteStore`
    The mutating surface (``create_node``, ``merge_relationship``,
    ``delete_node``, ...) the Cypher write path uses.

``GraphStoreLike`` is the union alias most call sites want.  The
conformance suite (``tests/test_store_backends.py``) runs the same API
tests against every registered backend, so a method added here without
both implementations fails loudly.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import (
    Any,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.graphdb.model import Direction, Node, Relationship


@runtime_checkable
class GraphReadStore(Protocol):
    """The read surface shared by the dict and columnar backends."""

    # -- identity ------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Short backend identifier (``"dict"`` or ``"columnar"``)."""
        ...

    @property
    def version(self) -> int:
        """Monotonic mutation counter (fixed for read-only backends)."""
        ...

    # -- concurrency ---------------------------------------------------

    def read_lock(self) -> AbstractContextManager[None]: ...

    def write_lock(self) -> AbstractContextManager[None]: ...

    # -- statistics ----------------------------------------------------

    @property
    def node_count(self) -> int: ...

    @property
    def relationship_count(self) -> int: ...

    def label_counts(self) -> dict[str, int]: ...

    def label_count(self, label: str) -> int: ...

    def relationship_type_counts(self) -> dict[str, int]: ...

    def degree(self, node_id: int, direction: Direction = ...) -> int: ...

    def degree_by_type(
        self, node_id: int, rel_type: str, direction: Direction = ...
    ) -> int: ...

    # -- index metadata ------------------------------------------------

    def has_index(self, label: str, prop: str) -> bool: ...

    def indexes(self) -> list[tuple[str, str]]: ...

    def constraints(self) -> list[tuple[str, str]]: ...

    # -- node access ---------------------------------------------------

    def get_node(self, node_id: int) -> Node: ...

    def has_node(self, node_id: int) -> bool: ...

    def nodes_with_label(self, label: str) -> list[Node]: ...

    def iter_nodes(self) -> Iterator[Node]: ...

    def find_nodes(self, label: str, prop: str, value: Any) -> list[Node]: ...

    # -- relationship access -------------------------------------------

    def get_relationship(self, rel_id: int) -> Relationship: ...

    def iter_relationships(self) -> Iterator[Relationship]: ...

    def relationships_of(
        self,
        node_id: int,
        direction: Direction = ...,
        rel_type: str | None = ...,
    ) -> list[Relationship]: ...

    def relationships_with_type(self, rel_type: str) -> list[Relationship]: ...

    def relationships_between(
        self, start_id: int, end_id: int, rel_type: str | None = ...
    ) -> list[Relationship]: ...

    # -- bulk accessors (analytics / statistics) -----------------------
    # These exist so the vectorized measures never reach into a
    # backend's private maps: the dict backend answers from its indexes,
    # the columnar backend from its CSR arrays, and both avoid
    # materializing Node/Relationship objects.

    def node_ids(self) -> Iterable[int]:
        """Every node id (no materialization, no particular order)."""
        ...

    def label_ids(self, label: str) -> Iterable[int]:
        """Ids of the nodes carrying ``label`` (no materialization)."""
        ...

    def node_labels(self, node_id: int) -> frozenset[str]:
        """The label set of one node (shared, do not mutate)."""
        ...

    def node_property(self, node_id: int, key: str) -> Any:
        """One property value of one node, or None when absent."""
        ...

    def iter_edges(
        self, rel_type: str | None = ...
    ) -> Iterator[tuple[str, int, int]]:
        """Yield ``(rel_type, start_id, end_id)`` per relationship."""
        ...

    def typed_degrees(self, node_id: int) -> dict[str, tuple[int, int, int]]:
        """``{rel_type: (out, in, loops)}`` for the types a node touches."""
        ...

    def expand_ids(
        self,
        node_id: int,
        direction: Direction = ...,
        rel_type: str | None = ...,
    ) -> list[tuple[int, int]]:
        """``(relationship id, neighbour id)`` per incident relationship,
        in :meth:`relationships_of`'s order and with its counters: a
        one-node :meth:`expand_level` (BFS's primitive)."""
        ...

    def expand_level(
        self,
        node_ids: Sequence[int],
        direction: Direction = ...,
        rel_type: str | None = ...,
    ) -> list[list[tuple[int, int]]]:
        """One list per node of ``node_ids``, aligned with it, each
        exactly what :meth:`expand_ids` returns for that node; an
        ``expand`` counter per node and a ``rels_expanded`` per pair.
        The batch matcher asks once per hop level and type, not once
        per source row, so each backend pays its per-call set-up (array
        lookups, collector) once a level.  Nothing is materialized."""
        ...

    def having_labels(self, node_ids: Iterable[int], labels: Collection[str]) -> set[int]:
        """The ids among ``node_ids`` whose label set includes every one
        of ``labels``: :meth:`node_labels` ``.issuperset`` as one call
        per level (the columnar backend decides once per label shape)."""
        ...

    def memory_info(self) -> dict[str, int]:
        """Estimated memory footprint in bytes, by component."""
        ...


@runtime_checkable
class GraphWriteStore(GraphReadStore, Protocol):
    """The full read + write surface (the dict backend)."""

    def create_index(self, label: str, prop: str) -> None: ...

    def create_unique_constraint(self, label: str, prop: str) -> None: ...

    def create_node(
        self, labels: Iterable[str], properties: Mapping[str, Any] | None = ...
    ) -> Node: ...

    def merge_nodes(
        self,
        label: str,
        key_prop: str,
        values: Iterable[Any],
        properties: Mapping[str, Any] | None = ...,
        extra_labels: Iterable[str] = ...,
    ) -> list[Node]: ...

    def merge_node(
        self,
        label: str,
        key_prop: str,
        key_value: Any,
        properties: Mapping[str, Any] | None = ...,
        extra_labels: Iterable[str] = ...,
    ) -> Node: ...

    def add_label(self, node_id: int, label: str) -> None: ...

    def update_node(self, node_id: int, properties: Mapping[str, Any]) -> None: ...

    def delete_node(self, node_id: int, detach: bool = ...) -> None: ...

    def create_relationship(
        self,
        start_id: int,
        rel_type: str,
        end_id: int,
        properties: Mapping[str, Any] | None = ...,
    ) -> Relationship: ...

    def merge_relationships(
        self,
        rows: Iterable[tuple[int, str, int, Mapping[str, Any] | None]],
        match_props: Mapping[str, Any] | None = ...,
    ) -> list[Relationship]: ...

    def merge_relationship(
        self,
        start_id: int,
        rel_type: str,
        end_id: int,
        properties: Mapping[str, Any] | None = ...,
        match_props: Mapping[str, Any] | None = ...,
    ) -> Relationship: ...

    def update_relationship(
        self, rel_id: int, properties: Mapping[str, Any]
    ) -> None: ...

    def delete_relationship(self, rel_id: int) -> None: ...


#: The alias most call sites want: any store a query engine can serve.
GraphStoreLike = GraphReadStore
