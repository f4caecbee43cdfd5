"""The in-memory property-graph store.

Storage layout:

- nodes and relationships live in dicts keyed by integer id;
- a label index maps each label to the set of node ids carrying it;
- optional (label, property) hash indexes accelerate equality seeks and
  back uniqueness constraints — IYP creates one per entity identifier
  (``AS.asn``, ``Prefix.prefix``, ...);
- adjacency is kept per ``(node, direction, relationship type)``: each
  node maps each incident type to a list of relationship ids, so typed
  expansion reads exactly the edges of that type — O(degree-of-type)
  instead of O(total-degree) with a post-filter, which is the difference
  between touching 3 edges and 30,000 on a Tier-1 AS.  A per
  node-pair-and-type index serves MERGE.

Concurrency: the store carries a readers-writer lock (see
:mod:`repro.graphdb.rwlock`) and a monotonic mutation ``version``
counter.  Every mutating method takes the write lock and bumps the
version, so concurrent read queries can hold :meth:`GraphStore.read_lock`
for their whole execution and observe a consistent graph, while caches
keyed on ``(query, params, version)`` invalidate automatically on any
write.  Read accessors themselves take no lock — callers that need
isolation against writers wrap their work in ``read_lock()``.

The build's write path is :meth:`GraphStore.merge_nodes` and
:meth:`GraphStore.merge_relationships`: a whole column of datapoints
under one lock scope, one version bump and one batch of access-counter
records.  ``merge_node`` / ``merge_relationship`` are their one-row
forms, and creation goes through one ``_locked`` routine per entity
kind that ``create_node`` / ``create_relationship`` share.
"""

from __future__ import annotations

import gc
from collections import defaultdict
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

if TYPE_CHECKING:
    from repro.delta.apply import DeltaApplyResult
    from repro.delta.records import DeltaBatch

from repro.graphdb.errors import (
    ConstraintViolationError,
    DanglingEndpointError,
    NoSuchNodeError,
    NoSuchRelationshipError,
)
from repro.graphdb.model import (
    SCALAR_TYPES,
    Direction,
    Node,
    Relationship,
    check_property_value,
    freeze_properties,
)
from repro.concurrency import guarded_by
from repro.graphdb.rwlock import new_rwlock
from repro.obs.record import current_collector, record_access


def directional_count(out: int, inbound: int, loops: int, direction: Direction) -> int:
    """Combine per-direction incidence counts into one degree figure.

    Under ``Direction.BOTH`` a self-loop appears in both the outgoing
    and the incoming partition but is one relationship, so it is
    subtracted once.  :meth:`GraphStore.degree`,
    :meth:`GraphStore.degree_by_type` and the analytics degree
    histograms (:mod:`repro.analytics.measures`) all combine their raw
    counts through this helper, so the self-loop convention cannot
    diverge between them.
    """
    if direction is Direction.OUT:
        return out
    if direction is Direction.IN:
        return inbound
    return out + inbound - loops


@dataclass(frozen=True, slots=True)
class ChangeEvent:
    """One mutation observed while :meth:`GraphStore.track_changes` is active.

    ``kind`` is one of ``node_created`` / ``node_updated`` /
    ``node_deleted`` / ``label_added`` / ``rel_created`` /
    ``rel_updated`` / ``rel_deleted`` / ``rel_merged``.  Deletions carry
    before-images (labels/properties, and for relationships the type and
    endpoint ids) so a delta extractor can still identify the entity
    after it is gone; ``rel_merged`` marks a MERGE that matched an
    existing edge — no state changed, but incremental builds use it to
    tell "still asserted by this crawler" apart from "gone".
    """

    kind: str
    entity_id: int
    changes: Mapping[str, tuple[Any, Any]] | None = None
    labels: frozenset[str] | None = None
    properties: Mapping[str, Any] | None = None
    rel_type: str | None = None
    start_id: int | None = None
    end_id: int | None = None
    label: str | None = None


#: Event kinds that change graph *shape* (as opposed to property values).
STRUCTURAL_EVENT_KINDS = frozenset(
    {"node_created", "node_deleted", "label_added", "rel_created", "rel_deleted"}
)


class GraphStore:
    """An embedded label/property graph with hash indexes."""

    # The store's concurrency contract, checked by `repro check-concurrency`:
    # every internal map is mutated only under the write lock, while reads
    # are deliberately lock-free (callers needing isolation take read_lock()
    # for the whole query — see the module docstring).
    GUARDED_BY = {
        "_nodes": "write:_rwlock",
        "_relationships": "write:_rwlock",
        "_next_node_id": "write:_rwlock",
        "_next_rel_id": "write:_rwlock",
        "_label_index": "write:_rwlock",
        "_property_index": "write:_rwlock",
        "_unique_constraints": "write:_rwlock",
        "_outgoing": "write:_rwlock",
        "_incoming": "write:_rwlock",
        "_loop_counts": "write:_rwlock",
        "_edge_index": "write:_rwlock",
        "_rel_type_index": "write:_rwlock",
        "_version": "write:_rwlock",
        "_batch_depth": "write:_rwlock",
        "_changelog": "write:_rwlock",
    }

    def __init__(self) -> None:
        self._nodes: dict[int, Node] = {}
        self._relationships: dict[int, Relationship] = {}
        self._next_node_id = 0
        self._next_rel_id = 0
        self._label_index: dict[str, set[int]] = defaultdict(set)
        # (label, property) -> value -> set of node ids
        self._property_index: dict[tuple[str, str], dict[Any, set[int]]] = {}
        self._unique_constraints: set[tuple[str, str]] = set()
        # Type-partitioned adjacency: node id -> rel type -> [rel ids].
        self._outgoing: dict[int, dict[str, list[int]]] = defaultdict(dict)
        self._incoming: dict[int, dict[str, list[int]]] = defaultdict(dict)
        # Self-loop counts per node and type: a loop appears in both the
        # outgoing and incoming partitions but is one relationship.
        self._loop_counts: dict[int, dict[str, int]] = {}
        # (start, type, end) -> list of relationship ids, for MERGE
        self._edge_index: dict[tuple[int, str, int], list[int]] = defaultdict(list)
        self._rel_type_index: dict[str, set[int]] = defaultdict(set)
        self._rwlock = new_rwlock("GraphStore._rwlock")
        self._version = 0
        # Depth of nested batch_mutation() scopes: while > 0, per-op
        # version bumps are suppressed and the outermost exit bumps once.
        self._batch_depth = 0
        # Change tracking sink, active only inside track_changes().
        self._changelog: list[ChangeEvent] | None = None

    # ------------------------------------------------------------------
    # Concurrency
    # ------------------------------------------------------------------

    @property
    def backend_name(self) -> str:
        """Short backend identifier for /stats and ``repro info``."""
        return "dict"

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps on every write."""
        return self._version

    def read_lock(self) -> AbstractContextManager[None]:
        """Shared lock: many readers, excluded while a writer runs."""
        return self._rwlock.read()

    def write_lock(self) -> AbstractContextManager[None]:
        """Exclusive lock; reentrant for the owning thread."""
        return self._rwlock.write()

    @contextmanager
    def _mutation(self) -> Iterator[None]:
        """Write lock + version bump around one mutating operation."""
        with self._rwlock.write():
            yield
            self._bump()

    @guarded_by("_rwlock")
    def _bump(self) -> None:
        """Bump the version, unless a batch_mutation() scope is active."""
        if self._batch_depth == 0:
            self._version += 1

    @contextmanager
    def batch_mutation(self) -> Iterator[None]:
        """Write lock + exactly one version bump around many mutations.

        Version-keyed caches (query results, precomputed procedure rows)
        invalidate per version, so applying a thousand-record delta
        through individual mutators would thrash them a thousand times.
        Inside this scope the per-operation bumps are suppressed and the
        outermost exit bumps once — even when the scope fails midway, so
        a partially applied batch can never serve stale cache entries.
        """
        with self._rwlock.write():
            self._batch_depth += 1
            try:
                yield
            finally:
                self._batch_depth -= 1
                if self._batch_depth == 0:
                    self._version += 1

    @contextmanager
    def track_changes(self) -> Iterator[list[ChangeEvent]]:
        """Record every mutation into the yielded list while active.

        The incremental build path (:mod:`repro.delta.extract`) turns the
        event stream into a DeltaBatch in O(changes) — without cloning
        the store or diffing two full snapshots.  Tracking is exclusive:
        nesting raises ``RuntimeError``.
        """
        events: list[ChangeEvent] = []
        with self._rwlock.write():
            if self._changelog is not None:
                raise RuntimeError("change tracking is already active")
            self._changelog = events
        try:
            yield events
        finally:
            with self._rwlock.write():
                self._changelog = None

    @guarded_by("_rwlock")
    def _log_event(self, event: ChangeEvent) -> None:
        changelog = self._changelog
        if changelog is not None:
            changelog.append(event)

    def apply_delta(self, batch: "DeltaBatch") -> "DeltaApplyResult":
        """Atomically apply a delta batch; see :func:`repro.delta.apply.apply_delta`."""
        from repro.delta.apply import apply_delta

        return apply_delta(self, batch)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        """Number of nodes in the store."""
        return len(self._nodes)

    @property
    def relationship_count(self) -> int:
        """Number of relationships in the store."""
        return len(self._relationships)

    def label_counts(self) -> dict[str, int]:
        """Return node counts per label."""
        return {label: len(ids) for label, ids in self._label_index.items() if ids}

    def label_count(self, label: str) -> int:
        """Number of nodes carrying ``label``, without materializing them.

        The matcher's cost model probes label sizes constantly; this
        avoids both building node lists for mere estimates and counting
        those probes as label scans in profiles.
        """
        return len(self._label_index.get(label, ()))

    def relationship_type_counts(self) -> dict[str, int]:
        """Return relationship counts per type."""
        return {t: len(ids) for t, ids in self._rel_type_index.items() if ids}

    def degree(self, node_id: int, direction: Direction = Direction.BOTH) -> int:
        """Return the degree of a node in the given direction.

        Under ``Direction.BOTH`` a self-loop counts once, consistent
        with :meth:`relationships_of`, which yields it once.
        """
        self._require_node(node_id)
        out = sum(map(len, self._outgoing.get(node_id, {}).values()))
        inbound = sum(map(len, self._incoming.get(node_id, {}).values()))
        loops = sum(self._loop_counts.get(node_id, {}).values())
        return directional_count(out, inbound, loops, direction)

    def degree_by_type(
        self, node_id: int, rel_type: str, direction: Direction = Direction.BOTH
    ) -> int:
        """Degree restricted to one relationship type, without touching
        edges of other types (the planner's expansion estimate)."""
        self._require_node(node_id)
        out = len(self._outgoing.get(node_id, {}).get(rel_type, ()))
        inbound = len(self._incoming.get(node_id, {}).get(rel_type, ()))
        loops = self._loop_counts.get(node_id, {}).get(rel_type, 0)
        return directional_count(out, inbound, loops, direction)

    # ------------------------------------------------------------------
    # Bulk accessors (the backend-neutral seam the analytics layer and
    # planner statistics iterate — see repro.graphdb.interface)
    # ------------------------------------------------------------------

    def node_ids(self) -> Iterable[int]:
        """Every node id, without materializing nodes."""
        return self._nodes.keys()

    def label_ids(self, label: str) -> Iterable[int]:
        """Ids of the nodes carrying ``label`` (a live set: do not mutate)."""
        return self._label_index.get(label, ())

    def node_labels(self, node_id: int) -> frozenset[str]:
        """The label set of one node (shared frozenset, do not mutate)."""
        return self._require_node(node_id).labels

    def node_property(self, node_id: int, key: str) -> Any:
        """One property value of one node, or None when absent."""
        return self._require_node(node_id).properties.get(key)

    def iter_edges(
        self, rel_type: str | None = None
    ) -> Iterator[tuple[str, int, int]]:
        """Yield ``(rel_type, start_id, end_id)`` per relationship.

        The analytics edge-list primitive: component labelling, PageRank
        and betweenness all consume endpoints only, so no property dicts
        are touched.
        """
        if rel_type is None:
            for rel in self._relationships.values():
                yield rel.type, rel.start_id, rel.end_id
        else:
            relationships = self._relationships
            for rel_id in self._rel_type_index.get(rel_type, ()):
                rel = relationships[rel_id]
                yield rel.type, rel.start_id, rel.end_id

    def typed_degrees(self, node_id: int) -> dict[str, tuple[int, int, int]]:
        """``{rel_type: (out, in, loops)}`` for the types a node touches."""
        out_part = self._outgoing.get(node_id) or {}
        in_part = self._incoming.get(node_id) or {}
        loop_part = self._loop_counts.get(node_id) or {}
        result: dict[str, tuple[int, int, int]] = {}
        for rel_type in set(out_part) | set(in_part):
            result[rel_type] = (
                len(out_part.get(rel_type, ())),
                len(in_part.get(rel_type, ())),
                loop_part.get(rel_type, 0),
            )
        return result

    def memory_info(self) -> dict[str, int]:
        """Estimated heap footprint in bytes, by component.

        ``sys.getsizeof`` sums over the object graph: container shells
        plus per-entity property dicts and their scalar values.  Interned
        strings shared across entities are counted once per occurrence —
        this is an estimate for capacity planning, not an audit.
        """
        import sys

        def sized(value: Any) -> int:
            total = sys.getsizeof(value)
            if isinstance(value, dict):
                total += sum(sized(k) + sized(v) for k, v in value.items())
            elif isinstance(value, (list, tuple, set, frozenset)):
                total += sum(sized(item) for item in value)
            return total

        nodes = sum(
            sys.getsizeof(node) + sized(node.properties)
            for node in self._nodes.values()
        ) + sys.getsizeof(self._nodes)
        rels = sum(
            sys.getsizeof(rel) + sized(rel.properties)
            for rel in self._relationships.values()
        ) + sys.getsizeof(self._relationships)
        adjacency = sum(
            sized(partition)
            for mapping in (self._outgoing, self._incoming, self._loop_counts)
            for partition in mapping.values()
        ) + sized(self._edge_index)
        indexes = (
            sized(self._label_index)
            + sized(self._property_index)
            + sized(self._rel_type_index)
        )
        total = nodes + rels + adjacency + indexes
        return {
            "nodes_bytes": nodes,
            "relationships_bytes": rels,
            "adjacency_bytes": adjacency,
            "indexes_bytes": indexes,
            "total_bytes": total,
        }

    # ------------------------------------------------------------------
    # Bulk loading
    # ------------------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        nodes: Iterable[tuple[int, Iterable[str], dict[str, Any]]],
        relationships: Iterable[tuple[int, str, int, int, dict[str, Any]]],
        indexes: Iterable[tuple[str, str]] = (),
        constraints: Iterable[tuple[str, str]] = (),
    ) -> "GraphStore":
        """Construct a store directly from pre-validated records.

        This is the fast path behind the binary snapshot loader
        (:mod:`repro.archive.format`): instead of replaying one locked
        ``create_node``/``create_relationship`` call per entity, the
        internal maps are populated in bulk and the hash indexes built in
        a single pass afterwards.  Ids are trusted to be unique, but
        relationship endpoints are validated against the node records —
        a dangling endpoint raises :class:`DanglingEndpointError` with
        the offending record's position instead of surfacing later as a
        ``KeyError`` mid-query — and uniqueness constraints are
        re-checked against the finished indexes (a cheap scan over
        distinct values) so a corrupted dump cannot smuggle duplicates
        past a constraint.

        ``nodes`` yields ``(id, labels, properties)``; ``relationships``
        yields ``(id, type, start_id, end_id, properties)``.  Property
        dicts are taken by reference, not copied.

        The cyclic garbage collector is paused for the duration: the
        build allocates millions of long-lived containers and none of
        them form cycles, so letting gen-2 collections rescan the
        growing heap multiple times roughly doubles the load time for
        nothing.
        """
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            store = cls()
            node_map = store._nodes
            label_index = store._label_index
            for node_id, labels, props in nodes:
                node_map[node_id] = Node(node_id, frozenset(labels), props)
                for label in labels:
                    label_index[label].add(node_id)
            constraint_pairs = {tuple(pair) for pair in constraints}
            for label, prop in {*map(tuple, indexes), *constraint_pairs}:
                index: dict[Any, set[int]] = defaultdict(set)
                for node_id in label_index.get(label, ()):
                    value = node_map[node_id].properties.get(prop)
                    if _indexable(value):
                        index[value].add(node_id)
                store._property_index[(label, prop)] = index
            for label, prop in sorted(constraint_pairs):
                for value, ids in store._property_index[(label, prop)].items():
                    if len(ids) > 1:
                        raise ConstraintViolationError(
                            f"existing duplicates for :{label}({prop}={value!r})"
                        )
                store._unique_constraints.add((label, prop))
            rel_map = store._relationships
            outgoing, incoming = store._outgoing, store._incoming
            loop_counts = store._loop_counts
            edge_index, type_index = store._edge_index, store._rel_type_index
            for position, (rel_id, rel_type, start_id, end_id, props) in enumerate(
                relationships
            ):
                # Endpoint validation: a dangling endpoint admitted here
                # would otherwise surface later as a KeyError in the
                # middle of a query expansion.
                if start_id not in node_map:
                    raise DanglingEndpointError(position, rel_id, "start", start_id)
                if end_id not in node_map:
                    raise DanglingEndpointError(position, rel_id, "end", end_id)
                rel_map[rel_id] = Relationship(
                    rel_id, rel_type, start_id, end_id, props
                )
                outgoing[start_id].setdefault(rel_type, []).append(rel_id)
                incoming[end_id].setdefault(rel_type, []).append(rel_id)
                if start_id == end_id:
                    loops = loop_counts.setdefault(start_id, {})
                    loops[rel_type] = loops.get(rel_type, 0) + 1
                edge_index[(start_id, rel_type, end_id)].append(rel_id)
                type_index[rel_type].add(rel_id)
            store._next_node_id = max(node_map, default=-1) + 1
            store._next_rel_id = max(rel_map, default=-1) + 1
            return store
        finally:
            if gc_was_enabled:
                gc.enable()

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------

    def create_index(self, label: str, prop: str) -> None:
        """Create (idempotently) a hash index on (label, property)."""
        key = (label, prop)
        with self._rwlock.write():
            if key in self._property_index:
                return
            index: dict[Any, set[int]] = defaultdict(set)
            for node_id in self._label_index.get(label, ()):
                value = self._nodes[node_id].properties.get(prop)
                if _indexable(value):
                    index[value].add(node_id)
            self._property_index[key] = index
            self._bump()

    def create_unique_constraint(self, label: str, prop: str) -> None:
        """Create a uniqueness constraint (and backing index)."""
        with self._rwlock.write():
            self.create_index(label, prop)
            index = self._property_index[(label, prop)]
            for value, ids in index.items():
                if len(ids) > 1:
                    raise ConstraintViolationError(
                        f"existing duplicates for :{label}({prop}={value!r})"
                    )
            if (label, prop) not in self._unique_constraints:
                self._unique_constraints.add((label, prop))
                self._bump()

    def has_index(self, label: str, prop: str) -> bool:
        """Return True when an index exists on (label, property)."""
        return (label, prop) in self._property_index

    def indexes(self) -> list[tuple[str, str]]:
        """All (label, property) pairs carrying a hash index, sorted."""
        return sorted(self._property_index)

    def constraints(self) -> list[tuple[str, str]]:
        """All (label, property) uniqueness constraints, sorted."""
        return sorted(self._unique_constraints)

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------

    def create_node(
        self, labels: Iterable[str], properties: Mapping[str, Any] | None = None
    ) -> Node:
        """Create a node with the given labels and properties."""
        with self._mutation():
            node = self._create_node_locked(frozenset(labels), properties)
            record_access("node_created")
            return node

    @guarded_by("_rwlock")
    def _create_node_locked(
        self, labels: frozenset[str], properties: Mapping[str, Any] | None
    ) -> Node:
        """The one node-creation routine: validate, allocate, index, log."""
        self._rwlock.check_write_held()
        props = freeze_properties(properties)
        if self._unique_constraints:
            self._check_unique(labels, props, exclude_id=None)
        node = Node(self._next_node_id, labels, props)
        self._next_node_id += 1
        self._nodes[node.id] = node
        for label in labels:
            self._label_index[label].add(node.id)
            self._index_node_property_updates(label, node.id, props)
        if self._changelog is not None:
            self._log_event(ChangeEvent("node_created", node.id))
        return node

    def merge_nodes(
        self,
        label: str,
        key_prop: str,
        values: Iterable[Any],
        properties: Mapping[str, Any] | None = None,
        extra_labels: Iterable[str] = (),
    ) -> list[Node]:
        """Get-or-create one node per identifying value of a column.

        This implements IYP's canonical-identifier deduplication: the
        first request for ``(label, key_prop, value)`` creates the node,
        every later one — in this column or a later call — receives the
        existing node, with ``properties`` merged in and ``extra_labels``
        added.  The result is parallel to ``values``.

        The whole column costs one write-lock scope, one index check,
        one version bump and one batch of access-counter records, and
        holding the lock across seek-then-create is what keeps two
        concurrent merges of one identifier from both creating it.  The
        changelog reads as if each value had been merged by a call of
        its own, in column order; when a row raises, the rows before it
        stay applied and counted (see :meth:`batch_mutation`).
        """
        extra_labels = tuple(extra_labels)
        result: list[Node] = []
        seeks = scanned = merged = created = 0
        with self.batch_mutation():
            if (label, key_prop) not in self._property_index:
                self.create_index(label, key_prop)
            index = self._property_index[(label, key_prop)]
            nodes = self._nodes
            try:
                for value in values:
                    if _indexable(value):
                        seeks += 1
                        ids = index.get(value)
                        if ids:
                            scanned += len(ids)
                            node = nodes[min(ids)]
                        else:
                            node = None
                    else:  # a list-valued key: no index entry to seek
                        found = self.find_nodes(label, key_prop, value)
                        node = found[0] if found else None
                    if node is None:
                        props = dict(properties) if properties else {}
                        props[key_prop] = value
                        node = self._create_node_locked(
                            frozenset((label, *extra_labels)), props
                        )
                        created += 1
                    else:
                        merged += 1
                        if properties:
                            self._update_node_locked(node.id, properties)
                        for extra in extra_labels:
                            self._add_label_locked(node, extra)
                    result.append(node)
            finally:
                _record_batch(
                    ("index_seek", seeks),
                    ("nodes_scanned", scanned),
                    ("node_merged", merged),
                    ("node_created", created),
                )
        return result

    def merge_node(
        self,
        label: str,
        key_prop: str,
        key_value: Any,
        properties: Mapping[str, Any] | None = None,
        extra_labels: Iterable[str] = (),
    ) -> Node:
        """Get-or-create one node: a one-value :meth:`merge_nodes`."""
        return self.merge_nodes(
            label, key_prop, (key_value,), properties, extra_labels
        )[0]

    def get_node(self, node_id: int) -> Node:
        """Return the node with the given id."""
        return self._require_node(node_id)

    def has_node(self, node_id: int) -> bool:
        """Return True when the node id exists."""
        return node_id in self._nodes

    def nodes_with_label(self, label: str) -> list[Node]:
        """Return all nodes carrying ``label``, sorted by id.

        The sort makes unordered query output deterministic across runs
        (label-index sets carry no reliable order of their own).
        """
        collector = current_collector()
        if collector is not None:
            collector.record("label_scan")
        nodes = [self._nodes[i] for i in sorted(self._label_index.get(label, ()))]
        if nodes and collector is not None:
            collector.record("nodes_scanned", len(nodes))
        return nodes

    def iter_nodes(self) -> Iterator[Node]:
        """Yield every node in the store."""
        record_access("full_scan")
        return iter(self._nodes.values())

    def find_nodes(self, label: str, prop: str, value: Any) -> list[Node]:
        """Return nodes with ``label`` whose ``prop`` equals ``value``.

        Uses the hash index when one exists, otherwise scans the label.
        """
        collector = current_collector()
        index = self._property_index.get((label, prop))
        if index is not None and _indexable(value):
            if collector is not None:
                collector.record("index_seek")
            nodes = [self._nodes[i] for i in sorted(index.get(value, ()))]
        else:
            if collector is not None:
                collector.record("label_scan")
            nodes = [
                self._nodes[i]
                for i in sorted(self._label_index.get(label, ()))
                if self._nodes[i].properties.get(prop) == value
            ]
        if nodes and collector is not None:
            collector.record("nodes_scanned", len(nodes))
        return nodes

    def add_label(self, node_id: int, label: str) -> None:
        """Add a label to an existing node."""
        with self._rwlock.write():
            if self._add_label_locked(self._require_node(node_id), label):
                self._bump()

    @guarded_by("_rwlock")
    def _add_label_locked(self, node: Node, label: str) -> bool:
        """Add ``label`` unless the node carries it; True when added."""
        self._rwlock.check_write_held()
        if label in node.labels:
            return False
        node.labels = node.labels | {label}
        self._label_index[label].add(node.id)
        self._index_node_property_updates(label, node.id, node.properties)
        if self._changelog is not None:
            self._log_event(ChangeEvent("label_added", node.id, label=label))
        return True

    def update_node(self, node_id: int, properties: Mapping[str, Any]) -> None:
        """Merge properties into a node (None values delete the key)."""
        with self._mutation():
            self._update_node_locked(node_id, properties)

    @guarded_by("_rwlock")
    def _update_node_locked(self, node_id: int, properties: Mapping[str, Any]) -> None:
        self._rwlock.check_write_held()
        node = self._require_node(node_id)
        changed: dict[str, tuple[Any, Any]] = {}
        for key, value in properties.items():
            old = node.properties.get(key)
            if value is None:
                if key in node.properties:
                    del node.properties[key]
                    self._deindex_value(node, key, old)
                    changed[key] = (old, None)
                continue
            if not isinstance(value, SCALAR_TYPES):
                check_property_value(value)
                if isinstance(value, tuple):
                    value = list(value)
            if old == value and type(old) is type(value):
                continue
            self._check_unique(node.labels, {key: value}, exclude_id=node_id)
            self._deindex_value(node, key, old)
            node.properties[key] = value
            changed[key] = (old, value)
            for label in node.labels:
                self._index_node_property_updates(label, node_id, {key: value})
        if changed and self._changelog is not None:
            self._log_event(ChangeEvent("node_updated", node_id, changes=changed))

    def delete_node(self, node_id: int, detach: bool = False) -> None:
        """Delete a node; with ``detach`` also delete incident edges."""
        with self._mutation():
            node = self._require_node(node_id)
            incident = [
                rel_id
                for partition in (
                    self._outgoing.get(node_id, {}),
                    self._incoming.get(node_id, {}),
                )
                for ids in partition.values()
                for rel_id in ids
            ]
            if incident and not detach:
                raise ConstraintViolationError(
                    f"node {node_id} still has {len(incident)} relationship(s)"
                )
            for rel_id in set(incident):
                self.delete_relationship(rel_id)
            for label in node.labels:
                self._label_index[label].discard(node_id)
                for key, value in node.properties.items():
                    index = self._property_index.get((label, key))
                    if index is not None and _indexable(value):
                        index.get(value, set()).discard(node_id)
            self._outgoing.pop(node_id, None)
            self._incoming.pop(node_id, None)
            self._loop_counts.pop(node_id, None)
            del self._nodes[node_id]
            if self._changelog is not None:
                # Logged after the incident-edge deletions so the event
                # stream replays in a valid order, with before-images for
                # identity resolution after the node is gone.
                self._log_event(
                    ChangeEvent(
                        "node_deleted",
                        node_id,
                        labels=node.labels,
                        properties=dict(node.properties),
                    )
                )

    # ------------------------------------------------------------------
    # Relationship operations
    # ------------------------------------------------------------------

    def create_relationship(
        self,
        start_id: int,
        rel_type: str,
        end_id: int,
        properties: Mapping[str, Any] | None = None,
    ) -> Relationship:
        """Create a directed relationship between two existing nodes."""
        with self._mutation():
            rel = self._create_relationship_locked(
                start_id, rel_type, end_id, properties
            )
            record_access("rel_created")
            return rel

    @guarded_by("_rwlock")
    def _create_relationship_locked(
        self,
        start_id: int,
        rel_type: str,
        end_id: int,
        properties: Mapping[str, Any] | None,
    ) -> Relationship:
        """The one edge-creation routine: validate, allocate, index, log."""
        self._rwlock.check_write_held()
        self._require_node(start_id)
        self._require_node(end_id)
        rel = Relationship(
            self._next_rel_id, rel_type, start_id, end_id,
            freeze_properties(properties),
        )
        self._next_rel_id += 1
        self._relationships[rel.id] = rel
        self._outgoing[start_id].setdefault(rel_type, []).append(rel.id)
        self._incoming[end_id].setdefault(rel_type, []).append(rel.id)
        if start_id == end_id:
            loops = self._loop_counts.setdefault(start_id, {})
            loops[rel_type] = loops.get(rel_type, 0) + 1
        self._edge_index[(start_id, rel_type, end_id)].append(rel.id)
        self._rel_type_index[rel_type].add(rel.id)
        if self._changelog is not None:
            self._log_event(ChangeEvent("rel_created", rel.id))
        return rel

    def merge_relationships(
        self,
        rows: Iterable[tuple[int, str, int, Mapping[str, Any] | None]],
        match_props: Mapping[str, Any] | None = None,
    ) -> list[Relationship]:
        """Get-or-create one relationship per ``(start_id, type, end_id,
        properties)`` row; the result is parallel to ``rows``.

        When ``match_props`` is given, an existing edge matches only if it
        carries those exact property values — IYP uses ``reference_name``
        here so the same semantic link from two datasets stays distinct —
        and a created edge carries them too.  A row that matches logs
        ``rel_merged`` and has its ``properties`` merged in; when they
        are already equal nothing else happens.

        Cost and failure behaviour are those of :meth:`merge_nodes`: one
        lock scope, one version bump and one batch of access-counter
        records per call, a changelog identical to per-row calls in row
        order, and the rows before a failing one stay applied.
        """
        match = tuple(match_props.items()) if match_props else ()
        result: list[Relationship] = []
        merged = created = 0
        with self.batch_mutation():
            try:
                for start_id, rel_type, end_id, properties in rows:
                    rel = self._find_edge((start_id, rel_type, end_id), match)
                    if rel is None:
                        props = dict(properties) if properties else {}
                        props.update(match)
                        rel = self._create_relationship_locked(
                            start_id, rel_type, end_id, props
                        )
                        created += 1
                    else:
                        merged += 1
                        if self._changelog is not None:
                            self._log_event(ChangeEvent("rel_merged", rel.id))
                        if properties:
                            self._update_relationship_locked(rel, properties)
                    result.append(rel)
            finally:
                _record_batch(("rel_merged", merged), ("rel_created", created))
        return result

    def _find_edge(
        self, endpoints: tuple[int, str, int], match: tuple[tuple[str, Any], ...]
    ) -> Relationship | None:
        """The oldest ``(start_id, type, end_id)`` edge that carries every
        ``(property, value)`` pair of ``match``."""
        for rel_id in self._edge_index.get(endpoints, ()):
            rel = self._relationships[rel_id]
            for key, value in match:
                if rel.properties.get(key) != value:
                    break
            else:
                return rel
        return None

    def merge_relationship(
        self,
        start_id: int,
        rel_type: str,
        end_id: int,
        properties: Mapping[str, Any] | None = None,
        match_props: Mapping[str, Any] | None = None,
    ) -> Relationship:
        """Get-or-create one relationship: a one-row
        :meth:`merge_relationships`."""
        return self.merge_relationships(
            ((start_id, rel_type, end_id, properties),), match_props
        )[0]

    def get_relationship(self, rel_id: int) -> Relationship:
        """Return the relationship with the given id."""
        rel = self._relationships.get(rel_id)
        if rel is None:
            raise NoSuchRelationshipError(f"no relationship with id {rel_id}")
        return rel

    def iter_relationships(self) -> Iterator[Relationship]:
        """Yield every relationship in the store."""
        return iter(self._relationships.values())

    def relationships_of(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        rel_type: str | None = None,
    ) -> list[Relationship]:
        """Return relationships incident to a node.

        With ``rel_type`` the typed adjacency partition is read directly
        — O(degree-of-type), never touching edges of other types.
        ``Direction.BOTH`` deduplicates self-loops (an edge from a node
        to itself is returned once).
        """
        collector = current_collector()
        if collector is not None:
            collector.record("expand")
        self._require_node(node_id)
        relationships = self._relationships
        result: list[Relationship] = []
        if direction is not Direction.IN:
            for ids in self._buckets(self._outgoing, node_id, rel_type):
                result.extend([relationships[i] for i in ids])
        if direction is not Direction.OUT:
            dedupe = direction is Direction.BOTH
            for ids in self._buckets(self._incoming, node_id, rel_type):
                for rel_id in ids:
                    rel = relationships[rel_id]
                    if dedupe and rel.start_id == node_id:
                        continue  # self-loop already in the outgoing list
                    result.append(rel)
        if result and collector is not None:
            collector.record("rels_expanded", len(result))
        return result

    def expand_ids(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        rel_type: str | None = None,
    ) -> list[tuple[int, int]]:
        """``(relationship id, neighbour id)`` per incident relationship,
        in :meth:`relationships_of`'s order and with its ``expand`` /
        ``rels_expanded`` counters: the id-level expansion primitive."""
        collector = current_collector()
        if collector is not None:
            collector.record("expand")
        self._require_node(node_id)
        relationships = self._relationships
        result: list[tuple[int, int]] = []
        if direction is not Direction.IN:
            for ids in self._buckets(self._outgoing, node_id, rel_type):
                result.extend([(i, relationships[i].end_id) for i in ids])
        if direction is not Direction.OUT:
            dedupe = direction is Direction.BOTH
            for ids in self._buckets(self._incoming, node_id, rel_type):
                for rel_id in ids:
                    start = relationships[rel_id].start_id
                    if dedupe and start == node_id:
                        continue  # self-loop already in the outgoing list
                    result.append((rel_id, start))
        if result and collector is not None:
            collector.record("rels_expanded", len(result))
        return result

    @staticmethod
    def _buckets(
        side: dict[int, dict[str, list[int]]], node_id: int, rel_type: str | None
    ) -> Iterable[list[int]]:
        """One node's relationship-id lists on one side of the typed
        adjacency: the ``rel_type`` partition, or all of them."""
        partition = side.get(node_id)
        if not partition:
            return ()
        if rel_type is None:
            return partition.values()
        return (partition.get(rel_type, []),)

    def relationships_with_type(self, rel_type: str) -> list[Relationship]:
        """Return all relationships of the given type."""
        return [self._relationships[i] for i in self._rel_type_index.get(rel_type, ())]

    def relationships_between(
        self, start_id: int, end_id: int, rel_type: str | None = None
    ) -> list[Relationship]:
        """Return directed relationships from ``start_id`` to ``end_id``."""
        if rel_type is not None:
            ids = self._edge_index.get((start_id, rel_type, end_id), ())
            return [self._relationships[i] for i in ids]
        return [
            self._relationships[i]
            for ids in self._outgoing.get(start_id, {}).values()
            for i in ids
            if self._relationships[i].end_id == end_id
        ]

    def update_relationship(self, rel_id: int, properties: Mapping[str, Any]) -> None:
        """Merge properties into a relationship (None deletes the key).

        Writes that leave a value unchanged (same value, same type) are
        skipped, mirroring node updates — a re-run crawler MERGE-ing the
        same provenance properties produces no change events.
        """
        with self._mutation():
            self._update_relationship_locked(
                self.get_relationship(rel_id), properties
            )

    @guarded_by("_rwlock")
    def _update_relationship_locked(
        self, rel: Relationship, properties: Mapping[str, Any]
    ) -> None:
        self._rwlock.check_write_held()
        changed: dict[str, tuple[Any, Any]] = {}
        for key, value in properties.items():
            old = rel.properties.get(key)
            if value is None:
                if key in rel.properties:
                    del rel.properties[key]
                    changed[key] = (old, None)
                continue
            if not isinstance(value, SCALAR_TYPES):
                check_property_value(value)
                if isinstance(value, tuple):
                    value = list(value)
            if old == value and type(old) is type(value):
                continue
            rel.properties[key] = value
            changed[key] = (old, value)
        if changed and self._changelog is not None:
            self._log_event(ChangeEvent("rel_updated", rel.id, changes=changed))

    def delete_relationship(self, rel_id: int) -> None:
        """Delete a relationship."""
        with self._mutation():
            rel = self.get_relationship(rel_id)
            for partition, node_id in (
                (self._outgoing, rel.start_id),
                (self._incoming, rel.end_id),
            ):
                bucket = partition[node_id][rel.type]
                bucket.remove(rel_id)
                if not bucket:
                    del partition[node_id][rel.type]
            if rel.start_id == rel.end_id:
                loops = self._loop_counts[rel.start_id]
                loops[rel.type] -= 1
                if not loops[rel.type]:
                    del loops[rel.type]
                if not loops:
                    del self._loop_counts[rel.start_id]
            self._edge_index[(rel.start_id, rel.type, rel.end_id)].remove(rel_id)
            self._rel_type_index[rel.type].discard(rel_id)
            del self._relationships[rel_id]
            if self._changelog is not None:
                self._log_event(
                    ChangeEvent(
                        "rel_deleted",
                        rel_id,
                        properties=dict(rel.properties),
                        rel_type=rel.type,
                        start_id=rel.start_id,
                        end_id=rel.end_id,
                    )
                )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_node(self, node_id: int) -> Node:
        node = self._nodes.get(node_id)
        if node is None:
            raise NoSuchNodeError(f"no node with id {node_id}")
        return node

    def _index_node_property_updates(
        self, label: str, node_id: int, props: Mapping[str, Any]
    ) -> None:
        for key, value in props.items():
            index = self._property_index.get((label, key))
            if index is not None and _indexable(value):
                index[value].add(node_id)

    def _deindex_value(self, node: Node, key: str, old: Any) -> None:
        if old is None or not _indexable(old):
            return
        for label in node.labels:
            index = self._property_index.get((label, key))
            if index is not None:
                index.get(old, set()).discard(node.id)

    def _check_unique(
        self, labels: frozenset[str], props: Mapping[str, Any], exclude_id: int | None
    ) -> None:
        for label in labels:
            for key, value in props.items():
                if (label, key) not in self._unique_constraints:
                    continue
                for existing in self.find_nodes(label, key, value):
                    if existing.id != exclude_id:
                        raise ConstraintViolationError(
                            f"duplicate :{label}({key}={value!r})"
                        )


def _record_batch(*counts: tuple[str, int]) -> None:
    """Report a bulk call's access counters, one record per kind seen."""
    collector = current_collector()
    if collector is not None:
        for kind, count in counts:
            if count:
                collector.record(kind, count)


def _indexable(value: Any) -> bool:
    """Only scalar values participate in hash indexes."""
    return isinstance(value, (str, int, float, bool))
