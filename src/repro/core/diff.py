"""Diffing two knowledge-graph snapshots.

The paper's Limitations section describes longitudinal analysis as
running multiple IYP instances and merging by hand.  A structural diff
is the first tool that workflow needs: it compares two stores by
*identity* (the ontology's key properties), not by internal node ids,
so two independently built snapshots are comparable.

Three kinds of change are reported: entities present on only one side
(added/removed), and entities present on both sides whose *properties*
changed (modified) — each modification carries the per-property
``(before, after)`` pairs, so a longitudinal run can tell "this AS got
renamed" from "this AS appeared".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Any, Iterable

from repro.graphdb.model import Node
from repro.graphdb.store import GraphStore
from repro.ontology import node_identity, rel_identity

NodeKey = tuple[str, Any]  # (label, identifying value)
RelKey = tuple[NodeKey, str, NodeKey, str]  # start, type, end, dataset

#: property name -> (before, after); absent sides are None.
PropChanges = dict[str, tuple[Any, Any]]


@dataclass
class GraphDiff:
    """Structural differences between two snapshots."""

    nodes_added: list[NodeKey] = field(default_factory=list)
    nodes_removed: list[NodeKey] = field(default_factory=list)
    relationships_added: list[RelKey] = field(default_factory=list)
    relationships_removed: list[RelKey] = field(default_factory=list)
    nodes_modified: list[tuple[NodeKey, PropChanges]] = field(default_factory=list)
    relationships_modified: list[tuple[RelKey, PropChanges]] = field(
        default_factory=list
    )

    @property
    def unchanged(self) -> bool:
        return not any(getattr(self, change.name) for change in fields(self))

    def summary(self) -> dict[str, dict[str, int]]:
        """Counts per label / relationship type."""

        def count(keys: Iterable[tuple], index: int) -> dict[str, int]:
            return dict(sorted(Counter(key[index] for key in keys).items()))

        return {
            "nodes_added": count(self.nodes_added, 0),
            "nodes_removed": count(self.nodes_removed, 0),
            "nodes_modified": count((key for key, _ in self.nodes_modified), 0),
            "relationships_added": count(self.relationships_added, 1),
            "relationships_removed": count(self.relationships_removed, 1),
            "relationships_modified": count(
                (key for key, _ in self.relationships_modified), 1
            ),
        }


def property_changes(
    old: dict[str, Any], new: dict[str, Any]
) -> PropChanges:
    """Per-key differences between two property maps.

    Mirrors the store's update semantics: a value counts as changed when
    it differs by equality *or* by type (``True`` vs ``1`` is a change).
    Keys present on one side only report ``None`` for the other.
    """
    changes: PropChanges = {}
    for key in old.keys() | new.keys():
        before, after = old.get(key), new.get(key)
        if before != after or type(before) is not type(after):
            changes[key] = (before, after)
    return changes


def identity_index(
    store: GraphStore,
) -> tuple[dict[NodeKey, Node], dict[RelKey, dict[str, Any]]]:
    """A store's nodes and relationship properties by ontology identity
    (first holder of an identity wins; unidentifiable elements drop out)."""
    ids: dict[int, NodeKey] = {}
    nodes: dict[NodeKey, Node] = {}
    for node in store.iter_nodes():
        identity = node_identity(node.labels, node.properties)
        if identity is not None:
            ids[node.id] = identity
            nodes.setdefault(identity, node)
    rels: dict[RelKey, dict[str, Any]] = {}
    for rel in store.iter_relationships():
        start, end = ids.get(rel.start_id), ids.get(rel.end_id)
        if start is not None and end is not None:
            rels.setdefault(
                rel_identity(start, rel.type, end, rel.properties), rel.properties
            )
    return nodes, rels


def snapshot_diff(old: GraphStore, new: GraphStore) -> GraphDiff:
    """Compare two snapshots by entity identity."""
    old_nodes, old_rels = identity_index(old)
    new_nodes, new_rels = identity_index(new)
    diff = GraphDiff(
        nodes_added=sorted(new_nodes.keys() - old_nodes.keys(), key=repr),
        nodes_removed=sorted(old_nodes.keys() - new_nodes.keys(), key=repr),
        relationships_added=sorted(new_rels.keys() - old_rels.keys(), key=repr),
        relationships_removed=sorted(old_rels.keys() - new_rels.keys(), key=repr),
    )
    for key in sorted(old_nodes.keys() & new_nodes.keys(), key=repr):
        changes = property_changes(old_nodes[key].properties, new_nodes[key].properties)
        if changes:
            diff.nodes_modified.append((key, changes))
    for rkey in sorted(old_rels.keys() & new_rels.keys(), key=repr):
        changes = property_changes(old_rels[rkey], new_rels[rkey])
        if changes:
            diff.relationships_modified.append((rkey, changes))
    return diff
