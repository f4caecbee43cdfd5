"""Building :class:`~repro.delta.records.DeltaBatch`es.

Two constructors, one record format:

- :func:`delta_from_diff` turns a property-level
  :class:`~repro.core.diff.GraphDiff` between two full stores into an
  ordered batch — O(world), used by ``repro diff --format json`` and the
  fuzz suite, where both stores exist anyway.
- :func:`delta_from_changelog` turns the event stream recorded by
  :meth:`GraphStore.track_changes` into the same batch in O(changes) —
  the incremental build path, which never clones or re-scans the world.

Both address entities by ontology identity (see
:mod:`repro.delta.records`), so the batches are interchangeable.

Known limitations (raise :class:`~repro.delta.records.DeltaError` where
detectable): mutating an entity's *key* property or a relationship's
``reference_name`` changes its identity and cannot be expressed as an
update; diff-based batches cannot see label additions on surviving
nodes (``GraphDiff`` does not model them — the changelog path does).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.diff import (
    GraphDiff,
    NodeKey,
    RelKey,
    identity_index,
    property_changes,
    snapshot_diff,
)
from repro.delta.records import (
    DeltaBatch,
    DeltaError,
    node_key,
    node_token,
    record_order_key,
    rel_key,
    rel_token,
)
from repro.graphdb.store import ChangeEvent, GraphStore
from repro.ontology import DATASET_PROPERTY, ENTITIES, node_identity, rel_identity


def _node_key(identity: NodeKey) -> dict[str, Any]:
    label, value = identity
    return node_key(label, ENTITIES[label].key, value)


def _rel_key(identity: RelKey) -> dict[str, Any]:
    start, rel_type, end, dataset = identity
    return rel_key(_node_key(start), rel_type, _node_key(end), dataset)


def _pairs(changes: Mapping[str, tuple[Any, Any]]) -> dict[str, list[Any]]:
    return {prop: [before, after] for prop, (before, after)
            in sorted(changes.items())}


def _update(entity: str, key: dict[str, Any],
            changes: dict[str, list[Any]]) -> dict[str, Any]:
    """An update record.  What an identity rests on — a node's key
    property, a relationship's dataset name — cannot change in one."""
    pinned = key["prop"] if entity == "node" else DATASET_PROPERTY
    if pinned in changes:
        raise DeltaError(f"key property mutation ({pinned}) on {entity} {key!r} "
                         "cannot be expressed as a delta update")
    return {"op": "update", "entity": entity, "key": key, "changes": changes}


def delta_from_diff(
    old: GraphStore, new: GraphStore, diff: GraphDiff | None = None
) -> DeltaBatch:
    """Convert a snapshot diff into an ordered delta batch.

    ``diff`` defaults to ``snapshot_diff(old, new)``; pass one in when
    the caller already computed it.  Applying the result to ``old``
    yields a store identity-equivalent to ``new``.
    """
    if diff is None:
        diff = snapshot_diff(old, new)
    new_by_key, new_rels = identity_index(new)
    records: list[dict[str, Any]] = []
    for rkey in diff.relationships_removed:
        records.append({"op": "delete", "entity": "rel", "key": _rel_key(rkey)})
    for nkey in diff.nodes_removed:
        records.append({"op": "delete", "entity": "node",
                        "key": _node_key(nkey)})
    for nkey in diff.nodes_added:
        node = new_by_key[nkey]
        records.append({
            "op": "create",
            "entity": "node",
            "key": _node_key(nkey),
            "labels": sorted(node.labels),
            "properties": dict(node.properties),
        })
    for nkey, changes in diff.nodes_modified:
        records.append(_update("node", _node_key(nkey), _pairs(changes)))
    for rkey in diff.relationships_added:
        records.append({
            "op": "create",
            "entity": "rel",
            "key": _rel_key(rkey),
            "properties": dict(new_rels[rkey]),
        })
    for rkey, changes in diff.relationships_modified:
        records.append(_update("rel", _rel_key(rkey), _pairs(changes)))
    records.sort(key=record_order_key)
    return DeltaBatch(records=records)


def _rewind(properties: dict[str, Any],
            folded: Mapping[str, list[Any]] | None) -> dict[str, Any]:
    """Undo folded ``[before, after]`` updates, restoring window-start state."""
    if folded:
        for prop, pair in folded.items():
            if pair[0] is None:
                properties.pop(prop, None)
            else:
                properties[prop] = pair[0]
    return properties


def _fold(merged: dict[str, list[Any]],
          changes: Mapping[str, tuple[Any, Any]]) -> None:
    """Fold one update event into an entity's ``[first before, last after]``."""
    for prop, (before, after) in changes.items():
        if prop in merged:
            merged[prop][1] = after
        else:
            merged[prop] = [before, after]


def _net_changes(merged: Mapping[str, list[Any]]) -> dict[str, list[Any]]:
    """Drop round-trip no-ops (a value changed and changed back)."""
    return {
        prop: [before, after]
        for prop, (before, after) in sorted(merged.items())
        if before != after or type(before) is not type(after)
    }


def delta_from_changelog(
    store: GraphStore, events: Iterable[ChangeEvent]
) -> DeltaBatch:
    """Convert a tracked event stream into an ordered delta batch.

    ``store`` must be the live store the events were recorded against,
    *after* the tracked mutations ran: created entities read their final
    state from it, and surviving endpoints resolve their identity from
    it.  Per-entity coalescing means ephemeral entities (created then
    deleted inside the window) vanish, repeated updates collapse to one
    net change, and updates that round-trip back to the original value
    drop out entirely.
    """
    created_nodes: set[int] = set()
    deleted_nodes: dict[int, ChangeEvent] = {}
    node_changes: dict[int, dict[str, list[Any]]] = {}
    label_adds: dict[int, list[str]] = {}
    created_rels: set[int] = set()
    deleted_rels: dict[int, ChangeEvent] = {}
    rel_changes: dict[int, dict[str, list[Any]]] = {}
    # Updates folded before a delete, kept so a later recreate under the
    # same identity can rewind the delete-time before-image to the state
    # at the start of the window (what diff extraction compares against).
    pre_delete_node_changes: dict[int, dict[str, list[Any]]] = {}
    pre_delete_label_adds: dict[int, list[str]] = {}
    pre_delete_rel_changes: dict[int, dict[str, list[Any]]] = {}

    for event in events:
        kind, entity_id = event.kind, event.entity_id
        if kind == "node_created":
            created_nodes.add(entity_id)
        elif kind == "node_deleted":
            popped = node_changes.pop(entity_id, None)
            popped_labels = label_adds.pop(entity_id, None)
            if entity_id in created_nodes:
                created_nodes.discard(entity_id)
            else:
                deleted_nodes[entity_id] = event
                if popped:
                    pre_delete_node_changes[entity_id] = popped
                if popped_labels:
                    pre_delete_label_adds[entity_id] = popped_labels
        elif kind == "node_updated":
            if entity_id in created_nodes or event.changes is None:
                continue
            _fold(node_changes.setdefault(entity_id, {}), event.changes)
        elif kind == "label_added":
            if entity_id not in created_nodes and event.label is not None:
                adds = label_adds.setdefault(entity_id, [])
                if event.label not in adds:
                    adds.append(event.label)
        elif kind == "rel_created":
            created_rels.add(entity_id)
        elif kind == "rel_deleted":
            popped = rel_changes.pop(entity_id, None)
            if entity_id in created_rels:
                created_rels.discard(entity_id)
            else:
                deleted_rels[entity_id] = event
                if popped:
                    pre_delete_rel_changes[entity_id] = popped
        elif kind == "rel_updated":
            if entity_id in created_rels or event.changes is None:
                continue
            _fold(rel_changes.setdefault(entity_id, {}), event.changes)
        elif kind == "rel_merged":
            pass  # a MERGE hit: no state change
        else:
            raise DeltaError(f"unknown change event kind {kind!r}")

    def node_key_of(node_id: int) -> dict[str, Any]:
        image: Any = (  # the live node, else its delete-time before-image
            store.get_node(node_id) if store.has_node(node_id)
            else deleted_nodes.get(node_id)
        )
        if image is None or image.labels is None or image.properties is None:
            raise DeltaError(f"node {node_id} vanished without a before-image")
        identity = node_identity(image.labels, image.properties)
        if identity is None:
            raise DeltaError(f"node {node_id} has no ontology identity")
        return _node_key(identity)

    def rel_key_of(rel_type: str, start_id: int, end_id: int,
                   properties: Mapping[str, Any]) -> dict[str, Any]:
        return rel_key(*rel_identity(
            node_key_of(start_id), rel_type, node_key_of(end_id), properties))

    deleted_node_keys = {nid: node_key_of(nid) for nid in deleted_nodes}
    created_node_keys = {nid: node_key_of(nid) for nid in created_nodes}
    deleted_rel_keys: dict[int, dict[str, Any]] = {}
    for rel_id, event in deleted_rels.items():
        assert event.rel_type is not None
        assert event.start_id is not None and event.end_id is not None
        deleted_rel_keys[rel_id] = rel_key_of(
            event.rel_type, event.start_id, event.end_id, event.properties or {})
    created_rel_keys: dict[int, dict[str, Any]] = {}
    for rel_id in created_rels:
        rel = store.get_relationship(rel_id)
        created_rel_keys[rel_id] = rel_key_of(
            rel.type, rel.start_id, rel.end_id, rel.properties)

    # Canonicalize delete+create pairs under the same identity into
    # updates — that is how diff extraction, which only sees the
    # endpoints, reports a recreate.  Nodes collapse only when the label
    # set survives (a label change is not expressible as an update);
    # relationships always collapse (their dataset is part of the key).
    records: list[dict[str, Any]] = []
    paired_del_nodes: set[int] = set()
    paired_new_nodes: set[int] = set()
    del_node_idents = {node_token(k): nid for nid, k in deleted_node_keys.items()}
    for new_id, key in created_node_keys.items():
        old_id = del_node_idents.get(node_token(key))
        if old_id is None:
            continue
        before = deleted_nodes[old_id]
        node = store.get_node(new_id)
        before_props = _rewind(dict(before.properties or {}),
                               pre_delete_node_changes.get(old_id))
        before_labels = (set(before.labels or ())
                         - set(pre_delete_label_adds.get(old_id, ())))
        if before_labels != set(node.labels):
            continue
        paired_del_nodes.add(old_id)
        paired_new_nodes.add(new_id)
        changes = _pairs(property_changes(before_props, dict(node.properties)))
        if changes:
            records.append(_update("node", key, changes))
    paired_del_rels: set[int] = set()
    paired_new_rels: set[int] = set()
    del_rel_idents = {rel_token(k): rid for rid, k in deleted_rel_keys.items()}
    for new_id, key in created_rel_keys.items():
        old_id = del_rel_idents.get(rel_token(key))
        if old_id is None:
            continue
        paired_del_rels.add(old_id)
        paired_new_rels.add(new_id)
        before_props = _rewind(dict(deleted_rels[old_id].properties or {}),
                               pre_delete_rel_changes.get(old_id))
        changes = _pairs(property_changes(
            before_props, dict(store.get_relationship(new_id).properties)))
        if changes:
            records.append(_update("rel", key, changes))

    for rel_id, key in deleted_rel_keys.items():
        if rel_id in paired_del_rels:
            continue
        records.append({"op": "delete", "entity": "rel", "key": key})
    for node_id, key in deleted_node_keys.items():
        if node_id in paired_del_nodes:
            continue
        records.append({"op": "delete", "entity": "node", "key": key})
    for node_id, key in created_node_keys.items():
        if node_id in paired_new_nodes:
            continue
        node = store.get_node(node_id)
        records.append({
            "op": "create",
            "entity": "node",
            "key": key,
            "labels": sorted(node.labels),
            "properties": dict(node.properties),
        })
    update_ids = sorted(set(node_changes) | set(label_adds))
    for node_id in update_ids:
        changes = _net_changes(node_changes.get(node_id, {}))
        adds = label_adds.get(node_id, [])
        if not changes and not adds:
            continue
        record = _update("node", node_key_of(node_id), changes)
        if adds:
            record["add_labels"] = sorted(adds)
        records.append(record)
    for rel_id, key in created_rel_keys.items():
        if rel_id in paired_new_rels:
            continue
        records.append({
            "op": "create",
            "entity": "rel",
            "key": key,
            "properties": dict(store.get_relationship(rel_id).properties),
        })
    for rel_id, merged in rel_changes.items():
        changes = _net_changes(merged)
        if changes:
            rel = store.get_relationship(rel_id)
            records.append(_update("rel", rel_key_of(
                rel.type, rel.start_id, rel.end_id, rel.properties), changes))
    records.sort(key=record_order_key)
    return DeltaBatch(records=records)
