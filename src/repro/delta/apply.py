"""Atomic application of a :class:`DeltaBatch` to a live GraphStore.

:func:`apply_delta` runs the whole batch inside one
:meth:`GraphStore.batch_mutation` scope: readers are excluded for the
duration (in-flight queries holding the read lock finish on the old
state first), every index, label set and per-(type, direction)
adjacency partition is maintained in place by the store's own mutators,
and the version bumps exactly once — so generation-keyed result and
procedure caches invalidate once per batch, not once per record.

Before any mutation, the batch is validated against the store: every
delete/update target must resolve and every node create must be fresh,
simulated in record order so a delete-then-recreate of the same
identity passes.  A batch built against a different base therefore
fails *before* touching the store (:class:`DeltaApplyError`).  A
failure past that point (possible only with inconsistent inputs) leaves
the store partially updated — callers recover by reloading a full
snapshot, which is the watcher's documented fallback.

The returned :class:`DeltaApplyResult` carries per-group counts and the
store's own changelog of the batch, which
:func:`repro.delta.statistics.refresh_statistics` advances the planner
statistics from without rescanning the graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.delta.records import DeltaBatch, node_token, rel_token, validate_record
from repro.graphdb.errors import GraphError
from repro.graphdb.model import Node, Relationship
from repro.graphdb.store import ChangeEvent, GraphStore
from repro.ontology import DATASET_PROPERTY


class DeltaApplyError(RuntimeError):
    """A batch does not apply cleanly to this store (wrong base?)."""


@dataclass
class DeltaApplyResult:
    """What one batch-apply did, for telemetry and statistics refresh."""

    nodes_created: int = 0
    nodes_deleted: int = 0
    nodes_updated: int = 0
    relationships_created: int = 0
    relationships_deleted: int = 0
    relationships_updated: int = 0
    #: The mutations the batch caused, as the store logged them
    #: (:meth:`GraphStore.track_changes`).
    events: list[ChangeEvent] = field(default_factory=list)
    #: Store version after the batch (the single bump).
    version: int = 0

    def counts(self) -> dict[str, int]:
        return {
            "nodes_created": self.nodes_created,
            "nodes_deleted": self.nodes_deleted,
            "nodes_updated": self.nodes_updated,
            "relationships_created": self.relationships_created,
            "relationships_deleted": self.relationships_deleted,
            "relationships_updated": self.relationships_updated,
        }

    @property
    def total(self) -> int:
        return sum(self.counts().values())


def _resolve_node(store: GraphStore, key: Mapping[str, Any]) -> Node | None:
    nodes = store.find_nodes(key["label"], key["prop"], key["value"])
    return nodes[0] if nodes else None


def _resolve_rel(store: GraphStore, key: Mapping[str, Any]) -> Relationship | None:
    start = _resolve_node(store, key["start"])
    end = _resolve_node(store, key["end"])
    if start is None or end is None:
        return None
    dataset = key["dataset"]
    for rel in store.relationships_between(start.id, end.id, key["type"]):
        if str(rel.properties.get(DATASET_PROPERTY, "")) == dataset:
            return rel
    return None


def _prevalidate(store: GraphStore, records: Iterable[Mapping[str, Any]]) -> None:
    """Simulate the batch against the store without mutating it.

    ``alive`` overrides the store's view for identities the batch itself
    deletes or creates, so delete-then-recreate sequences validate.
    """
    node_alive: dict[tuple[str, str, Any], bool] = {}
    rel_alive: dict[tuple[Any, str, Any, str], bool] = {}

    def check_node(key: Mapping[str, Any]) -> bool:
        token = node_token(key)
        if token in node_alive:
            return node_alive[token]
        return _resolve_node(store, key) is not None

    def check_rel(key: Mapping[str, Any]) -> bool:
        token = rel_token(key)
        if token in rel_alive:
            return rel_alive[token]
        return _resolve_rel(store, key) is not None

    for position, record in enumerate(records):
        validate_record(record)
        op, entity, key = record["op"], record["entity"], record["key"]
        where = f"record {position} ({op} {entity})"
        if entity == "node":
            token = node_token(key)
            if op == "create":
                if check_node(key):
                    raise DeltaApplyError(f"{where}: node already exists: {key!r}")
                node_alive[token] = True
            elif not check_node(key):
                raise DeltaApplyError(f"{where}: no such node: {key!r}")
            elif op == "delete":
                node_alive[token] = False
                # Incident relationships die with the node.
                for incident, alive in list(rel_alive.items()):
                    if alive and token in (incident[0], incident[2]):
                        rel_alive[incident] = False
        else:
            if not check_node(key["start"]) or not check_node(key["end"]):
                raise DeltaApplyError(f"{where}: endpoint missing: {key!r}")
            token_r = rel_token(key)
            if op == "create":
                rel_alive[token_r] = True
            elif not check_rel(key):
                raise DeltaApplyError(f"{where}: no such relationship: {key!r}")
            elif op == "delete":
                rel_alive[token_r] = False


def apply_delta(store: GraphStore, batch: DeltaBatch) -> DeltaApplyResult:
    """Apply ``batch`` to ``store`` atomically under the write lock."""
    records = list(batch)
    result = DeltaApplyResult()
    with store.batch_mutation():
        _prevalidate(store, records)
        try:
            with store.track_changes() as result.events:
                for record in records:
                    _apply_record(store, record, result)
        except GraphError as exc:  # inconsistency past prevalidation
            raise DeltaApplyError(str(exc)) from exc
        result.version = store.version + 1  # the bump lands on scope exit
    return result


def _apply_record(
    store: GraphStore, record: Mapping[str, Any], result: DeltaApplyResult
) -> None:
    op, entity, key = record["op"], record["entity"], record["key"]
    if entity == "node":
        if op == "create":
            properties = dict(record.get("properties") or {})
            properties.setdefault(key["prop"], key["value"])
            labels = set(record.get("labels") or ())
            labels.add(key["label"])
            store.create_node(labels, properties)
            result.nodes_created += 1
            return
        node = _resolve_node(store, key)
        if node is None:
            raise DeltaApplyError(f"no such node: {key!r}")
        if op == "delete":
            result.relationships_deleted += store.degree(node.id)
            store.delete_node(node.id, detach=True)
            result.nodes_deleted += 1
        else:
            changes = record.get("changes") or {}
            if changes:
                store.update_node(
                    node.id, {prop: pair[1] for prop, pair in changes.items()}
                )
            for label in record.get("add_labels") or ():
                store.add_label(node.id, label)
            result.nodes_updated += 1
        return
    if op == "create":
        start = _resolve_node(store, key["start"])
        end = _resolve_node(store, key["end"])
        if start is None or end is None:
            raise DeltaApplyError(f"endpoint missing for {key!r}")
        properties = dict(record.get("properties") or {})
        if key["dataset"]:
            properties.setdefault(DATASET_PROPERTY, key["dataset"])
        store.create_relationship(start.id, key["type"], end.id, properties)
        result.relationships_created += 1
        return
    rel = _resolve_rel(store, key)
    if rel is None:
        raise DeltaApplyError(f"no such relationship: {key!r}")
    if op == "delete":
        store.delete_relationship(rel.id)
        result.relationships_deleted += 1
    else:
        changes = record.get("changes") or {}
        store.update_relationship(
            rel.id, {prop: pair[1] for prop, pair in changes.items()}
        )
        result.relationships_updated += 1
