"""Graph snapshots: the reproduction's analogue of IYP's weekly dumps.

:func:`save_snapshot` writes the framed binary IYP2 format of
:mod:`repro.archive.format` (interned strings, per-section checksums,
a streaming reader).  Dumps written before that format existed are
gzip-compressed JSON documents (**v1**); :func:`load_snapshot` sniffs
the leading magic bytes and still opens them, so every CLI command and
the archive manager accept old and new dumps alike, and ``repro archive
add old.json.gz`` re-archives one as IYP2.  Loading a snapshot
reconstructs a store that is observationally identical (ids included),
mirroring how IYP users download a dump and run a local instance.

:func:`snapshot_dict` / :func:`store_from_dict` are the v1 document
model; the test suite uses them as the store-equality reference.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Any

from repro.graphdb.store import GraphStore

FORMAT_VERSION = 1

#: Leading bytes of a gzip stream (a v1 snapshot).
GZIP_MAGIC = b"\x1f\x8b"


def snapshot_dict(store: GraphStore) -> dict[str, Any]:
    """Serialize a store to a plain dictionary.

    Holds the store's read lock so a snapshot taken while a writer is
    active (e.g. through the query service) is still consistent.
    """
    with store.read_lock():
        return {
            "format_version": FORMAT_VERSION,
            "nodes": [
                {
                    "id": node.id,
                    "labels": sorted(node.labels),
                    "properties": node.properties,
                }
                for node in store.iter_nodes()
            ],
            "relationships": [
                {
                    "id": rel.id,
                    "type": rel.type,
                    "start": rel.start_id,
                    "end": rel.end_id,
                    "properties": rel.properties,
                }
                for rel in store.iter_relationships()
            ],
            "indexes": store.indexes(),
            "constraints": store.constraints(),
        }


def store_from_dict(data: dict[str, Any]) -> GraphStore:
    """Rebuild a store from :func:`snapshot_dict` output.

    Entity ids are preserved exactly — a store that has seen deletions
    (and therefore has gaps in its id sequence) reloads with the same
    ids, keeping the loaded instance observationally identical.  Indexes
    and constraints are restored *before* nodes so a server answering
    from a snapshot gets index-seek query plans from the first request.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot format version {version!r}")
    store = GraphStore()
    for label, prop in data.get("indexes", ()):
        store.create_index(label, prop)
    for entry in sorted(data["nodes"], key=lambda item: item["id"]):
        store._next_node_id = entry["id"]
        node = store.create_node(entry["labels"], entry["properties"])
        assert node.id == entry["id"]
    for entry in sorted(data["relationships"], key=lambda item: item["id"]):
        store._next_rel_id = entry["id"]
        rel = store.create_relationship(
            entry["start"], entry["type"], entry["end"], entry["properties"]
        )
        assert rel.id == entry["id"]
    for label, prop in data.get("constraints", ()):
        store.create_unique_constraint(label, prop)
    return store


def save_snapshot(store: GraphStore, path: str | Path) -> None:
    """Write an IYP2 snapshot of the store to ``path``.

    The bytes are deterministic for a given store state (the archive's
    checksum dedup relies on it).
    """
    from repro.archive.format import save_snapshot_v2

    save_snapshot_v2(store, path)


def load_snapshot(path: str | Path) -> GraphStore:
    """Load a snapshot written in either format, sniffing the magic."""
    path = Path(path)
    with open(path, "rb") as handle:
        magic = handle.read(4)
    if magic[:2] == GZIP_MAGIC:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            return store_from_dict(json.load(handle))
    from repro.archive.format import MAGIC, SnapshotFormatError, load_snapshot_v2

    if magic == MAGIC:
        return load_snapshot_v2(path)
    raise SnapshotFormatError(
        f"{path}: neither a gzip-JSON (v1) nor a binary (v2) snapshot"
    )
