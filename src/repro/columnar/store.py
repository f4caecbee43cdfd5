"""Read-only columnar graph backend over int-id arrays.

The dict backend (:class:`repro.graphdb.store.GraphStore`) stores one
Python object per node and relationship.  That is the right shape for a
mutable store, but it cannot be shared between processes and its memory
footprint is dominated by object headers.  This module stores the same
graph as a set of flat typed arrays — the live-engine version of the
IYP2 snapshot's columnar NODES/RELS/SHAPES layout:

Identity
    ``node_ids``/``rel_ids`` (int64, ascending).  When ids are dense a
    row lookup is one subtraction; otherwise a binary search.

Interned strings
    Every label, relationship type, and property key appears once in the
    ``strings`` table; rows reference label-set and key-tuple *shapes*
    (deduplicated tuples of string ids), exactly like the snapshot
    format's SHAPES section.

Adjacency
    A two-level CSR per direction: ``out_node_offsets`` maps a node row
    to its range of (type, rel-range) buckets, each bucket covering the
    relationship rows of one type, sorted.  Per-bucket self-loop counts
    make every degree question O(buckets) without touching edges.

Properties
    Columnar blobs: per-row JSON-encoded value tuples (in key-shape
    order) behind an offset array.  Nothing is materialized until a
    query actually touches an entity; materialized nodes/relationships
    are memoized per store so hot working sets behave like the dict
    backend.

Indexes
    Per-(label, prop) sorted key blobs with CSR postings, searched with
    a binary search over canonically encoded keys.  The encoding folds
    ``True == 1 == 1.0`` to one key, matching Python dict-index
    equality semantics.

The class implements :class:`repro.graphdb.interface.GraphReadStore`;
every mutating method raises
:class:`~repro.graphdb.errors.ReadOnlyStoreError` (the arrays may be
mapped read-only into other processes — see :mod:`repro.columnar.shm`).
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left
from collections import Counter
from contextlib import AbstractContextManager
from itertools import accumulate
from operator import itemgetter
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from repro.graphdb.errors import (
    ConstraintViolationError,
    DanglingEndpointError,
    NoSuchNodeError,
    NoSuchRelationshipError,
    ReadOnlyStoreError,
)
from repro.graphdb.interface import GraphReadStore
from repro.graphdb.model import Direction, Node, Relationship
from repro.graphdb.rwlock import new_rwlock
from repro.graphdb.store import directional_count
from repro.obs.record import current_collector, record_access

#: Array names and typecodes, in pack order.  ``q`` = int64, ``i`` =
#: int32, ``B`` = raw bytes (JSON blobs).  The tuple is the layout
#: contract between the builder, the store, and the shm packer.
ARRAY_SPECS: tuple[tuple[str, str], ...] = (
    ("node_ids", "q"),
    ("node_label_shape", "i"),
    ("node_key_shape", "i"),
    ("node_prop_offsets", "q"),
    ("node_prop_blob", "B"),
    ("label_offsets", "q"),
    ("label_members", "q"),
    ("rel_ids", "q"),
    ("rel_type", "i"),
    ("rel_start", "q"),
    ("rel_end", "q"),
    ("rel_key_shape", "i"),
    ("rel_prop_offsets", "q"),
    ("rel_prop_blob", "B"),
    ("rtype_offsets", "q"),
    ("rtype_rels", "q"),
    ("out_node_offsets", "q"),
    ("out_bucket_types", "i"),
    ("out_bucket_offsets", "q"),
    ("out_bucket_loops", "q"),
    ("out_adj", "q"),
    ("in_node_offsets", "q"),
    ("in_bucket_types", "i"),
    ("in_bucket_offsets", "q"),
    ("in_adj", "q"),
)


def _indexable(value: Any) -> bool:
    """Mirror of the dict backend's indexable-value predicate."""
    return isinstance(value, (str, int, float, bool))


def encode_index_key(value: Any) -> bytes:
    """Canonical byte encoding of an index key.

    Python dict indexes treat ``True``, ``1`` and ``1.0`` as the same
    key (hash equality); the sorted-blob index must collapse them the
    same way, so bools and integral floats fold to ints before
    encoding.  Strings and non-integral floats keep distinct prefixes
    so ``"1"`` never collides with ``1``.
    """
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f" + repr(value).encode("ascii")
    return b"s" + str(value).encode("utf-8")


#: Value types whose equal values always encode to equal JSON.  Floats
#: stay out (``0.0 == -0.0`` but they print differently), containers
#: too (``[1] == [True]``; lists are unhashable anyway).
_MEMO_TYPES = frozenset((str, int, bool, type(None)))

#: Reads one key order's values off a property map, as a tuple.
_ValuesIn = Callable[[dict[str, Any]], tuple[Any, ...]]


class _RowEncoder:
    """The strings, shapes and property blobs of one build, memoized for
    that build only: each label set and each key order is interned once,
    and each distinct property-value tuple is JSON-encoded once.

    ``strings`` and ``shapes`` map each entry to its id, in first-seen
    order.  The blob memo keys on ``(value types, values)`` and only
    covers tuples of :data:`_MEMO_TYPES`: ``True == 1`` and
    ``0.0 == -0.0`` hash alike, so a values-only key would write ``[1]``
    for ``[true]``.
    """

    def __init__(self) -> None:
        self.strings: dict[str, int] = {}
        self.shapes: dict[tuple[int, ...], int] = {}
        self._label_shapes: dict[tuple[str, ...], int] = {}
        self._key_shapes: dict[tuple[str, ...], tuple[int, _ValuesIn]] = {}
        self._blobs: dict[tuple[tuple[type, ...], tuple[Any, ...]], bytes] = {}
        self._json = json.JSONEncoder(separators=(",", ":"))

    def intern(self, value: str) -> int:
        return self.strings.setdefault(value, len(self.strings))

    def shape(self, strings: Iterable[str]) -> int:
        """The shape id of the string ids of ``strings``, in order."""
        sids = tuple(self.intern(value) for value in strings)
        return self.shapes.setdefault(sids, len(self.shapes))

    def label_shape(self, labels: tuple[str, ...]) -> int:
        """A label set's shape: its string ids, ascending."""
        shape = self._label_shapes.get(labels)
        if shape is None:
            sids = tuple(sorted(self.intern(label) for label in labels))
            shape = self._label_shapes[labels] = self.shapes.setdefault(
                sids, len(self.shapes)
            )
        return shape

    def properties(self, props: dict[str, Any]) -> tuple[int, bytes]:
        """``(key shape id, blob)``: the values in sorted-key order."""
        order = tuple(props)
        entry = self._key_shapes.get(order)
        if entry is None:
            keys = sorted(props)
            # itemgetter returns a bare value for one key.
            values_in: _ValuesIn = (
                itemgetter(*keys)
                if len(keys) > 1
                else lambda props: tuple(props[key] for key in keys)
            )
            entry = self._key_shapes[order] = (self.shape(keys), values_in)
        shape, values_in = entry
        values = values_in(props)
        if not values:
            return shape, b""
        types = tuple(map(type, values))
        if not _MEMO_TYPES.issuperset(types):
            return shape, self._json.encode(values).encode("utf-8")
        blob = self._blobs.get((types, values))
        if blob is None:
            blob = self._blobs[(types, values)] = self._json.encode(values).encode(
                "utf-8"
            )
        return shape, blob


def _csr(
    ends: list[int],
    rel_types: list[int],
    type_count: int,
    n: int,
    loops: Counter[int] | None,
) -> dict[str, Iterable[int]]:
    """One side of the two-level CSR adjacency, given each relationship
    row's node row on that side and its type index.

    A bucket is one (node row, type) pair, keyed ``row * type_count +
    type``: the sorted distinct keys are the buckets, and a stable sort
    of the relationship rows by key is the adjacency, each bucket's rows
    still ascending.  ``loops`` counts self-loops per key (out side only).
    """
    keys = [end * type_count + tidx for end, tidx in zip(ends, rel_types, strict=True)]
    sizes = Counter(keys)
    buckets = sorted(sizes)
    per_node = [0] * n
    for bucket in buckets:
        per_node[bucket // type_count] += 1
    csr: dict[str, Iterable[int]] = {
        "node_offsets": accumulate(per_node, initial=0),
        "bucket_types": [bucket % type_count for bucket in buckets],
        "bucket_offsets": accumulate(map(sizes.__getitem__, buckets), initial=0),
        "adj": sorted(range(len(keys)), key=keys.__getitem__),
    }
    if loops is not None:
        csr["bucket_loops"] = [loops.get(bucket, 0) for bucket in buckets]
    return csr


def build_columnar(
    nodes: Iterable[tuple[int, Iterable[str], dict[str, Any]]],
    relationships: Iterable[tuple[int, str, int, int, dict[str, Any]]],
    indexes: Iterable[tuple[str, str]] = (),
    constraints: Iterable[tuple[str, str]] = (),
    version: int = 0,
) -> tuple[dict[str, Any], dict[str, "array[int]"]]:
    """Build the (meta, arrays) pair from ``from_records``-shaped input.

    Performs the same loader validation as the dict backend: a
    relationship endpoint missing from the node records raises
    :class:`DanglingEndpointError` carrying the input position, and
    pre-existing duplicates under a uniqueness constraint raise
    :class:`ConstraintViolationError`.

    Every column is built as a plain list (or an iterator) and turned
    into its :data:`ARRAY_SPECS` array once, as soon as it is complete.
    """
    encoder = _RowEncoder()
    typecodes = dict(ARRAY_SPECS)
    columns: dict[str, "array[int]"] = {}

    def fill(**lists: Any) -> None:
        for name, values in lists.items():
            columns[name] = array(typecodes[name], values)

    # ---- nodes: collect, validate, sort by id -----------------------
    node_records = list(nodes)
    node_records.sort(key=itemgetter(0))
    n = len(node_records)
    node_ids = [record[0] for record in node_records]
    row_of: dict[int, int] = {node_id: row for row, node_id in enumerate(node_ids)}

    label_shapes: list[int] = []
    key_shapes: list[int] = []
    blobs: list[bytes] = []
    label_rows: dict[str, list[int]] = {}
    for row, (_, labels, props) in enumerate(node_records):
        given = tuple(labels)
        label_shapes.append(encoder.label_shape(given))
        for label in given:
            label_rows.setdefault(label, []).append(row)
        shape, blob = encoder.properties(props)
        key_shapes.append(shape)
        blobs.append(blob)
    fill(
        node_ids=node_ids,
        node_label_shape=label_shapes,
        node_key_shape=key_shapes,
        node_prop_offsets=accumulate(map(len, blobs), initial=0),
        node_prop_blob=b"".join(blobs),
    )

    label_names = sorted(label_rows)
    label_offsets = [0]
    label_members: list[int] = []
    for label in label_names:
        label_members += label_rows[label]
        label_offsets.append(len(label_members))
    fill(label_offsets=label_offsets, label_members=label_members)

    # ---- property indexes (before rels: only nodes are indexed) -----
    constraint_pairs = {(str(a), str(b)) for a, b in constraints}
    index_pairs = sorted({(str(a), str(b)) for a, b in indexes} | constraint_pairs)
    index_arrays: dict[str, "array[int]"] = {}
    postings_by_slot: list[dict[bytes, list[int]]] = []
    for label, prop in index_pairs:
        postings: dict[bytes, list[int]] = {}
        for row in label_rows.get(label, ()):
            value = node_records[row][2].get(prop)
            if _indexable(value):
                postings.setdefault(encode_index_key(value), []).append(row)
        postings_by_slot.append(postings)
    for label, prop in sorted(constraint_pairs):
        postings = postings_by_slot[index_pairs.index((label, prop))]
        for key, rows in postings.items():
            if len(rows) > 1:
                raise ConstraintViolationError(
                    f"existing duplicates for :{label}({prop}) "
                    f"[key {key!r}, {len(rows)} nodes]"
                )
    for slot, postings in enumerate(postings_by_slot):
        key_offsets = array("q", [0])
        key_blob = bytearray()
        post_offsets = array("q", [0])
        post = array("q")
        for key in sorted(postings):
            key_blob.extend(key)
            key_offsets.append(len(key_blob))
            post.extend(postings[key])
            post_offsets.append(len(post))
        index_arrays[f"idx{slot}_key_offsets"] = key_offsets
        index_arrays[f"idx{slot}_key_blob"] = array("B", key_blob)
        index_arrays[f"idx{slot}_post_offsets"] = post_offsets
        index_arrays[f"idx{slot}_post"] = post

    # ---- relationships: validate endpoints at input position --------
    rel_records = []
    for position, record in enumerate(relationships):
        rel_id, rel_type, start_id, end_id, props = record
        if start_id not in row_of:
            raise DanglingEndpointError(position, rel_id, "start", start_id)
        if end_id not in row_of:
            raise DanglingEndpointError(position, rel_id, "end", end_id)
        rel_records.append(record)
    rel_records.sort(key=itemgetter(0))
    m = len(rel_records)
    rel_ids = [record[0] for record in rel_records]
    rel_start = [row_of[record[2]] for record in rel_records]
    rel_end = [row_of[record[3]] for record in rel_records]
    key_shapes = []
    blobs = []
    type_rows: dict[str, list[int]] = {}
    for row, (_, rel_type, _, _, props) in enumerate(rel_records):
        rows_of_type = type_rows.get(rel_type)
        if rows_of_type is None:
            encoder.intern(rel_type)
            rows_of_type = type_rows[rel_type] = []
        rows_of_type.append(row)
        shape, blob = encoder.properties(props)
        key_shapes.append(shape)
        blobs.append(blob)

    types = sorted(type_rows)
    rel_type_column = [0] * m
    rtype_offsets = [0]
    rtype_rels: list[int] = []
    for tidx, rel_type in enumerate(types):
        rows = type_rows[rel_type]
        for row in rows:
            rel_type_column[row] = tidx
        rtype_rels += rows
        rtype_offsets.append(len(rtype_rels))
    fill(
        rel_ids=rel_ids,
        rel_type=rel_type_column,
        rel_start=rel_start,
        rel_end=rel_end,
        rel_key_shape=key_shapes,
        rel_prop_offsets=accumulate(map(len, blobs), initial=0),
        rel_prop_blob=b"".join(blobs),
        rtype_offsets=rtype_offsets,
        rtype_rels=rtype_rels,
    )

    # ---- two-level CSR adjacency ------------------------------------
    loops = Counter(
        rel_start[row] * len(types) + rel_type_column[row]
        for row in range(m)
        if rel_start[row] == rel_end[row]
    )
    for side, ends in (("out", rel_start), ("in", rel_end)):
        csr = _csr(ends, rel_type_column, len(types), n, loops if side == "out" else None)
        fill(**{f"{side}_{name}": values for name, values in csr.items()})

    node_base = node_ids[0] if n and node_ids[-1] - node_ids[0] == n - 1 else None
    rel_base = rel_ids[0] if m and rel_ids[-1] - rel_ids[0] == m - 1 else None

    meta: dict[str, Any] = {
        "strings": list(encoder.strings),
        "shapes": [list(shape) for shape in encoder.shapes],
        "labels": label_names,
        "types": types,
        "index_slots": [list(pair) for pair in index_pairs],
        "constraints": sorted([list(pair) for pair in constraint_pairs]),
        "version": version,
        "node_count": n,
        "rel_count": m,
        "node_base": node_base,
        "rel_base": rel_base,
    }
    arrays = {name: columns[name] for name, _ in ARRAY_SPECS}
    arrays.update(index_arrays)
    return meta, arrays


class ColumnarGraphStore:
    """A read-only :class:`GraphReadStore` over columnar arrays.

    ``arrays`` values may be ``array.array`` objects (local build) or
    ``memoryview`` casts over a shared-memory segment (attached) — the
    access paths are identical.  The store keeps a reference to the
    backing ``shm`` object (if any) so the mapping outlives the
    manifest's name: queries in flight keep working even after the
    segment is unlinked by the publisher.
    """

    # Everything is assigned once in __init__ and read-only after; the
    # materialization memos are single-item dict ops (atomic under the
    # GIL) keyed by immutable rows, safe for concurrent readers.
    GUARDED_BY = {
        "_meta": "frozen",
        # Read-only after __init__ except for close(), which replaces
        # released views with empty arrays — single dict-item stores.
        "_arrays": "atomic",
        "_shm": "frozen",
        "_rwlock": "frozen",
        "_strings": "frozen",
        "_shapes": "frozen",
        "_labels": "frozen",
        "_types": "frozen",
        "_label_slot": "frozen",
        "_type_slot": "frozen",
        "_index_slot": "frozen",
        "_constraint_pairs": "frozen",
        "_version": "frozen",
        "_node_base": "frozen",
        "_rel_base": "frozen",
        "_node_cache": "atomic",
        "_rel_cache": "atomic",
        "_label_shape_cache": "atomic",
        "_key_shape_cache": "atomic",
    }

    def __init__(
        self,
        meta: Mapping[str, Any],
        arrays: Mapping[str, Any],
        shm: Any | None = None,
    ) -> None:
        self._meta = dict(meta)
        self._arrays = dict(arrays)
        self._shm = shm
        self._rwlock = new_rwlock("ColumnarGraphStore._rwlock")
        self._strings: list[str] = list(meta["strings"])
        self._shapes: list[list[int]] = [list(s) for s in meta["shapes"]]
        self._labels: list[str] = list(meta["labels"])
        self._types: list[str] = list(meta["types"])
        self._label_slot: dict[str, int] = {
            label: i for i, label in enumerate(self._labels)
        }
        self._type_slot: dict[str, int] = {
            rel_type: i for i, rel_type in enumerate(self._types)
        }
        self._index_slot: dict[tuple[str, str], int] = {
            (str(pair[0]), str(pair[1])): slot
            for slot, pair in enumerate(meta["index_slots"])
        }
        self._constraint_pairs: list[tuple[str, str]] = [
            (str(pair[0]), str(pair[1])) for pair in meta["constraints"]
        ]
        self._version = int(meta["version"])
        self._node_base: int | None = meta["node_base"]
        self._rel_base: int | None = meta["rel_base"]
        self._node_cache: dict[int, Node] = {}
        self._rel_cache: dict[int, Relationship] = {}
        self._label_shape_cache: dict[int, frozenset[str]] = {}
        self._key_shape_cache: dict[int, tuple[str, ...]] = {}

    # -- construction --------------------------------------------------

    @classmethod
    def from_records(
        cls,
        nodes: Iterable[tuple[int, Iterable[str], dict[str, Any]]],
        relationships: Iterable[tuple[int, str, int, int, dict[str, Any]]],
        indexes: Iterable[tuple[str, str]] = (),
        constraints: Iterable[tuple[str, str]] = (),
    ) -> "ColumnarGraphStore":
        """Build from the same record stream the dict backend consumes."""
        meta, arrays = build_columnar(nodes, relationships, indexes, constraints)
        return cls(meta, arrays)

    @classmethod
    def from_store(cls, store: GraphReadStore) -> "ColumnarGraphStore":
        """Convert any :class:`GraphReadStore` (typically the dict
        backend) into its columnar form."""
        meta, arrays = build_columnar(
            (
                (node.id, node.labels, node.properties)
                for node in store.iter_nodes()
            ),
            (
                (rel.id, rel.type, rel.start_id, rel.end_id, rel.properties)
                for rel in store.iter_relationships()
            ),
            indexes=store.indexes(),
            constraints=store.constraints(),
            version=store.version,
        )
        return cls(meta, arrays)

    def close(self) -> None:
        """Release array views and detach from shared memory (if any).

        After ``close()`` the store must not be used.  Required before a
        ``SharedMemory.close()`` can succeed — exported memoryviews pin
        the mapping.
        """
        self._node_cache.clear()
        self._rel_cache.clear()
        for name, buf in list(self._arrays.items()):
            if isinstance(buf, memoryview):
                buf.release()
            self._arrays[name] = array("q")
        if self._shm is not None:
            self._shm.close()

    # -- identity ------------------------------------------------------

    @property
    def backend_name(self) -> str:
        return "columnar"

    @property
    def version(self) -> int:
        """Fixed at build time: the backend is immutable."""
        return self._version

    # -- concurrency ---------------------------------------------------

    def read_lock(self) -> AbstractContextManager[None]:
        """Shared lock: the store never mutates, but hot-swap still
        acquires the write side to drain in-flight readers."""
        return self._rwlock.read()

    def write_lock(self) -> AbstractContextManager[None]:
        return self._rwlock.write()

    # -- row lookups ---------------------------------------------------

    def _node_row(self, node_id: int) -> int:
        ids = self._arrays["node_ids"]
        n = len(ids)
        if self._node_base is not None:
            row = node_id - self._node_base
            if 0 <= row < n:
                return row
            raise NoSuchNodeError(f"no node with id {node_id}")
        row = bisect_left(ids, node_id)
        if row < n and ids[row] == node_id:
            return row
        raise NoSuchNodeError(f"no node with id {node_id}")

    def _node_rows(self, node_ids: Sequence[int]) -> list[int]:
        """:meth:`_node_row` of each id, one subtraction apiece when ids
        are dense."""
        base, n = self._node_base, len(self._arrays["node_ids"])
        if base is not None:
            rows = [node_id - base for node_id in node_ids]
            if not rows or (min(rows) >= 0 and max(rows) < n):
                return rows
        return [self._node_row(node_id) for node_id in node_ids]

    def _rel_row(self, rel_id: int) -> int:
        ids = self._arrays["rel_ids"]
        m = len(ids)
        if self._rel_base is not None:
            row = rel_id - self._rel_base
            if 0 <= row < m:
                return row
            raise NoSuchRelationshipError(f"no relationship with id {rel_id}")
        row = bisect_left(ids, rel_id)
        if row < m and ids[row] == rel_id:
            return row
        raise NoSuchRelationshipError(f"no relationship with id {rel_id}")

    # -- materialization ----------------------------------------------

    def _shape_labels(self, shape_id: int) -> frozenset[str]:
        labels = self._label_shape_cache.get(shape_id)
        if labels is None:
            labels = frozenset(
                self._strings[sid] for sid in self._shapes[shape_id]
            )
            self._label_shape_cache[shape_id] = labels
        return labels

    def _shape_keys(self, shape_id: int) -> tuple[str, ...]:
        keys = self._key_shape_cache.get(shape_id)
        if keys is None:
            keys = tuple(self._strings[sid] for sid in self._shapes[shape_id])
            self._key_shape_cache[shape_id] = keys
        return keys

    def _decode_props(
        self, keys: tuple[str, ...], blob_name: str, offsets_name: str, row: int
    ) -> dict[str, Any]:
        if not keys:
            return {}
        offsets = self._arrays[offsets_name]
        start, end = offsets[row], offsets[row + 1]
        blob = self._arrays[blob_name]
        values = json.loads(bytes(blob[start:end]).decode("utf-8"))
        return dict(zip(keys, values, strict=True))

    def _node_at(self, row: int) -> Node:
        node = self._node_cache.get(row)
        if node is None:
            arrays = self._arrays
            node = Node(
                arrays["node_ids"][row],
                self._shape_labels(arrays["node_label_shape"][row]),
                self._decode_props(
                    self._shape_keys(arrays["node_key_shape"][row]),
                    "node_prop_blob",
                    "node_prop_offsets",
                    row,
                ),
            )
            self._node_cache[row] = node
        return node

    def _rel_at(self, row: int) -> Relationship:
        rel = self._rel_cache.get(row)
        if rel is None:
            arrays = self._arrays
            node_ids = arrays["node_ids"]
            rel = Relationship(
                arrays["rel_ids"][row],
                self._types[arrays["rel_type"][row]],
                node_ids[arrays["rel_start"][row]],
                node_ids[arrays["rel_end"][row]],
                self._decode_props(
                    self._shape_keys(arrays["rel_key_shape"][row]),
                    "rel_prop_blob",
                    "rel_prop_offsets",
                    row,
                ),
            )
            self._rel_cache[row] = rel
        return rel

    # -- statistics ----------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._arrays["node_ids"])

    @property
    def relationship_count(self) -> int:
        return len(self._arrays["rel_ids"])

    def label_counts(self) -> dict[str, int]:
        offsets = self._arrays["label_offsets"]
        return {
            label: offsets[i + 1] - offsets[i]
            for i, label in enumerate(self._labels)
        }

    def label_count(self, label: str) -> int:
        slot = self._label_slot.get(label)
        if slot is None:
            return 0
        offsets = self._arrays["label_offsets"]
        return int(offsets[slot + 1] - offsets[slot])

    def relationship_type_counts(self) -> dict[str, int]:
        offsets = self._arrays["rtype_offsets"]
        return {
            rel_type: offsets[i + 1] - offsets[i]
            for i, rel_type in enumerate(self._types)
        }

    def _bucket_range(self, side: str, row: int) -> tuple[int, int]:
        offsets = self._arrays[f"{side}_node_offsets"]
        return offsets[row], offsets[row + 1]

    def _direction_totals(self, row: int, rel_type: str | None) -> tuple[int, int, int]:
        """(out, in, loops) for one node row, optionally one type."""
        arrays = self._arrays
        tidx = -1
        if rel_type is not None:
            slot = self._type_slot.get(rel_type)
            if slot is None:
                return 0, 0, 0
            tidx = slot
        out = inbound = loops = 0
        lo, hi = self._bucket_range("out", row)
        types = arrays["out_bucket_types"]
        offsets = arrays["out_bucket_offsets"]
        loop_counts = arrays["out_bucket_loops"]
        for bucket in range(lo, hi):
            if rel_type is not None and types[bucket] != tidx:
                continue
            out += offsets[bucket + 1] - offsets[bucket]
            loops += loop_counts[bucket]
        lo, hi = self._bucket_range("in", row)
        types = arrays["in_bucket_types"]
        offsets = arrays["in_bucket_offsets"]
        for bucket in range(lo, hi):
            if rel_type is not None and types[bucket] != tidx:
                continue
            inbound += offsets[bucket + 1] - offsets[bucket]
        return out, inbound, loops

    def degree(self, node_id: int, direction: Direction = Direction.BOTH) -> int:
        row = self._node_row(node_id)
        out, inbound, loops = self._direction_totals(row, None)
        return directional_count(out, inbound, loops, direction)

    def degree_by_type(
        self, node_id: int, rel_type: str, direction: Direction = Direction.BOTH
    ) -> int:
        row = self._node_row(node_id)
        out, inbound, loops = self._direction_totals(row, rel_type)
        return directional_count(out, inbound, loops, direction)

    # -- index metadata ------------------------------------------------

    def has_index(self, label: str, prop: str) -> bool:
        return (label, prop) in self._index_slot

    def indexes(self) -> list[tuple[str, str]]:
        return sorted(self._index_slot)

    def constraints(self) -> list[tuple[str, str]]:
        return sorted(self._constraint_pairs)

    # -- node access ---------------------------------------------------

    def get_node(self, node_id: int) -> Node:
        return self._node_at(self._node_row(node_id))

    def has_node(self, node_id: int) -> bool:
        try:
            self._node_row(node_id)
        except NoSuchNodeError:
            return False
        return True

    def _label_rows(self, label: str) -> Any:
        slot = self._label_slot.get(label)
        if slot is None:
            return ()
        offsets = self._arrays["label_offsets"]
        return self._arrays["label_members"][offsets[slot] : offsets[slot + 1]]

    def nodes_with_label(self, label: str) -> list[Node]:
        """All nodes carrying ``label``, sorted by id (CSR members are
        stored in ascending row = ascending id order)."""
        collector = current_collector()
        if collector is not None:
            collector.record("label_scan")
        nodes = [self._node_at(row) for row in self._label_rows(label)]
        if nodes and collector is not None:
            collector.record("nodes_scanned", len(nodes))
        return nodes

    def iter_nodes(self) -> Iterator[Node]:
        record_access("full_scan")
        return (self._node_at(row) for row in range(self.node_count))

    def _index_seek_rows(self, slot: int, value: Any) -> Any:
        key = encode_index_key(value)
        key_offsets = self._arrays[f"idx{slot}_key_offsets"]
        key_blob = self._arrays[f"idx{slot}_key_blob"]
        lo, hi = 0, len(key_offsets) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            probe = bytes(key_blob[key_offsets[mid] : key_offsets[mid + 1]])
            if probe < key:
                lo = mid + 1
            else:
                hi = mid
        if lo >= len(key_offsets) - 1:
            return ()
        if bytes(key_blob[key_offsets[lo] : key_offsets[lo + 1]]) != key:
            return ()
        post_offsets = self._arrays[f"idx{slot}_post_offsets"]
        return self._arrays[f"idx{slot}_post"][
            post_offsets[lo] : post_offsets[lo + 1]
        ]

    def find_nodes(self, label: str, prop: str, value: Any) -> list[Node]:
        """Index-backed (binary search over the sorted key blob) when an
        index exists, otherwise a filtering label scan."""
        collector = current_collector()
        slot = self._index_slot.get((label, prop))
        if slot is not None and _indexable(value):
            if collector is not None:
                collector.record("index_seek")
            nodes = [self._node_at(row) for row in self._index_seek_rows(slot, value)]
        else:
            if collector is not None:
                collector.record("label_scan")
            nodes = [
                node
                for node in (self._node_at(row) for row in self._label_rows(label))
                if node.properties.get(prop) == value
            ]
        if nodes and collector is not None:
            collector.record("nodes_scanned", len(nodes))
        return nodes

    # -- relationship access -------------------------------------------

    def get_relationship(self, rel_id: int) -> Relationship:
        return self._rel_at(self._rel_row(rel_id))

    def iter_relationships(self) -> Iterator[Relationship]:
        return (self._rel_at(row) for row in range(self.relationship_count))

    def relationships_of(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        rel_type: str | None = None,
    ) -> list[Relationship]:
        return [
            self.get_relationship(r) for r, _ in self.expand_ids(node_id, direction, rel_type)
        ]

    def expand_ids(
        self,
        node_id: int,
        direction: Direction = Direction.BOTH,
        rel_type: str | None = None,
    ) -> list[tuple[int, int]]:
        """``relationships_of`` as ``(relationship id, neighbour id)``
        pairs: a one-node :meth:`expand_level`."""
        return self.expand_level((node_id,), direction, rel_type)[0]

    def expand_level(
        self,
        node_ids: Sequence[int],
        direction: Direction = Direction.BOTH,
        rel_type: str | None = None,
    ) -> list[list[tuple[int, int]]]:
        """Per node, its ``(relationship id, neighbour id)`` pairs read off
        the typed CSR, in the dict backend's order (outgoing, then
        incoming; a ``BOTH`` self-loop once, in the outgoing list) and
        with its counters.  The arrays are looked up once per call; a
        node's buckets are in type order, so a typed bucket is one
        bisection.  No relationship is decoded."""
        rows = self._node_rows(node_ids)
        if rows:
            record_access("expand", len(rows))
        arrays = self._arrays
        rel_ids, ids = arrays["rel_ids"], arrays["node_ids"]
        tidx = None if rel_type is None else self._type_slot.get(rel_type, -1)
        sides: list[tuple[str, Any, bool]] = []
        if direction is not Direction.IN:
            sides.append(("out", arrays["rel_end"], False))
        if direction is not Direction.OUT:
            sides.append(("in", arrays["rel_start"], direction is Direction.BOTH))
        level: list[list[tuple[int, int]]] = [[] for _ in rows]
        for side, other, dedupe in sides:
            node_offsets = arrays[f"{side}_node_offsets"]
            types = arrays[f"{side}_bucket_types"]
            offsets = arrays[f"{side}_bucket_offsets"]
            adj = arrays[f"{side}_adj"]
            for row, result in zip(rows, level, strict=True):
                lo, hi = node_offsets[row], node_offsets[row + 1]
                if tidx is not None:
                    lo = bisect_left(types, tidx, lo, hi)
                    if lo == hi or types[lo] != tidx:
                        continue
                    hi = lo + 1
                if dedupe:
                    result += [
                        (rel_ids[r], ids[o])
                        for r in adj[offsets[lo] : offsets[hi]]
                        if (o := other[r]) != row
                    ]
                else:
                    result += [
                        (rel_ids[r], ids[other[r]]) for r in adj[offsets[lo] : offsets[hi]]
                    ]
        pairs = sum(map(len, level))
        if pairs:
            record_access("rels_expanded", pairs)
        return level

    def having_labels(self, node_ids: Iterable[int], labels: Collection[str]) -> set[int]:
        """The ids among ``node_ids`` whose nodes carry every label,
        decided once per label shape."""
        ids = list(node_ids)
        shapes = self._arrays["node_label_shape"]
        verdicts: dict[int, bool] = {}
        kept: set[int] = set()
        for node_id, row in zip(ids, self._node_rows(ids), strict=True):
            shape = shapes[row]
            verdict = verdicts.get(shape)
            if verdict is None:
                verdict = verdicts[shape] = self._shape_labels(shape).issuperset(labels)
            if verdict:
                kept.add(node_id)
        return kept

    def relationships_with_type(self, rel_type: str) -> list[Relationship]:
        slot = self._type_slot.get(rel_type)
        if slot is None:
            return []
        offsets = self._arrays["rtype_offsets"]
        rows = self._arrays["rtype_rels"][offsets[slot] : offsets[slot + 1]]
        return [self._rel_at(row) for row in rows]

    def relationships_between(
        self, start_id: int, end_id: int, rel_type: str | None = None
    ) -> list[Relationship]:
        self._node_row(end_id)
        return [
            self.get_relationship(r)
            for r, other in self.expand_ids(start_id, Direction.OUT, rel_type)
            if other == end_id
        ]

    # -- bulk accessors (analytics / statistics) -----------------------

    def node_ids(self) -> Iterable[int]:
        return self._arrays["node_ids"]

    def label_ids(self, label: str) -> Iterable[int]:
        node_ids = self._arrays["node_ids"]
        return [node_ids[row] for row in self._label_rows(label)]

    def node_labels(self, node_id: int) -> frozenset[str]:
        row = self._node_row(node_id)
        return self._shape_labels(self._arrays["node_label_shape"][row])

    def node_property(self, node_id: int, key: str) -> Any:
        return self._node_at(self._node_row(node_id)).properties.get(key)

    def iter_edges(
        self, rel_type: str | None = None
    ) -> Iterator[tuple[str, int, int]]:
        arrays = self._arrays
        node_ids = arrays["node_ids"]
        rel_start = arrays["rel_start"]
        rel_end = arrays["rel_end"]
        if rel_type is None:
            types = arrays["rel_type"]
            names = self._types
            for row in range(self.relationship_count):
                yield (
                    names[types[row]],
                    node_ids[rel_start[row]],
                    node_ids[rel_end[row]],
                )
            return
        slot = self._type_slot.get(rel_type)
        if slot is None:
            return
        offsets = arrays["rtype_offsets"]
        rows = arrays["rtype_rels"]
        for i in range(offsets[slot], offsets[slot + 1]):
            row = rows[i]
            yield (rel_type, node_ids[rel_start[row]], node_ids[rel_end[row]])

    def typed_degrees(self, node_id: int) -> dict[str, tuple[int, int, int]]:
        row = self._node_row(node_id)
        arrays = self._arrays
        totals: dict[int, list[int]] = {}
        lo, hi = self._bucket_range("out", row)
        types = arrays["out_bucket_types"]
        offsets = arrays["out_bucket_offsets"]
        loop_counts = arrays["out_bucket_loops"]
        for bucket in range(lo, hi):
            entry = totals.setdefault(types[bucket], [0, 0, 0])
            entry[0] += offsets[bucket + 1] - offsets[bucket]
            entry[2] += loop_counts[bucket]
        lo, hi = self._bucket_range("in", row)
        types = arrays["in_bucket_types"]
        offsets = arrays["in_bucket_offsets"]
        for bucket in range(lo, hi):
            entry = totals.setdefault(types[bucket], [0, 0, 0])
            entry[1] += offsets[bucket + 1] - offsets[bucket]
        return {
            self._types[tidx]: (entry[0], entry[1], entry[2])
            for tidx, entry in totals.items()
        }

    def memory_info(self) -> dict[str, int]:
        """Exact array footprint by component (the dict backend reports
        a ``sys.getsizeof`` estimate over the same keys)."""
        sizes: dict[str, int] = {}
        for name, buf in self._arrays.items():
            if isinstance(buf, memoryview):
                sizes[name] = buf.nbytes
            else:
                sizes[name] = len(buf) * buf.itemsize
        nodes_bytes = sum(v for k, v in sizes.items() if k.startswith("node_"))
        rels_bytes = sum(v for k, v in sizes.items() if k.startswith("rel_"))
        adjacency_bytes = sum(
            v
            for k, v in sizes.items()
            if k.startswith(("out_", "in_", "rtype_"))
        )
        indexes_bytes = sum(
            v
            for k, v in sizes.items()
            if k.startswith(("idx", "label_"))
        )
        total = sum(sizes.values())
        return {
            "nodes_bytes": nodes_bytes,
            "relationships_bytes": rels_bytes,
            "adjacency_bytes": adjacency_bytes,
            "indexes_bytes": indexes_bytes,
            "total_bytes": total,
        }

    # -- write surface (rejected) --------------------------------------

    def _read_only(self, operation: str) -> ReadOnlyStoreError:
        return ReadOnlyStoreError(
            f"{operation}: the columnar backend is read-only "
            "(its arrays may be shared between processes); "
            "rebuild via from_records/from_store and hot-swap instead"
        )

    def create_index(self, label: str, prop: str) -> None:
        raise self._read_only("create_index")

    def create_unique_constraint(self, label: str, prop: str) -> None:
        raise self._read_only("create_unique_constraint")

    def create_node(
        self,
        labels: Iterable[str],
        properties: Mapping[str, Any] | None = None,
    ) -> Node:
        raise self._read_only("create_node")

    def merge_nodes(
        self,
        label: str,
        key_prop: str,
        values: Iterable[Any],
        properties: Mapping[str, Any] | None = None,
        extra_labels: Iterable[str] = (),
    ) -> list[Node]:
        raise self._read_only("merge_nodes")

    def merge_node(
        self,
        label: str,
        key_prop: str,
        key_value: Any,
        properties: Mapping[str, Any] | None = None,
        extra_labels: Iterable[str] = (),
    ) -> Node:
        raise self._read_only("merge_node")

    def add_label(self, node_id: int, label: str) -> None:
        raise self._read_only("add_label")

    def update_node(self, node_id: int, properties: Mapping[str, Any]) -> None:
        raise self._read_only("update_node")

    def delete_node(self, node_id: int, detach: bool = False) -> None:
        raise self._read_only("delete_node")

    def create_relationship(
        self,
        start_id: int,
        rel_type: str,
        end_id: int,
        properties: Mapping[str, Any] | None = None,
    ) -> Relationship:
        raise self._read_only("create_relationship")

    def merge_relationships(
        self,
        rows: Iterable[tuple[int, str, int, Mapping[str, Any] | None]],
        match_props: Mapping[str, Any] | None = None,
    ) -> list[Relationship]:
        raise self._read_only("merge_relationships")

    def merge_relationship(
        self,
        start_id: int,
        rel_type: str,
        end_id: int,
        properties: Mapping[str, Any] | None = None,
        match_props: Mapping[str, Any] | None = None,
    ) -> Relationship:
        raise self._read_only("merge_relationship")

    def update_relationship(
        self, rel_id: int, properties: Mapping[str, Any]
    ) -> None:
        raise self._read_only("update_relationship")

    def delete_relationship(self, rel_id: int) -> None:
        raise self._read_only("delete_relationship")
