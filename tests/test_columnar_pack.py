"""The columnar pack cannot drift, and its per-build memos cannot alias.

``build_columnar`` interns each label set and key order once and
JSON-encodes each distinct property-value tuple once.  These tests pin
its output to digests recorded before the memos existed
(``golden/columnar_segments.json``): sha256 over the ``meta`` JSON and
every array's name, typecode and bytes, in segment (TOC) order.  A
change to the layout on purpose re-records them; any other change to a
digest is a bug.

The hand-built store has non-dense ids, self-loops, list-valued
properties, a key shape whose string ids are not ascending, an index,
a constraint, and relationships whose one
property is ``True``, ``1``, ``1.0``, ``0.0``, ``-0.0`` and ``nan`` in
id order: values Python hashes together, so a memo keyed on the values
alone would write the first one's JSON for the rest.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from repro.columnar import ColumnarGraphStore, attach_manifest, pack_store
from repro.columnar.shm import segment_registry
from repro.columnar.store import build_columnar
from repro.pipeline import build_iyp

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "columnar_segments.json").read_text()
)

NODES = [
    (10, ["A"], {"name": "x", "tags": ["p", 1, True]}),
    (3, ["B", "A"], {"n": 2, "name": "y"}),
    (7, [], {}),
    (42, ["B"], {"name": "z", "tags": [1.0, -0.0]}),
    # "name" is interned before "age": its key shape's ids descend.
    (50, ["C"], {"name": "w", "age": 5}),
]

#: One relationship per value, in id order: each must read back as
#: itself, not as an equal value written before it.
VALUES = [True, 1, 1.0, 0.0, -0.0, float("nan")]
RELS = [
    (5, "R", 10, 10, {"w": True}),
    (6, "R", 3, 10, {"w": 1}),
    (9, "S", 10, 3, {"w": 1.0}),
    (20, "S", 42, 42, {"w": 0.0}),
    (21, "R", 7, 42, {"w": -0.0}),
    (40, "T", 3, 3, {"w": float("nan")}),
]
INDEXES = [("A", "name")]
CONSTRAINTS = [("B", "name")]


def segment_digest(meta, arrays) -> str:
    """sha256 over ``meta`` and ``(name, typecode, bytes)`` per array."""
    digest = hashlib.sha256(
        json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    )
    for name, typecode, data in arrays:
        digest.update(name.encode())
        digest.update(typecode.encode())
        digest.update(data)
    return digest.hexdigest()


def built_digest(meta, arrays) -> str:
    return segment_digest(
        meta, [(name, arr.typecode, arr.tobytes()) for name, arr in arrays.items()]
    )


@pytest.fixture(scope="module")
def small_store(small_world):
    """The small world's graph as built.  Not the session ``small_iyp``:
    earlier tests write into that one (inference adds relationships)."""
    iyp, _ = build_iyp(small_world)
    return iyp.store


class TestPackedBytes:
    def test_hand_built_store(self):
        meta, arrays = build_columnar(NODES, RELS, INDEXES, CONSTRAINTS)
        assert built_digest(meta, arrays) == GOLDEN["hand_built"]

    def test_small_world(self, small_store):
        store = ColumnarGraphStore.from_store(small_store)
        assert built_digest(store._meta, store._arrays) == GOLDEN["small_world"]

    def test_shared_segment_holds_the_same_bytes(self, small_store):
        manifest = pack_store(small_store)
        attached = attach_manifest(manifest)
        try:
            digest = segment_digest(
                manifest.meta,
                [
                    (name, typecode, attached._arrays[name].tobytes())
                    for name, typecode, _, _ in manifest.toc
                ],
            )
        finally:
            attached.close()
            segment_registry().unlink(manifest.name)
        assert digest == GOLDEN["small_world"]


class TestMemoCannotAlias:
    @pytest.fixture()
    def store(self):
        return ColumnarGraphStore.from_records(NODES, RELS, INDEXES, CONSTRAINTS)

    @pytest.mark.parametrize("position", range(len(VALUES)))
    def test_each_value_reads_back_with_its_type_and_sign(self, store, position):
        expected = VALUES[position]
        value = store.get_relationship(RELS[position][0]).properties["w"]
        assert type(value) is type(expected)
        if isinstance(expected, float):
            assert math.copysign(1.0, value) == math.copysign(1.0, expected)
            assert math.isnan(value) == math.isnan(expected)
        if not (isinstance(expected, float) and math.isnan(expected)):
            assert value == expected

    def test_values_keep_their_keys(self, store):
        assert store.get_node(50).properties == {"age": 5, "name": "w"}
        assert store.get_node(3).properties == {"n": 2, "name": "y"}

    def test_list_values_read_back_whole(self, store):
        assert store.get_node(10).properties["tags"] == ["p", 1, True]
        assert type(store.get_node(10).properties["tags"][2]) is bool
        tags = store.get_node(42).properties["tags"]
        assert [type(tag) for tag in tags] == [float, float]
        assert math.copysign(1.0, tags[1]) == -1.0

    def test_repeated_rows_share_one_encoding_and_keep_types(self):
        rels = [
            (index, "R", 3, 10, {"w": value, "ref": "same"})
            for index, value in enumerate([True, 1, True, 1, 0, False])
        ]
        store = ColumnarGraphStore.from_records(NODES, rels)
        read = [store.get_relationship(index).properties for index in range(6)]
        assert [(type(p["w"]), p["w"]) for p in read] == [
            (bool, True), (int, 1), (bool, True), (int, 1), (int, 0), (bool, False)
        ]
        assert all(p["ref"] == "same" for p in read)
