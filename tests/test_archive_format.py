"""The v2 binary snapshot format: framing, integrity, determinism."""

import struct

import pytest

from repro.archive import (
    SnapshotFormatError,
    is_v2_snapshot,
    load_snapshot_v2,
    read_meta,
    read_sections,
    save_snapshot_v2,
)
from repro.archive.format import (
    SECTION_END,
    SECTION_META,
    SECTION_NODES,
    SECTION_RELS,
    SECTION_STRINGS,
    _FRAME,
    _HEADER,
)
from repro.graphdb import GraphStore, load_snapshot, save_snapshot
from repro.graphdb.snapshot import snapshot_dict
from tests.conftest import write_v1_snapshot


def _sample_store() -> GraphStore:
    store = GraphStore()
    store.create_unique_constraint("AS", "asn")
    store.create_index("Prefix", "prefix")
    a = store.create_node({"AS"}, {"asn": 2914, "tags": ["Tier1", "Eyeball"]})
    b = store.create_node({"AS"}, {"asn": 2497, "name": "IIJ"})
    p = store.create_node({"Prefix", "BGPPrefix"}, {"prefix": "10.0.0.0/8", "af": 4})
    store.create_relationship(a.id, "ORIGINATE", p.id, {"reference_name": "x"})
    store.create_relationship(b.id, "PEERS_WITH", a.id, {"count": 3})
    return store


class TestRoundtrip:
    def test_roundtrip_identical(self, tmp_path):
        store = _sample_store()
        path = tmp_path / "snap.iyp2"
        save_snapshot_v2(store, path)
        loaded = load_snapshot_v2(path)
        assert snapshot_dict(loaded) == snapshot_dict(store)

    def test_indexes_and_constraints_restored(self, tmp_path):
        store = _sample_store()
        path = tmp_path / "snap.iyp2"
        save_snapshot_v2(store, path)
        loaded = load_snapshot_v2(path)
        assert loaded.has_index("AS", "asn")
        assert loaded.has_index("Prefix", "prefix")
        assert len(loaded.find_nodes("AS", "asn", 2914)) == 1
        from repro.graphdb.errors import ConstraintViolationError

        with pytest.raises(ConstraintViolationError):
            loaded.create_node({"AS"}, {"asn": 2914})

    def test_ids_preserved_with_holes(self, tmp_path):
        store = GraphStore()
        nodes = [store.create_node({"N"}, {"i": i}) for i in range(6)]
        rels = [
            store.create_relationship(nodes[i].id, "E", nodes[i + 1].id)
            for i in range(5)
        ]
        store.delete_relationship(rels[1].id)
        store.delete_node(nodes[2].id, detach=True)
        path = tmp_path / "holes.iyp2"
        save_snapshot_v2(store, path)
        loaded = load_snapshot_v2(path)
        assert {n.id for n in loaded.iter_nodes()} == {
            n.id for n in store.iter_nodes()
        }
        fresh = loaded.create_node({"N"}, {"i": 99})
        assert fresh.id not in {n.id for n in store.iter_nodes()}

    def test_empty_store(self, tmp_path):
        path = tmp_path / "empty.iyp2"
        save_snapshot_v2(GraphStore(), path)
        loaded = load_snapshot_v2(path)
        assert loaded.node_count == 0
        assert loaded.relationship_count == 0

    def test_uncompressed_roundtrip(self, tmp_path):
        store = _sample_store()
        path = tmp_path / "raw.iyp2"
        save_snapshot_v2(store, path, compress=False)
        assert snapshot_dict(load_snapshot_v2(path)) == snapshot_dict(store)


class TestTransparentDispatch:
    def test_load_snapshot_sniffs_v2(self, tmp_path):
        store = _sample_store()
        path = tmp_path / "snap.iyp2"
        save_snapshot(store, path)
        assert is_v2_snapshot(path)
        assert snapshot_dict(load_snapshot(path)) == snapshot_dict(store)

    def test_load_snapshot_still_reads_v1(self, tmp_path):
        store = _sample_store()
        path = tmp_path / "snap.json.gz"
        write_v1_snapshot(store, path)
        assert not is_v2_snapshot(path)
        assert snapshot_dict(load_snapshot(path)) == snapshot_dict(store)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a snapshot at all")
        with pytest.raises(ValueError):
            load_snapshot(path)


class TestDeterminism:
    def test_two_saves_byte_identical(self, tmp_path):
        store = _sample_store()
        a, b = tmp_path / "a.iyp2", tmp_path / "b.iyp2"
        save_snapshot_v2(store, a)
        save_snapshot_v2(store, b)
        assert a.read_bytes() == b.read_bytes()

    def test_insertion_order_changes_bytes_only_via_ids(self, tmp_path):
        # Same content, same ids => same bytes, even after a round-trip
        # through the loader (which rebuilds every internal map).
        store = _sample_store()
        a, b = tmp_path / "a.iyp2", tmp_path / "b.iyp2"
        save_snapshot_v2(store, a)
        save_snapshot_v2(load_snapshot_v2(a), b)
        assert a.read_bytes() == b.read_bytes()


class TestStreaming:
    def test_sections_stream_in_order(self, tmp_path):
        path = tmp_path / "snap.iyp2"
        save_snapshot_v2(_sample_store(), path)
        kinds = [kind for kind, _ in read_sections(path)]
        assert kinds[0] == SECTION_META
        assert kinds[1] == SECTION_STRINGS
        assert kinds[-1] == SECTION_END
        assert SECTION_NODES in kinds and SECTION_RELS in kinds

    def test_read_meta_counts(self, tmp_path):
        path = tmp_path / "snap.iyp2"
        save_snapshot_v2(_sample_store(), path)
        meta = read_meta(path)
        assert meta["nodes"] == 3
        assert meta["relationships"] == 2
        assert meta["format_version"] == 2

    def test_unknown_section_kind_is_skipped(self, tmp_path):
        path = tmp_path / "snap.iyp2"
        save_snapshot_v2(_sample_store(), path)
        raw = bytearray(path.read_bytes())
        # Append an unknown section before END by rebuilding the tail.
        import json
        import zlib

        payload = json.dumps({"future": True}).encode()
        frame = _FRAME.pack(200, 0, zlib.crc32(payload), len(payload))
        end = _FRAME.pack(SECTION_END, 0, zlib.crc32(b"[]"), 2) + b"[]"
        assert raw.endswith(end)
        raw = raw[: -len(end)] + frame + payload + end
        path.write_bytes(raw)
        store = load_snapshot_v2(path)
        assert store.node_count == 3


class TestCorruption:
    def test_flipped_bit_fails_crc(self, tmp_path):
        path = tmp_path / "snap.iyp2"
        save_snapshot_v2(_sample_store(), path)
        raw = bytearray(path.read_bytes())
        # Flip one payload byte past the header and first frame.
        raw[_HEADER.size + _FRAME.size + 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            load_snapshot_v2(path)

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "snap.iyp2"
        save_snapshot_v2(_sample_store(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_snapshot_v2(path)

    def test_missing_end_section_detected(self, tmp_path):
        # A file cut exactly at a section boundary (no partial frame)
        # must still fail: the END sentinel is what marks completeness.
        path = tmp_path / "snap.iyp2"
        save_snapshot_v2(_sample_store(), path)
        raw = path.read_bytes()
        import zlib

        end = _FRAME.pack(SECTION_END, 0, zlib.crc32(b"[]"), 2) + b"[]"
        assert raw.endswith(end)
        path.write_bytes(raw[: -len(end)])
        with pytest.raises(SnapshotFormatError, match="END"):
            load_snapshot_v2(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "snap.iyp2"
        save_snapshot_v2(_sample_store(), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_snapshot_v2(path)

    def test_future_format_version_rejected(self, tmp_path):
        path = tmp_path / "snap.iyp2"
        save_snapshot_v2(_sample_store(), path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotFormatError, match="99"):
            load_snapshot_v2(path)
