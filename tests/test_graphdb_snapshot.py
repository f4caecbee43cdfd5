"""Snapshots: the reproduction's equivalent of IYP's weekly dumps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb import GraphStore, load_snapshot, save_snapshot
from repro.graphdb.snapshot import snapshot_dict, store_from_dict
from tests.conftest import write_v1_snapshot


def _sample_store() -> GraphStore:
    store = GraphStore()
    store.create_unique_constraint("AS", "asn")
    a = store.create_node({"AS"}, {"asn": 2914, "tags": ["Tier1", "Eyeball"]})
    p = store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8", "af": 4})
    store.create_relationship(a.id, "ORIGINATE", p.id, {"reference_name": "x"})
    return store


class TestRoundtrip:
    def test_file_roundtrip(self, tmp_path):
        store = _sample_store()
        path = tmp_path / "snapshot.iyp2"
        save_snapshot(store, path)
        loaded = load_snapshot(path)
        assert loaded.node_count == store.node_count
        assert loaded.relationship_count == store.relationship_count
        assert snapshot_dict(loaded) == snapshot_dict(store)

    def test_indexes_and_constraints_restored(self, tmp_path):
        store = _sample_store()
        path = tmp_path / "snapshot.iyp2"
        save_snapshot(store, path)
        loaded = load_snapshot(path)
        assert loaded.has_index("AS", "asn")
        assert len(loaded.find_nodes("AS", "asn", 2914)) == 1

    def test_list_properties_survive(self, tmp_path):
        store = _sample_store()
        path = tmp_path / "snapshot.iyp2"
        save_snapshot(store, path)
        loaded = load_snapshot(path)
        node = loaded.find_nodes("AS", "asn", 2914)[0]
        assert node.properties["tags"] == ["Tier1", "Eyeball"]

    def test_version_check(self):
        try:
            store_from_dict({"format_version": 999, "nodes": [], "relationships": []})
        except ValueError as exc:
            assert "999" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_snapshot_is_compressed_json(self, tmp_path):
        """The pre-IYP2 dump format: compressed JSON, still loadable."""
        import gzip
        import json

        store = _sample_store()
        path = tmp_path / "snapshot.json.gz"
        write_v1_snapshot(store, path)
        with gzip.open(path, "rt") as handle:
            payload = json.load(handle)
        assert payload["format_version"] == 1
        assert len(payload["nodes"]) == 2
        assert snapshot_dict(load_snapshot(path)) == snapshot_dict(store)


class TestFidelityAfterDeletions:
    """Ids and index behaviour must survive the round-trip exactly.

    The serving layer caches results keyed by ``store.version`` and
    returns node/relationship ids to clients, so a reload that compacts
    or remaps ids would silently change what the server hands out.
    """

    def _store_with_holes(self) -> GraphStore:
        store = GraphStore()
        nodes = [store.create_node({"N"}, {"i": i}) for i in range(6)]
        rels = [
            store.create_relationship(nodes[i].id, "E", nodes[i + 1].id)
            for i in range(5)
        ]
        # Punch holes in both id spaces.
        store.delete_relationship(rels[1].id)
        store.delete_node(nodes[2].id, detach=True)  # also removes a rel
        return store

    def test_ids_preserved_after_deletions(self):
        store = self._store_with_holes()
        restored = store_from_dict(snapshot_dict(store))
        assert {n.id for n in restored.iter_nodes()} == {
            n.id for n in store.iter_nodes()
        }
        assert {r.id for r in restored.iter_relationships()} == {
            r.id for r in store.iter_relationships()
        }
        assert snapshot_dict(restored) == snapshot_dict(store)

    def test_new_ids_do_not_collide_after_reload(self):
        store = self._store_with_holes()
        restored = store_from_dict(snapshot_dict(store))
        existing = {n.id for n in restored.iter_nodes()}
        fresh = restored.create_node({"N"}, {"i": 99})
        assert fresh.id not in existing

    def test_constraint_enforced_after_reload(self, tmp_path):
        store = _sample_store()
        path = tmp_path / "snapshot.iyp2"
        save_snapshot(store, path)
        loaded = load_snapshot(path)
        from repro.graphdb.errors import ConstraintViolationError

        try:
            loaded.create_node({"AS"}, {"asn": 2914})
        except ConstraintViolationError:
            pass
        else:
            raise AssertionError("unique constraint not enforced after reload")

    def test_index_used_by_engine_after_reload(self, tmp_path):
        from repro.cypher import CypherEngine

        store = _sample_store()
        path = tmp_path / "snapshot.iyp2"
        save_snapshot(store, path)
        loaded = load_snapshot(path)
        plan = CypherEngine(loaded).explain("MATCH (a:AS {asn: 2914}) RETURN a")
        assert "index" in str(plan).lower()

    def test_reload_starts_at_version_of_rebuild(self):
        """The version counter restarts per process; caches key on the
        (store object, version) pair, so only monotonicity matters."""
        store = self._store_with_holes()
        restored = store_from_dict(snapshot_dict(store))
        before = restored.version
        restored.create_node({"N"}, {"i": 100})
        assert restored.version == before + 1


_EDGE_CASE_PROPS = {
    "unicode": "日本インターネットエクスチェンジ ☂ Ωmega",
    "empty_string": "",
    "large_int": 2**70,
    "negative": -(2**40),
    "float": 3.14159,
    "bool_true": True,
    "bool_false": False,
    "empty_list": [],
    "list_with_none": [1, None, "x"],
    "mixed_list": ["AS", 2914, True, 0.5],
}


#: v1 is read-only in ``src`` (old dumps must keep opening); v2 is what
#: ``save_snapshot`` writes.
_WRITERS = pytest.mark.parametrize(
    "write", [write_v1_snapshot, save_snapshot], ids=["v1", "v2"]
)


@_WRITERS
class TestEdgeCasePropertyFidelity:
    """Awkward property values must survive both formats bit-for-bit."""

    def _roundtrip(self, tmp_path, write, props):
        store = GraphStore()
        a = store.create_node({"N"}, dict(props))
        b = store.create_node({"N"}, {"i": 1})
        store.create_relationship(a.id, "E", b.id, dict(props))
        path = tmp_path / "edge"
        write(store, path)
        return store, load_snapshot(path)

    def test_values_identical(self, tmp_path, write):
        store, loaded = self._roundtrip(tmp_path, write, _EDGE_CASE_PROPS)
        node = next(n for n in loaded.iter_nodes() if "unicode" in n.properties)
        rel = next(iter(loaded.iter_relationships()))
        for entity in (node, rel):
            for key, value in _EDGE_CASE_PROPS.items():
                assert entity.properties[key] == value, key
        assert snapshot_dict(loaded) == snapshot_dict(store)

    def test_bool_does_not_become_int(self, tmp_path, write):
        # In Python True == 1; serialization must not flatten the type,
        # or WHERE x = true / x = 1 would change answers after a reload.
        _, loaded = self._roundtrip(
            tmp_path, write, {"flag": True, "count": 1, "zero": False}
        )
        node = next(n for n in loaded.iter_nodes() if "flag" in n.properties)
        assert node.properties["flag"] is True
        assert node.properties["zero"] is False
        assert type(node.properties["count"]) is int

    def test_large_int_exact(self, tmp_path, write):
        _, loaded = self._roundtrip(tmp_path, write, {"big": 2**70 + 1})
        node = next(n for n in loaded.iter_nodes() if "big" in n.properties)
        assert node.properties["big"] == 2**70 + 1

    def test_none_scalar_never_reaches_a_snapshot(self, tmp_path, write):
        # The store follows Neo4j's null semantics: a None property is
        # a removal, so neither format ever has to encode a bare null —
        # only None inside lists (kept above) is representable.
        store, loaded = self._roundtrip(
            tmp_path, write, {"gone": None, "kept": 1}
        )
        node = next(n for n in loaded.iter_nodes() if "kept" in n.properties)
        assert "gone" not in node.properties

    def test_nested_lists_rejected_at_the_model(self, tmp_path, write):
        # The property model only allows scalars and flat lists, so a
        # nested list can never reach either serializer.
        store = GraphStore()
        with pytest.raises(TypeError):
            store.create_node({"N"}, {"nested": [[1, 2], [3]]})


@_WRITERS
def test_snapshot_bytes_deterministic(tmp_path, write):
    """Two saves of the same store are byte-identical (checksum dedup)."""
    store = GraphStore()
    store.create_index("N", "i")
    nodes = [
        store.create_node({"N"}, {"i": i, "name": f"n{i}"}) for i in range(20)
    ]
    for a, b in zip(nodes, nodes[1:], strict=False):
        store.create_relationship(a.id, "E", b.id, {"w": a.id})
    first, second = tmp_path / "first", tmp_path / "second"
    write(store, first)
    write(store, second)
    assert first.read_bytes() == second.read_bytes()


_props = st.dictionaries(
    st.text(alphabet="abcxyz", min_size=1, max_size=5),
    st.one_of(st.integers(-5, 5), st.text(max_size=5), st.booleans()),
    max_size=3,
)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), _props), max_size=15),
)
def test_property_snapshot_roundtrip(n_nodes, edges):
    """Any generated graph survives a dict round-trip exactly."""
    store = GraphStore()
    nodes = [store.create_node({"N"}, {"i": i}) for i in range(n_nodes)]
    for start, end, props in edges:
        store.create_relationship(
            nodes[start % n_nodes].id, "E", nodes[end % n_nodes].id, props
        )
    restored = store_from_dict(snapshot_dict(store))
    assert snapshot_dict(restored) == snapshot_dict(store)
