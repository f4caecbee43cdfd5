"""The property-graph store: CRUD, indexes, constraints, adjacency."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphdb import (
    ConstraintViolationError,
    Direction,
    GraphStore,
    NoSuchNodeError,
    NoSuchRelationshipError,
)


@pytest.fixture()
def store():
    return GraphStore()


class TestNodes:
    def test_create_and_get(self, store):
        node = store.create_node({"AS"}, {"asn": 2914})
        assert store.get_node(node.id).properties["asn"] == 2914
        assert store.node_count == 1

    def test_labels_indexed(self, store):
        store.create_node({"AS"}, {"asn": 1})
        store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8"})
        assert len(store.nodes_with_label("AS")) == 1
        assert store.label_counts() == {"AS": 1, "Prefix": 1}

    def test_multi_label_node(self, store):
        node = store.create_node({"HostName", "AuthoritativeNameServer"}, {"name": "x"})
        assert node in store.nodes_with_label("HostName")
        assert node in store.nodes_with_label("AuthoritativeNameServer")

    def test_none_properties_dropped(self, store):
        node = store.create_node({"AS"}, {"asn": 1, "name": None})
        assert "name" not in node.properties

    def test_unsupported_property_type_raises(self, store):
        with pytest.raises(TypeError):
            store.create_node({"AS"}, {"asn": object()})

    def test_get_missing_raises(self, store):
        with pytest.raises(NoSuchNodeError):
            store.get_node(99)

    def test_add_label(self, store):
        node = store.create_node({"HostName"}, {"name": "ns1.example.com"})
        store.add_label(node.id, "AuthoritativeNameServer")
        assert node.has_label("AuthoritativeNameServer")
        assert node in store.nodes_with_label("AuthoritativeNameServer")

    def test_update_node_merges_and_deletes(self, store):
        node = store.create_node({"AS"}, {"asn": 1, "name": "a"})
        store.update_node(node.id, {"name": None, "rank": 5})
        assert node.properties == {"asn": 1, "rank": 5}

    def test_delete_node_requires_detach(self, store):
        a = store.create_node({"AS"}, {"asn": 1})
        b = store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8"})
        store.create_relationship(a.id, "ORIGINATE", b.id)
        with pytest.raises(ConstraintViolationError):
            store.delete_node(a.id)
        store.delete_node(a.id, detach=True)
        assert store.node_count == 1
        assert store.relationship_count == 0


class TestIndexes:
    def test_find_via_index(self, store):
        store.create_index("AS", "asn")
        store.create_node({"AS"}, {"asn": 2914})
        store.create_node({"AS"}, {"asn": 7018})
        found = store.find_nodes("AS", "asn", 2914)
        assert len(found) == 1 and found[0].properties["asn"] == 2914

    def test_find_without_index_scans(self, store):
        store.create_node({"AS"}, {"asn": 2914})
        assert len(store.find_nodes("AS", "asn", 2914)) == 1

    def test_index_created_after_data(self, store):
        store.create_node({"AS"}, {"asn": 2914})
        store.create_index("AS", "asn")
        assert store.has_index("AS", "asn")
        assert len(store.find_nodes("AS", "asn", 2914)) == 1

    def test_index_follows_updates(self, store):
        store.create_index("AS", "asn")
        node = store.create_node({"AS"}, {"asn": 1})
        store.update_node(node.id, {"asn": 2})
        assert store.find_nodes("AS", "asn", 1) == []
        assert len(store.find_nodes("AS", "asn", 2)) == 1

    def test_index_follows_delete(self, store):
        store.create_index("AS", "asn")
        node = store.create_node({"AS"}, {"asn": 1})
        store.delete_node(node.id)
        assert store.find_nodes("AS", "asn", 1) == []


class TestConstraints:
    def test_unique_constraint_blocks_duplicates(self, store):
        store.create_unique_constraint("AS", "asn")
        store.create_node({"AS"}, {"asn": 1})
        with pytest.raises(ConstraintViolationError):
            store.create_node({"AS"}, {"asn": 1})

    def test_constraint_on_existing_duplicates_fails(self, store):
        store.create_node({"AS"}, {"asn": 1})
        store.create_node({"AS"}, {"asn": 1})
        with pytest.raises(ConstraintViolationError):
            store.create_unique_constraint("AS", "asn")

    def test_update_respects_constraint(self, store):
        store.create_unique_constraint("AS", "asn")
        store.create_node({"AS"}, {"asn": 1})
        other = store.create_node({"AS"}, {"asn": 2})
        with pytest.raises(ConstraintViolationError):
            store.update_node(other.id, {"asn": 1})

    def test_self_update_allowed(self, store):
        store.create_unique_constraint("AS", "asn")
        node = store.create_node({"AS"}, {"asn": 1})
        store.update_node(node.id, {"asn": 1})  # no-op, no violation


class TestMergeNode:
    def test_merge_creates_then_reuses(self, store):
        first = store.merge_node("AS", "asn", 2914)
        second = store.merge_node("AS", "asn", 2914, {"name": "NTT"})
        assert first.id == second.id
        assert first.properties["name"] == "NTT"
        assert store.node_count == 1

    def test_merge_adds_extra_labels(self, store):
        node = store.merge_node("HostName", "name", "ns1.example.com")
        store.merge_node(
            "HostName", "name", "ns1.example.com",
            extra_labels=["AuthoritativeNameServer"],
        )
        assert node.has_label("AuthoritativeNameServer")


class TestBulkMerge:
    """merge_nodes / merge_relationships: a column under one lock scope."""

    def test_column_result_is_parallel_and_dedups(self, store):
        nodes = store.merge_nodes("AS", "asn", [1, 2, 1, 3, 2])
        assert [n.properties["asn"] for n in nodes] == [1, 2, 1, 3, 2]
        assert nodes[0] is nodes[2] and nodes[1] is nodes[4]
        assert store.node_count == 3

    def test_one_version_bump_and_one_counter_batch_per_call(self, store):
        from repro.obs import AccessCollector, collecting

        before = store.version
        with collecting(AccessCollector()) as collector:
            store.merge_nodes("AS", "asn", [1, 2, 1])
        assert store.version == before + 1  # creating the index included
        assert collector.hits == {
            "index_seek": 3, "nodes_scanned": 1,
            "node_created": 2, "node_merged": 1,
        }
        before = store.version
        store.merge_nodes("AS", "asn", [1, 2, 1])  # nothing new, still one bump
        assert store.version == before + 1

    def test_shared_properties_and_labels_reach_every_row(self, store):
        first, = store.merge_nodes("HostName", "name", ["ns1.example.com"])
        again, fresh = store.merge_nodes(
            "HostName", "name", ["ns1.example.com", "ns2.example.com"],
            properties={"seen": True}, extra_labels=["AuthoritativeNameServer"],
        )
        assert again is first
        for node in (first, fresh):
            assert node.has_label("AuthoritativeNameServer")
            assert node.properties["seen"] is True

    def test_relationship_rows_merge_in_order(self, store):
        a, b = store.merge_nodes("AS", "asn", [1, 2])
        match = {"reference_name": "x"}
        with store.track_changes() as events:
            rels = store.merge_relationships(
                [
                    (a.id, "PEERS_WITH", b.id, {"rel": 0}),
                    (a.id, "PEERS_WITH", b.id, {"rel": 0}),  # equal: merged only
                    (a.id, "PEERS_WITH", b.id, {"rel": 1}),  # merged + updated
                    (b.id, "PEERS_WITH", a.id, None),
                ],
                match_props=match,
            )
        assert [e.kind for e in events] == [
            "rel_created", "rel_merged", "rel_merged", "rel_updated", "rel_created",
        ]
        assert rels[0] is rels[1] is rels[2] and rels[3] is not rels[0]
        assert rels[0].properties == {"rel": 1, "reference_name": "x"}
        assert store.relationship_count == 2

    def test_dangling_endpoint_mid_batch_keeps_the_rows_before_it(self, store):
        from repro.obs import AccessCollector, collecting

        a, b = store.merge_nodes("AS", "asn", [1, 2])
        before = store.version
        with collecting(AccessCollector()) as collector:
            with pytest.raises(NoSuchNodeError):
                store.merge_relationships(
                    [
                        (a.id, "PEERS_WITH", b.id, None),
                        (a.id, "PEERS_WITH", 999, None),
                        (b.id, "PEERS_WITH", a.id, None),
                    ]
                )
        assert store.version == before + 1
        assert collector.hits == {"rel_created": 1}
        (rel,) = store.iter_relationships()
        assert (rel.start_id, rel.end_id) == (a.id, b.id)
        assert store.relationships_of(a.id) == [rel]

    def test_constraint_violation_mid_batch_keeps_the_rows_before_it(self, store):
        from repro.obs import AccessCollector, collecting

        store.create_unique_constraint("AS", "name")
        before = store.version
        with collecting(AccessCollector()) as collector:
            with pytest.raises(ConstraintViolationError):
                store.merge_nodes("AS", "asn", [1, 2, 3], properties={"name": "same"})
        assert store.version == before + 1
        assert collector.hits["node_created"] == 1
        (node,) = store.nodes_with_label("AS")
        assert node.properties == {"name": "same", "asn": 1}
        assert store.find_nodes("AS", "asn", 1) == [node]


class TestRelationships:
    def test_create_and_adjacency(self, store):
        a = store.create_node({"AS"}, {"asn": 1})
        p = store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8"})
        rel = store.create_relationship(a.id, "ORIGINATE", p.id, {"count": 3})
        assert rel.properties["count"] == 3
        assert store.relationships_of(a.id, Direction.OUT) == [rel]
        assert store.relationships_of(p.id, Direction.IN) == [rel]
        assert store.relationships_of(p.id, Direction.OUT) == []
        assert store.degree(a.id) == 1

    def test_endpoints_must_exist(self, store):
        a = store.create_node({"AS"}, {"asn": 1})
        with pytest.raises(NoSuchNodeError):
            store.create_relationship(a.id, "ORIGINATE", 999)

    def test_type_filter(self, store):
        a = store.create_node({"AS"}, {"asn": 1})
        b = store.create_node({"AS"}, {"asn": 2})
        store.create_relationship(a.id, "PEERS_WITH", b.id)
        store.create_relationship(a.id, "SIBLING_OF", b.id)
        assert len(store.relationships_of(a.id, rel_type="PEERS_WITH")) == 1

    def test_self_loop_counted_once_for_both(self, store):
        a = store.create_node({"AS"}, {"asn": 1})
        store.create_relationship(a.id, "PEERS_WITH", a.id)
        assert len(store.relationships_of(a.id, Direction.BOTH)) == 1

    def test_degree_counts_self_loop_once_under_both(self, store):
        """Regression: degree(BOTH) used to count a self-loop twice
        (once per direction list), disagreeing with relationships_of."""
        a = store.create_node({"AS"}, {"asn": 1})
        b = store.create_node({"AS"}, {"asn": 2})
        store.create_relationship(a.id, "PEERS_WITH", a.id)
        store.create_relationship(a.id, "PEERS_WITH", b.id)
        assert store.degree(a.id, Direction.BOTH) == len(
            store.relationships_of(a.id, Direction.BOTH)
        ) == 2
        # Per-direction views still see the loop on each side.
        assert store.degree(a.id, Direction.OUT) == 2
        assert store.degree(a.id, Direction.IN) == 1
        store.delete_relationship(store.relationships_between(a.id, a.id)[0].id)
        assert store.degree(a.id, Direction.BOTH) == 1

    def test_degree_by_type(self, store):
        a = store.create_node({"AS"}, {"asn": 1})
        b = store.create_node({"AS"}, {"asn": 2})
        store.create_relationship(a.id, "PEERS_WITH", b.id)
        store.create_relationship(b.id, "PEERS_WITH", a.id)
        store.create_relationship(a.id, "SIBLING_OF", b.id)
        store.create_relationship(a.id, "SIBLING_OF", a.id)
        assert store.degree_by_type(a.id, "PEERS_WITH") == 2
        assert store.degree_by_type(a.id, "PEERS_WITH", Direction.OUT) == 1
        assert store.degree_by_type(a.id, "SIBLING_OF") == 2  # loop once
        assert store.degree_by_type(a.id, "ABSENT") == 0

    def test_typed_adjacency_partition_matches_filter(self, store):
        """relationships_of(type=...) must equal the post-filtered
        untyped expansion, in every direction, self-loops included."""
        a = store.create_node({"AS"}, {"asn": 1})
        b = store.create_node({"AS"}, {"asn": 2})
        store.create_relationship(a.id, "PEERS_WITH", b.id)
        store.create_relationship(b.id, "PEERS_WITH", a.id)
        store.create_relationship(a.id, "PEERS_WITH", a.id)
        store.create_relationship(a.id, "SIBLING_OF", b.id)
        for direction in (Direction.OUT, Direction.IN, Direction.BOTH):
            for rel_type in ("PEERS_WITH", "SIBLING_OF", "ABSENT"):
                typed = store.relationships_of(a.id, direction, rel_type)
                filtered = [
                    rel
                    for rel in store.relationships_of(a.id, direction)
                    if rel.type == rel_type
                ]
                assert sorted(r.id for r in typed) == sorted(
                    r.id for r in filtered
                )

    def test_parallel_edges_allowed(self, store):
        a = store.create_node({"AS"}, {"asn": 1})
        p = store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8"})
        store.create_relationship(a.id, "ORIGINATE", p.id, {"reference_name": "x"})
        store.create_relationship(a.id, "ORIGINATE", p.id, {"reference_name": "y"})
        assert len(store.relationships_between(a.id, p.id, "ORIGINATE")) == 2

    def test_merge_relationship_by_match_props(self, store):
        a = store.create_node({"AS"}, {"asn": 1})
        p = store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8"})
        first = store.merge_relationship(
            a.id, "ORIGINATE", p.id, match_props={"reference_name": "x"}
        )
        again = store.merge_relationship(
            a.id, "ORIGINATE", p.id, match_props={"reference_name": "x"}
        )
        other = store.merge_relationship(
            a.id, "ORIGINATE", p.id, match_props={"reference_name": "y"}
        )
        assert first.id == again.id
        assert other.id != first.id

    def test_delete_relationship(self, store):
        a = store.create_node({"AS"}, {"asn": 1})
        b = store.create_node({"AS"}, {"asn": 2})
        rel = store.create_relationship(a.id, "PEERS_WITH", b.id)
        store.delete_relationship(rel.id)
        assert store.relationship_count == 0
        assert store.relationships_of(a.id) == []
        with pytest.raises(NoSuchRelationshipError):
            store.get_relationship(rel.id)

    def test_scans_return_nodes_sorted_by_id(self, store):
        """Label scans and find_nodes are id-sorted so unordered query
        output is deterministic across runs and processes."""
        ids = [store.create_node({"AS"}, {"asn": i % 3}).id for i in range(40)]
        scanned = [node.id for node in store.nodes_with_label("AS")]
        assert scanned == sorted(ids)
        # Unindexed property lookup: sorted subset.
        found = [node.id for node in store.find_nodes("AS", "asn", 1)]
        assert found == sorted(found) and found
        # Indexed lookup too.
        store.create_index("AS", "asn")
        indexed = [node.id for node in store.find_nodes("AS", "asn", 1)]
        assert indexed == found

    def test_relationship_type_counts(self, store):
        a = store.create_node({"AS"}, {"asn": 1})
        b = store.create_node({"AS"}, {"asn": 2})
        store.create_relationship(a.id, "PEERS_WITH", b.id)
        assert store.relationship_type_counts() == {"PEERS_WITH": 1}


@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=50
    )
)
def test_property_adjacency_is_consistent(edges):
    """For any random multigraph, out/in adjacency and the global
    relationship count agree."""
    store = GraphStore()
    nodes = [store.create_node({"N"}, {"i": i}) for i in range(10)]
    for start, end in edges:
        store.create_relationship(nodes[start].id, "E", nodes[end].id)
    assert store.relationship_count == len(edges)
    out_total = sum(
        len(store.relationships_of(n.id, Direction.OUT)) for n in nodes
    )
    in_total = sum(len(store.relationships_of(n.id, Direction.IN)) for n in nodes)
    assert out_total == len(edges)
    assert in_total == len(edges)
