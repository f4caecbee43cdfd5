"""End-to-end integration: world -> crawl -> fuse -> refine -> query ->
snapshot -> reload -> same answers."""

from repro.cypher import CypherEngine
from repro.graphdb import load_snapshot, save_snapshot
from repro.pipeline import build_iyp
from repro.simnet import WorldConfig, build_world
from repro.studies import queries, run_ripki_study


class TestFusion:
    def test_pfx2as_and_pch_fuse_on_same_nodes(self, small_iyp):
        # Two BGP datasets create parallel ORIGINATE links between the
        # same nodes rather than duplicate nodes.
        row = small_iyp.run(
            "MATCH (a:AS)-[r:ORIGINATE]->(p:Prefix) "
            "WITH a, p, collect(DISTINCT r.reference_name) AS datasets "
            "WHERE size(datasets) > 1 RETURN count(*) AS fused"
        ).single()
        assert row["fused"] > 0

    def test_multiple_name_datasets_fuse_on_as(self, small_iyp):
        row = small_iyp.run(
            "MATCH (a:AS)-[r:NAME]->(:Name) "
            "WITH a, collect(DISTINCT r.reference_name) AS datasets "
            "RETURN max(size(datasets)) AS most"
        ).single()
        # RIPE, CAIDA, BGP.Tools and Emile Aben all provide names.
        assert row["most"] >= 3

    def test_nameserver_nodes_are_both_host_and_ns(self, small_iyp):
        count = small_iyp.run(
            "MATCH (n:AuthoritativeNameServer:HostName) RETURN count(n)"
        ).value()
        assert count > 0


class TestSnapshotRoundtrip:
    def test_query_results_survive_reload(self, small_iyp, tmp_path):
        path = tmp_path / "iyp-snapshot.iyp2"
        save_snapshot(small_iyp.store, path)
        restored = load_snapshot(path)
        engine = CypherEngine(restored)
        for query in (queries.LISTING_1, queries.LISTING_2):
            original = sorted(map(str, small_iyp.run(query).column()))
            reloaded = sorted(map(str, engine.run(query).column()))
            assert original == reloaded

    def test_snapshot_preserves_scale(self, small_iyp, tmp_path):
        path = tmp_path / "iyp-snapshot.iyp2"
        save_snapshot(small_iyp.store, path)
        restored = load_snapshot(path)
        assert restored.node_count == small_iyp.store.node_count
        assert restored.relationship_count == small_iyp.store.relationship_count


class TestLocalInstanceWorkflow:
    def test_user_can_add_private_data_and_query_across(self, small_iyp):
        # Section 6.1 "Local instance": tag studied resources, then use
        # the tag in later queries.  Write via Cypher like a user would.
        small_iyp.run(
            "MATCH (:Ranking {name:'Tranco top 1M'})-[r:RANK]-(d:DomainName) "
            "WHERE r.rank <= 10 "
            "MERGE (t:Tag {label:'My Study Set'}) "
            "MERGE (d)-[:CATEGORIZED {reference_name:'local'}]->(t)"
        )
        count = small_iyp.run(
            "MATCH (d:DomainName)-[:CATEGORIZED]->(:Tag {label:'My Study Set'}) "
            "RETURN count(DISTINCT d)"
        ).value()
        assert count == 10
        # Clean up so other session-scoped tests see the shared graph.
        small_iyp.run(
            "MATCH (t:Tag {label:'My Study Set'}) DETACH DELETE t"
        )


class TestDeterministicBuilds:
    def test_same_world_same_results(self):
        config = WorldConfig(seed=4242, scale=0.05, n_domains=400, n_ases=120)
        world_a = build_world(config)
        world_b = build_world(
            WorldConfig(seed=4242, scale=0.05, n_domains=400, n_ases=120)
        )
        iyp_a, _ = build_iyp(world_a)
        iyp_b, _ = build_iyp(world_b)
        assert iyp_a.store.node_count == iyp_b.store.node_count
        assert iyp_a.store.relationship_count == iyp_b.store.relationship_count
        table_a = run_ripki_study(iyp_a).table2_row()
        table_b = run_ripki_study(iyp_b).table2_row()
        assert table_a == table_b
