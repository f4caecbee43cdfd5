"""Knowledge-graph applications: reasoning, embeddings, centrality."""

import pytest

from repro.analysis import (
    InferenceRule,
    rank_agreement,
    run_inference,
    train_transe,
)
from repro.analysis.embeddings import TransEConfig, extract_triples
from repro.analytics import pagerank
from repro.core import IYP, Reference
from repro.graphdb import GraphStore


@pytest.fixture()
def reasoning_iyp():
    iyp = IYP()
    ref = Reference("T", "test.data")
    a = iyp.get_node("AS", asn=1)
    b = iyp.get_node("AS", asn=2)
    org = iyp.get_node("Organization", name="MegaCorp")
    prefix = iyp.get_node("Prefix", prefix="10.0.0.0/8")
    ip = iyp.get_node("IP", ip="10.1.2.3")
    country = iyp.get_node("Country", country_code="US")
    iyp.add_link(a, "SIBLING_OF", b, reference=ref)
    iyp.add_link(a, "MANAGED_BY", org, reference=ref)
    iyp.add_link(a, "ORIGINATE", prefix, reference=ref)
    iyp.add_link(ip, "PART_OF", prefix, reference=ref)
    iyp.add_link(prefix, "COUNTRY", country, reference=ref)
    return iyp


class TestReasoning:
    def test_sibling_symmetry(self, reasoning_iyp):
        created = run_inference(reasoning_iyp)
        assert created["sibling_symmetry"] == 1
        assert reasoning_iyp.run(
            "MATCH (:AS {asn:2})-[:SIBLING_OF]->(b:AS {asn:1}) RETURN count(*)"
        ).value() == 1

    def test_prefix_org_inferred(self, reasoning_iyp):
        run_inference(reasoning_iyp)
        assert reasoning_iyp.run(
            "MATCH (:Prefix)-[:MANAGED_BY]->(o:Organization) RETURN o.name"
        ).value() == "MegaCorp"

    def test_ip_country_inherited(self, reasoning_iyp):
        run_inference(reasoning_iyp)
        assert reasoning_iyp.run(
            "MATCH (:IP {ip:'10.1.2.3'})-[:COUNTRY]->(c) RETURN c.country_code"
        ).value() == "US"

    def test_inferred_links_carry_provenance(self, reasoning_iyp):
        run_inference(reasoning_iyp)
        refs = reasoning_iyp.run(
            "MATCH ()-[r]->() WHERE r.reference_name STARTS WITH 'iyp.inference' "
            "RETURN collect(DISTINCT r.reference_name)"
        ).value()
        assert "iyp.inference.sibling_symmetry" in refs

    def test_idempotent(self, reasoning_iyp):
        run_inference(reasoning_iyp)
        before = reasoning_iyp.store.relationship_count
        second = run_inference(reasoning_iyp)
        assert reasoning_iyp.store.relationship_count == before
        assert sum(second.values()) == 0

    def test_custom_rule(self, reasoning_iyp):
        rule = InferenceRule(
            name="as_country_via_prefix",
            description="An AS operates in the country of its prefixes.",
            query="""
                MATCH (a:AS)-[:ORIGINATE]->(:Prefix)-[:COUNTRY]->(c:Country)
                WHERE NOT (a)-[:COUNTRY]-(:Country)
                RETURN DISTINCT a AS start, c AS end
            """,
            rel_type="COUNTRY",
        )
        created = run_inference(reasoning_iyp, rules=(rule,))
        assert created["as_country_via_prefix"] == 1

    def test_runs_on_full_graph(self, small_iyp):
        # On the fully built graph, inference adds real knowledge.
        created = run_inference(small_iyp)
        assert created["ip_country"] > 0
        assert created["prefix_org"] > 0


def _toy_store() -> GraphStore:
    """Two clusters of ASes sharing an organization each."""
    store = GraphStore()
    orgs = [store.create_node({"Organization"}, {"name": f"org{i}"}) for i in range(2)]
    for i in range(10):
        a = store.create_node({"AS"}, {"asn": i})
        store.create_relationship(a.id, "MANAGED_BY", orgs[i % 2].id)
    return store


class TestEmbeddings:
    def test_extract_triples_dedups_parallel_links(self):
        store = GraphStore()
        a = store.create_node({"AS"}, {"asn": 1})
        b = store.create_node({"Prefix"}, {"prefix": "x"})
        store.create_relationship(a.id, "ORIGINATE", b.id, {"reference_name": "p"})
        store.create_relationship(a.id, "ORIGINATE", b.id, {"reference_name": "q"})
        assert extract_triples(store) == [(a.id, "ORIGINATE", b.id)]

    def test_training_is_deterministic(self):
        store = _toy_store()
        config = TransEConfig(dimensions=8, epochs=5, seed=3)
        first = train_transe(store, config)
        second = train_transe(store, config)
        assert (first.entity_vectors == second.entity_vectors).all()

    def test_true_triples_score_above_false(self):
        store = _toy_store()
        model = train_transe(store, TransEConfig(dimensions=16, epochs=60, seed=1))
        orgs = {n.properties["name"]: n for n in store.nodes_with_label("Organization")}
        ases = {n.properties["asn"]: n for n in store.nodes_with_label("AS")}
        true_score = model.score(ases[0].id, "MANAGED_BY", orgs["org0"].id)
        false_score = model.score(ases[0].id, "MANAGED_BY", orgs["org1"].id)
        assert true_score > false_score

    def test_link_prediction_recovers_org(self):
        store = _toy_store()
        model = train_transe(store, TransEConfig(dimensions=16, epochs=60, seed=1))
        ases = {n.properties["asn"]: n for n in store.nodes_with_label("AS")}
        orgs = {n.properties["name"]: n for n in store.nodes_with_label("Organization")}
        predictions = [p for p, _ in model.predict_tails(ases[2].id, "MANAGED_BY", k=3)]
        assert orgs["org0"].id in predictions

    def test_nearest_entities_excludes_self(self):
        store = _toy_store()
        model = train_transe(store, TransEConfig(dimensions=8, epochs=5))
        anchor = store.nodes_with_label("AS")[0]
        neighbours = model.nearest_entities(anchor.id, k=3)
        assert len(neighbours) == 3
        assert all(node_id != anchor.id for node_id, _ in neighbours)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            train_transe(GraphStore())

    def test_trains_on_small_iyp(self, small_iyp):
        model = train_transe(
            small_iyp.store, TransEConfig(dimensions=8, epochs=1, batch_size=4096)
        )
        assert model.n_entities == small_iyp.store.node_count
        assert model.n_relations >= 20


class TestCentrality:
    def test_pagerank_sums_to_one(self, small_iyp):
        scores = pagerank(small_iyp.store)
        assert scores
        assert abs(sum(scores.values()) - 1.0) < 1e-6

    def test_tier1s_rank_high(self, small_iyp, small_world):
        scores = pagerank(small_iyp.store)
        ordered = sorted(scores, key=lambda asn: -scores[asn])
        top = set(ordered[:30])
        tier1 = {
            asn for asn, info in small_world.ases.items() if info.category == "Tier1"
        }
        # Most tier-1s are in the PageRank top-30.
        assert len(top & tier1) >= len(tier1) // 2

    def test_rank_agreement_positive(self, small_iyp):
        agreement = rank_agreement(small_iyp, top_k=20)
        assert 0.0 < agreement <= 1.0

    def test_empty_graph(self, empty_iyp):
        assert pagerank(empty_iyp.store) == {}
        assert rank_agreement(empty_iyp) == 0.0
