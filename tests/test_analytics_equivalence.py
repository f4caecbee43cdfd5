"""Equivalence of the vectorized analytics against naive references.

Every ``CALL algo.*`` procedure is replayed against a naive
pure-Python implementation that never touches the store's typed
adjacency (edge scans, per-pair BFS, the legacy Cypher-driven
PageRank), on the seed world's knowledge graph and on additional
seeded random simnet worlds.  The study refactors ride along: the
SPoF zone walk and the synthetic-topology customer cones must be
byte-identical to the pre-refactor algorithms they replaced.
"""

from __future__ import annotations

import random
from collections import deque

import pytest

from repro.analytics import (
    PROCEDURES,
    ProcedureContext,
    betweenness_centrality,
    bounded_reach,
    transitive_closure,
)
from repro.graphdb import GraphStore
from repro.graphdb.model import Direction
from repro.nettypes.dns import registered_domain
from repro.pipeline import build_iyp
from repro.simnet import WorldConfig, build_world
from repro.studies.spof import run_spof_study

RANDOM_SEEDS = (11, 23)


@pytest.fixture(scope="module", params=RANDOM_SEEDS)
def seeded_iyp(request):
    """A knowledge graph built from a differently-seeded random world."""
    world = build_world(WorldConfig.small(seed=request.param))
    iyp, report = build_iyp(world, validate=False, analytics=False)
    assert not report.crawler_errors
    return iyp


def run_procedure(store, name, *args):
    return PROCEDURES[name].run(ProcedureContext(store), *args)


# ---------------------------------------------------------------------------
# Naive references (no typed-adjacency access)
# ---------------------------------------------------------------------------


def naive_pagerank(iyp, damping=0.85, iterations=40):
    """PageRank over AS-to-AS links read as Cypher rows; asn -> score."""
    rows = iyp.run(
        """
        MATCH (a:AS)-[r]->(b:AS)
        WHERE type(r) IN ['PEERS_WITH', 'DEPENDS_ON']
        RETURN a.asn AS src, b.asn AS dst
        """
    ).records
    asns = sorted({row["src"] for row in rows} | {row["dst"] for row in rows})
    if not asns:
        return {}
    index = {asn: i for i, asn in enumerate(asns)}
    out_links: list[list[int]] = [[] for _ in asns]
    for row in rows:
        out_links[index[row["src"]]].append(index[row["dst"]])
    n = len(asns)
    rank = [1.0 / n] * n
    for _ in range(iterations):
        incoming = [0.0] * n
        dangling = 0.0
        for i, targets in enumerate(out_links):
            if not targets:
                dangling += rank[i]
                continue
            share = rank[i] / len(targets)
            for j in targets:
                incoming[j] += share
        base = (1.0 - damping) / n + damping * dangling / n
        rank = [base + damping * incoming[i] for i in range(n)]
    return {asn: rank[index[asn]] for asn in asns}


def naive_components(store, rel_type=None):
    """BFS flood fill over an adjacency rebuilt from the edge list."""
    adjacency: dict[int, set[int]] = {
        node.id: set() for node in store.iter_nodes()
    }
    for rel in store.iter_relationships():
        if rel_type is not None and rel.type != rel_type:
            continue
        adjacency[rel.start_id].add(rel.end_id)
        adjacency[rel.end_id].add(rel.start_id)
    seen: set[int] = set()
    components = []
    for node_id in adjacency:
        if node_id in seen:
            continue
        queue = deque([node_id])
        seen.add(node_id)
        members = []
        while queue:
            current = queue.popleft()
            members.append(current)
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        components.append(sorted(members))
    components.sort(key=lambda ids: (-len(ids), ids[0]))
    return components


def naive_degrees(store, rel_type=None, direction=Direction.BOTH):
    """Per-node degree from one pass over the edge list."""
    out: dict[int, int] = {}
    inbound: dict[int, int] = {}
    loops: dict[int, int] = {}
    for rel in store.iter_relationships():
        if rel_type is not None and rel.type != rel_type:
            continue
        out[rel.start_id] = out.get(rel.start_id, 0) + 1
        inbound[rel.end_id] = inbound.get(rel.end_id, 0) + 1
        if rel.start_id == rel.end_id:
            loops[rel.start_id] = loops.get(rel.start_id, 0) + 1
    degrees = {}
    for node in store.iter_nodes():
        o = out.get(node.id, 0)
        i = inbound.get(node.id, 0)
        s = loops.get(node.id, 0)
        if direction == Direction.OUT:
            degrees[node.id] = o
        elif direction == Direction.IN:
            degrees[node.id] = i
        else:
            degrees[node.id] = o + i - s
    return degrees


def naive_kreach(store, source, k, rel_type=None):
    """Undirected BFS over the rebuilt edge list."""
    adjacency: dict[int, set[int]] = {}
    for rel in store.iter_relationships():
        if rel_type is not None and rel.type != rel_type:
            continue
        adjacency.setdefault(rel.start_id, set()).add(rel.end_id)
        adjacency.setdefault(rel.end_id, set()).add(rel.start_id)
    depths: dict[int, int] = {}
    seen = {source}
    frontier = [source]
    for depth in range(1, k + 1):
        next_frontier = []
        for current in frontier:
            for neighbor in adjacency.get(current, ()):
                if neighbor not in seen:
                    seen.add(neighbor)
                    depths[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return depths


def naive_cones(iyp):
    """Per-AS BFS reachability over Cypher-extracted provider links."""
    rows = iyp.run(
        "MATCH (p:AS)-[r:PEERS_WITH {rel: 1}]->(c:AS) "
        "RETURN p.asn AS provider, c.asn AS customer"
    ).records
    customers: dict[int, set[int]] = {}
    for row in rows:
        customers.setdefault(row["provider"], set()).add(row["customer"])
    asns = [
        row["asn"]
        for row in iyp.run("MATCH (a:AS) RETURN a.asn AS asn").records
    ]
    sizes = {}
    for asn in asns:
        seen = {asn}
        queue = deque([asn])
        while queue:
            for customer in customers.get(queue.popleft(), ()):
                if customer not in seen:
                    seen.add(customer)
                    queue.append(customer)
        sizes[asn] = len(seen)
    return sizes


def naive_betweenness(adjacency):
    """Pair-counting betweenness: sigma via BFS from every node, then
    sigma_st(v) = sigma_sv * sigma_vt when v lies on a shortest path."""
    nodes = sorted(adjacency)
    dist = {}
    sigma = {}
    for source in nodes:
        d = {source: 0}
        s = {source: 1}
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in sorted(adjacency[v]):
                if w not in d:
                    d[w] = d[v] + 1
                    s[w] = 0
                    queue.append(w)
                if d[w] == d[v] + 1:
                    s[w] += s[v]
        dist[source] = d
        sigma[source] = s
    scores = dict.fromkeys(nodes, 0.0)
    for i, s_node in enumerate(nodes):
        for t_node in nodes[i + 1:]:
            if t_node not in dist[s_node]:
                continue
            d_st = dist[s_node][t_node]
            total = sigma[s_node][t_node]
            for v in nodes:
                if v in (s_node, t_node) or v not in dist[s_node]:
                    continue
                if dist[s_node].get(v, -1) + dist[t_node].get(v, -1) == d_st:
                    scores[v] += sigma[s_node][v] * sigma[t_node][v] / total
    return scores


# ---------------------------------------------------------------------------
# Procedure equivalence on built knowledge graphs
# ---------------------------------------------------------------------------


class TestSeedWorld:
    def test_components(self, small_iyp):
        expected = [
            {"component": ids[0], "size": len(ids)}
            for ids in naive_components(small_iyp.store)
        ]
        assert run_procedure(small_iyp.store, "algo.components") == expected

    def test_components_restricted_to_one_type(self, small_iyp):
        expected = [
            {"component": ids[0], "size": len(ids)}
            for ids in naive_components(small_iyp.store, "PEERS_WITH")
        ]
        rows = run_procedure(small_iyp.store, "algo.components", "PEERS_WITH")
        assert rows == expected

    def test_pagerank_is_bit_identical_to_the_legacy_study(self, small_iyp):
        reference = naive_pagerank(small_iyp)
        rows = run_procedure(small_iyp.store, "algo.pagerank")
        assert {r["asn"]: r["score"] for r in rows} == reference

    def test_degree_distribution(self, small_iyp):
        degrees = naive_degrees(small_iyp.store)
        histogram: dict[int, int] = {}
        for degree in degrees.values():
            histogram[degree] = histogram.get(degree, 0) + 1
        rows = run_procedure(small_iyp.store, "algo.degree_distribution")
        assert rows == [
            {"degree": degree, "nodes": count}
            for degree, count in sorted(histogram.items())
        ]

    def test_degree_centrality(self, small_iyp):
        degrees = naive_degrees(small_iyp.store, rel_type="PEERS_WITH")
        rows = run_procedure(
            small_iyp.store, "algo.degree_centrality", "AS", "PEERS_WITH"
        )
        as_ids = {
            node.id for node in small_iyp.store.nodes_with_label("AS")
        }
        assert {r["node"] for r in rows} == as_ids
        for row in rows:
            assert row["degree"] == degrees[row["node"]]
            assert row["score"] == pytest.approx(
                row["degree"] / (len(as_ids) - 1)
            )

    def test_kreach(self, small_iyp):
        source = small_iyp.store.nodes_with_label("AS")[0].id
        rows = run_procedure(small_iyp.store, "algo.kreach", source, 3)
        assert {r["node"]: r["depth"] for r in rows} == naive_kreach(
            small_iyp.store, source, 3
        )

    def test_customer_cone(self, small_iyp):
        rows = run_procedure(small_iyp.store, "algo.customer_cone")
        assert {r["asn"]: r["size"] for r in rows} == naive_cones(small_iyp)

    def test_customer_cone_matches_world_ground_truth(
        self, small_world, small_iyp
    ):
        rows = run_procedure(small_iyp.store, "algo.customer_cone")
        for row in rows:
            assert row["size"] == small_world.ases[row["asn"]].cone_size


class TestRandomWorlds:
    def test_components(self, seeded_iyp):
        expected = [
            {"component": ids[0], "size": len(ids)}
            for ids in naive_components(seeded_iyp.store)
        ]
        assert run_procedure(seeded_iyp.store, "algo.components") == expected

    def test_pagerank(self, seeded_iyp):
        reference = naive_pagerank(seeded_iyp)
        rows = run_procedure(seeded_iyp.store, "algo.pagerank")
        assert {r["asn"]: r["score"] for r in rows} == reference

    def test_kreach(self, seeded_iyp):
        source = seeded_iyp.store.nodes_with_label("AS")[3].id
        rows = run_procedure(seeded_iyp.store, "algo.kreach", source, 2)
        assert {r["node"]: r["depth"] for r in rows} == naive_kreach(
            seeded_iyp.store, source, 2
        )

    def test_customer_cone(self, seeded_iyp):
        rows = run_procedure(seeded_iyp.store, "algo.customer_cone")
        assert {r["asn"]: r["size"] for r in rows} == naive_cones(seeded_iyp)


class TestBetweenness:
    def test_path_and_star_have_known_values(self):
        store = GraphStore()
        a, b, c = (
            store.create_node({"AS"}, {"asn": i}) for i in range(3)
        )
        store.create_relationship(a.id, "PEERS_WITH", b.id)
        store.create_relationship(b.id, "PEERS_WITH", c.id)
        scores = betweenness_centrality(store)
        assert scores == {0: 0.0, 1: 1.0, 2: 0.0}

    def test_random_graphs_match_pair_counting(self):
        rng = random.Random(4242)
        for _ in range(3):
            store = GraphStore()
            nodes = [
                store.create_node({"AS"}, {"asn": i}) for i in range(18)
            ]
            adjacency = {i: set() for i in range(18)}
            for _ in range(40):
                i, j = rng.sample(range(18), 2)
                if j in adjacency[i]:
                    continue
                adjacency[i].add(j)
                adjacency[j].add(i)
                store.create_relationship(
                    nodes[i].id, "PEERS_WITH", nodes[j].id
                )
            expected = naive_betweenness(adjacency)
            scores = betweenness_centrality(store)
            for asn, score in scores.items():
                assert score == pytest.approx(expected[asn]), asn


# ---------------------------------------------------------------------------
# Study refactors: byte-identical to the algorithms they replaced
# ---------------------------------------------------------------------------


class TestStudyRefactors:
    def test_spof_walk_matches_the_legacy_bfs(self, small_iyp):
        """`third_party_ases` now runs on `bounded_reach`; replay the
        pre-refactor manual BFS over the same inputs and require the
        same AS set for every zone."""
        zone_ns: dict[str, set[str]] = {}
        for row in small_iyp.run(
            "MATCH (z:DomainName)-[:MANAGED_BY {reference_name:"
            "'openintel.dnsgraph'}]-(ns:AuthoritativeNameServer) "
            "RETURN z.name AS zone, ns.name AS ns"
        ).records:
            zone_ns.setdefault(row["zone"], set()).add(row["ns"])

        def legacy_reach(domain, max_chain_depth=5):
            reached = []
            visited = {domain}
            frontier = {
                registered_domain(ns) or ns
                for ns in zone_ns.get(domain, ())
            }
            depth = 0
            while frontier and depth < max_chain_depth:
                next_frontier: set[str] = set()
                for zone in frontier:
                    if zone in visited or zone not in zone_ns:
                        continue
                    visited.add(zone)
                    reached.append(zone)
                    for ns in zone_ns[zone]:
                        parent = registered_domain(ns) or ns
                        if parent not in visited:
                            next_frontier.add(parent)
                frontier = next_frontier
                depth += 1
            return reached

        def zone_providers(zone):
            servers = zone_ns.get(zone)
            if servers is None:
                return None
            return [registered_domain(ns) or ns for ns in servers]

        checked = 0
        for domain in sorted(zone_ns)[:200]:
            frontier = {
                registered_domain(ns) or ns
                for ns in zone_ns.get(domain, ())
            }
            new = bounded_reach(
                frontier, zone_providers, max_depth=5, visited=(domain,)
            )
            assert set(new) == set(legacy_reach(domain)), domain
            checked += 1
        assert checked == 200

    def test_spof_study_still_produces_figures(self, small_iyp):
        results = run_spof_study(small_iyp)
        assert results.domains_analyzed > 0
        assert results.domains_with["direct"] > 0
        assert results.domains_with["third_party"] > 0
        assert results.by_country and results.by_as

    def test_topology_cones_match_the_legacy_dfs(self, small_world):
        """`_compute_cones_and_ranks` now runs on `transitive_closure`;
        replay the pre-refactor memoized DFS and require identical cone
        sizes, ranks, and hegemony for every AS."""
        cone_cache: dict[int, set[int]] = {}

        def cone(asn, visiting):
            if asn in cone_cache:
                return cone_cache[asn]
            if asn in visiting:
                return {asn}
            visiting.add(asn)
            members = {asn}
            for customer in small_world.ases[asn].customers:
                members |= cone(customer, visiting)
            visiting.discard(asn)
            cone_cache[asn] = members
            return members

        asns = sorted(small_world.ases)
        sizes = {asn: len(cone(asn, set())) for asn in asns}
        ranked = sorted(asns, key=lambda a: (-sizes[a], a))
        total = len(asns)
        for position, asn in enumerate(ranked, start=1):
            info = small_world.ases[asn]
            assert info.cone_size == sizes[asn]
            assert info.rank == position
            assert info.hegemony == round(sizes[asn] / total, 6)

    def test_transitive_closure_cycle_handling(self):
        """A key re-entered on the DFS stack contributes only itself —
        the exact cycle rule the synthetic builder used."""
        closure = transitive_closure({1: [2], 2: [1, 3], 3: []}, keys=[1])
        assert closure[1] == {1, 2, 3}
