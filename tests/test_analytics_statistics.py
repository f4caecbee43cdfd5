"""Graph statistics and the statistics-informed planner.

Covers :func:`repro.analytics.compute_statistics` itself (expansion
factors, histograms, components, JSON roundtrip), the shared
degree-counting path (``GraphStore.degree`` and every analytics
histogram must agree, self-loops included), and the cost-based
planner's consumption of real degree histograms: with statistics
attached to an engine, EXPLAIN carries cardinality estimates and the
join order can change relative to the legacy uniform-cost model.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    GraphStatistics,
    compute_statistics,
    degree_histogram,
    degree_histograms,
)
from repro.analytics import measures
from repro.analytics.measures import DIRECTION_NAMES
from repro.columnar import ColumnarGraphStore
from repro.cypher import CypherEngine
from repro.cypher.values import hash_key
from repro.graphdb import GraphStore
from repro.graphdb.model import Direction
from repro.graphdb.store import directional_count

DIRECTIONS = {
    "out": Direction.OUT,
    "in": Direction.IN,
    "both": Direction.BOTH,
}


@pytest.fixture()
def loopy_store():
    """Two labels, two rel types, one self-loop, one isolated node."""
    store = GraphStore()
    a = store.create_node({"A"}, {"id": 0})
    b = store.create_node({"A"}, {"id": 1})
    c = store.create_node({"B"}, {"id": 2})
    store.create_node({"B"}, {"id": 3})  # isolated
    store.create_relationship(a.id, "R", b.id)
    store.create_relationship(a.id, "R", c.id)
    store.create_relationship(c.id, "S", a.id)
    store.create_relationship(b.id, "S", b.id)  # self-loop
    return store


class TestComputeStatistics:
    def test_cardinalities(self, loopy_store):
        stats = compute_statistics(loopy_store)
        assert stats.version == loopy_store.version
        assert stats.node_count == 4
        assert stats.relationship_count == 4
        assert stats.label_counts == {"A": 2, "B": 2}
        assert stats.relationship_type_counts == {"R": 2, "S": 2}

    def test_expansion_factors(self, loopy_store):
        stats = compute_statistics(loopy_store)
        # Label A: 2 nodes; R out-endpoints on A: 2 (both from a).
        assert stats.expansion("A", "R", "out") == pytest.approx(1.0)
        # Label A never starts an R... it never *receives* S? a receives
        # one S, b receives its own loop: 2 in-endpoints over 2 nodes.
        assert stats.expansion("A", "S", "in") == pytest.approx(1.0)
        # Known label, type it never touches: authoritative zero.
        assert stats.expansion("B", "S", "in") == 0.0
        # Unknown label: global mean degree for the slice.
        assert stats.expansion("Nope", "R", "out") == pytest.approx(2 / 4)

    def test_components(self, loopy_store):
        stats = compute_statistics(loopy_store)
        assert stats.component_count == 2
        assert stats.component_sizes == (3, 1)

    def test_components_can_be_skipped(self, loopy_store):
        stats = compute_statistics(loopy_store, components=False)
        assert stats.component_count == 0
        assert stats.component_sizes == ()
        assert stats.label_counts == {"A": 2, "B": 2}

    def test_roundtrip_through_json_payload(self, loopy_store):
        stats = compute_statistics(loopy_store)
        restored = GraphStatistics.from_dict(stats.to_dict())
        assert restored == stats


# ---------------------------------------------------------------------------
# The one node pass against the per-edge reference
# ---------------------------------------------------------------------------


def naive_statistics(store) -> GraphStatistics:
    """The per-edge reference: every relationship looks up both of its
    endpoints' labels, and every (node, type, direction) bumps its own
    counter."""
    label_counts = store.label_counts()
    out_totals: dict[tuple[str, str], int] = {}
    in_totals: dict[tuple[str, str], int] = {}
    for rel_type, start_id, end_id in store.iter_edges():
        for totals, node_id in ((out_totals, start_id), (in_totals, end_id)):
            for label in store.node_labels(node_id):
                for rel_key in (rel_type, "*"):
                    key = (label, rel_key)
                    totals[key] = totals.get(key, 0) + 1
    expansions: dict[tuple[str, str, str], float] = {}
    for (label, rel_key), total in out_totals.items():
        expansions[(label, rel_key, "out")] = total / label_counts[label]
    for (label, rel_key), total in in_totals.items():
        expansions[(label, rel_key, "in")] = total / label_counts[label]
    for label, rel_key in set(out_totals) | set(in_totals):
        combined = out_totals.get((label, rel_key), 0) + in_totals.get(
            (label, rel_key), 0
        )
        expansions[(label, rel_key, "both")] = combined / label_counts[label]

    histograms: dict[tuple[str, str], Counter] = {}
    counted: Counter = Counter()
    for node_id in store.node_ids():
        totals = [0, 0, 0]
        for rel_type, degrees in store.typed_degrees(node_id).items():
            totals = [a + b for a, b in zip(totals, degrees, strict=True)]
            for name, direction in DIRECTION_NAMES:
                key = (rel_type, name)
                histograms.setdefault(key, Counter())[
                    directional_count(*degrees, direction)
                ] += 1
                counted[key] += 1
        for name, direction in DIRECTION_NAMES:
            histograms.setdefault(("*", name), Counter())[
                directional_count(*totals, direction)
            ] += 1
    for key, bucket in histograms.items():
        missing = store.node_count - counted[key]
        if key[0] != "*" and missing:
            bucket[0] += missing
    return GraphStatistics(
        version=store.version,
        node_count=store.node_count,
        relationship_count=store.relationship_count,
        label_counts=label_counts,
        relationship_type_counts=store.relationship_type_counts(),
        expansions=expansions,
        degree_histograms={key: dict(bucket) for key, bucket in histograms.items()},
    )


def assert_equals_reference(store) -> None:
    fast = compute_statistics(store, components=False)
    slow = naive_statistics(store)
    assert json.dumps(fast.to_dict()) == json.dumps(slow.to_dict())
    assert fast.expansions == slow.expansions
    assert fast.degree_histograms == slow.degree_histograms
    assert degree_histograms(store) == slow.degree_histograms


@st.composite
def multigraphs(draw):
    """Up to eight nodes with zero to three labels and up to twenty
    relationships of three types: self-loops, parallel edges and
    isolated nodes come for free."""
    count = draw(st.integers(0, 8))
    nodes = [
        (node_id, draw(st.lists(st.sampled_from("ABC"), unique=True)), {})
        for node_id in range(count)
    ]
    edges = (
        draw(
            st.lists(
                st.tuples(
                    st.integers(0, count - 1),
                    st.sampled_from("RST"),
                    st.integers(0, count - 1),
                ),
                max_size=20,
            )
        )
        if count
        else []
    )
    rels = [
        (100 + index, rel_type, start, end, {})
        for index, (start, rel_type, end) in enumerate(edges)
    ]
    return nodes, rels


class TestOnePassEqualsReference:
    @pytest.mark.parametrize("fixture", ["loopy_store", "skewed_store"])
    def test_fixture_stores(self, request, fixture):
        assert_equals_reference(request.getfixturevalue(fixture))

    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_small_world(self, small_iyp, backend):
        store = small_iyp.store
        if backend == "columnar":
            store = ColumnarGraphStore.from_store(store)
        assert_equals_reference(store)

    @settings(max_examples=150, deadline=None)
    @given(graph=multigraphs())
    def test_random_multigraphs(self, graph):
        store = GraphStore.from_records(*graph)
        assert_equals_reference(store)
        assert_equals_reference(ColumnarGraphStore.from_store(store))


class TestSharedDegreePath:
    """Satellite regression: ``GraphStore.degree``/``degree_by_type``
    and the analytics histograms share one loop-counting helper, so
    their totals can never diverge — especially for ``Direction.BOTH``
    self-loops, which appear in both adjacency partitions but are one
    relationship."""

    def test_degree_counts_a_self_loop_once(self, loopy_store):
        # Node 1 touches two relationships: a->b (R, incoming) and the
        # b->b self-loop (S, both partitions, one relationship).
        assert loopy_store.degree(1, Direction.BOTH) == 2
        assert loopy_store.degree(1, Direction.OUT) == 1
        assert loopy_store.degree(1, Direction.IN) == 2
        assert loopy_store.degree_by_type(1, "S", Direction.BOTH) == 1

    @pytest.mark.parametrize("name", sorted(DIRECTIONS))
    def test_histogram_mass_equals_summed_degrees(self, loopy_store, name):
        direction = DIRECTIONS[name]
        histogram = degree_histogram(loopy_store, direction=direction)
        assert sum(histogram.values()) == loopy_store.node_count
        mass = sum(degree * count for degree, count in histogram.items())
        assert mass == sum(
            loopy_store.degree(node.id, direction)
            for node in loopy_store.iter_nodes()
        )

    @pytest.mark.parametrize("name", sorted(DIRECTIONS))
    def test_typed_histograms_match_degree_by_type(self, loopy_store, name):
        direction = DIRECTIONS[name]
        all_histograms = degree_histograms(loopy_store)
        for rel_type in ("R", "S"):
            histogram = all_histograms[(rel_type, name)]
            assert sum(histogram.values()) == loopy_store.node_count
            assert histogram == degree_histogram(
                loopy_store, rel_type=rel_type, direction=direction
            )
            mass = sum(
                degree * count for degree, count in histogram.items()
            )
            assert mass == sum(
                loopy_store.degree_by_type(node.id, rel_type, direction)
                for node in loopy_store.iter_nodes()
            )


# ---------------------------------------------------------------------------
# algo.degree_distribution off the statistics
# ---------------------------------------------------------------------------


def call_distribution(engine, *args) -> dict[int, int]:
    text = ", ".join("null" if arg is None else f"'{arg}'" for arg in args)
    result = engine.run(
        f"CALL algo.degree_distribution({text}) YIELD degree, nodes "
        "RETURN degree, nodes"
    )
    return {row["degree"]: row["nodes"] for row in result.records}


class TestDegreeDistributionReadsStatistics:
    """Fresh statistics answer every label-free slice; a ``label=`` call,
    a type the graph lacks and a store changed since the statistics
    were taken all recompute."""

    @pytest.fixture()
    def spy(self, monkeypatch):
        calls = []
        recompute = measures.degree_histogram

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return recompute(*args, **kwargs)

        monkeypatch.setattr(measures, "degree_histogram", counting)
        return calls

    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    @pytest.mark.parametrize("fixture", ["loopy_store", "skewed_store"])
    def test_every_slice(self, request, fixture, backend, spy):
        store = request.getfixturevalue(fixture)
        if backend == "columnar":
            store = ColumnarGraphStore.from_store(store)
        engine = CypherEngine(store)
        engine.statistics = compute_statistics(store)
        for rel_type in [None, *store.relationship_type_counts(), "NOPE"]:
            for name, direction in DIRECTION_NAMES:
                assert call_distribution(engine, rel_type, name) == degree_histogram(
                    store, rel_type=rel_type, direction=direction
                ), (rel_type, name)
        # Only the unknown type fell back, once per direction.
        assert [call["rel_type"] for call in spy] == ["NOPE"] * 3

    def test_label_calls_recompute(self, loopy_store, spy):
        engine = CypherEngine(loopy_store)
        engine.statistics = compute_statistics(loopy_store)
        assert call_distribution(engine, "R", "out", "A") == degree_histogram(
            loopy_store, rel_type="R", direction=Direction.OUT, label="A"
        )
        assert [call["label"] for call in spy] == ["A"]

    def test_stale_statistics_are_not_read(self, loopy_store, spy):
        engine = CypherEngine(loopy_store)
        engine.statistics = compute_statistics(loopy_store)
        loopy_store.create_relationship(0, "R", 3)
        assert call_distribution(engine, "R", "in") == degree_histogram(
            loopy_store, rel_type="R", direction=Direction.IN
        )
        assert call_distribution(engine, None, "both") == degree_histogram(
            loopy_store
        )
        assert len(spy) == 2


# ---------------------------------------------------------------------------
# Statistics-informed planning
# ---------------------------------------------------------------------------


@pytest.fixture()
def skewed_store():
    """Two equally-populated labels whose *fan-outs* differ wildly.

    The legacy cost model only sees label populations (a tie), so it
    keeps textual pattern order.  Real degree histograms expose that
    every Hub node fans out 10 R1 edges while at most one Probe node
    has a single R2 edge — so a statistics-informed planner must run
    the Probe pattern first.
    """
    store = GraphStore()
    targets = [store.create_node({"T"}, {"t": i}) for i in range(5)]
    for i in range(20):
        hub = store.create_node({"Hub"}, {"h": i})
        for j in range(10):
            store.create_relationship(
                hub.id, "R1", targets[(i + j) % len(targets)].id
            )
    for i in range(20):
        probe = store.create_node({"Probe"}, {"p": i})
        if i == 0:
            store.create_relationship(probe.id, "R2", targets[0].id)
    return store


QUERY = (
    "MATCH (a:Hub)-[:R1]->(x), (b:Probe)-[:R2]->(x) "
    "RETURN a.h, b.p, x.t"
)


def result_multiset(result):
    return sorted(
        tuple((column, hash_key(record[column])) for column in result.columns)
        for record in result.records
    )


class TestStatisticsInformedPlanning:
    def test_explain_without_statistics_has_no_estimates(self, skewed_store):
        lines = "\n".join(CypherEngine(skewed_store).explain(QUERY))
        assert "est~" not in lines
        # Tied label populations: the legacy model keeps textual order.
        assert "join=1/2 pattern=0" in lines

    def test_real_histograms_change_the_join_order(self, skewed_store):
        engine = CypherEngine(skewed_store)
        engine.statistics = compute_statistics(skewed_store)
        lines = "\n".join(engine.explain(QUERY))
        # The Probe pattern (1 edge total) now runs first.
        assert "join=1/2 pattern=1" in lines
        assert "est~" in lines

    def test_estimates_reflect_measured_fanout(self, skewed_store):
        engine = CypherEngine(skewed_store)
        engine.statistics = compute_statistics(skewed_store)
        lines = list(engine.explain(QUERY))
        probe_line = next(line for line in lines if "pattern=1" in line)
        hub_line = next(line for line in lines if "pattern=0" in line)
        # 20 Probe nodes x 0.05 mean fan-out = 1 expected row.
        assert "est~1" in probe_line
        # Hub estimate is orders of magnitude larger (20 x 10 = 200
        # rows before the join narrows it).
        assert "est~" in hub_line

    def test_statistics_never_change_results(self, skewed_store):
        baseline = CypherEngine(skewed_store).run(QUERY)
        informed_engine = CypherEngine(skewed_store)
        informed_engine.statistics = compute_statistics(skewed_store)
        informed = informed_engine.run(QUERY)
        assert result_multiset(informed) == result_multiset(baseline)
        assert len(informed.records) > 0

    def test_single_pattern_queries_get_estimates_too(self, skewed_store):
        engine = CypherEngine(skewed_store)
        engine.statistics = compute_statistics(skewed_store)
        lines = list(engine.explain("MATCH (a:Hub)-[:R1]->(x) RETURN a"))
        match_line = next(line for line in lines if "est~" in line)
        # ~20 Hub anchors x 10 mean R1 fan-out.
        estimate = float(match_line.rsplit("est~", 1)[1])
        assert 150 <= estimate <= 250
