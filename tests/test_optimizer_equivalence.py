"""Optimizer equivalence harness.

The cost-based planner (predicate pushdown, seek promotion, join
reordering) must never change query *results* — only how fast they
arrive.  This suite runs three families of queries through the
engine and the planner-free reference executor
(:func:`tests.reference_matcher.naive_engine`: textual pattern order,
no pushdown, WHERE on complete bindings) and asserts identical result
multisets:

1. every paper listing from :mod:`repro.studies.queries`,
2. every ``cypher`` fence in ``EXPERIMENTS.md``,
3. a seeded family of randomized queries generated against the actual
   schema of the built graph (multi-pattern MATCH, shared variables,
   variable-length paths, WHERE conjuncts of every classification).

It also pins the two order-sensitivity guarantees the planner relies
on: relationship isomorphism is enforced across a whole MATCH clause
regardless of pattern order (the Listing-2 MOAS guarantee), and
variable-length paths survive join reordering.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest

from repro.cypher import CypherEngine
from repro.cypher.values import hash_key
from repro.graphdb import GraphStore
from repro.lint.extract import extract_queries
from repro.studies import queries as listings
from tests.reference_matcher import naive_engine

EXPERIMENTS = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def result_multiset(result) -> Counter:
    """Order-insensitive, hashable view of a query result."""
    return Counter(
        tuple((column, hash_key(record[column])) for column in result.columns)
        for record in result.records
    )


def assert_equivalent(store, query: str, parameters: dict | None = None) -> int:
    """Run ``query`` optimized and naive; assert identical multisets.

    Returns the row count so callers can assert non-triviality.
    """
    optimized = CypherEngine(store).run(query, parameters)
    naive = naive_engine(store).run(query, parameters)
    assert optimized.columns == naive.columns, query
    assert result_multiset(optimized) == result_multiset(naive), query
    return len(optimized.records)


# ---------------------------------------------------------------------------
# Paper listings and EXPERIMENTS.md fences
# ---------------------------------------------------------------------------

PAPER_LISTINGS = {
    name: getattr(listings, name)
    for name in sorted(dir(listings))
    if name.startswith("LISTING_")
}


@pytest.mark.parametrize("name", sorted(PAPER_LISTINGS))
def test_paper_listing_unchanged_by_optimizer(small_iyp, name):
    query = PAPER_LISTINGS[name]
    parameters = None
    if "$org_name" in query:
        orgs = small_iyp.engine.run(
            "MATCH (o:Organization) RETURN o.name AS name ORDER BY name"
        )
        assert orgs.records, "graph has no organizations to parameterize with"
        parameters = {"org_name": orgs.records[0]["name"]}
    assert_equivalent(small_iyp.store, query, parameters)


def test_experiments_fences_unchanged_by_optimizer(small_iyp):
    fences = extract_queries(EXPERIMENTS)
    assert fences, "EXPERIMENTS.md lost its cypher fences"
    for name, query in fences:
        rows = assert_equivalent(small_iyp.store, query)
        assert rows > 0, f"{name} returned nothing on the built graph"


# ---------------------------------------------------------------------------
# Randomized queries against the real schema
# ---------------------------------------------------------------------------


class QueryGenerator:
    """Seeded random query generator driven by the store's actual
    contents, so predicates compare against values that exist."""

    def __init__(self, store: GraphStore, seed: int):
        self.store = store
        self.rng = random.Random(seed)
        self.labels = [
            label for label, count in sorted(store.label_counts().items()) if count
        ]
        # (start_label, rel_type, end_label) triples that actually occur,
        # so generated patterns have a fighting chance of matching.
        triples: set[tuple[str, str, str]] = set()
        for rel in store.iter_relationships():
            start = store.get_node(rel.start_id)
            end = store.get_node(rel.end_id)
            for start_label in start.labels:
                for end_label in end.labels:
                    triples.add((start_label, rel.type, end_label))
        self.triples = sorted(triples)
        # label -> sorted property keys present on nodes of that label.
        self.props: dict[str, list[str]] = {}
        for label in self.labels:
            keys: set[str] = set()
            for node in store.nodes_with_label(label)[:25]:
                keys.update(node.properties)
            self.props[label] = sorted(keys)

    def sample_value(self, label: str, key: str):
        nodes = self.store.nodes_with_label(label)
        node = self.rng.choice(nodes)
        return node.properties.get(key)

    def pattern(
        self, index: int, bound: dict[str, str]
    ) -> tuple[str, dict[str, str]] | None:
        """One path pattern built from an observed schema triple.

        Patterns after the first MUST share a variable with what is
        already bound: the graph is dense enough (15k edges on a single
        type) that a disconnected pattern turns the clause into a
        cartesian product with ~10^8 intermediate rows.  Returns None
        when no observed triple connects to the bound variables.
        """
        rng = self.rng
        left = f"a{index}"
        right = f"b{index}"
        hops = f"*1..{rng.randint(1, 2)}" if rng.random() < 0.15 else ""
        arrow = rng.choice(["-", "->"])
        if not bound:
            start_label, rel, end_label = rng.choice(self.triples)
            text = f"({left}:{start_label})-[:{rel}{hops}]{arrow}({right}:{end_label})"
            return text, {left: start_label, right: end_label}
        labels = set(bound.values())
        connectable = [
            triple
            for triple in self.triples
            if triple[0] in labels or triple[2] in labels
        ]
        if not connectable:
            return None
        start_label, rel, end_label = rng.choice(connectable)
        if end_label in labels and (start_label not in labels or rng.random() < 0.5):
            right = rng.choice(
                [var for var, label in bound.items() if label == end_label]
            )
            text = f"({left}:{start_label})-[:{rel}{hops}]{arrow}({right})"
            return text, {left: start_label}
        left = rng.choice([var for var, label in bound.items() if label == start_label])
        text = f"({left})-[:{rel}{hops}]{arrow}({right}:{end_label})"
        return text, {right: end_label}

    def predicate(self, variable: str, label: str) -> str | None:
        keys = self.props.get(label)
        if not keys:
            return None
        key = self.rng.choice(keys)
        value = self.sample_value(label, key)
        if isinstance(value, bool) or value is None:
            return f"{variable}.{key} IS NOT NULL"
        if isinstance(value, (int, float)):
            op = self.rng.choice(["=", "<>", ">", "<="])
            return f"{variable}.{key} {op} {value!r}"
        if isinstance(value, str):
            shape = self.rng.random()
            escaped = value.replace("'", "\\'")
            if shape < 0.4:
                return f"{variable}.{key} = '{escaped}'"
            if shape < 0.7:
                return f"{variable}.{key} STARTS WITH '{escaped[:2]}'"
            return f"{variable}.{key} CONTAINS '{escaped[1:3]}'"
        return f"{variable}.{key} IS NOT NULL"

    def query(self) -> str:
        rng = self.rng
        patterns: list[str] = []
        bound: dict[str, str] = {}  # variable -> label
        for index in range(rng.randint(1, 3)):
            part = self.pattern(index, bound)
            if part is None:
                break
            text, introduced = part
            patterns.append(text)
            bound.update(introduced)
        conjuncts: list[str] = []
        for variable, label in bound.items():
            if rng.random() < 0.4:
                predicate = self.predicate(variable, label)
                if predicate:
                    conjuncts.append(predicate)
        if len(bound) >= 2 and rng.random() < 0.3:
            (va, la), (vb, lb) = rng.sample(sorted(bound.items()), 2)
            if self.props.get(la) and self.props.get(lb):
                conjuncts.append(
                    f"{va}.{rng.choice(self.props[la])} <> "
                    f"{vb}.{rng.choice(self.props[lb])}"
                )
        where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
        returned = ", ".join(bound)
        distinct = "DISTINCT " if rng.random() < 0.3 else ""
        return f"MATCH {', '.join(patterns)}{where} RETURN {distinct}{returned}"


def test_randomized_queries_unchanged_by_optimizer(small_iyp):
    generator = QueryGenerator(small_iyp.store, seed=20240806)
    total_rows = 0
    nonempty = 0
    for _ in range(40):
        query = generator.query()
        rows = assert_equivalent(small_iyp.store, query)
        total_rows += rows
        nonempty += bool(rows)
    # The generator samples live values, so a healthy fraction of the
    # queries must actually produce rows — otherwise the equivalence
    # check degenerates into comparing empty sets.
    assert nonempty >= 10, f"only {nonempty}/40 random queries returned rows"
    assert total_rows > 100


# ---------------------------------------------------------------------------
# Order-sensitivity guarantees (satellite: MOAS / variable-length)
# ---------------------------------------------------------------------------


@pytest.fixture()
def moas_store():
    """Two prefixes: one genuine MOAS (two distinct origins) and one
    with a single origin, plus skew so the planner reorders."""
    store = GraphStore()
    store.create_index("AS", "asn")
    a1 = store.create_node({"AS"}, {"asn": 1})
    a2 = store.create_node({"AS"}, {"asn": 2})
    a3 = store.create_node({"AS"}, {"asn": 3})
    moas = store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8"})
    single = store.create_node({"Prefix"}, {"prefix": "192.168.0.0/16"})
    store.create_relationship(a1.id, "ORIGINATE", moas.id)
    store.create_relationship(a2.id, "ORIGINATE", moas.id)
    store.create_relationship(a3.id, "ORIGINATE", single.id)
    # Padding nodes make both label scans expensive relative to an
    # index seek, so multi-pattern plans genuinely reorder.
    for i in range(50):
        store.create_node({"AS"}, {"asn": 100 + i})
        store.create_node({"Prefix"}, {"prefix": f"172.16.{i}.0/24"})
    return store


class TestRelationshipIsomorphism:
    def test_single_origin_prefix_is_not_moas(self, moas_store):
        """The Listing-2 guarantee: a prefix with ONE ORIGINATE edge
        never matches the two-leg MOAS pattern, because the single
        relationship cannot be used for both legs."""
        result = CypherEngine(moas_store).run(
            "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) "
            "RETURN DISTINCT p.prefix"
        )
        assert [r["p.prefix"] for r in result.records] == ["10.0.0.0/8"]

    def test_isomorphism_holds_across_patterns_of_one_clause(self, moas_store):
        """Split into two comma patterns the constraint still holds:
        both legs share the clause-wide used-relationship set."""
        rows = assert_equivalent(
            moas_store,
            "MATCH (x:AS)-[:ORIGINATE]->(p:Prefix), (y:AS)-[:ORIGINATE]->(p) "
            "RETURN x.asn, y.asn, p.prefix",
        )
        # Only the MOAS prefix contributes, in both (x,y) orders.
        assert rows == 2

    def test_isomorphism_is_join_order_independent(self, moas_store):
        """Force the planner to run the second textual pattern first (it
        carries an index seek) and check the multiset still matches the
        naive textual-order execution.  The seek comes from an inline
        property map, or — the MOAS selective join — from a ``WHERE``
        equality on a parameter that the planner promotes."""
        engine = CypherEngine(moas_store)
        for query, parameters, promoted in [
            (
                "MATCH (x:AS)-[:ORIGINATE]->(p:Prefix), "
                "(y:AS {asn: 2})-[:ORIGINATE]->(p) RETURN x.asn, y.asn",
                None, "",
            ),
            (
                "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix), (y:AS)-[:ORIGINATE]-(p) "
                "WHERE y.asn = $asn AND x.asn <> y.asn RETURN DISTINCT p.prefix",
                {"asn": 2}, "pushed seek y.asn",
            ),
        ]:
            plan_lines = "\n".join(engine.explain(query))
            assert "join=1/2 pattern=1" in plan_lines  # reorder actually happened
            assert promoted in plan_lines
            rows = assert_equivalent(moas_store, query, parameters)
            assert rows == 1  # only (x=1, y=2) on the MOAS prefix


class TestVariableLengthUnderReordering:
    @pytest.fixture()
    def chain_store(self):
        """a -> b -> c -> d dependency chain with a marker hanging off
        the tail, plus label skew to trigger reordering."""
        store = GraphStore()
        store.create_index("Marker", "name")
        nodes = [store.create_node({"AS"}, {"asn": i}) for i in range(4)]
        for left, right in zip(nodes, nodes[1:], strict=False):
            store.create_relationship(left.id, "DEPENDS_ON", right.id)
        marker = store.create_node({"Marker"}, {"name": "tail"})
        store.create_relationship(nodes[-1].id, "FLAGGED", marker.id)
        for i in range(50):
            store.create_node({"AS"}, {"asn": 100 + i})
        return store

    def test_variable_length_results_survive_reordering(self, chain_store):
        engine = CypherEngine(chain_store)
        query = (
            "MATCH (s:AS)-[:DEPENDS_ON*1..3]->(t), (t)-[:FLAGGED]->(m:Marker {name: 'tail'}) "
            "RETURN s.asn, t.asn"
        )
        plan_lines = "\n".join(engine.explain(query))
        assert "join=1/2 pattern=1" in plan_lines  # marker seek runs first
        optimized = CypherEngine(chain_store).run(query)
        naive = naive_engine(chain_store).run(query)
        assert result_multiset(optimized) == result_multiset(naive)
        # Nodes 0..2 reach node 3 within three hops.
        assert sorted(r["s.asn"] for r in optimized.records) == [0, 1, 2]

    def test_variable_length_rels_count_toward_isomorphism(self, chain_store):
        """A relationship consumed inside a var-length leg cannot be
        reused by a later pattern of the same clause."""
        rows = assert_equivalent(
            chain_store,
            "MATCH (s:AS)-[:DEPENDS_ON*1..1]->(t), (t)-[:DEPENDS_ON]->(u) "
            "WHERE s.asn = 0 RETURN s.asn, t.asn, u.asn",
        )
        assert rows == 1  # 0->1 then 1->2; the 0->1 edge is not reusable
