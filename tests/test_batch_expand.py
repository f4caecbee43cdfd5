"""The batch Expand operator against the walk it stands beside.

A planned MATCH of one fixed-length path runs on
:meth:`PatternMatcher.expand` (``MatchPlan.expand`` set, EXPLAIN's
``op=BatchExpand``); every other shape runs on the backtracking walk,
:meth:`PatternMatcher.match_patterns`.  The walk is the oracle here: a
second engine routes the same :class:`MatchPlan` through it, and both
must return the same records *in the same order*, with the same PROFILE
row counts, on both backends — for the paper's listings, the lifecycle
lap and HTTP mix, the ``EXPERIMENTS.md`` fences, the seeded random
queries and random multigraphs.  The guard, failure and OPTIONAL
semantics of the batch path are pinned separately.
"""

from __future__ import annotations

import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytics import k_reach
from repro.columnar import ColumnarGraphStore
from repro.cypher import CypherEngine, CypherRuntimeError
from repro.cypher.errors import QueryTimeoutError, RowLimitError
from repro.cypher.guard import QueryGuard
from repro.cypher.parser import parse
from repro.cypher.planner import plan_match
from repro.cypher.values import hash_key
from repro.graphdb import Direction, GraphStore
from repro.lint.extract import extract_queries
from tests.test_optimizer_equivalence import EXPERIMENTS, PAPER_LISTINGS, QueryGenerator

# The lifecycle benchmark's notebook lap and HTTP mix, as texts.
LAP_AND_MIX = {
    "typed_expansion": (
        "MATCH (r:Ranking {name: 'Tranco top 1M'})-[:RANK]-(d:DomainName)"
        "-[:MANAGED_BY]-(ns:AuthoritativeNameServer)"
        "-[:RESOLVES_TO]-(ip:IP {af: 4}) RETURN count(DISTINCT ip) AS ips"
    ),
    "selective_join": (
        "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix), (y:AS)-[:ORIGINATE]-(p) "
        "WHERE y.asn = $asn AND x.asn <> y.asn RETURN DISTINCT p.prefix"
    ),
    "moas_asns": (
        "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix)-[:ORIGINATE]-(y:AS) "
        "WHERE x.asn <> y.asn RETURN DISTINCT y.asn AS asn ORDER BY asn"
    ),
    "seek_as": "MATCH (a:AS {asn: $asn}) RETURN a.asn AS asn",
    "seek_prefix": "MATCH (p:Prefix {prefix: $prefix}) RETURN p.prefix AS prefix",
    "as_name": (
        "MATCH (a:AS {asn: $asn})-[:NAME {reference_name: 'ripe.as_names'}]-(n:Name) "
        "RETURN n.name AS name"
    ),
    "peerings": "MATCH (a:AS)-[:PEERS_WITH]-(b:AS) RETURN count(a) AS peerings",
    "degree_distribution": (
        "CALL algo.degree_distribution('PEERS_WITH') YIELD degree, nodes "
        "RETURN degree, nodes ORDER BY nodes DESC, degree LIMIT 10"
    ),
    "count_prefix": "MATCH (p:Prefix) RETURN count(p) AS n",
    "count_domain": "MATCH (d:DomainName) RETURN count(d) AS n",
    "count_originate": "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN count(p) AS n",
    "count_resolves": "MATCH (h:HostName)-[:RESOLVES_TO]->(i:IP) RETURN count(i) AS n",
}


def walking(engine: CypherEngine) -> CypherEngine:
    """``engine`` with every batch-planned MATCH run by the walk, from
    the same plan."""
    matcher = engine._matcher
    matcher.expand = lambda plan, binding: matcher.match_patterns(  # type: ignore[method-assign]
        plan.patterns, binding, plan.pushed or None, plan.anchors
    )
    return engine


def ordered(result) -> list[tuple]:
    return [
        tuple(hash_key(record[column]) for column in result.columns)
        for record in result.records
    ]


def batch_matches(profile) -> int:
    return sum(
        node.operator == "Match" and "op=BatchExpand" in node.detail
        for node in profile.walk()
    )


def assert_same_as_walk(store, query: str, parameters: dict | None = None):
    """Profile ``query`` on the batch path and on the walk; the records
    (order included) and every operator's row count must agree.
    Returns the batch run's result and profile."""
    result, profile = CypherEngine(store).profile(query, parameters)
    walked, walked_profile = walking(CypherEngine(store)).profile(query, parameters)
    assert result.columns == walked.columns, query
    assert ordered(result) == ordered(walked), query
    assert [(n.operator, n.rows) for n in profile.walk()] == [
        (n.operator, n.rows) for n in walked_profile.walk()
    ], query
    return result, profile


# ---------------------------------------------------------------------------
# The built graph: listings, lap, mix, fences, seeded random queries
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=("dict", "columnar"))
def graph(request, small_iyp):
    if request.param == "dict":
        return small_iyp.store
    return ColumnarGraphStore.from_store(small_iyp.store)


@pytest.fixture(scope="module")
def parameters(small_iyp):
    run = small_iyp.engine.run
    return {
        "org_name": run(
            "MATCH (o:Organization) RETURN o.name AS name ORDER BY name"
        ).records[0]["name"],
        "asn": run(LAP_AND_MIX["moas_asns"]).records[0]["asn"],
        "prefix": run(
            "MATCH (p:Prefix) RETURN p.prefix AS prefix ORDER BY prefix LIMIT 1"
        ).records[0]["prefix"],
    }


@pytest.mark.parametrize("name", sorted(PAPER_LISTINGS))
def test_paper_listings(graph, parameters, name):
    result, profile = assert_same_as_walk(graph, PAPER_LISTINGS[name], parameters)
    assert result.records
    # Every listing has at least one single-path MATCH.
    assert batch_matches(profile) >= 1


@pytest.mark.parametrize("name", sorted(LAP_AND_MIX))
def test_lap_and_http_mix(graph, parameters, name):
    result, profile = assert_same_as_walk(graph, LAP_AND_MIX[name], parameters)
    if name in ("typed_expansion", "moas_asns", "as_name", "peerings"):
        assert result.records and batch_matches(profile) == 1


def test_experiments_fences(graph):
    fences = extract_queries(EXPERIMENTS)
    assert fences, "EXPERIMENTS.md lost its cypher fences"
    batched = 0
    for _, query in fences:
        _, profile = assert_same_as_walk(graph, query)
        batched += batch_matches(profile)
    assert batched >= 2


def test_seeded_random_queries(graph, small_iyp):
    generator = QueryGenerator(small_iyp.store, seed=20240825)
    batched = 0
    for _ in range(30):
        _, profile = assert_same_as_walk(graph, generator.query())
        batched += batch_matches(profile)
    assert batched >= 5


# ---------------------------------------------------------------------------
# Random multigraphs: every awkward shape the operator must get right
# ---------------------------------------------------------------------------

VALUES = (1, 1.0, True, 2, "1", None)
LITERALS = ("", " {p: 1}", " {p: 1.0}", " {p: true}")


@st.composite
def multigraphs(draw):
    """Up to five nodes (no, one or two labels), up to ten relationships
    of two types: self-loops and parallel edges come for free."""
    count = draw(st.integers(1, 5))
    nodes = []
    for node_id in range(1, count + 1):
        labels = draw(st.sampled_from(((), ("A",), ("B",), ("A", "B"))))
        value = draw(st.sampled_from(VALUES))
        nodes.append((node_id, list(labels), {} if value is None else {"p": value}))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(1, count),
                st.sampled_from(("R", "S")),
                st.integers(1, count),
                st.sampled_from(VALUES),
            ),
            max_size=10,
        )
    )
    rels = [
        (100 + index, rel_type, start, end, {} if value is None else {"p": value})
        for index, (start, rel_type, end, value) in enumerate(edges)
    ]
    return nodes, rels


@st.composite
def path_queries(draw):
    """A one-path MATCH of one to three hops — labels, inline maps,
    untyped and overlapping-type hops in every direction — optionally
    OPTIONAL, behind a MATCH that binds one of its nodes, with a WHERE
    that is pushed, promoted, prefiltered or residual."""
    hops = draw(st.integers(1, 3))

    def node(index: int) -> str:
        label = draw(st.sampled_from(("", ":A", ":B", ":A:B")))
        return f"(n{index}{label}{draw(st.sampled_from(LITERALS))})"

    def rel(index: int) -> str:
        types = draw(st.sampled_from(("", ":R", ":S", ":R|S")))
        left, right = draw(st.sampled_from((("-", "->"), ("<-", "-"), ("-", "-"))))
        return f"{left}[r{index}{types}{draw(st.sampled_from(LITERALS))}]{right}"

    pattern = node(0) + "".join(rel(i) + node(i + 1) for i in range(hops))
    bound = draw(st.none() | st.integers(0, hops))
    prefix = "" if bound is None else f"MATCH (n{bound}) "
    where = draw(
        st.sampled_from(
            (
                "",
                " WHERE n0.p = 1",
                f" WHERE n{hops}.p = true",
                " WHERE r0.p IS NOT NULL",
                f" WHERE n0.p <> n{hops}.p",
                " WHERE n1.p > 0 AND r0.p <= 1",
            )
        )
    )
    keyword = "OPTIONAL MATCH" if draw(st.booleans()) else "MATCH"
    columns = [f"id(n{i}) AS n{i}" for i in range(hops + 1)]
    columns += [f"id(r{i}) AS r{i}" for i in range(hops)]
    return f"{prefix}{keyword} {pattern}{where} RETURN {', '.join(columns)}"


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graph=multigraphs(), query=path_queries())
def test_random_multigraphs(graph, query):
    nodes, rels = graph
    stores = [
        cls.from_records(nodes, rels) for cls in (GraphStore, ColumnarGraphStore)
    ]
    answers = []
    for store in stores:
        result, profile = assert_same_as_walk(store, query)
        assert batch_matches(profile) == 1, query
        naive = CypherEngine(store, optimize=False).run(query)
        assert Counter(ordered(result)) == Counter(ordered(naive)), query
        answers.append(Counter(ordered(result)))
        # The store primitive under the operator, on the same graph.
        for node_id, _, _ in nodes:
            for direction in Direction:
                for rel_type in ("R", "S", "T", None):
                    assert store.expand_ids(node_id, direction, rel_type) == [
                        (r.id, r.other_end(node_id))
                        for r in store.relationships_of(node_id, direction, rel_type)
                    ]
            assert k_reach(store, node_id, 2) == k_reach(stores[0], node_id, 2)
    assert answers[0] == answers[1], query


def test_promoted_equality_keeps_its_literal_type():
    """Shrunk from the property above: ``WHERE b.p = true`` next to an
    inline ``{p: 1}`` was dropped as a duplicate by seek promotion (the
    AST's equality takes ``true`` for ``1``; Cypher's ``=`` does not)."""
    store = GraphStore.from_records([(1, [], {"p": 1})], [(100, "R", 1, 1, {})])
    query = "MATCH (a)-[r]->(b {p: 1}) WHERE b.p = true RETURN a"
    assert CypherEngine(store).run(query).records == []
    assert CypherEngine(store, optimize=False).run(query).records == []


# ---------------------------------------------------------------------------
# Guard, failure and OPTIONAL semantics of the batch path
# ---------------------------------------------------------------------------

NODES = [
    (1, ["AS"], {"asn": 1}),
    (2, ["AS"], {"asn": 2}),
    (3, ["AS"], {"asn": 3}),
    (7, ["Name"], {"name": "one"}),
    (12, ["Organization"], {"name": "Example Org"}),
]
RELS = [
    (10, "PEERS_WITH", 1, 2, {}),
    (11, "PEERS_WITH", 1, 2, {}),  # parallel edge
    (13, "PEERS_WITH", 2, 3, {}),
    (14, "NAME", 1, 7, {}),
    (15, "DEPENDS_ON", 1, 1, {}),  # self-loop
    (17, "MANAGED_BY", 1, 12, {}),
]


@pytest.fixture(params=("dict", "columnar"))
def store(request):
    cls = GraphStore if request.param == "dict" else ColumnarGraphStore
    return cls.from_records(NODES, RELS, [("AS", "asn")])


def outcome(engine: CypherEngine, query: str):
    try:
        return ordered(engine.run(query))
    except CypherRuntimeError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "query, raises",
    [
        # The predicate's node is reached: both raise.
        ("MATCH (a:AS)-[:PEERS_WITH]->(b:AS) WHERE b.asn / 0 = 1 RETURN a", True),
        # AS 3 has no outgoing peering: no node reaches the predicate.
        ("MATCH (a:AS {asn: 3})-[:PEERS_WITH]->(b) WHERE b.asn - 'x' = 0 "
         "RETURN a", False),
        # The label check fails first.
        ("MATCH (a:AS)-[:NAME]->(n:AS) WHERE n.asn / 0 = 1 RETURN a", False),
        # Isomorphism prunes the second hop before its node is checked:
        # the self-loop cannot be used twice.
        ("MATCH (a)-[:DEPENDS_ON]-(b)-[:DEPENDS_ON]-(c) WHERE c.asn / 0 = 1 "
         "RETURN a", False),
        # Same hop shapes, but the relationship map fails first.
        ("MATCH (a:AS)-[:PEERS_WITH {w: 1}]->(b) WHERE b.asn / 0 = 1 RETURN a", False),
        # A raising relationship filter.
        ("MATCH (a:AS)-[r:PEERS_WITH]->(b) WHERE type(r) - 1 = 0 RETURN a", True),
    ],
)
def test_raising_predicates_raise_where_the_walk_raises(store, query, raises):
    batch, walk = CypherEngine(store), walking(CypherEngine(store))
    assert "op=BatchExpand" in batch.explain(query).plan[0]
    got = outcome(batch, query)
    assert got == outcome(walk, query)
    assert isinstance(got, tuple) is raises


def test_expired_deadline_aborts_mid_expansion(small_iyp):
    guard = QueryGuard(timeout=1e-9)
    time.sleep(0.001)
    with pytest.raises(QueryTimeoutError) as excinfo:
        CypherEngine(small_iyp.store).run(PAPER_LISTINGS["LISTING_6"], guard=guard)
    # Raised by a tick inside the operator, not at the clause boundary.
    assert "expand" in [entry.name for entry in excinfo.traceback]


def test_row_limit_is_unchanged(store):
    query = "MATCH (a:AS)-[:PEERS_WITH]-(b) RETURN a.asn, b.asn"
    errors = []
    for engine in (CypherEngine(store), walking(CypherEngine(store))):
        with pytest.raises(RowLimitError) as excinfo:
            engine.run(query, guard=QueryGuard(max_rows=3))
        errors.append((excinfo.value.produced, excinfo.value.limit))
    assert errors == [(6, 3), (6, 3)]
    assert len(CypherEngine(store).run(query, guard=QueryGuard(max_rows=6))) == 6


def test_optional_pads_a_row_whose_prefilter_fails(store):
    query = (
        "MATCH (a:AS) OPTIONAL MATCH (a)-[:PEERS_WITH]->(b) "
        "WHERE a.asn < 2 RETURN a.asn AS asn, b.asn AS peer"
    )
    result, profile = assert_same_as_walk(store, query)
    assert batch_matches(profile) == 1
    assert [(r["asn"], r["peer"]) for r in result.records] == [
        (1, 2), (1, 2), (2, None), (3, None),
    ]


def test_memos_live_only_while_the_clause_runs(store):
    matcher = CypherEngine(store)._matcher
    (clause, _) = parse(
        "MATCH (a:AS)-[:PEERS_WITH]-(b)-[:PEERS_WITH]-(c) RETURN c"
    ).clauses
    plan = plan_match(clause.patterns, clause.where, store)
    assert plan.expand is not None
    state = dict(vars(matcher))
    bindings = matcher.expand(plan, {})
    walked = matcher.match_patterns(plan.patterns, {}, None, plan.anchors)
    assert [(b["a"].id, b["b"].id, b["c"].id) for b in bindings] == [
        (b["a"].id, b["b"].id, b["c"].id) for b in walked
    ]
    # The generator is spent: its frame, and the memos in it, are gone,
    # and the matcher kept nothing.
    assert bindings.gi_frame is None
    assert vars(matcher) == state


@pytest.mark.parametrize(
    "query, batched",
    [
        ("MATCH (a:AS)-[:PEERS_WITH]->(b), (b)-[:PEERS_WITH]->(c) RETURN c", 0),
        ("MATCH (a:AS)-[:PEERS_WITH*1..2]->(b) RETURN b", 0),
        ("MATCH p = (a:AS)-[:PEERS_WITH]->(b) RETURN p", 0),
        ("MATCH p = shortestPath((a:AS {asn: 1})-[*]-(b:AS {asn: 3})) RETURN p", 0),
        ("MATCH (a:AS)-[r:PEERS_WITH]->(b)-[r:PEERS_WITH]->(c) RETURN c", 0),
        ("MATCH (a:AS) RETURN a", 0),
        # The second MATCH meets ``r`` bound: only the first is batched.
        ("MATCH (a:AS)-[r:PEERS_WITH]->(b) MATCH (b)<-[r]-(c) RETURN c", 1),
        ("MATCH (a:AS) WHERE (a)-[:PEERS_WITH]->() RETURN a", 0),
    ],
)
def test_walk_keeps_every_other_shape(store, query, batched):
    _, profile = assert_same_as_walk(store, query)
    assert batch_matches(profile) == batched
