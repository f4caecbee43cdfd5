"""The batch Expand operator against the reference walk.

Every MATCH, MERGE and pattern predicate runs on
:meth:`PatternMatcher.expand`.  The backtracking walk in
:mod:`tests.reference_matcher` is the oracle: :func:`walking` routes
the same :class:`MatchPlan` through it, and both must return the same
records *in the same order*, with the same PROFILE row counts, on both
backends — for the paper's listings, the lifecycle lap and HTTP mix,
the ``EXPERIMENTS.md`` fences, the seeded random queries, every pattern
shape, and random multigraphs.  The planner-free
:func:`naive_engine` must agree on the result multisets.  The guard,
failure and OPTIONAL semantics of the operator are pinned separately.
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
from tests.reference_matcher import ReferenceMatcher, naive_engine, walking
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


def ordered(result) -> list[tuple]:
    return [
        tuple(hash_key(record[column]) for column in result.columns)
        for record in result.records
    ]


def assert_same_as_walk(store, query: str, parameters: dict | None = None):
    """Profile ``query`` on the operator and on the walk; the records
    (order included) and every operator's row count must agree.
    Returns the operator run's result and profile."""
    result, profile = CypherEngine(store).profile(query, parameters)
    walked, walked_profile = walking(CypherEngine(store)).profile(query, parameters)
    assert result.columns == walked.columns, query
    assert ordered(result) == ordered(walked), query
    assert [(n.operator, n.rows) for n in profile.walk()] == [
        (n.operator, n.rows) for n in walked_profile.walk()
    ], query
    return result, profile


def assert_same_as_references(store, query: str, parameters: dict | None = None):
    """:func:`assert_same_as_walk`, and the naive engine's multiset."""
    result, _ = assert_same_as_walk(store, query, parameters)
    naive = naive_engine(store).run(query, parameters)
    assert Counter(ordered(result)) == Counter(ordered(naive)), query
    return result


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
    result, _ = assert_same_as_walk(graph, PAPER_LISTINGS[name], parameters)
    assert result.records


def test_listing_2_as_two_patterns(graph):
    """The MOAS join written as two patterns sharing ``p``: one
    isomorphism set across the clause, the same prefixes as Listing 2."""
    joined = (
        "MATCH (x:AS)-[:ORIGINATE]-(p:Prefix), (p)-[:ORIGINATE]-(y:AS) "
        "WHERE x.asn <> y.asn RETURN DISTINCT p.prefix"
    )
    result = assert_same_as_references(graph, joined)
    listing = CypherEngine(graph).run(PAPER_LISTINGS["LISTING_2"])
    assert result.records
    assert Counter(ordered(result)) == Counter(ordered(listing))


@pytest.mark.parametrize("name", sorted(LAP_AND_MIX))
def test_lap_and_http_mix(graph, parameters, name):
    result, _ = assert_same_as_walk(graph, LAP_AND_MIX[name], parameters)
    if name in ("typed_expansion", "moas_asns", "as_name", "peerings"):
        assert result.records


def test_experiments_fences(graph):
    fences = extract_queries(EXPERIMENTS)
    assert fences, "EXPERIMENTS.md lost its cypher fences"
    for _, query in fences:
        result, _ = assert_same_as_walk(graph, query)
        assert result.records, query


def test_seeded_random_queries(graph, small_iyp):
    generator = QueryGenerator(small_iyp.store, seed=20240825)
    nonempty = 0
    for _ in range(30):
        result, _ = assert_same_as_walk(graph, generator.query())
        nonempty += bool(result.records)
    assert nonempty >= 5


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
    """A MATCH of one path of zero to three hops — labels, inline maps,
    untyped and overlapping-type hops in every direction, variable-length
    hops, the last node possibly naming the first again (a cycle), a
    named path — or of a ``shortestPath``, or of two patterns joined on a
    node or disjoint; optionally OPTIONAL, behind a MATCH that binds one
    of its nodes or its first relationship, with a WHERE that is pushed,
    promoted, prefiltered, residual or a pattern predicate.  Or the path
    as a MERGE after a MATCH of its ends.  Returns ``(query, writes)``."""
    shape = draw(st.sampled_from(("path", "path", "shortest", "join", "merge")))
    hops = 1 if shape in ("shortest", "merge") else draw(st.integers(0, 3))
    names = [f"n{i}" for i in range(hops + 1)]
    if hops >= 2 and draw(st.booleans()):
        names[-1] = "n0"  # a cycle: the variable is named twice
    single = hops and shape != "shortest"
    bound = draw(st.sampled_from((None, "node", "rel") if single else (None, "node")))
    varlength: dict[str, str] = {}

    def node(name: str) -> str:
        if shape == "merge":
            return f"({name})"  # bound by the MATCH before it
        label = draw(st.sampled_from(("", ":A", ":B", ":A:B")))
        return f"({name}{label}{draw(st.sampled_from(LITERALS))})"

    def rel(index: int) -> str:
        name = f"r{index}"
        types = draw(st.sampled_from(("", ":R", ":S", ":R|S")))
        arrows = (("-", "->"), ("<-", "-"), ("-", "-"))
        if shape == "shortest":
            length = draw(st.sampled_from(("*..3", "*")))
        elif shape == "merge":
            types, arrows, length = ":R", (("-", "->"), ("<-", "-")), ""
        elif index == 0 and bound == "rel":
            length = ""  # the bound relationship is a single one
        else:
            length = draw(st.sampled_from(("",) * 3 + ("*0..3", "*2", "*..3")))
        if length:
            varlength[name] = length
        left, right = draw(st.sampled_from(arrows))
        inline = "" if shape == "merge" else draw(st.sampled_from(LITERALS))
        return f"{left}[{name}{types}{length}{inline}]{right}"

    pattern = node(names[0]) + "".join(
        rel(i) + node(names[i + 1]) for i in range(hops)
    )
    variables = sorted(set(names))
    rels = [f"r{i}" for i in range(hops)]
    if shape == "shortest":
        pattern = f"p = shortestPath({pattern})"
    elif shape == "path" and draw(st.booleans()):
        pattern = f"p = {pattern}"
    elif shape == "join":
        if draw(st.booleans()):
            shared = draw(st.sampled_from(variables))
            types = draw(st.sampled_from(("", ":R", ":S")))
            second = f"({shared})-[s0{types}]-{node('m0')}"
            rels.append("s0")
        else:
            second = node("m0")  # disjoint: a cartesian pair
        pattern += ", " + second
        variables.append("m0")
    prefix = ""
    if bound == "node":
        prefix = f"MATCH ({draw(st.sampled_from(variables))}) "
    elif bound == "rel":
        prefix = "MATCH ()-[r0]->() "
    if shape == "merge":
        prefix = f"MATCH ({names[0]}), ({names[1]}) "
    where = draw(
        st.sampled_from(
            (
                "",
                " WHERE n0.p = 1",
                f" WHERE {names[-1]}.p = true",
                f" WHERE {variables[-1]}.p <> n0.p",
                f" WHERE NOT (n0)-->({names[-1]})",
                " WHERE (n0)-[:R]-()",
            )
            + ((" WHERE r0.p IS NOT NULL",) if hops and "r0" not in varlength else ())
        )
    )
    columns = [f"id({name}) AS {name}" for name in variables]
    columns += [
        f"[x IN {name} | id(x)] AS {name}" if name in varlength
        else f"id({name}) AS {name}"
        for name in rels
    ]
    if pattern.startswith("p = "):
        columns += [
            "[x IN nodes(p) | id(x)] AS pn",
            "[x IN relationships(p) | id(x)] AS pr",
            "length(p) AS pl",
        ]
    if shape == "merge":
        return f"{prefix}MERGE {pattern} RETURN {', '.join(columns)}", True
    keyword = "OPTIONAL MATCH" if draw(st.booleans()) else "MATCH"
    return f"{prefix}{keyword} {pattern}{where} RETURN {', '.join(columns)}", False


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(graph=multigraphs(), generated=path_queries())
def test_random_multigraphs(graph, generated):
    nodes, rels = graph
    query, writes = generated
    if writes:
        # Each engine MERGEs into a fresh copy: the same ids get created.
        runs = [
            (engine.profile(query), engine.store)
            for engine in (
                CypherEngine(GraphStore.from_records(nodes, rels)),
                walking(CypherEngine(GraphStore.from_records(nodes, rels))),
            )
        ]
        naive_store = GraphStore.from_records(nodes, rels)
        naive = naive_engine(naive_store).run(query)
        ((result, profile), store), ((walked, walked_profile), walked_store) = runs
        assert ordered(result) == ordered(walked), query
        assert [(n.operator, n.rows) for n in profile.walk()] == [
            (n.operator, n.rows) for n in walked_profile.walk()
        ], query
        assert Counter(ordered(result)) == Counter(ordered(naive)), query
        assert (
            store.relationship_count
            == walked_store.relationship_count
            == naive_store.relationship_count
        ), query
        return
    stores = [
        cls.from_records(nodes, rels) for cls in (GraphStore, ColumnarGraphStore)
    ]
    answers = []
    for store in stores:
        result = assert_same_as_references(store, query)
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
    assert naive_engine(store).run(query).records == []


@pytest.mark.parametrize("backend", (GraphStore, ColumnarGraphStore))
def test_inline_map_reads_an_earlier_variable_of_the_pattern(backend):
    """``{tag: p.tag}`` on ``q`` is evaluated in the row's scope, where
    ``p`` is already bound: only same-tag peers match."""
    nodes = [
        (1, ["AS"], {"asn": 1, "tag": "x"}),
        (2, ["AS"], {"asn": 2, "tag": "x"}),
        (3, ["AS"], {"asn": 3, "tag": "y"}),
        (4, ["AS"], {"asn": 4}),
    ]
    rels = [
        (100 + index, "PEERS_WITH", start, end, {})
        for index, (start, end) in enumerate(((1, 2), (1, 3), (3, 2), (2, 1), (4, 1)))
    ]
    query = (
        "MATCH (p:AS)-[:PEERS_WITH]->(q:AS {tag: p.tag}) "
        "RETURN p.asn AS p, q.asn AS q ORDER BY p, q"
    )
    result = assert_same_as_references(backend.from_records(nodes, rels), query)
    assert [(r["p"], r["q"]) for r in result.records] == [(1, 2), (2, 1)]


# ---------------------------------------------------------------------------
# Guard, failure and OPTIONAL semantics of the operator
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
    got = outcome(CypherEngine(store), query)
    assert got == outcome(walking(CypherEngine(store)), query)
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
    result, _ = assert_same_as_walk(store, query)
    assert [(r["asn"], r["peer"]) for r in result.records] == [
        (1, 2), (1, 2), (2, None), (3, None),
    ]


def test_memos_live_only_while_the_clause_runs(store):
    engine = CypherEngine(store)
    matcher = engine._matcher
    (clause, _) = parse(
        "MATCH (a:AS)-[:PEERS_WITH]-(b)-[:PEERS_WITH]-(c) RETURN c"
    ).clauses
    plan = plan_match(clause.patterns, clause.where, store)
    state = dict(vars(matcher))
    bindings = matcher.expand(plan, {})
    walked = ReferenceMatcher(store, engine._evaluate).match_patterns(
        plan.patterns, {}, None, plan.anchors
    )
    assert [(b["a"].id, b["b"].id, b["c"].id) for b in bindings] == [
        (b["a"].id, b["b"].id, b["c"].id) for b in walked
    ]
    # The generator is spent: its frame, and the memos in it, are gone,
    # and the matcher kept nothing.
    assert bindings.gi_frame is None
    assert vars(matcher) == state


# ---------------------------------------------------------------------------
# Every pattern shape, one by one
# ---------------------------------------------------------------------------


def operator_runs(store, query: str) -> int:
    """How many times ``query`` calls the operator (one call per
    incoming row of each MATCH, MERGE or pattern predicate)."""
    engine = CypherEngine(store)
    matcher, calls = engine._matcher, []
    expand = matcher.expand

    def counting(plan, binding):
        calls.append(plan)
        return expand(plan, binding)

    matcher.expand = counting  # type: ignore[method-assign]
    engine.run(query)
    return len(calls)


@pytest.mark.parametrize(
    "query, batched",
    [
        ("MATCH (a:AS)-[:PEERS_WITH]->(b), (b)-[:PEERS_WITH]->(c) RETURN c", 0),
        ("MATCH (a:AS)-[:PEERS_WITH*1..2]->(b) RETURN b", 0),
        ("MATCH p = (a:AS)-[:PEERS_WITH]->(b) RETURN p", 0),
        ("MATCH p = shortestPath((a:AS {asn: 1})-[*]-(b:AS {asn: 3})) RETURN p", 0),
        ("MATCH (a:AS)-[r:PEERS_WITH]->(b)-[r:PEERS_WITH]->(c) RETURN c", 0),
        ("MATCH (a:AS) RETURN a", 0),
        # The second MATCH meets ``r`` bound.
        ("MATCH (a:AS)-[r:PEERS_WITH]->(b) MATCH (b)<-[r]-(c) RETURN c", 1),
        ("MATCH (a:AS) WHERE (a)-[:PEERS_WITH]->() RETURN a", 0),
    ],
)
def test_walk_keeps_every_other_shape(store, query, batched):
    """The shapes the walk ran alone while the operator took only a
    single fixed-length path (``batched``: how many of the query's
    MATCH clauses it took then) all run on the operator now, with the
    walk's answer."""
    assert_same_as_references(store, query)
    assert operator_runs(store, query) > batched


SHAPES = {
    # Multi-pattern joins: on a shared node, and a disjoint cartesian pair.
    "join": "MATCH (a:AS)-[:PEERS_WITH]->(b), (b)-[:PEERS_WITH]->(c) RETURN a, b, c",
    "join_reordered": (
        "MATCH (a:AS)-[:PEERS_WITH]-(b), (n:Name {name: 'one'})-[:NAME]-(a) "
        "RETURN a, b, n"
    ),
    "cartesian": "MATCH (a:AS), (o:Organization) RETURN a, o",
    "cartesian_then_join": (
        "MATCH (o:Organization), (a:AS)-[:PEERS_WITH]->(b) RETURN o, a, b"
    ),
    # Variable-length hops in each direction.
    "varlength_zero_out": "MATCH (a:AS)-[r:PEERS_WITH*0..]->(b) RETURN a, r, b",
    "varlength_zero_in": "MATCH (a:AS)<-[r:PEERS_WITH*0..]-(b) RETURN a, r, b",
    "varlength_zero_both": "MATCH (a:AS)-[r*0..]-(b) RETURN a, r, b",
    "varlength_two_out": "MATCH (a)-[r*2]->(b) RETURN a, r, b",
    "varlength_two_in": "MATCH (a:AS)<-[r:PEERS_WITH*2]-(b) RETURN a, r, b",
    "varlength_two_both": "MATCH (a:AS)-[r:PEERS_WITH*2]-(b:AS) RETURN a, r, b",
    "varlength_upto_out": "MATCH (a)-[r*..3]->(b:AS {asn: 3}) RETURN a, r, b",
    "varlength_upto_in": "MATCH (a:AS {asn: 1})<-[r*..3]-(b) RETURN a, r, b",
    "varlength_upto_both": "MATCH (a:AS {asn: 3})-[r*..3]-(b) RETURN a, r, b",
    "varlength_mid_anchor": (
        "MATCH (x)-[r*..2]-(a:AS {asn: 2})-[s*..2]->(y) RETURN x, r, a, s, y"
    ),
    # shortestPath anchored at either end.
    "shortest_left": (
        "MATCH p = shortestPath((a:AS {asn: 1})-[r*..4]-(b:AS)) RETURN p, r, b"
    ),
    "shortest_right": (
        "MATCH (b:AS {asn: 3}) MATCH p = shortestPath((a:AS)-[r*..4]-(b)) "
        "RETURN p, r, a"
    ),
    # Path variables.
    "path_fixed": "MATCH p = (a:AS)-[:PEERS_WITH]->(b)-[:NAME|PEERS_WITH]-(c) RETURN p",
    "path_varlength": "MATCH p = (a:AS {asn: 3})<-[:PEERS_WITH*..2]-(b) RETURN p",
    "path_two": (
        "MATCH p = (a:AS {asn: 1})-[:NAME]->(n), q = (a)-[:MANAGED_BY]->(o) "
        "RETURN p, q"
    ),
    # A variable named twice, cycles included.
    "named_twice": "MATCH (a:AS)-[:PEERS_WITH]->(b), (a)-[:NAME]->(n) RETURN a, b, n",
    "cycle": "MATCH (a:AS)-[:PEERS_WITH]-(b)-[:PEERS_WITH]-(a) RETURN a, b",
    "self_loop": "MATCH (a)-[r:DEPENDS_ON]->(a) RETURN a, r",
    # A relationship variable bound by an earlier clause.
    "bound_relationship": (
        "MATCH (a:AS)-[r:PEERS_WITH]->(b) MATCH (x)-[r]-(y) RETURN r, x, y"
    ),
    "bound_relationship_typed": (
        "MATCH (a:AS)-[r:PEERS_WITH]->(b) MATCH (x)-[r:NAME]-(y) RETURN r, x, y"
    ),
    # Pattern predicates.
    "not_pattern": "MATCH (a:AS), (b:AS) WHERE NOT (a)-->(b) RETURN a, b",
    "pattern_in_return": "MATCH (a:AS) RETURN a, (a)-[:NAME]->() AS named",
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_every_shape_matches_the_references(store, name):
    result = assert_same_as_references(store, SHAPES[name])
    assert result.records or name == "bound_relationship_typed"


@pytest.mark.parametrize(
    "hop", ["[r:NAME]", "[r {w: 1}]", "[r:PEERS_WITH {w: 1}]"]
)
def test_a_bound_relationship_must_still_fit_its_hop(store, hop):
    """A relationship an earlier clause bound matches a later hop only if
    its type and inline map fit that hop (the walk used to skip both)."""
    query = f"MATCH (a:AS)-[r:PEERS_WITH]->(b) MATCH (x)-{hop}-(y) RETURN r, x, y"
    assert assert_same_as_references(store, query).records == []


@pytest.mark.parametrize(
    "query, created",
    [
        # Matches: the two parallel peerings, nothing created.
        ("MATCH (a:AS {asn: 1}), (b:AS {asn: 2}) MERGE (a)-[r:PEERS_WITH]->(b) "
         "RETURN a, r, b", 0),
        # Creates: no AS 3 -> AS 1 peering yet.
        ("MATCH (a:AS {asn: 3}), (b:AS {asn: 1}) MERGE (a)-[r:PEERS_WITH]->(b) "
         "RETURN a, r, b", 1),
        # One row matches, one creates.
        ("UNWIND [1, 4] AS n MERGE (a:AS {asn: n}) RETURN a", 0),
    ],
)
def test_merge_matches_and_creates_like_the_walk(query, created):
    stores = [
        GraphStore.from_records(NODES, RELS, [("AS", "asn")]) for _ in range(3)
    ]
    engines = [
        CypherEngine(stores[0]),
        walking(CypherEngine(stores[1])),
        naive_engine(stores[2]),
    ]
    results = [engine.run(query) for engine in engines]
    assert ordered(results[0]) == ordered(results[1])
    assert Counter(ordered(results[0])) == Counter(ordered(results[2]))
    assert {result.stats.relationships_created for result in results} == {created}
    assert len({store.node_count for store in stores}) == 1
