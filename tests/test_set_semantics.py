"""Set semantics pushed into MATCH.

When a MATCH's rows reach a projection that keeps only distinct values
(``RETURN DISTINCT``, ``WITH DISTINCT``, or aggregates that are all
``DISTINCT``, ``min`` or ``max``) through MATCH clauses alone, the batch
operator keeps, at each level, the first row of every distinct tuple of
the columns still needed.  The records must stay identical *in order*
to the run that enumerates every path, and equal to the walk's, which
enumerates every path and then keeps the first binding of each tuple of
the read variables (:func:`tests.reference_matcher.walking`).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnarGraphStore
from repro.cypher import CypherEngine, engine as engine_module
from repro.cypher.parser import parse
from repro.cypher.planner import plan_match
from repro.graphdb import GraphStore
from repro.pipeline import build_iyp
from repro.studies.queries import LISTING_4, LISTING_6
from tests.test_batch_expand import (
    NODES,
    RELS,
    assert_same_as_walk,
    multigraphs,
    ordered,
)


def every_path(store, query: str, parameters: dict | None = None):
    """Profile ``query`` with set semantics switched off: every path."""
    reads = engine_module._distinct_reads
    engine_module._distinct_reads = lambda match, later: None
    try:
        return CypherEngine(store).profile(query, parameters)
    finally:
        engine_module._distinct_reads = reads


def match_rows(profile) -> list[int]:
    return [node.rows for node in profile.walk() if node.operator == "Match"]


def distinct_lines(store, query: str) -> list[str]:
    return [
        line for line in CypherEngine(store).explain(query)
        if line.strip().startswith("distinct rows on")
    ]


# ---------------------------------------------------------------------------
# Random multigraphs and set-semantics queries
# ---------------------------------------------------------------------------


@st.composite
def set_queries(draw):
    """A path of one to three hops (parallel edges and self-loops come
    with the graph; a type repeated across hops exercises isomorphism;
    sometimes a variable-length hop), possibly OPTIONAL, possibly
    followed by a second MATCH or OPTIONAL MATCH from its last node,
    then a set-semantics projection over some of its variables: RETURN
    DISTINCT, WITH DISTINCT then RETURN, ``count`` / ``collect`` of
    DISTINCT, or ``min`` and ``max``; sometimes with LIMIT and no
    ORDER BY."""
    hops = draw(st.integers(1, 3))
    first_type = draw(st.sampled_from(("", ":R", ":S", ":R|S")))
    nodes = [f"n{i}" for i in range(hops + 1)]
    rels = [f"r{i}" for i in range(hops)]
    varlength = set()
    pattern = f"({nodes[0]}{draw(st.sampled_from(('', ':A', ':B')))})"
    for index in range(hops):
        if index and draw(st.booleans()):
            types = first_type  # the same type again: isomorphism
        else:
            types = draw(st.sampled_from(("", ":R", ":S", ":R|S")))
        length = draw(st.sampled_from(("",) * 4 + ("*1..2",)))
        if length:
            varlength.add(rels[index])
        left, right = draw(st.sampled_from((("-", "->"), ("<-", "-"), ("-", "-"))))
        label = draw(st.sampled_from(("", "", ":A", ":B")))
        pattern += f"{left}[{rels[index]}{types}{length}]{right}({nodes[index + 1]}{label})"
    keyword = "OPTIONAL MATCH" if draw(st.booleans()) else "MATCH"
    where = draw(
        st.sampled_from(
            ("", " WHERE n0.p = 1", f" WHERE n0.p <> {nodes[-1]}.p", " WHERE n0 <> n1")
        )
    )
    query = f"{keyword} {pattern}{where}"
    variables = nodes + rels
    if draw(st.booleans()):
        second = draw(st.sampled_from(("MATCH", "OPTIONAL MATCH")))
        types = draw(st.sampled_from(("", ":R", ":S")))
        query += f" {second} ({nodes[-1]})-[s{types}]-(m)"
        variables += ["s", "m"]
    chosen = draw(
        st.lists(st.sampled_from(variables), min_size=1, max_size=3, unique=True)
    )

    def value(name: str) -> str:
        if name in varlength:
            return f"[x IN {name} | id(x)]"
        return draw(st.sampled_from((f"id({name})", f"{name}.p")))

    items = [f"{value(name)} AS {name}" for name in chosen]
    limit = draw(st.sampled_from(("", "", " LIMIT 2")))
    form = draw(st.sampled_from(("distinct", "with", "count", "collect", "minmax")))
    if form == "distinct":
        return f"{query} RETURN DISTINCT {', '.join(items)}{limit}"
    if form == "with":
        return f"{query} WITH DISTINCT {', '.join(items)} RETURN {', '.join(chosen)}{limit}"
    keys, (last,) = items[:-1], chosen[-1:]
    inner = value(last)
    aggregates = {
        "count": f"count(DISTINCT {inner}) AS agg",
        "collect": f"collect(DISTINCT {inner}) AS agg",
        "minmax": f"min({inner}) AS lo, max({inner}) AS hi",
    }[form]
    return f"{query} RETURN {', '.join(keys + [aggregates])}{limit}"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph=multigraphs(), query=set_queries())
def test_set_semantics_keeps_every_answer_in_order(graph, query):
    nodes, rels = graph
    for cls in (GraphStore, ColumnarGraphStore):
        store = cls.from_records(nodes, rels)
        result, profile = assert_same_as_walk(store, query)
        full, full_profile = every_path(store, query)
        assert ordered(result) == ordered(full), query
        # Never more rows than every path, per MATCH.
        assert all(
            kept <= every
            for kept, every in zip(match_rows(profile), match_rows(full_profile), strict=True)
        ), query


# ---------------------------------------------------------------------------
# Where it applies and where it does not
# ---------------------------------------------------------------------------

PEERS = "MATCH (a:AS)-[:PEERS_WITH]-(b:AS)"


@pytest.fixture(params=("dict", "columnar"))
def store(request):
    cls = GraphStore if request.param == "dict" else ColumnarGraphStore
    return cls.from_records(NODES, RELS, [("AS", "asn")])


@pytest.mark.parametrize(
    "query",
    [
        f"{PEERS} RETURN count(*) AS n",
        f"{PEERS} RETURN a.asn AS asn, collect(b.asn) AS peers",
        f"{PEERS} RETURN sum(b.asn) AS total",
        f"{PEERS} RETURN a.asn AS asn, count(b) AS n",
        f"{PEERS} RETURN avg(b.asn) AS mean, count(DISTINCT a) AS n",
        f"{PEERS} RETURN *",
        f"{PEERS} WITH DISTINCT * RETURN a.asn AS asn",
        "MATCH p = (a:AS)-[:PEERS_WITH]-(b:AS) RETURN DISTINCT a.asn AS asn",
        f"{PEERS} UNWIND [1] AS one RETURN DISTINCT a.asn AS asn",
        f"{PEERS} WHERE (b)-[:PEERS_WITH]-() RETURN DISTINCT a.asn AS asn",
        f"{PEERS} RETURN a.asn AS asn",
    ],
)
def test_negative_forms_keep_every_path(store, query):
    """No EXPLAIN line, and PROFILE's Match rows are the path count."""
    paths = CypherEngine(store).run(f"{PEERS} RETURN count(*) AS n").records[0]["n"]
    assert paths == 6  # two parallel peerings 1-2, one 2-3, each way
    assert distinct_lines(store, query) == []
    result, profile = assert_same_as_walk(store, query)
    assert match_rows(profile) == [paths]
    assert ordered(result) == ordered(every_path(store, query)[0])


@pytest.mark.parametrize(
    "query, variables, rows",
    [
        (f"{PEERS} RETURN DISTINCT a.asn AS asn", "a", 3),
        (f"{PEERS} RETURN a.asn AS asn, count(DISTINCT b) AS n", "a, b", 4),
        (f"{PEERS} WITH DISTINCT b RETURN b.asn AS asn", "b", 3),
        (f"{PEERS} RETURN min(b.asn) AS lo, max(b.asn) AS hi", "b", 3),
        (f"{PEERS} RETURN DISTINCT 1 AS one LIMIT 5", "<none>", 1),
        (f"{PEERS} MATCH (b)-[:NAME]-(n) RETURN DISTINCT n.name AS name", "b", 3),
    ],
)
def test_positive_forms_name_their_variables(store, query, variables, rows):
    """One EXPLAIN line under the MATCH, the same variables in PROFILE's
    Match detail, and the collapsed rows counted there."""
    assert distinct_lines(store, query)[0] == f"  distinct rows on {variables}"
    result, profile = assert_same_as_walk(store, query)
    (match, *_) = [node for node in profile.walk() if node.operator == "Match"]
    assert match.detail.endswith(f"; distinct rows on {variables}")
    assert match.rows == rows
    assert ordered(result) == ordered(every_path(store, query)[0])


def test_a_column_isomorphism_checks_is_kept_until_its_check(store):
    """Listing 4's shape: the first PEERS_WITH relationship is unread, yet
    the second hop compares against it, so the level between keeps it."""
    (clause, _) = parse(
        "MATCH (a:AS {asn: 1})-[:PEERS_WITH]-(b)-[:PEERS_WITH]-(c) RETURN DISTINCT c"
    ).clauses
    plan = plan_match(clause.patterns, None, store, read=frozenset({"c"}))
    assert plan.distinct == ("c",)
    # Columns: a 0, first relationship 1, b 2, second relationship 3, c 4.
    assert plan.keep == (None, (1, 2), (4,))


def test_a_query_reading_every_column_never_deduplicates(store):
    """Distinct paths never share every column, so no level pays for a
    set that would drop nothing, the last one included."""
    query = "MATCH (a:AS)-[r:PEERS_WITH]-(b:AS) RETURN DISTINCT a, r, b"
    (clause, _) = parse(query).clauses
    plan = plan_match(clause.patterns, None, store, read=frozenset({"a", "r", "b"}))
    assert plan.keep == (None, None)
    result, profile = assert_same_as_walk(store, query)
    assert match_rows(profile) == [6]
    assert ordered(result) == ordered(every_path(store, query)[0])


# ---------------------------------------------------------------------------
# Listing 6 on the lifecycle benchmark's world
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def quarter_graph(quarter_world):
    iyp, report = build_iyp(quarter_world)
    assert report.ok, report.crawler_errors
    return iyp.store


def test_listing_6_keeps_one_row_per_domain_and_prefix(quarter_graph):
    assert distinct_lines(quarter_graph, LISTING_6) == ["  distinct rows on d, pfx"]
    result, profile = CypherEngine(quarter_graph).profile(LISTING_6)
    full, full_profile = every_path(quarter_graph, LISTING_6)
    assert match_rows(profile) == [920]
    assert match_rows(full_profile) == [7092]
    assert ordered(result) == ordered(full)


def test_listing_4_keeps_its_answer(quarter_graph):
    result, _ = CypherEngine(quarter_graph).profile(LISTING_4)
    assert ordered(result) == ordered(every_path(quarter_graph, LISTING_4)[0])
