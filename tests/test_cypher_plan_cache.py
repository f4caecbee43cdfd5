"""One plan per statement.

A statement is lowered once into one operator per clause, and each
MATCH is planned once on its operator, for the store object, its version
and the engine's statistics.  These tests hold the cache to the plans
and answers that planning on every run gives: what re-plans it (an
index, new statistics, a delta, another engine's store), what never
does (a parameter value), and that the variable set the lowering hands
each MATCH plans it exactly as the rows it meets at run time would.

Also here: a bound variable of the wrong kind is an error wherever the
pattern uses it, whichever element the planner anchors on.
"""

from __future__ import annotations

import re
import threading

import pytest

from repro.analytics import compute_statistics
from repro.cypher import CypherEngine
from repro.cypher.errors import CypherRuntimeError
from repro.cypher.planner import plan_match
from repro.delta import delta_from_diff
from repro.graphdb import GraphStore
from repro.obs import Profiler
from repro.server.app import QueryService
from repro.studies.queries import LISTING_6
from repro.studies.report import generate_report
from tests.reference_matcher import naive_engine, walking
from tests.test_analytics_statistics import QUERY as SKEWED_QUERY
from tests.test_analytics_statistics import skewed_store  # noqa: F401 (fixture)
from tests.test_batch_expand import outcome, store  # noqa: F401 (fixture)
from tests.test_delta import copy_store
from tests.test_optimizer_equivalence import PAPER_LISTINGS

SEEK = "MATCH (a:AS {asn: $asn}) RETURN a.asn AS asn"


def match_details(engine: CypherEngine, query, parameters=None) -> list[str]:
    profiler = Profiler()
    engine.run(query, parameters, profiler=profiler)
    return [n.detail for n in profiler.root.walk() if n.operator == "Match"]


def as_store(asns, index: bool) -> GraphStore:
    store = GraphStore()
    if index:
        store.create_index("AS", "asn")
    for asn in asns:
        store.create_node({"AS"}, {"asn": asn})
    return store


# ---------------------------------------------------------------------------
# What re-plans a cached statement, and what does not
# ---------------------------------------------------------------------------


def test_an_index_created_between_two_runs_is_used():
    store = as_store((1, 2, 3), index=False)
    engine = CypherEngine(store)
    statement = engine.statement(SEEK)
    (detail,) = match_details(engine, statement, {"asn": 2})
    assert "access=label scan" in detail
    store.create_index("AS", "asn")
    (detail,) = match_details(engine, statement, {"asn": 2})
    assert "access=index seek" in detail
    assert engine.statement(SEEK) is statement
    assert engine.run(statement, {"asn": 2}).records == [{"asn": 2}]


def test_new_statistics_change_the_join_order(skewed_store):  # noqa: F811
    engine = CypherEngine(skewed_store)
    statement = engine.statement(SKEWED_QUERY)
    assert "join=1/2 pattern=0" in "\n".join(engine.explain(SKEWED_QUERY))
    before = engine.run(statement)
    engine.statistics = compute_statistics(skewed_store)
    assert "join=1/2 pattern=1" in "\n".join(engine.explain(SKEWED_QUERY))
    (detail,) = match_details(engine, statement)
    assert "join_order=[1,0]" in detail
    assert sorted(map(repr, engine.run(statement).records)) == sorted(
        map(repr, before.records)
    )


def test_a_delta_applied_in_place_is_seen_by_a_cached_seek():
    base = as_store((1, 2), index=True)
    service = QueryService(copy_store(base))
    assert service.execute(SEEK, {"asn": 3})["rows"] == []
    assert service.execute(SEEK, {"asn": 1})["rows"] == [[1]]
    new = copy_store(base)
    new.create_node({"AS"}, {"asn": 3})
    service.apply_delta(delta_from_diff(base, new), label="next")
    assert service.execute(SEEK, {"asn": 3})["rows"] == [[3]]
    (store, version, statistics), _ = service.engine.statement(SEEK).lowered
    assert store is service.store and version == service.store.version
    assert statistics is service.engine.statistics


def test_a_statement_runs_against_the_engine_it_is_given():
    first = CypherEngine(as_store((1, 2), index=True))
    second = CypherEngine(as_store((2, 3), index=False))
    statement = first.statement(SEEK)
    assert first.run(statement, {"asn": 1}).records == [{"asn": 1}]
    assert second.run(statement, {"asn": 1}).records == []
    assert second.run(statement, {"asn": 3}).records == [{"asn": 3}]
    (detail,) = match_details(second, statement, {"asn": 3})
    assert "access=label scan" in detail
    (detail,) = match_details(first, statement, {"asn": 2})
    assert "access=index seek" in detail


def test_a_cached_plan_never_fixes_a_parameter_value():
    engine = CypherEngine(as_store(range(1, 6), index=True))
    for asn in (4, 1, 5, 9):
        expected = [{"asn": asn}] if asn <= 5 else []
        assert engine.run(SEEK, {"asn": asn}).records == expected


def test_eight_threads_agree_with_a_serial_run(small_iyp):
    query = (
        "MATCH (a:AS {asn: $asn})-[:ORIGINATE]->(p:Prefix) "
        "OPTIONAL MATCH (a)-[:PEERS_WITH]-(b:AS) "
        "RETURN a.asn AS asn, count(DISTINCT p) AS prefixes, count(b) AS peers"
    )
    asns = [
        record["asn"] for record in small_iyp.engine.run(
            "MATCH (a:AS)-[:ORIGINATE]->(:Prefix) "
            "RETURN DISTINCT a.asn AS asn ORDER BY asn LIMIT 16"
        ).records
    ]
    serial = CypherEngine(small_iyp.store)
    expected = {asn: serial.run(query, {"asn": asn}).records for asn in asns}
    engine = CypherEngine(small_iyp.store)  # cold: the threads race the lowering
    statement = engine.statement(query)
    barrier = threading.Barrier(8)
    answers: list[dict] = []
    errors: list[BaseException] = []

    def worker(offset: int) -> None:
        try:
            barrier.wait()
            ordered = asns[offset:] + asns[:offset]
            answers.append({asn: engine.run(statement, {"asn": asn}).records for asn in ordered})
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert answers == [expected] * 8


# ---------------------------------------------------------------------------
# The lowered variable sets plan as the rows do
# ---------------------------------------------------------------------------

#: ``r`` is not read: a padded row carries it, a matched one does not.
OPTIONAL_UNDER_SET_SEMANTICS = (
    "MATCH (a:AS) OPTIONAL MATCH (a)-[r:ORIGINATE]->(p:Prefix) {where}"
    "MATCH (a)-[:PEERS_WITH]-(b:AS) RETURN DISTINCT a.asn, p.prefix"
)
OPTIONAL_QUERIES = tuple(
    OPTIONAL_UNDER_SET_SEMANTICS.format(where=where)
    for where in ("", "WHERE a.asn < 0 ")
)


def test_lowered_incoming_sets_plan_like_the_rows(small_iyp, monkeypatch):
    """Every MATCH of the listings, every study (through the weekly
    report) and an OPTIONAL MATCH under set semantics: the plan made
    from the lowered incoming set equals the one the first incoming
    row's variables give."""
    checked: list[frozenset[str]] = []
    apply_match = CypherEngine._apply_match

    def spying(engine, clause, rows, context):
        output = apply_match(engine, clause, rows, context)
        if rows:
            operator = context.operator
            runtime = plan_match(
                clause.patterns, clause.where, engine.store, frozenset(rows[0]),
                statistics=engine.statistics, read=operator.read,
            )
            assert runtime == operator.plan(engine), clause
            checked.append(frozenset(rows[0]))
        return output

    monkeypatch.setattr(CypherEngine, "_apply_match", spying)
    engine = CypherEngine(small_iyp.store)
    organization = engine.run(
        "MATCH (o:Organization) RETURN o.name AS name ORDER BY name LIMIT 1"
    ).value()
    for query in (*PAPER_LISTINGS.values(), *OPTIONAL_QUERIES):
        engine.run(query, {"org_name": organization})
    ((_, optional, last, _),) = engine.statement(OPTIONAL_QUERIES[1]).lowered[1]
    assert optional.read is not None and "r" not in optional.read
    assert last.incoming == {"a", "p"}
    assert {"a", "r", "p"} in checked  # a padded row met the last MATCH
    generate_report(small_iyp)
    assert len(checked) > 20


def test_explain_and_profile_read_one_plan(small_iyp):
    engine = CypherEngine(small_iyp.store)
    anchor = re.compile(r"anchor=\S+ pos=\d+ access=[a-z -]+? est=\d+")
    explained = [anchor.findall(line) for line in engine.explain(LISTING_6)]
    first, second = match_details(engine, LISTING_6), match_details(engine, LISTING_6)
    assert first == second
    assert [found for found in explained if found] == [anchor.findall(first[0])]


# ---------------------------------------------------------------------------
# A bound variable of the wrong kind
# ---------------------------------------------------------------------------

ENGINES = {
    "operator": CypherEngine,
    "walk": lambda store: walking(CypherEngine(store)),
    "naive": naive_engine,
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize(
    "query, message",
    [
        ("MATCH (a:AS) WITH a, 5 AS b MATCH (a)-[]->(b) RETURN count(*)",
         "variable 'b' is not a node"),
        ("MATCH (a:AS) WITH a, 5 AS b MATCH (b)<-[]-(a) RETURN count(*)",
         "variable 'b' is not a node"),
        ("WITH 5 AS x MATCH ()-[x]->() RETURN count(*)",
         "variable 'x' is not a relationship"),
        ("WITH 5 AS x MATCH ()<-[x]-() RETURN count(*)",
         "variable 'x' is not a relationship"),
        ("MATCH (a:AS) WITH a MATCH ()-[a]->() RETURN count(*)",
         "variable 'a' is not a relationship"),
        ("MATCH (a:AS) WITH a MATCH ()<-[a]-() RETURN count(*)",
         "variable 'a' is not a relationship"),
        ("MATCH ()-[r:PEERS_WITH]->() WITH r MATCH (r)-[]->() RETURN count(*)",
         "variable 'r' is not a node"),
        ("MATCH ()-[r:PEERS_WITH]->() WITH r MATCH ()-[]->(r) RETURN count(*)",
         "variable 'r' is not a node"),
        ("MATCH (a:AS), (n:Name) WITH a, n.name AS b "
         "WHERE (a)-[:NAME]->(b) RETURN count(*)",
         "variable 'b' is not a node"),
    ],
)
def test_a_mistyped_bound_variable_raises_whatever_the_anchor(
    store, engine, query, message  # noqa: F811
):
    assert outcome(ENGINES[engine](store), query) == (CypherRuntimeError, message)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize(
    "query",
    [
        "OPTIONAL MATCH (a:AS {asn: 99}) WITH a MATCH (a)-[]->(b) RETURN count(*) AS n",
        "OPTIONAL MATCH (a:AS {asn: 99}) WITH a MATCH (b)<-[]-(a) RETURN count(*) AS n",
        "OPTIONAL MATCH (a:AS {asn: 99})-[r]->() WITH r MATCH ()-[r]->() "
        "RETURN count(*) AS n",
    ],
)
def test_a_null_binding_still_matches_nothing(store, engine, query):  # noqa: F811
    assert ENGINES[engine](store).run(query).records == [{"n": 0}]
