"""One store call per hop level, facts instead of provenance copies.

A single hop asks the store once per relationship type for the level's
distinct sources (``GraphReadStore.expand_level``) and once for their
neighbours' labels (``having_labels``).  Where the relationship column
is neither kept nor checked, a source keeps one pair per neighbour: the
first of its parallel copies.  The guard is charged once per source row
with its pair count.  These tests pin the store contract on both
backends, the collapse's edge cases against the reference walk, and the
per-source deadline.
"""

from __future__ import annotations

import time

import pytest

from repro.columnar import ColumnarGraphStore
from repro.cypher import CypherEngine
from repro.cypher.errors import QueryTimeoutError
from repro.cypher.guard import TICK_STRIDE, QueryGuard
from repro.graphdb import Direction, GraphStore
from repro.obs.record import AccessCollector, collecting
from tests.test_batch_expand import NODES, RELS, assert_same_as_walk

BACKENDS = (GraphStore, ColumnarGraphStore)


class Recording(QueryGuard):
    """A guard that notes each charge."""

    def __init__(self, timeout: float):
        super().__init__(timeout)
        self.charges: list[int] = []

    def tick(self, count: int = 1) -> None:
        self.charges.append(count)
        super().tick(count)


def counted(call):
    """``call()``'s value and the store counters it recorded."""
    collector = AccessCollector()
    with collecting(collector):
        value = call()
    return value, collector.hits


# ---------------------------------------------------------------------------
# The store contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("direction", list(Direction))
@pytest.mark.parametrize(
    "rel_type", [None, "PEERS_WITH", "NAME", "DEPENDS_ON", "MANAGED_BY", "UNKNOWN"]
)
def test_expand_level_is_expand_ids_per_node(backend, direction, rel_type):
    store = backend.from_records(NODES, RELS, [("AS", "asn")])
    ids = [node_id for node_id, _, _ in NODES]
    ids += ids[::-1]  # repeats and any order
    level, level_hits = counted(lambda: store.expand_level(ids, direction, rel_type))
    one_by_one, hits = counted(
        lambda: [store.expand_ids(node_id, direction, rel_type) for node_id in ids]
    )
    assert level == one_by_one
    assert level_hits == hits
    assert hits["expand"] == len(ids)
    assert hits.get("rels_expanded", 0) == sum(map(len, level))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "labels", [(), ("AS",), ("Name",), ("AS", "Name"), ("Organization",), ("Nope",)]
)
def test_having_labels_is_the_node_labels_filter(backend, labels):
    store = backend.from_records(NODES, RELS, [("AS", "asn")])
    ids = [node_id for node_id, _, _ in NODES]
    assert store.having_labels(ids, labels) == {
        node_id for node_id in ids if store.node_labels(node_id).issuperset(labels)
    }
    assert store.having_labels([], labels) == set()


# ---------------------------------------------------------------------------
# Facts, not copies: the collapse's edge cases against the walk
# ---------------------------------------------------------------------------

# Two datasets state that IP 1 is part of prefix 2 (parallel PART_OF
# copies); one states that IP 3 is.
FACT_NODES = [
    (1, ["IP"], {"ip": "192.0.2.1"}),
    (2, ["Prefix"], {"prefix": "192.0.2.0/24"}),
    (3, ["IP"], {"ip": "192.0.2.3"}),
]
FACT_RELS = [
    (10, "PART_OF", 1, 2, {"reference_name": "first"}),
    (11, "PART_OF", 1, 2, {"reference_name": "second"}),
    (12, "PART_OF", 3, 2, {"reference_name": "first"}),
]

FACT_QUERIES = {
    # A path may use both copies of one fact: isomorphism keeps r apart.
    "cycle_over_copies": (
        "MATCH (a)-[:PART_OF]-(b)-[:PART_OF]-(a) RETURN {distinct} id(a) AS a, id(b) AS b"
    ),
    # Only the second copy satisfies the map.
    "map_on_second_copy": (
        "MATCH (a:IP)-[:PART_OF {{reference_name: 'second'}}]-(b:Prefix) "
        "RETURN {distinct} a.ip AS ip, b.prefix AS prefix"
    ),
    "filter_on_second_copy": (
        "MATCH (a:IP)-[r:PART_OF]-(b:Prefix) WHERE r.reference_name ENDS WITH 'nd' "
        "RETURN {distinct} a.ip AS ip, b.prefix AS prefix"
    ),
    # r is read: every copy is its own row.
    "copy_returned": (
        "MATCH (a:IP)-[r:PART_OF]-(b:Prefix) "
        "RETURN {distinct} a.ip AS ip, r.reference_name AS source"
    ),
    # r is not read: one pair per neighbour.
    "fact_only": "MATCH (b:Prefix)-[:PART_OF]-(a:IP) RETURN {distinct} a.ip AS ip",
    # From IP 1 over the first copy, IP 1 again is reached only over the
    # second: the isomorphic hop must not collapse copies.
    "two_hops": (
        "MATCH (a:IP)-[:PART_OF]-(b:Prefix)-[:PART_OF]-(c:IP) "
        "RETURN {distinct} a.ip AS a, c.ip AS c"
    ),
}


@pytest.fixture(params=("dict", "columnar"))
def facts(request):
    cls = GraphStore if request.param == "dict" else ColumnarGraphStore
    return cls.from_records(FACT_NODES, FACT_RELS)


@pytest.mark.parametrize("distinct", ("", "DISTINCT"))
@pytest.mark.parametrize("name", sorted(FACT_QUERIES))
def test_collapse_edge_cases_match_the_walk(facts, name, distinct):
    query = FACT_QUERIES[name].format(distinct=distinct)
    result, _ = assert_same_as_walk(facts, query)
    assert result.records, query


@pytest.mark.parametrize(
    "query, pairs",
    [
        # From the one prefix (the anchor): IP 1's copies collapse.
        ("MATCH (b:Prefix)-[:PART_OF]-(a:IP) RETURN DISTINCT a.ip", 2),
        # Every path is enumerated: no collapse without set semantics.
        ("MATCH (b:Prefix)-[:PART_OF]-(a:IP) RETURN a.ip", 3),
        # The relationship is read: every copy stays.
        ("MATCH (b:Prefix)-[r:PART_OF]-(a:IP) RETURN DISTINCT r.reference_name", 3),
    ],
)
def test_a_hop_visits_facts_where_nothing_reads_the_copy(facts, query, pairs):
    # The hop charges the guard once per source row with the pairs it
    # visits; every other charge is one unit.
    guard = Recording(timeout=60)
    CypherEngine(facts).run(query, guard=guard)
    assert max(guard.charges) == pairs


# ---------------------------------------------------------------------------
# The guard is charged per source row
# ---------------------------------------------------------------------------


@pytest.fixture(params=("dict", "columnar"))
def hub(request):
    """One AS with more peerings than a tick stride."""
    cls = GraphStore if request.param == "dict" else ColumnarGraphStore
    degree = TICK_STRIDE + 10
    nodes = [(1, ["AS"], {"asn": 1})] + [
        (index, ["AS"], {"asn": index}) for index in range(2, degree + 2)
    ]
    rels = [
        (1000 + index, "PEERS_WITH", 1, index, {}) for index in range(2, degree + 2)
    ]
    return cls.from_records(nodes, rels, [("AS", "asn")])


HUB_QUERY = "MATCH (h:AS {asn: 1})-[:PEERS_WITH]->(p) RETURN p.asn"


def test_an_expired_deadline_aborts_inside_one_hub_row(hub):
    guard = QueryGuard(timeout=1e-9)
    time.sleep(0.001)
    with pytest.raises(QueryTimeoutError) as excinfo:
        CypherEngine(hub).run(HUB_QUERY, guard=guard)
    # The hub's one row carries more pairs than a stride: its charge
    # crosses a stride and the hop raises, before any row is grown.
    names = [entry.name for entry in excinfo.traceback]
    assert "expand" in names and "hop" in names


def test_a_hop_charges_each_source_row_once(hub):
    guard = Recording(timeout=60)
    result = CypherEngine(hub).run(HUB_QUERY, guard=guard)
    assert len(result.records) == TICK_STRIDE + 10
    assert guard.charges.count(TICK_STRIDE + 10) == 1
    assert max(guard.charges) == TICK_STRIDE + 10
