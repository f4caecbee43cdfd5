"""shortestPath() support."""

import pytest

from repro.cypher import CypherEngine
from repro.cypher.errors import CypherSyntaxError
from repro.graphdb import GraphStore


@pytest.fixture()
def engine():
    """Chain 0-1-2-3 plus shortcut 0-4-3; node 5 isolated."""
    store = GraphStore()
    nodes = [store.create_node({"N"}, {"i": i}) for i in range(6)]
    for a, b in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]:
        store.create_relationship(nodes[a].id, "E", nodes[b].id)
    return CypherEngine(store)


class TestShortestPath:
    def test_picks_the_shorter_route(self, engine):
        result = engine.run(
            "MATCH p = shortestPath((a:N {i:0})-[:E*..6]-(b:N {i:3})) "
            "RETURN [x IN nodes(p) | x.i] AS path"
        )
        assert result.value() == [0, 4, 3]

    def test_one_path_per_end_node(self, engine):
        result = engine.run(
            "MATCH shortestPath((a:N {i:0})-[r:E*..6]-(b:N)) "
            "RETURN b.i AS b, size(r) AS hops ORDER BY b"
        )
        assert result.to_rows() == [(1, 1), (2, 2), (3, 2), (4, 1)]

    def test_unreachable_node_not_returned(self, engine):
        result = engine.run(
            "MATCH shortestPath((a:N {i:0})-[:E*..6]-(b:N {i:5})) RETURN b"
        )
        assert len(result) == 0

    def test_max_hop_limit_respected(self, engine):
        result = engine.run(
            "MATCH shortestPath((a:N {i:0})-[r:E*..1]-(b:N)) "
            "RETURN collect(b.i) AS ends"
        )
        assert sorted(result.value()) == [1, 4]

    def test_directed_shortest(self, engine):
        result = engine.run(
            "MATCH shortestPath((a:N {i:3})-[r:E*..6]->(b:N)) RETURN count(b)"
        )
        assert result.value() == 0  # node 3 has no outgoing edges

    def test_requires_two_nodes(self, engine):
        with pytest.raises(CypherSyntaxError):
            engine.run(
                "MATCH shortestPath((a)-[:E]-(b)-[:E]-(c)) RETURN a"
            )

    def test_works_on_knowledge_graph(self, engine):
        # A realistic use: how far is a domain from an AS?  Exercised on
        # the routing chain built in this fixture's stand-in graph.
        result = engine.run(
            "MATCH p = shortestPath((a:N {i:1})-[:E*..4]-(b:N {i:4})) "
            "RETURN size(relationships(p))"
        )
        assert result.value() == 2  # 1-0-4


@pytest.fixture()
def keyed():
    """The same chain and shortcut, each relationship keyed ``k``
    ``'<start>-<end>'`` by its ends' ``i``."""
    store = GraphStore()
    nodes = [store.create_node({"N"}, {"i": i}) for i in range(6)]
    for a, b in [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)]:
        store.create_relationship(nodes[a].id, "E", nodes[b].id, {"k": f"{a}-{b}"})
    return CypherEngine(store)


PATH_COLUMNS = (
    "RETURN [x IN nodes(p) | x.i] AS nodes, [x IN relationships(p) | x.k] AS rels, "
    "length(p) AS length"
)


class TestPathValues:
    """A path holds every node and relationship in pattern order, and
    ``length()`` counts its relationships."""

    @pytest.mark.parametrize("hop", ["[:E]", "[r:E]"])
    def test_one_hop(self, keyed, hop):
        result = keyed.run(f"MATCH p = (a:N {{i:1}})-{hop}->(b:N) {PATH_COLUMNS}")
        assert result.to_rows() == [([1, 2], ["1-2"], 1)]

    def test_fixed_length_hops_keep_interior_nodes(self, keyed):
        result = keyed.run(f"MATCH p = (a:N {{i:1}})-[:E*2]->(b:N) {PATH_COLUMNS}")
        assert result.to_rows() == [([1, 2, 3], ["1-2", "2-3"], 2)]

    def test_walked_against_the_arrow(self, keyed):
        result = keyed.run(
            f"MATCH p = (b:N)<-[:E*..2]-(a:N {{i:1}}) WHERE b.i = 3 {PATH_COLUMNS}"
        )
        assert result.to_rows() == [([3, 2, 1], ["2-3", "1-2"], 2)]

    def test_zero_length_path(self, keyed):
        result = keyed.run(f"MATCH p = (a:N {{i:5}})-[:E*0..1]-(b) {PATH_COLUMNS}")
        assert result.to_rows() == [([5], [], 0)]

    def test_length_of_a_list_or_string_is_unchanged(self, keyed):
        result = keyed.run("RETURN length([1, 2, 3]) AS list, length('ab') AS text")
        assert result.to_rows() == [(3, 2)]


class TestRelationshipListOrder:
    """A variable-length relationship list follows the pattern's
    direction, whichever end the planner anchors."""

    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (a:N {i:1}) MATCH p = shortestPath((a)-[r:E*..6]-(b:N)) "
            "WHERE b.i = 3",
            "MATCH (b:N {i:3}) MATCH p = shortestPath((a:N)-[r:E*..6]-(b)) "
            "WHERE a.i = 1",
        ],
    )
    def test_shortest_path_from_either_end(self, keyed, query):
        result = keyed.run(
            f"{query} RETURN [x IN r | x.k] AS r, [x IN nodes(p) | x.i] AS nodes"
        )
        assert result.to_rows() == [(["1-2", "2-3"], [1, 2, 3])]

    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (a:N {i:1}) MATCH (a)-[r:E*..2]-(b:N {i:3})",
            "MATCH (b:N {i:3}) MATCH (a:N {i:1})-[r:E*..2]-(b)",
        ],
    )
    def test_variable_length_from_either_end(self, keyed, query):
        result = keyed.run(f"{query} RETURN [x IN r | x.k] AS r")
        assert result.to_rows() == [(["1-2", "2-3"],)]
