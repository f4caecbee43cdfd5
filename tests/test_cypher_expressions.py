"""Expression evaluation: operators, three-valued logic, functions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cypher import CypherEngine, CypherRuntimeError
from repro.cypher.values import (
    equals,
    hash_key,
    list_membership,
    logical_and,
    logical_not,
    logical_or,
    logical_xor,
    sort_key,
)
from repro.graphdb import GraphStore


@pytest.fixture()
def engine():
    return CypherEngine(GraphStore())


def evaluate(engine, expression, params=None):
    return engine.run(f"RETURN {expression} AS x", params).value()


class TestArithmetic:
    def test_basic(self, engine):
        assert evaluate(engine, "1 + 2 * 3") == 7
        assert evaluate(engine, "(1 + 2) * 3") == 9
        assert evaluate(engine, "7 % 3") == 1
        assert evaluate(engine, "2 ^ 10") == 1024.0

    def test_integer_division_truncates_toward_zero(self, engine):
        assert evaluate(engine, "7 / 2") == 3
        assert evaluate(engine, "-7 / 2") == -3

    def test_float_division(self, engine):
        assert evaluate(engine, "7.0 / 2") == 3.5

    def test_division_by_zero(self, engine):
        with pytest.raises(CypherRuntimeError):
            evaluate(engine, "1 / 0")

    def test_unary_minus(self, engine):
        assert evaluate(engine, "-(3 + 4)") == -7

    def test_string_concat(self, engine):
        assert evaluate(engine, "'a' + 'b'") == "ab"

    def test_list_concat(self, engine):
        assert evaluate(engine, "[1] + [2, 3]") == [1, 2, 3]

    def test_string_plus_number_raises(self, engine):
        with pytest.raises(CypherRuntimeError):
            evaluate(engine, "'a' + 1")


class TestNullPropagation:
    def test_arithmetic_with_null(self, engine):
        assert evaluate(engine, "1 + null") is None

    def test_comparison_with_null(self, engine):
        assert evaluate(engine, "1 = null") is None
        assert evaluate(engine, "null = null") is None
        assert evaluate(engine, "1 < null") is None

    def test_is_null(self, engine):
        assert evaluate(engine, "null IS NULL") is True
        assert evaluate(engine, "1 IS NOT NULL") is True

    def test_where_filters_null(self, engine):
        result = engine.run("UNWIND [1, null, 2] AS x WITH x WHERE x > 0 RETURN x")
        assert result.column() == [1, 2]


class TestStringOperators:
    def test_starts_ends_contains(self, engine):
        assert evaluate(engine, "'RPKI Invalid,more-specific' STARTS WITH 'RPKI Invalid'")
        assert evaluate(engine, "'example.com' ENDS WITH '.com'")
        assert evaluate(engine, "'abcdef' CONTAINS 'cde'")

    def test_regex(self, engine):
        assert evaluate(engine, "'rrc00' =~ 'rrc[0-9]+'") is True
        assert evaluate(engine, "'rrc00x' =~ 'rrc[0-9]+'") is False

    def test_case_functions(self, engine):
        assert evaluate(engine, "toUpper('abc')") == "ABC"
        assert evaluate(engine, "toLower('ABC')") == "abc"

    def test_split_replace_substring(self, engine):
        assert evaluate(engine, "split('a.b.c', '.')") == ["a", "b", "c"]
        assert evaluate(engine, "replace('10.0.0.0', '.', '-')") == "10-0-0-0"
        assert evaluate(engine, "substring('abcdef', 1, 3)") == "bcd"


#: An operand of the wrong type: string predicates are null, arithmetic
#: is a query error (HTTP 400), never a raw Python exception (500).
NULL_PREDICATES = [
    "x.asn STARTS WITH 'A'",
    "x.name ENDS WITH 1",
    "x.name CONTAINS 1",
    "x.asn CONTAINS 'A'",
    "x.name =~ 1",
    "x.asn =~ 'A.*'",
]
BAD_ARITHMETIC = [
    "x.name - 1",
    "x.name * 2",
    "x.asn * [1]",
    "x.asn % 0",
    "x.asn / 0.0",
    "x.asn % 'a'",
    "x.asn ^ 'a'",
    "-x.name",
    "x.name =~ '('",
]


@pytest.fixture(params=("dict", "columnar"))
def operand_store(request):
    from repro.columnar import ColumnarGraphStore

    cls = GraphStore if request.param == "dict" else ColumnarGraphStore
    return cls.from_records([(1, ["AS"], {"asn": 2497, "name": "IIJ"})], [])


class TestOperandTypes:
    @pytest.mark.parametrize("predicate", NULL_PREDICATES)
    def test_string_predicate_on_a_non_string_is_null(self, operand_store, predicate):
        engine = CypherEngine(operand_store)
        query = f"MATCH (x:AS) RETURN {predicate} AS v"
        assert engine.run(query).column() == [None]
        assert engine.run(f"MATCH (x:AS) WHERE {predicate} RETURN x").records == []

    @pytest.mark.parametrize("expression", BAD_ARITHMETIC)
    def test_bad_arithmetic_is_a_query_error(self, operand_store, expression):
        with pytest.raises(CypherRuntimeError):
            CypherEngine(operand_store).run(f"MATCH (x:AS) RETURN {expression} AS v")

    def test_numbers_still_compute(self, engine):
        assert evaluate(engine, "7.5 - 2") == 5.5
        assert evaluate(engine, "-7 % 3") == 2
        assert evaluate(engine, "1.0 / 4") == 0.25

    def test_http_status(self, operand_store):
        import json
        import threading
        import urllib.error
        import urllib.request

        from repro.server import QueryService, create_server

        server = create_server(QueryService(operand_store), port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()

        def post(query: str) -> tuple[int, dict]:
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.server_address[1]}/query",
                data=json.dumps({"query": query}).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=30) as response:
                    return response.status, json.loads(response.read())
            except urllib.error.HTTPError as exc:
                return exc.code, json.loads(exc.read())

        try:
            for predicate in NULL_PREDICATES:
                status, body = post(f"MATCH (x:AS) WHERE {predicate} RETURN x")
                assert (status, body["rows"]) == (200, []), predicate
            for expression in BAD_ARITHMETIC:
                status, body = post(f"MATCH (x:AS) RETURN {expression} AS v")
                assert status == 400, expression
                assert body["error"]["code"] == "query_error", expression
        finally:
            server.shutdown()
            server.server_close()


class TestListsAndMaps:
    def test_index(self, engine):
        assert evaluate(engine, "[10, 20, 30][1]") == 20
        assert evaluate(engine, "[10, 20, 30][-1]") == 30
        assert evaluate(engine, "[10][5]") is None

    def test_slice(self, engine):
        assert evaluate(engine, "[1,2,3,4][1..3]") == [2, 3]

    def test_map_access(self, engine):
        assert evaluate(engine, "{a: 1}.a") == 1
        assert evaluate(engine, "{a: 1}['a']") == 1

    def test_in(self, engine):
        assert evaluate(engine, "2 IN [1, 2]") is True
        assert evaluate(engine, "5 IN [1, 2]") is False

    def test_in_null_semantics(self, engine):
        assert evaluate(engine, "null IN [1]") is None
        assert evaluate(engine, "5 IN [1, null]") is None
        assert evaluate(engine, "1 IN [1, null]") is True

    def test_comprehension(self, engine):
        assert evaluate(engine, "[x IN [1,2,3,4] WHERE x % 2 = 0 | x * 10]") == [20, 40]

    def test_size_head_last_tail(self, engine):
        assert evaluate(engine, "size([1,2,3])") == 3
        assert evaluate(engine, "head([1,2])") == 1
        assert evaluate(engine, "last([1,2])") == 2
        assert evaluate(engine, "tail([1,2,3])") == [2, 3]

    def test_range(self, engine):
        assert evaluate(engine, "range(1, 4)") == [1, 2, 3, 4]
        assert evaluate(engine, "range(0, 10, 5)") == [0, 5, 10]

    def test_coalesce(self, engine):
        assert evaluate(engine, "coalesce(null, null, 3)") == 3
        assert evaluate(engine, "coalesce(null)") is None


class TestCase:
    def test_searched(self, engine):
        assert evaluate(engine, "CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' END") == "b"

    def test_simple(self, engine):
        assert evaluate(engine, "CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END") == "b"

    def test_default(self, engine):
        assert evaluate(engine, "CASE WHEN false THEN 1 ELSE 99 END") == 99

    def test_no_match_no_default_is_null(self, engine):
        assert evaluate(engine, "CASE WHEN false THEN 1 END") is None


class TestConversionsAndMath:
    def test_to_integer(self, engine):
        assert evaluate(engine, "toInteger('42')") == 42
        assert evaluate(engine, "toInteger('x')") is None
        assert evaluate(engine, "toInteger(3.9)") == 3

    def test_to_float_and_string(self, engine):
        assert evaluate(engine, "toFloat('2.5')") == 2.5
        assert evaluate(engine, "toString(42)") == "42"
        assert evaluate(engine, "toString(true)") == "true"

    def test_rounding(self, engine):
        assert evaluate(engine, "round(2.5678, 2)") == 2.57
        assert evaluate(engine, "abs(-3)") == 3
        assert evaluate(engine, "floor(2.7)") == 2.0
        assert evaluate(engine, "ceil(2.1)") == 3.0
        assert evaluate(engine, "sqrt(16)") == 4.0

    def test_unknown_function(self, engine):
        with pytest.raises(CypherRuntimeError):
            evaluate(engine, "frobnicate(1)")


class TestParameters:
    def test_parameter_value(self, engine):
        assert evaluate(engine, "$x + 1", {"x": 41}) == 42

    def test_missing_parameter(self, engine):
        with pytest.raises(CypherRuntimeError):
            evaluate(engine, "$missing")


class TestGraphFunctions:
    def test_labels_type_id(self):
        store = GraphStore()
        a = store.create_node({"AS", "Tag"}, {"asn": 1})
        b = store.create_node({"AS"}, {"asn": 2})
        store.create_relationship(a.id, "PEERS_WITH", b.id)
        engine = CypherEngine(store)
        row = engine.run(
            "MATCH (a {asn:1})-[r]->(b) RETURN labels(a) AS l, type(r) AS t, "
            "id(a) AS i, keys(a) AS k, properties(b) AS p, "
            "startNode(r).asn AS s, endNode(r).asn AS e"
        ).single()
        assert row["l"] == ["AS", "Tag"]
        assert row["t"] == "PEERS_WITH"
        assert row["i"] == a.id
        assert row["k"] == ["asn"]
        assert row["p"] == {"asn": 2}
        assert row["s"] == 1 and row["e"] == 2

    def test_missing_property_is_null(self):
        store = GraphStore()
        store.create_node({"AS"}, {"asn": 1})
        engine = CypherEngine(store)
        assert engine.run("MATCH (a:AS) RETURN a.nonexistent").value() is None


# ---------------------------------------------------------------------------
# Three-valued logic properties
# ---------------------------------------------------------------------------

_tri = st.sampled_from([True, False, None])


@given(_tri, _tri)
def test_property_de_morgan(a, b):
    assert logical_not(logical_and(a, b)) == logical_or(
        logical_not(a), logical_not(b)
    )


@given(_tri, _tri)
def test_property_and_or_commutative(a, b):
    assert logical_and(a, b) == logical_and(b, a)
    assert logical_or(a, b) == logical_or(b, a)


@given(_tri)
def test_property_double_negation(a):
    assert logical_not(logical_not(a)) == a


@given(_tri, _tri)
def test_property_xor_null_propagates(a, b):
    result = logical_xor(a, b)
    if a is None or b is None:
        assert result is None
    else:
        assert result == (a != b)


_vals = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5), st.floats(-5, 5, allow_nan=False),
    st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=3),
)


@given(_vals, _vals)
def test_property_equals_consistent_with_hash_key(a, b):
    """If Cypher says two values are equal, they must group together."""
    if equals(a, b) is True:
        assert hash_key(a) == hash_key(b)


@given(st.lists(_vals, min_size=1, max_size=6))
def test_property_sort_key_total_order(values):
    keys = [sort_key(v) for v in values]
    assert sorted(keys) == sorted(sorted(keys))  # comparable without error


@given(_vals, st.lists(_vals, max_size=4))
def test_property_in_membership_sound(item, container):
    verdict = list_membership(item, container)
    if verdict is True:
        assert any(equals(item, element) is True for element in container)
