"""Unit tests for the cost-based MATCH planner (repro.cypher.planner).

Covers conjunct decomposition, free-variable analysis with local
scoping, conjunct classification (prefilter / promoted seek / pushed
filter / residual), greedy join ordering, expression rendering, and the
EXPLAIN / PROFILE surfaces that expose the plan.
"""

import re
from pathlib import Path

import pytest

from repro.cypher import CypherEngine, ast
from repro.cypher.parser import parse
from repro.cypher.planner import (
    free_variables,
    plan_match,
    render_expression,
    split_conjuncts,
)
from repro.graphdb import GraphStore
from repro.lint.extract import extract_queries


def match_clause(query: str) -> ast.MatchClause:
    clause = parse(query).clauses[0]
    assert isinstance(clause, ast.MatchClause)
    return clause


def where_expr(condition: str) -> ast.Expression:
    clause = match_clause(f"MATCH (x)-[r]->(y) WHERE {condition} RETURN 1")
    assert clause.where is not None
    return clause.where


@pytest.fixture()
def store():
    return GraphStore()


class TestConjuncts:
    def test_split_flattens_nested_and(self):
        expr = where_expr("x.a = 1 AND (y.b = 2 AND x.c > 3)")
        parts = split_conjuncts(expr)
        assert [render_expression(p) for p in parts] == [
            "x.a = 1",
            "y.b = 2",
            "x.c > 3",
        ]

    def test_split_does_not_cross_or(self):
        expr = where_expr("x.a = 1 OR y.b = 2")
        assert split_conjuncts(expr) == [expr]

    def test_split_none_is_empty(self):
        assert split_conjuncts(None) == []


class TestFreeVariables:
    def test_simple_property_and_comparison(self):
        assert free_variables(where_expr("x.asn = y.asn")) == {"x", "y"}

    def test_literals_and_parameters_are_closed(self):
        assert free_variables(where_expr("x.name = $name")) == {"x"}

    def test_list_comprehension_scopes_iteration_variable(self):
        expr = where_expr("size([m IN x.members WHERE m > y.cut | m]) > 0")
        assert free_variables(expr) == {"x", "y"}

    def test_list_predicate_scopes_iteration_variable(self):
        expr = where_expr("any(m IN x.members WHERE m = y.asn)")
        assert free_variables(expr) == {"x", "y"}

    def test_reduce_scopes_accumulator_and_variable(self):
        expr = where_expr("reduce(acc = 0, m IN x.members | acc + m) > y.total")
        assert free_variables(expr) == {"x", "y"}

    def test_pattern_predicate_reports_all_pattern_variables(self):
        expr = where_expr("(x)-[:MEMBER_OF]->(g:IXP)")
        assert "x" in free_variables(expr)
        assert "g" in free_variables(expr)


class TestClassification:
    def test_prefilter_when_all_variables_already_bound(self, store):
        clause = match_clause("MATCH (y:B) WHERE x.a = 1 AND y.b = 2 RETURN y")
        plan = plan_match(clause.patterns, clause.where, store, frozenset({"x"}))
        assert [render_expression(p) for p in plan.prefilters] == ["x.a = 1"]
        assert plan.residual is None

    def test_equality_on_indexed_lookup_becomes_promoted_seek(self, store):
        clause = match_clause("MATCH (a:AS) WHERE a.asn = 2497 RETURN a")
        plan = plan_match(clause.patterns, clause.where, store, frozenset())
        assert "a" in plan.promoted
        ((key, value),) = plan.promoted["a"]
        assert key == "asn" and render_expression(value) == "2497"
        # The promoted pair is folded into the pattern's property map, so
        # the matcher sees it exactly like an inline {asn: 2497}.
        node = plan.patterns[0].nodes[0]
        assert ("asn", value) in node.properties
        assert plan.residual is None
        assert plan.pushed == {}

    def test_promotion_value_may_reference_bound_variables(self, store):
        clause = match_clause("MATCH (b:B) WHERE b.key = a.key RETURN b")
        plan = plan_match(clause.patterns, clause.where, store, frozenset({"a"}))
        assert "b" in plan.promoted

    def test_equality_between_two_introduced_variables_is_residual(self, store):
        clause = match_clause(
            "MATCH (a:AS)-[:ORIGINATE]->(p), (b:AS)-[:ORIGINATE]->(p) "
            "WHERE a.asn = b.asn RETURN p"
        )
        plan = plan_match(clause.patterns, clause.where, store, frozenset())
        assert render_expression(plan.residual) == "a.asn = b.asn"
        assert plan.promoted == {} and plan.pushed == {}

    def test_single_variable_nonequality_is_pushed(self, store):
        clause = match_clause(
            "MATCH (a:AS) WHERE a.name STARTS WITH 'AS' AND a.asn > 100 RETURN a"
        )
        plan = plan_match(clause.patterns, clause.where, store, frozenset())
        assert [render_expression(p) for p in plan.pushed["a"]] == [
            "a.name STARTS WITH 'AS'",
            "a.asn > 100",
        ]
        assert plan.pushed_count() == 2

    def test_path_variable_predicate_stays_residual(self, store):
        clause = match_clause(
            "MATCH p = (a:AS)-[:DEPENDS_ON*1..3]->(b) WHERE length(p) > 1 RETURN p"
        )
        plan = plan_match(clause.patterns, clause.where, store, frozenset())
        assert plan.residual is not None
        assert plan.pushed == {} and plan.promoted == {}

    def test_describe_predicates_lists_every_decision(self, store):
        clause = match_clause(
            "MATCH (a:AS), (b:AS) "
            "WHERE a.asn = 1 AND b.name CONTAINS 'x' AND a.asn <> b.asn RETURN a"
        )
        plan = plan_match(clause.patterns, clause.where, store, frozenset())
        lines = plan.describe_predicates()
        assert "pushed seek a.asn = 1" in lines
        assert "pushed filter [b]: b.name CONTAINS 'x'" in lines
        assert "residual: a.asn <> b.asn" in lines


class TestJoinOrdering:
    @pytest.fixture()
    def skewed(self):
        """1000 :Big nodes, 3 :Small nodes, 10 :Med nodes, and an index
        on (:Tiny, key) with a single node."""
        store = GraphStore()
        for i in range(1000):
            store.create_node({"Big"}, {"n": i})
        for i in range(3):
            store.create_node({"Small"}, {"n": i})
        for i in range(10):
            store.create_node({"Med"}, {"n": i})
        store.create_index("Tiny", "key")
        store.create_node({"Tiny"}, {"key": 1})
        return store

    def test_selective_pattern_runs_first(self, skewed):
        clause = match_clause("MATCH (b:Big)-[:R]->(x), (s:Small)-[:R]->(x) RETURN x")
        plan = plan_match(clause.patterns, clause.where, skewed, frozenset())
        assert plan.order == (1, 0)
        assert plan.reordered

    def test_connected_pattern_preferred_over_cheaper_disconnected(self, skewed):
        # After (s:Small) binds x, the :Big pattern shares x and must run
        # before the disconnected (m:Med) even though :Med is cheaper —
        # cartesian products go last.
        clause = match_clause(
            "MATCH (b:Big)-[:R]->(x), (m:Med), (s:Small)-[:R]->(x) RETURN x"
        )
        plan = plan_match(clause.patterns, clause.where, skewed, frozenset())
        assert plan.order == (2, 0, 1)

    def test_textual_order_kept_when_costs_tie(self, skewed):
        clause = match_clause("MATCH (a:Small), (b:Small) RETURN a, b")
        plan = plan_match(clause.patterns, clause.where, skewed, frozenset())
        assert plan.order == (0, 1)
        assert not plan.reordered

    def test_bound_variable_anchors_for_free(self, skewed):
        clause = match_clause("MATCH (b:Big), (x)-[:R]->(y) RETURN y")
        plan = plan_match(clause.patterns, clause.where, skewed, frozenset({"x"}))
        # The pattern touching already-bound x costs 0 and goes first.
        assert plan.order == (1, 0)

    def test_single_pattern_is_trivially_ordered(self, skewed):
        clause = match_clause("MATCH (b:Big) RETURN b")
        plan = plan_match(clause.patterns, clause.where, skewed, frozenset())
        assert plan.order == (0,)


class TestRenderExpression:
    @pytest.mark.parametrize(
        "source, rendered",
        [
            ("x.a = 1", "x.a = 1"),
            ("x.a <> y.b", "x.a <> y.b"),
            ("x.name STARTS WITH 'AS'", "x.name STARTS WITH 'AS'"),
            ("x.asn IN [1, 2]", "x.asn IN [1, 2]"),
            ("NOT x.flag", "NOT x.flag"),
            ("x.a IS NULL", "x.a IS NULL"),
            ("x.a IS NOT NULL", "x.a IS NOT NULL"),
            ("size(x.members) > 0", "size(x.members) > 0"),
            ("x.name = $name", "x.name = $name"),
        ],
    )
    def test_round_trips_common_shapes(self, source, rendered):
        assert render_expression(where_expr(source)) == rendered

    def test_none_renders_placeholder(self):
        assert render_expression(None) == "<none>"

    @pytest.mark.parametrize(
        "source, rendered",
        [
            # Grouping the parser's precedence would otherwise undo.
            ("NOT (x.asn = 1 OR x.asn = 2)", "NOT (x.asn = 1 OR x.asn = 2)"),
            ("(x.asn + 1) * 2 = 4", "(x.asn + 1) * 2 = 4"),
            ("x.a - (y.b - 1) > 0", "x.a - (y.b - 1) > 0"),
            ("(x.a OR y.b) AND x.c", "(x.a OR y.b) AND x.c"),
            ("(x.a = 1) IS NULL", "(x.a = 1) IS NULL"),
            ("(x.a = 1) = (y.b IS NULL)", "(x.a = 1) = (y.b IS NULL)"),
            ("-(x.a + 1) > 2 ^ (3 ^ 2) ^ 2", "-(x.a + 1) > 2 ^ (3 ^ 2) ^ 2"),
            # ... and none it would not.
            ("(x.a = 1) AND ((y.b = 2) OR x.c)", "x.a = 1 AND (y.b = 2 OR x.c)"),
            ("(x.a * 2) + 1 > (0)", "x.a * 2 + 1 > 0"),
            # Every shape renders as itself, never as ``<TypeName>``.
            ("x.tags[0] = 'a'", "x.tags[0] = 'a'"),
            ("x.tags[1..] = x.tags[..y.n]", "x.tags[1..] = x.tags[..y.n]"),
            (
                "CASE x.af WHEN 4 THEN 'v4' ELSE 'v6' END = y.name",
                "CASE x.af WHEN 4 THEN 'v4' ELSE 'v6' END = y.name",
            ),
            (
                "size([m IN x.members WHERE m > y.cut | m * 2]) > 0",
                "size([m IN x.members WHERE m > y.cut | m * 2]) > 0",
            ),
            (
                "any(m IN x.members WHERE m = y.asn)",
                "any(m IN x.members WHERE m = y.asn)",
            ),
            (
                "reduce(acc = 0, m IN x.members | acc + m) > y.total",
                "reduce(acc = 0, m IN x.members | acc + m) > y.total",
            ),
            ("{k: x.a, j: [y.b]}.k = 1", "{k: x.a, j: [y.b]}.k = 1"),
            ("count(DISTINCT x.a) > 1", "count(DISTINCT x.a) > 1"),
            (
                "NOT (x)-[:MEMBER_OF]->(:IXP {name: 'DE-CIX'})",
                "NOT EXISTS (x)-[:MEMBER_OF]->(:IXP {name: 'DE-CIX'})",
            ),
        ],
    )
    def test_keeps_grouping_and_renders_every_shape(self, source, rendered):
        expression = where_expr(source)
        assert render_expression(expression) == rendered
        if "EXISTS" not in rendered:
            # The text means what the tree means: it parses back to it.
            assert where_expr(rendered) == expression


class TestExplainSurface:
    @pytest.fixture()
    def engine(self):
        store = GraphStore()
        store.create_index("AS", "asn")
        for i in range(50):
            a = store.create_node({"AS"}, {"asn": i, "name": f"AS{i}"})
            p = store.create_node({"Prefix"}, {"prefix": f"10.{i}.0.0/16"})
            store.create_relationship(a.id, "ORIGINATE", p.id)
        return CypherEngine(store)

    def test_explain_shows_pushed_predicates(self, engine):
        lines = list(
            engine.explain(
                "MATCH (a:AS) WHERE a.asn = 7 AND a.name STARTS WITH 'AS' RETURN a"
            )
        )
        text = "\n".join(lines)
        assert "pushed seek a.asn = 7" in text
        assert "pushed filter [a]: a.name STARTS WITH 'AS'" in text
        # The promoted seek changes the access path itself.
        assert "index seek" in text

    def test_explain_shows_join_order(self, engine):
        lines = list(
            engine.explain(
                "MATCH (x:Prefix)<-[:ORIGINATE]-(a:AS), (b:AS {asn: 3}) "
                "WHERE b.asn = a.asn RETURN x"
            )
        )
        joined = [line for line in lines if "join=" in line]
        assert len(joined) == 2
        # The index-seek pattern (textual index 1) is planned first.
        assert "join=1/2 pattern=1" in joined[0]
        assert "join=2/2 pattern=0" in joined[1]

    def test_explain_shows_residual(self, engine):
        lines = list(
            engine.explain(
                "MATCH (a:AS)-[:ORIGINATE]->(p), (b:AS)-[:ORIGINATE]->(p) "
                "WHERE a.asn < b.asn RETURN p"
            )
        )
        assert any("residual: a.asn < b.asn" in line for line in lines)

    def test_explain_predicates_keep_grouping(self, engine):
        lines = list(
            engine.explain(
                "MATCH (a:AS)-[:ORIGINATE]->(p) "
                "WHERE NOT (a.asn = 1 OR a.asn = 2) AND (a.asn + 1) * 2 = 4 "
                "AND size([c IN p.prefix WHERE c = a.name]) > 0 RETURN p"
            )
        )
        assert "  pushed filter [a]: NOT (a.asn = 1 OR a.asn = 2)" in lines
        assert "  pushed filter [a]: (a.asn + 1) * 2 = 4" in lines
        assert "  residual: size([c IN p.prefix WHERE c = a.name]) > 0" in lines

    def test_explain_shows_every_union_part(self, engine):
        lines = list(
            engine.explain(
                "MATCH (x:AS) RETURN x.asn AS v "
                "UNION MATCH (p:Prefix) RETURN p.prefix AS v"
            )
        )
        assert lines == [
            "UNION PART 1/2",
            "MATCH anchor=:AS pos=0 access=label scan est=51",
            "RETURN",
            "UNION PART 2/2",
            "MATCH anchor=:Prefix pos=0 access=label scan est=51",
            "RETURN",
        ]

    def test_profile_detail_reports_pushdown_and_join_order(self, engine):
        _, root = engine.profile(
            "MATCH (x:Prefix)<-[:ORIGINATE]-(a:AS), (b:AS {asn: 3}) "
            "WHERE b.asn = a.asn AND a.name STARTS WITH 'AS' RETURN x"
        )
        match = next(node for node in root.children if node.operator == "Match")
        assert "pushed=" in match.detail
        assert "join_order=" in match.detail

    def test_profile_detail_shows_index_seek_for_promoted_equality(self, engine):
        _, root = engine.profile("MATCH (a:AS) WHERE a.asn = 7 RETURN a")
        match = next(node for node in root.children if node.operator == "Match")
        assert "index seek" in match.detail


# ---------------------------------------------------------------------------
# EXPLAIN plans what PROFILE runs
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
ANCHOR = re.compile(
    r"anchor=(\S+) pos=(\d+) access=(bound|index seek|label scan|all-nodes scan)"
)


def study_queries() -> list[tuple[str, str]]:
    """Every module-level query of the studies (the six listings among
    them) and every ``cypher`` fence of EXPERIMENTS.md."""
    queries = []
    for path in sorted((ROOT / "src" / "repro" / "studies").glob("*.py")):
        queries += extract_queries(path)
    return queries + extract_queries(ROOT / "EXPERIMENTS.md")


def test_explain_plans_every_match_as_profile_runs_it(small_iyp):
    """Each MATCH has the same anchors and access paths in EXPLAIN as in
    PROFILE: EXPLAIN plans it against what earlier clauses bind."""
    run = small_iyp.engine.run
    parameters = {
        "org_name": run(
            "MATCH (o:Organization) RETURN o.name AS name ORDER BY name"
        ).records[0]["name"],
        "domain": run(
            "MATCH (d:DomainName) RETURN d.name AS name ORDER BY name"
        ).records[0]["name"],
    }
    queries = study_queries()
    assert len(queries) >= 25
    optional = 0
    for name, query in queries:
        lines = small_iyp.engine.explain(query).plan
        _, profile = small_iyp.engine.profile(query, parameters)
        explained = [
            anchor
            for line in lines
            if line.startswith(("MATCH ", "OPTIONAL MATCH "))
            for anchor in ANCHOR.findall(line)
        ]
        profiled = [
            anchor
            for node in profile.walk()
            if node.operator == "Match"
            for anchor in ANCHOR.findall(node.detail)
        ]
        assert explained and explained == profiled, name
        optional += sum(line.startswith("OPTIONAL MATCH") for line in lines)
    # The OPTIONAL MATCH lines of the RiPKI and sneak-peek studies start
    # from a bound variable.
    assert optional >= 5


def test_explain_plans_against_earlier_clauses():
    store = GraphStore()
    for i in range(3):
        store.create_node({"N"}, {"i": i})
    engine = CypherEngine(store)
    lines = list(
        engine.explain(
            "MATCH (a:N {i: 1}) OPTIONAL MATCH (x:N)-[:E]->(a) "
            "WITH a, x UNWIND [1] AS one MATCH (a)-[:E]->(y) RETURN x, y"
        )
    )
    matches = [line for line in lines if "MATCH" in line]
    assert "pos=1 access=bound" in matches[1]
    assert "pos=0 access=bound" in matches[2]
