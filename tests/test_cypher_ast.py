"""The AST describes itself: ``children()`` is complete, and every
analysis folded over it agrees with the others.

``repro.cypher.ast`` is the only module that knows which fields of a
node hold sub-expressions and which names a node scopes for them.  The
first test makes forgetting to declare a field a red test instead of a
silent hole in aggregate detection, free-variable analysis and the
linter at once; the property test cross-checks those three folds
against each other and against the renderer, which walks the tree
without ``children()``.
"""

from __future__ import annotations

import dataclasses
import re
import types
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cypher import ast
from repro.cypher.engine import has_aggregate
from repro.cypher.functions import AGGREGATE_NAMES
from repro.cypher.parser import parse
from repro.cypher.planner import free_variables
from repro.cypher.render import MASKED, PLAIN
from repro.lint.linter import _PartLinter
from tests.test_cypher_fuzz import random_queries


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


EXPRESSION_CLASSES = sorted(_subclasses(ast.Expression), key=lambda c: c.__name__)


def _build(annotation, planted: list[ast.Expression]):
    """A value for one dataclass field; every expression it contains is
    a fresh, identifiable leaf appended to ``planted``."""
    if annotation is ast.Expression:
        planted.append(ast.Variable(f"planted_{len(planted)}"))
        return planted[-1]
    if annotation is ast.PathPattern:
        properties = typing.get_type_hints(ast.NodePattern)["properties"]
        return ast.PathPattern(
            (
                ast.NodePattern("n", (), _build(properties, planted)),
                ast.NodePattern(None, ()),
            ),
            (ast.RelPattern("r", (), _build(properties, planted)),),
        )
    origin = typing.get_origin(annotation)
    arguments = typing.get_args(annotation)
    if origin in (typing.Union, types.UnionType):
        return _build(
            next(arg for arg in arguments if arg is not type(None)), planted
        )
    if origin is tuple and arguments[-1] is Ellipsis:
        return tuple(_build(arguments[0], planted) for _ in range(2))
    if origin is tuple:
        return tuple(_build(argument, planted) for argument in arguments)
    return {str: "name", bool: False, ast.Span: None}.get(annotation, 1)


def _instance(cls: type) -> tuple[ast.Expression, list[ast.Expression]]:
    planted: list[ast.Expression] = []
    hints = typing.get_type_hints(cls)
    values = {
        field.name: _build(hints[field.name], planted)
        for field in dataclasses.fields(cls)
    }
    return cls(**values), planted


class TestChildrenAreDeclared:
    def test_every_expression_type_is_a_dataclass(self):
        assert ast.Reduce in EXPRESSION_CLASSES
        assert all(dataclasses.is_dataclass(cls) for cls in EXPRESSION_CLASSES)

    @pytest.mark.parametrize("cls", EXPRESSION_CLASSES, ids=lambda c: c.__name__)
    def test_every_expression_field_is_yielded(self, cls):
        node, planted = _instance(cls)
        yielded = [child for child, _names in node.children()]
        assert {id(child) for child in yielded} == {id(leaf) for leaf in planted}
        assert len(yielded) == len(planted)  # each exactly once

    @pytest.mark.parametrize("cls", EXPRESSION_CLASSES, ids=lambda c: c.__name__)
    def test_scoped_names_are_the_nodes_own(self, cls):
        node, _planted = _instance(cls)
        own = {
            getattr(node, field.name)
            for field in dataclasses.fields(node)
            if field.name in ("variable", "accumulator")
        }
        for _child, names in node.children():
            assert set(names) <= own

    @pytest.mark.parametrize("cls", EXPRESSION_CLASSES, ids=lambda c: c.__name__)
    def test_the_renderer_has_a_case(self, cls):
        node, _planted = _instance(cls)
        for renderer in (PLAIN, MASKED):
            assert renderer.expression(node)

    def test_scoping_is_per_child(self):
        def scopes(source: str) -> dict[str, tuple[str, ...]]:
            tree = parse(f"RETURN {source} AS v")
            (item,) = tree.clauses[0].items
            return {
                PLAIN.expression(child): names
                for child, names in item.expression.children()
            }

        assert scopes("[x IN xs WHERE x > 1 | x + k]") == {
            "xs": (), "x > 1": ("x",), "x + k": ("x",),
        }
        assert scopes("any(x IN xs WHERE x = k)") == {"xs": (), "x = k": ("x",)}
        assert scopes("reduce(acc = init, x IN xs | acc + x)") == {
            "init": (), "xs": (), "acc + x": ("acc", "x"),
        }

    def test_pattern_and_query_own_their_shape(self):
        tree = parse(
            "MATCH p = (a)-[r:X*1..2]->(:L {k: $v}) RETURN a UNION ALL RETURN 1 AS a"
        )
        (pattern,) = tree.clauses[0].patterns
        assert pattern.variables() == {"p", "a", "r"}
        assert list(pattern.property_values()) == [ast.Parameter("v")]
        assert [len(clauses) for clauses in tree.parts()] == [2, 1]


# ---------------------------------------------------------------------------
# The folds agree with each other
# ---------------------------------------------------------------------------

#: Conditions exercising every scoping construct, dropped into the WHERE
#: of ``MATCH p = (a)-[r]->(b), (c)`` so ``a``/``b``/``c``/``r``/``p`` are
#: in scope and anything else is not.
SCOPED_CONDITIONS = [
    "size([x IN a.list WHERE x > b.cut | x + c.k]) > 0",
    "reduce(s = a.start, x IN nodes(p) | s + x.w + b.w) > 3",
    "any(m IN a.members WHERE m = b.asn) AND none(m IN [1] WHERE m = k)",
    "CASE a.k WHEN 1 THEN b.v ELSE c.v END = unbound.v",
    "a.list[b.i..c.j] = a.list[r.i]",
    "{k: a.v, j: [b.v]}.k IS NOT NULL",
    "count(DISTINCT a) + size(collect(b.v)) > 1",
    "size([a IN [1, 2] | a + b.v]) = 2",
    "NOT -a.v ^ 2 IN [b.v, c.v] XOR missing",
    "(a)-[:X]->(fresh {k: c.v}) OR b.v = 1",
]
CONDITION_QUERIES = [
    f"MATCH p = (a)-[r]->(b), (c) WHERE {condition} RETURN 1"
    for condition in SCOPED_CONDITIONS
]
_AGGREGATE_CALL = re.compile(
    r"\b(" + "|".join(sorted(AGGREGATE_NAMES)) + r")\(", re.IGNORECASE
)


def _expressions(tree: ast.Query):
    """``(expression, names in scope)`` for every WHERE and projection
    item, with the scope the linter would have there."""
    for clauses in tree.parts():
        scope: set[str] = set()
        for clause in clauses:
            if isinstance(clause, ast.MatchClause):
                for pattern in clause.patterns:
                    scope |= pattern.variables()
                if clause.where is not None:
                    yield clause.where, frozenset(scope)
            elif isinstance(clause, (ast.WithClause, ast.ReturnClause)):
                for item in clause.items:
                    yield item.expression, frozenset(scope)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(random_queries(), st.sampled_from(CONDITION_QUERIES)))
def test_property_folds_over_children_agree(query):
    for expression, scope in _expressions(parse(query)):
        nodes = [node for node, _scoped in expression.walk()]
        has_pattern = any(isinstance(n, ast.PatternPredicate) for n in nodes)

        linter = _PartLinter(None, [])
        linter._scope = dict.fromkeys(scope)
        linter._expr(expression)
        unbound = {
            re.search(r"`(\w+)`", finding.message).group(1)
            for finding in linter._out
            if finding.code == "LNT007"
        }

        free = free_variables(expression)
        # What the planner calls free, the linter calls used or unbound.
        assert free & scope <= linter._used
        if not has_pattern:
            assert free - scope == unbound
        # The linter only over-reports uses where a local name shadows.
        assert linter._used <= {n.name for n in nodes if isinstance(n, ast.Variable)} | (
            scope if has_pattern else set()
        )
        # The renderer walks the tree on its own: it must see an
        # aggregate call exactly when the fold does.
        rendered = MASKED.expression(expression)
        assert has_aggregate(expression) == bool(_AGGREGATE_CALL.search(rendered))
