"""Abstract syntax tree for the Cypher subset.

The tree is produced by :mod:`repro.cypher.parser` and consumed by
:mod:`repro.cypher.engine`.  All nodes are plain frozen dataclasses; the
executor never mutates them, so parsed queries are safely cacheable.

This module is the only place that knows the *shape* of the tree: every
expression declares its sub-expressions (and the names it scopes for
them) in :meth:`Expression.children`, a path pattern owns the variables
it mentions, a query owns its UNION parts.  Every analysis — aggregate
detection, free variables, the linter's scope walk — is a fold over
:meth:`Expression.walk`, so a new node type is declared here and
nowhere else (``tests/test_cypher_ast.py`` fails when a field holding an
expression is not yielded by ``children()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

# ---------------------------------------------------------------------------
# Source spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """Location of a token in the query text (1-based line/column).

    Spans are attached to AST nodes with ``compare=False`` so two parses
    of equivalent queries still compare equal and remain cacheable.
    """

    offset: int
    line: int
    column: int
    length: int = 1

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


#: A sub-expression together with the names its parent scopes for it
#: (a comprehension's iteration variable, ``reduce``'s accumulator).
Child = tuple["Expression", tuple[str, ...]]


class Expression:
    """Base class for expression nodes."""

    __slots__ = ()

    def children(self) -> Iterator[Child]:
        """Each direct sub-expression, in source order, with the names
        this node brings into scope for it.  Leaves yield nothing."""
        return iter(())

    def walk(
        self, scoped: frozenset[str] = frozenset()
    ) -> Iterator[tuple["Expression", frozenset[str]]]:
        """Pre-order traversal: every node of the tree together with the
        locally scoped names in force at it."""
        yield self, scoped
        for child, names in self.children():
            yield from child.walk(scoped.union(names) if names else scoped)


def _outer(*expressions: Expression | None) -> Iterator[Child]:
    """Children evaluated in the parent's own scope; ``None`` (an absent
    optional part) is skipped."""
    for expression in expressions:
        if expression is not None:
            yield expression, ()


@dataclass(frozen=True)
class Literal(Expression):
    value: Any
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Parameter(Expression):
    name: str


@dataclass(frozen=True)
class Variable(Expression):
    name: str
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class PropertyAccess(Expression):
    subject: Expression
    key: str
    key_span: Span | None = field(default=None, compare=False)

    def children(self) -> Iterator[Child]:
        return _outer(self.subject)


@dataclass(frozen=True)
class FunctionCall(Expression):
    name: str  # lower-cased
    args: tuple[Expression, ...]
    distinct: bool = False
    star: bool = False  # count(*)

    def children(self) -> Iterator[Child]:
        return _outer(*self.args)


@dataclass(frozen=True)
class UnaryOp(Expression):
    op: str  # 'not' | '-' | '+'
    operand: Expression

    def children(self) -> Iterator[Child]:
        return _outer(self.operand)


#: ``BinaryOp.op`` -> its source spelling; the arithmetic operators
#: (``+ - * / % ^``) are their own name.
OPERATOR_SYMBOLS = {
    "and": "AND",
    "or": "OR",
    "xor": "XOR",
    "eq": "=",
    "neq": "<>",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
    "in": "IN",
    "starts_with": "STARTS WITH",
    "ends_with": "ENDS WITH",
    "contains": "CONTAINS",
    "regex": "=~",
}


@dataclass(frozen=True)
class BinaryOp(Expression):
    op: str  # a key of OPERATOR_SYMBOLS, or an arithmetic operator
    left: Expression
    right: Expression

    def children(self) -> Iterator[Child]:
        return _outer(self.left, self.right)


@dataclass(frozen=True)
class IsNull(Expression):
    operand: Expression
    negated: bool

    def children(self) -> Iterator[Child]:
        return _outer(self.operand)


@dataclass(frozen=True)
class ListLiteral(Expression):
    items: tuple[Expression, ...]

    def children(self) -> Iterator[Child]:
        return _outer(*self.items)


@dataclass(frozen=True)
class MapLiteral(Expression):
    items: tuple[tuple[str, Expression], ...]

    def children(self) -> Iterator[Child]:
        return _outer(*(value for _, value in self.items))


@dataclass(frozen=True)
class IndexAccess(Expression):
    """``expr[idx]`` or slice ``expr[a..b]`` on lists/maps."""

    subject: Expression
    index: Expression | None
    end: Expression | None = None
    is_slice: bool = False

    def children(self) -> Iterator[Child]:
        return _outer(self.subject, self.index, self.end)


@dataclass(frozen=True)
class CaseExpression(Expression):
    """Both simple (``CASE x WHEN v ...``) and searched CASE."""

    operand: Expression | None
    whens: tuple[tuple[Expression, Expression], ...]
    default: Expression | None

    def children(self) -> Iterator[Child]:
        branches = (part for when in self.whens for part in when)
        return _outer(self.operand, *branches, self.default)


@dataclass(frozen=True)
class ListComprehension(Expression):
    """``[x IN list WHERE pred | expr]``"""

    variable: str
    source: Expression
    predicate: Expression | None
    projection: Expression | None

    def children(self) -> Iterator[Child]:
        yield self.source, ()
        for inner in (self.predicate, self.projection):
            if inner is not None:
                yield inner, (self.variable,)


@dataclass(frozen=True)
class ListPredicate(Expression):
    """``all/any/none/single(x IN list WHERE predicate)``"""

    kind: str  # 'all' | 'any' | 'none' | 'single'
    variable: str
    source: Expression
    predicate: Expression

    def children(self) -> Iterator[Child]:
        yield self.source, ()
        yield self.predicate, (self.variable,)


@dataclass(frozen=True)
class Reduce(Expression):
    """``reduce(acc = init, x IN list | expr)``"""

    accumulator: str
    init: Expression
    variable: str
    source: Expression
    expression: Expression

    def children(self) -> Iterator[Child]:
        yield self.init, ()
        yield self.source, ()
        yield self.expression, (self.accumulator, self.variable)


@dataclass(frozen=True)
class PatternPredicate(Expression):
    """A bare pattern used as a predicate, e.g. ``WHERE (a)-[:X]-(b)``,
    or wrapped in ``EXISTS { ... }`` / ``exists((a)-[:X]-(b))``."""

    pattern: "PathPattern"

    def children(self) -> Iterator[Child]:
        return _outer(*self.pattern.property_values())


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodePattern:
    variable: str | None
    labels: tuple[str, ...]
    properties: tuple[tuple[str, Expression], ...] = ()
    span: Span | None = field(default=None, compare=False)
    label_spans: tuple[Span, ...] = field(default=(), compare=False)
    property_spans: tuple[Span, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class RelPattern:
    variable: str | None
    types: tuple[str, ...]
    properties: tuple[tuple[str, Expression], ...] = ()
    direction: str = "both"  # 'out', 'in', 'both'
    min_hops: int = 1
    max_hops: int = 1  # -1 means unbounded
    span: Span | None = field(default=None, compare=False)
    type_spans: tuple[Span, ...] = field(default=(), compare=False)
    property_spans: tuple[Span, ...] = field(default=(), compare=False)

    @property
    def is_variable_length(self) -> bool:
        return self.min_hops != 1 or self.max_hops != 1


@dataclass(frozen=True)
class PathPattern:
    """Alternating node / relationship elements: n, r, n, r, ..., n."""

    nodes: tuple[NodePattern, ...]
    relationships: tuple[RelPattern, ...]
    path_variable: str | None = None
    shortest: bool = False  # wrapped in shortestPath(...)

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.relationships) + 1:
            raise ValueError("path must alternate nodes and relationships")

    def variables(self) -> frozenset[str]:
        """Every variable the pattern mentions (path variable included)."""
        names = {node.variable for node in self.nodes if node.variable}
        names.update(rel.variable for rel in self.relationships if rel.variable)
        if self.path_variable:
            names.add(self.path_variable)
        return frozenset(names)

    def property_values(self) -> Iterator[Expression]:
        """The value expressions of every inline property map."""
        for element in (*self.nodes, *self.relationships):
            for _, value in element.properties:
                yield value


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------


class Clause:
    """Marker base class for clause nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class MatchClause(Clause):
    patterns: tuple[PathPattern, ...]
    optional: bool = False
    where: Expression | None = None


@dataclass(frozen=True)
class UnwindClause(Clause):
    expression: Expression
    alias: str


@dataclass(frozen=True)
class ProjectionItem:
    expression: Expression
    alias: str


@dataclass(frozen=True)
class SortItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class WithClause(Clause):
    items: tuple[ProjectionItem, ...]
    distinct: bool = False
    star: bool = False  # WITH *
    where: Expression | None = None
    order_by: tuple[SortItem, ...] = ()
    skip: Expression | None = None
    limit: Expression | None = None


@dataclass(frozen=True)
class ReturnClause(Clause):
    items: tuple[ProjectionItem, ...]
    distinct: bool = False
    star: bool = False  # RETURN *
    order_by: tuple[SortItem, ...] = ()
    skip: Expression | None = None
    limit: Expression | None = None


@dataclass(frozen=True)
class CreateClause(Clause):
    patterns: tuple[PathPattern, ...]


@dataclass(frozen=True)
class MergeClause(Clause):
    pattern: PathPattern
    on_create: tuple["SetItem", ...] = ()
    on_match: tuple["SetItem", ...] = ()


@dataclass(frozen=True)
class SetItem:
    """One assignment in SET / ON CREATE SET / ON MATCH SET.

    kind: 'property'  -> subject.key = value
          'merge_map' -> subject += map
          'replace_map' -> subject = map
          'label'     -> subject :Label
    """

    kind: str
    subject: Expression
    key: str | None = None
    value: Expression | None = None
    labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class SetClause(Clause):
    items: tuple[SetItem, ...]


@dataclass(frozen=True)
class RemoveClause(Clause):
    items: tuple[SetItem, ...]  # kind 'property' (no value) or 'label'


@dataclass(frozen=True)
class DeleteClause(Clause):
    expressions: tuple[Expression, ...]
    detach: bool = False


@dataclass(frozen=True)
class YieldItem:
    """One ``YIELD column [AS alias]`` projection of a CALL clause."""

    column: str
    alias: str
    span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class CallClause(Clause):
    """``CALL proc.name(args) [YIELD col [AS alias], ...]``.

    ``procedure`` is the lower-cased dotted name; an empty ``yields``
    means every column of the procedure is projected under its own
    name.  ``name_span`` covers the dotted name for diagnostics.
    """

    procedure: str
    args: tuple[Expression, ...] = ()
    yields: tuple[YieldItem, ...] = ()
    name_span: Span | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Query:
    clauses: tuple[Clause, ...]
    # UNION support: each part is a full clause list; rows are concatenated.
    union_parts: tuple["Query", ...] = ()
    union_all: bool = False

    def parts(self) -> tuple[tuple[Clause, ...], ...]:
        """The clause list of every UNION part, the main one first."""
        return (self.clauses, *(part.clauses for part in self.union_parts))
