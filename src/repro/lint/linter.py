"""Static analysis of Cypher queries against the IYP ontology.

The linter walks the parsed AST — queries are never executed — and
emits :class:`~repro.lint.diagnostics.Diagnostic` findings:

``LNT000``
    The query does not parse at all.
``LNT001`` / ``LNT002``
    A node label / relationship type that the ontology does not define
    (the paper's ``:Prefx`` typo class — the query would silently
    return zero rows).
``LNT003``
    A ``(src)-[rel]->(dst)`` combination the ontology's endpoint
    definitions rule out, e.g. ``(:Prefix)-[:ORIGINATE]->(:AS)``
    (backwards) — directed arrows are checked against the stored
    orientation, undirected patterns accept either.
``LNT004``
    A property name no crawler writes for that label or type.
``LNT005``
    Disconnected pattern components inside one MATCH — a cartesian
    product (components anchored to previously bound variables do not
    count as disconnected).
``LNT006`` / ``LNT007``
    A variable bound but never used (info) / used but never bound
    (error).  Names starting with ``_`` and queries ending in
    ``RETURN *`` / ``WITH *`` opt out of the unused check.
``LNT008``
    A pattern whose only property lookups have no index — the matcher
    will fall back to a full label scan.  Requires a store, so it only
    fires when linting against a snapshot (CLI ``--snapshot``, server).
``LNT009``
    A comparison whose literal type cannot match the catalogued
    property kind (e.g. ``a.asn = '2907'``), including string
    operators applied to numeric properties.
``LNT010``
    A ``CALL`` naming a procedure the registry does not define, with
    did-you-mean suggestions against the registered ``algo.*`` names.

Label knowledge flows across clauses: a variable bound as ``(x:AS)`` in
one MATCH keeps its label for endpoint and property checks in later
clauses, mirroring how the paper's Listing 3 reuses ``pfx``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.analytics.registry import get_procedure, suggest
from repro.cypher import ast
from repro.cypher.errors import CypherSyntaxError
from repro.cypher.parser import parse
from repro.cypher.render import PLAIN
from repro.lint.diagnostics import Diagnostic, diagnostic
from repro.ontology import (
    ENTITIES,
    NODE_PROPERTIES,
    RELATIONSHIP_PROPERTIES,
    RELATIONSHIPS,
    value_kind,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphdb.store import GraphStore

_COMPARISON_OPS = frozenset({"eq", "neq", "lt", "le", "gt", "ge"})
_STRING_OPS = frozenset({"starts_with", "ends_with", "contains", "regex"})
_NUMERIC_KINDS = frozenset({"int", "float"})


def lint_query(query: str, store: "GraphStore | None" = None) -> list[Diagnostic]:
    """Lint one query string; convenience wrapper around QueryLinter."""
    return QueryLinter(store).lint(query)


class QueryLinter:
    """Stateless facade: one instance may lint many queries."""

    def __init__(self, store: "GraphStore | None" = None) -> None:
        self._store = store

    def lint(self, query: str) -> list[Diagnostic]:
        try:
            tree = parse(query)
        except CypherSyntaxError as exc:
            span = None
            if exc.line is not None and exc.column is not None:
                span = ast.Span(exc.position or 0, exc.line, exc.column)
            return [diagnostic("LNT000", str(exc), span)]
        return self.lint_tree(tree)

    def lint_tree(self, tree: ast.Query) -> list[Diagnostic]:
        findings: list[Diagnostic] = []
        for clauses in tree.parts():
            _PartLinter(self._store, findings).run(clauses)
        seen: set[tuple] = set()
        unique: list[Diagnostic] = []
        for item in findings:
            key = (item.code, item.message, item.span)
            if key not in seen:
                seen.add(key)
                unique.append(item)
        unique.sort(key=lambda d: (d.span.offset if d.span else -1, d.code))
        return unique


class _PartLinter:
    """Lints one UNION part; variable scope does not cross parts."""

    def __init__(
        self, store: "GraphStore | None", findings: list[Diagnostic]
    ) -> None:
        self._store = store
        self._out = findings
        self._scope: dict[str, ast.Span | None] = {}
        self._node_labels: dict[str, set[str]] = {}
        self._rel_types: dict[str, set[str]] = {}
        self._binds: list[tuple[str, ast.Span | None]] = []
        self._used: set[str] = set()
        self._has_star = False

    def _emit(self, code: str, message: str, span: ast.Span | None) -> None:
        self._out.append(diagnostic(code, message, span))

    # -- clause walk -----------------------------------------------------

    def run(self, clauses: tuple[ast.Clause, ...]) -> None:
        last = len(clauses) - 1
        for index, clause in enumerate(clauses):
            if isinstance(clause, ast.MatchClause):
                pre_scope = set(self._scope)
                self._check_cartesian(clause, pre_scope)
                for pattern in clause.patterns:
                    self._walk_pattern(pattern, register_binds=True)
                    self._check_index_anchors(pattern, pre_scope)
                if clause.where is not None:
                    self._expr(clause.where)
            elif isinstance(clause, ast.UnwindClause):
                self._expr(clause.expression)
                self._bind(clause.alias, None, register=True)
            elif isinstance(clause, (ast.WithClause, ast.ReturnClause)):
                self._projection(clause)
            elif isinstance(clause, ast.CreateClause):
                for pattern in clause.patterns:
                    self._walk_pattern(pattern, register_binds=False)
            elif isinstance(clause, ast.MergeClause):
                self._walk_pattern(clause.pattern, register_binds=False)
                for item in clause.on_create + clause.on_match:
                    self._set_item(item)
            elif isinstance(clause, ast.SetClause):
                for item in clause.items:
                    self._set_item(item)
            elif isinstance(clause, ast.RemoveClause):
                for item in clause.items:
                    self._expr(item.subject)
            elif isinstance(clause, ast.DeleteClause):
                for expression in clause.expressions:
                    self._expr(expression)
            elif isinstance(clause, ast.CallClause):
                self._check_call(clause, is_final=index == last)
        if not self._has_star:
            for name, span in self._binds:
                if name not in self._used and not name.startswith("_"):
                    self._emit(
                        "LNT006",
                        f"variable `{name}` is bound but never used",
                        span,
                    )

    def _projection(self, clause: ast.WithClause | ast.ReturnClause) -> None:
        if clause.star:
            self._has_star = True
        aliases: dict[str, set[str]] = {}
        for item in clause.items:
            self._expr(item.expression)
            if isinstance(item.expression, ast.Variable):
                labels = self._node_labels.get(item.expression.name)
                if labels:
                    aliases[item.alias] = set(labels)
        is_with = isinstance(clause, ast.WithClause)
        if is_with and not clause.star:
            # WITH narrows the scope to its projected aliases; ORDER BY
            # and WHERE below may reference both old and new names, so
            # widen only after checking the narrowing is sound.
            new_scope = {item.alias: None for item in clause.items}
        else:
            new_scope = dict(self._scope)
            for item in clause.items:
                new_scope[item.alias] = None
        merged = {**self._scope, **new_scope}
        old_scope = self._scope
        self._scope = merged
        for sort in clause.order_by:
            self._expr(sort.expression)
        if clause.skip is not None:
            self._expr(clause.skip)
        if clause.limit is not None:
            self._expr(clause.limit)
        if is_with and clause.where is not None:
            self._expr(clause.where)
        self._scope = new_scope if is_with else old_scope
        if is_with:
            kept = self._node_labels if clause.star else {}
            self._node_labels = {**kept, **aliases}
            if not clause.star:
                self._rel_types = {}

    def _check_call(self, clause: ast.CallClause, is_final: bool) -> None:
        for arg in clause.args:
            self._expr(arg)
        spec = get_procedure(clause.procedure)
        if spec is None:
            message = f"unknown procedure `{clause.procedure}` in CALL"
            hints = suggest(clause.procedure)
            if hints:
                message += (
                    "; did you mean "
                    + " or ".join(f"`{hint}`" for hint in hints)
                    + "?"
                )
            self._emit("LNT010", message, clause.name_span)
        if clause.yields:
            yields = clause.yields
        elif spec is not None:
            yields = tuple(
                ast.YieldItem(column, column) for column in spec.columns
            )
        else:
            yields = ()
        for item in yields:
            # A final CALL's yields are the query's result columns, so
            # they are "used" by definition; only explicit YIELDs in
            # the middle of a pipeline join the unused-variable check.
            register = bool(clause.yields) and not is_final
            self._bind(item.alias, item.span, register=register)

    def _set_item(self, item: ast.SetItem) -> None:
        self._expr(item.subject)
        if item.value is not None:
            self._expr(item.value)
        for label in item.labels:
            if label not in ENTITIES:
                self._emit(
                    "LNT001",
                    f"unknown node label :{label} (not in the ontology)",
                    None,
                )

    # -- patterns --------------------------------------------------------

    def _bind(
        self, name: str, span: ast.Span | None, register: bool
    ) -> None:
        if name in self._scope:
            self._used.add(name)
            return
        self._scope[name] = span
        if register:
            self._binds.append((name, span))

    def _walk_pattern(
        self, pattern: ast.PathPattern, register_binds: bool, local_only: bool = False
    ) -> None:
        if pattern.path_variable and not local_only:
            self._bind(pattern.path_variable, None, register_binds)
        for index, node in enumerate(pattern.nodes):
            self._walk_node(node, register_binds, local_only)
            if index > 0:
                rel = pattern.relationships[index - 1]
                self._walk_rel(
                    rel, pattern.nodes[index - 1], node, register_binds, local_only
                )

    def _walk_node(
        self, node: ast.NodePattern, register_binds: bool, local_only: bool
    ) -> None:
        if node.variable and not local_only:
            self._bind(node.variable, node.span, register_binds)
            if node.labels:
                self._node_labels.setdefault(node.variable, set()).update(node.labels)
        for index, label in enumerate(node.labels):
            if label not in ENTITIES:
                span = node.label_spans[index] if index < len(node.label_spans) else None
                self._emit(
                    "LNT001",
                    f"unknown node label :{label} (not in the ontology)",
                    span,
                )
        labels = self._effective_node_labels(node)
        known = [label for label in labels if label in ENTITIES]
        for index, (key, value) in enumerate(node.properties):
            if not local_only:
                # A pattern predicate's values are reached (with its
                # local names in force) by the walk that found it.
                self._expr(value)
            span = (
                node.property_spans[index]
                if index < len(node.property_spans)
                else None
            )
            if self._check_produced(key, known, NODE_PROPERTIES, span):
                self._check_kind_against_literal(
                    _property_kinds(NODE_PROPERTIES, known, key), key, value, span
                )

    def _walk_rel(
        self,
        rel: ast.RelPattern,
        left: ast.NodePattern,
        right: ast.NodePattern,
        register_binds: bool,
        local_only: bool,
    ) -> None:
        if rel.variable and not local_only:
            self._bind(rel.variable, rel.span, register_binds)
            if rel.types:
                self._rel_types.setdefault(rel.variable, set()).update(rel.types)
        known_types = []
        for index, rel_type in enumerate(rel.types):
            span = rel.type_spans[index] if index < len(rel.type_spans) else None
            if rel_type not in RELATIONSHIPS:
                self._emit(
                    "LNT002",
                    f"unknown relationship type :{rel_type} (not in the ontology)",
                    span,
                )
            else:
                known_types.append((rel_type, span))
        self._check_endpoints(rel, left, right, known_types)
        for index, (key, value) in enumerate(rel.properties):
            if not local_only:
                self._expr(value)
            span = (
                rel.property_spans[index] if index < len(rel.property_spans) else None
            )
            types = [t for t, _ in known_types]
            if self._check_produced(key, types, RELATIONSHIP_PROPERTIES, span):
                kinds = _property_kinds(RELATIONSHIP_PROPERTIES, types, key)
                self._check_kind_against_literal(kinds, key, value, span)

    def _check_endpoints(
        self,
        rel: ast.RelPattern,
        left: ast.NodePattern,
        right: ast.NodePattern,
        known_types: list[tuple[str, ast.Span | None]],
    ) -> None:
        if rel.is_variable_length:
            return
        src = [x for x in self._effective_node_labels(left) if x in ENTITIES]
        dst = [x for x in self._effective_node_labels(right) if x in ENTITIES]
        if not src or not dst:
            return
        for rel_type, span in known_types:
            definition = RELATIONSHIPS[rel_type]
            forward = definition.permits(src, dst)
            backward = definition.permits(dst, src)
            if rel.direction == "out":
                ok = forward
            elif rel.direction == "in":
                ok = backward
            else:
                ok = forward or backward
            if not ok:
                arrow = {"out": "->", "in": "<-", "both": "-"}[rel.direction]
                src_s = "|".join(f":{x}" for x in sorted(src))
                dst_s = "|".join(f":{x}" for x in sorted(dst))
                self._emit(
                    "LNT003",
                    f"({src_s})-[:{rel_type}]{arrow}({dst_s}) is not a "
                    f"permitted endpoint combination for :{rel_type}",
                    span,
                )

    def _effective_node_labels(self, node: ast.NodePattern) -> set[str]:
        labels = set(node.labels)
        if node.variable:
            labels.update(self._node_labels.get(node.variable, ()))
        return labels

    # -- cartesian products ---------------------------------------------

    def _check_cartesian(self, clause: ast.MatchClause, pre_scope: set[str]) -> None:
        if len(clause.patterns) < 2:
            return
        components: list[tuple[set[str], ast.Span | None]] = []
        for pattern in clause.patterns:
            names = pattern.variables()
            span = pattern.nodes[0].span
            merged_names, merged_span = set(names), span
            rest: list[tuple[set[str], ast.Span | None]] = []
            for other_names, other_span in components:
                if names and other_names & names:
                    merged_names |= other_names
                    merged_span = other_span or merged_span
                else:
                    rest.append((other_names, other_span))
            rest.append((merged_names, merged_span))
            components = rest
        anchored = [c for c in components if c[0] & pre_scope]
        floating = [c for c in components if not (c[0] & pre_scope)]
        effective = (1 if anchored else 0) + len(floating)
        if effective > 1:
            offender = floating[1] if len(floating) > 1 else floating[0]
            self._emit(
                "LNT005",
                f"MATCH has {effective} disconnected pattern components; "
                "the result is a cartesian product",
                offender[1],
            )

    # -- index anchors ---------------------------------------------------

    def _check_index_anchors(
        self, pattern: ast.PathPattern, pre_scope: set[str]
    ) -> None:
        if self._store is None:
            return
        if any(n.variable in pre_scope for n in pattern.nodes if n.variable):
            return  # anchored on an already-bound variable: no scan
        unindexed: list[tuple[str, str, ast.Span | None]] = []
        for node in pattern.nodes:
            keys = [key for key, _ in node.properties]
            if not keys:
                continue
            known = [
                label
                for label in self._effective_node_labels(node)
                if label in ENTITIES
            ]
            if not known:
                continue
            if any(
                self._store.has_index(label, key)
                for label in known
                for key in keys
            ):
                return  # the planner has an index seek available
            unindexed.append((known[0], keys[0], node.span))
        for label, key, span in unindexed:
            self._emit(
                "LNT008",
                f"lookup on :{label}({key}) has no index; the pattern "
                "anchors with a full label scan",
                span,
            )

    # -- expressions -----------------------------------------------------

    def _expr(self, expr: ast.Expression) -> None:
        """Scope-check every variable the expression reads and run the
        per-node checks; the traversal itself is ``ast``'s."""
        for node, local in expr.walk():
            if isinstance(node, ast.Variable):
                if node.name in self._scope:
                    self._used.add(node.name)
                elif node.name not in local:
                    self._emit(
                        "LNT007",
                        f"variable `{node.name}` is used but never bound",
                        node.span,
                    )
            elif isinstance(node, ast.PropertyAccess):
                self._check_property_access(node)
            elif isinstance(node, ast.BinaryOp):
                self._check_comparison(node)
            elif isinstance(node, ast.PatternPredicate):
                # Pattern predicates reference bound variables and may
                # name fresh ones locally; lint labels/types/endpoints
                # but do not bind into the outer scope.
                self._used.update(node.pattern.variables() & self._scope.keys())
                self._walk_pattern(
                    node.pattern, register_binds=False, local_only=True
                )

    def _catalogued(
        self, name: str
    ) -> tuple[list[str], Mapping[str, Mapping[str, str]]]:
        """The ontology labels known for a variable with the node
        catalogue, else its known relationship types with theirs."""
        labels = [x for x in self._node_labels.get(name, ()) if x in ENTITIES]
        if labels:
            return labels, NODE_PROPERTIES
        types = [x for x in self._rel_types.get(name, ()) if x in RELATIONSHIPS]
        return types, RELATIONSHIP_PROPERTIES

    def _check_produced(
        self,
        key: str,
        owners: list[str],
        catalogue: Mapping[str, Mapping[str, str]],
        span: ast.Span | None,
    ) -> bool:
        """True when some known label / type produces ``key``; LNT004
        when ``owners`` are known and none does."""
        if not owners:
            return False
        if any(key in catalogue[owner] for owner in owners):
            return True
        names = "/".join(f":{owner}" for owner in sorted(owners))
        where = (
            f"for {names} nodes"
            if catalogue is NODE_PROPERTIES
            else f"on {names} relationships"
        )
        self._emit("LNT004", f"property `{key}` is not produced {where}", span)
        return False

    def _check_property_access(self, expr: ast.PropertyAccess) -> None:
        if isinstance(expr.subject, ast.Variable):
            owners, catalogue = self._catalogued(expr.subject.name)
            self._check_produced(expr.key, owners, catalogue, expr.key_span)

    def _check_comparison(self, expr: ast.BinaryOp) -> None:
        if expr.op in _STRING_OPS:
            kinds = self._expression_kinds(expr.left)
            if kinds and kinds <= _NUMERIC_KINDS:
                self._emit(
                    "LNT009",
                    f"string operator on numeric property "
                    f"`{PLAIN.expression(expr.left)}`",
                    _expr_span(expr.left),
                )
            return
        if expr.op not in _COMPARISON_OPS:
            return
        for prop, literal in (
            (expr.left, expr.right),
            (expr.right, expr.left),
        ):
            if not isinstance(literal, ast.Literal):
                continue
            kinds = self._expression_kinds(prop)
            literal_kind = value_kind(literal.value)
            if not kinds or literal_kind is None:
                continue
            if not any(_compatible(kind, literal_kind) for kind in kinds):
                kind = "/".join(sorted(kinds))
                self._emit(
                    "LNT009",
                    f"comparing {kind} property `{PLAIN.expression(prop)}` to "
                    f"{literal_kind} literal {literal.value!r}",
                    literal.span or _expr_span(prop),
                )
            return

    def _expression_kinds(self, expr: ast.Expression) -> set[str]:
        """Catalogued kinds a property access may yield; empty = unknown."""
        if not (
            isinstance(expr, ast.PropertyAccess)
            and isinstance(expr.subject, ast.Variable)
        ):
            return set()
        owners, catalogue = self._catalogued(expr.subject.name)
        return _property_kinds(catalogue, owners, expr.key)

    def _check_kind_against_literal(
        self,
        kinds: set[str],
        key: str,
        value: ast.Expression,
        span: ast.Span | None,
    ) -> None:
        if not isinstance(value, ast.Literal) or not kinds:
            return
        literal_kind = value_kind(value.value)
        if literal_kind is None:
            return
        if not any(_compatible(kind, literal_kind) for kind in kinds):
            kind = "/".join(sorted(kinds))
            self._emit(
                "LNT009",
                f"comparing {kind} property `{key}` to {literal_kind} "
                f"literal {value.value!r}",
                value.span or span,
            )


# -- helpers -------------------------------------------------------------


def _property_kinds(
    catalogue: Mapping[str, Mapping[str, str]], owners: Iterable[str], key: str
) -> set[str]:
    """The catalogued kinds ``key`` has across labels / types."""
    return {catalogue[owner][key] for owner in owners if key in catalogue[owner]}


def _compatible(kind: str, literal_kind: str) -> bool:
    if kind == literal_kind:
        return True
    return kind in _NUMERIC_KINDS and literal_kind in _NUMERIC_KINDS


def _expr_span(expr: ast.Expression) -> ast.Span | None:
    if isinstance(expr, ast.PropertyAccess):
        return expr.key_span
    if isinstance(expr, ast.Variable):
        return expr.span
    if isinstance(expr, ast.Literal):
        return expr.span
    return None
