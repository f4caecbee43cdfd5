"""The one renderer of the Cypher tree back to text.

Two surfaces print the tree and they differ only in how values print:

- :data:`MASKED` is the canonical form behind statement fingerprints
  (:mod:`repro.cypher.fingerprint`): every literal is ``?``, every
  parameter ``$?``, and every binary operation is parenthesized so the
  text never depends on operator precedence.
- :data:`PLAIN` is what EXPLAIN shows (:mod:`repro.cypher.planner`):
  literals as ``repr`` (so ``null`` prints as ``None``), parameters by
  name, and only the parentheses the parser's precedence requires —
  the rendered text of an expression groups exactly as its tree does.

Everything else (clauses, patterns, every expression type) is shared, so
a construct is rendered identically wherever it is shown.
"""

from __future__ import annotations

from repro.cypher import ast

# Binding strength, loosest first — the parser's descent order
# (_parse_or ... _parse_postfix).
_NOT, _COMPARISON, _POWER, _NEGATE, _POSTFIX, _ATOM = 4, 5, 8, 9, 10, 11
_BINARY_PRECEDENCE = {
    "or": 1, "xor": 2, "and": 3,
    "+": 6, "-": 6, "*": 7, "/": 7, "%": 7, "^": _POWER,
}


class Renderer:
    """Renders queries, clauses, patterns and expressions as text."""

    def __init__(self, masked: bool) -> None:
        self.masked = masked

    # -- queries and clauses ------------------------------------------------

    def query(self, tree: ast.Query) -> str:
        keyword = " UNION ALL " if tree.union_all else " UNION "
        return keyword.join(
            " ".join(self.clause(clause) for clause in clauses)
            for clauses in tree.parts()
        )

    def clause(self, clause: ast.Clause) -> str:
        expr = self.expression
        if isinstance(clause, ast.MatchClause):
            head = "OPTIONAL MATCH" if clause.optional else "MATCH"
            body = ", ".join(self.path(p) for p in clause.patterns)
            if clause.where is not None:
                body += f" WHERE {expr(clause.where)}"
            return f"{head} {body}"
        if isinstance(clause, ast.UnwindClause):
            return f"UNWIND {expr(clause.expression)} AS {clause.alias}"
        if isinstance(clause, ast.WithClause):
            return "WITH " + self._projection(clause, clause.where)
        if isinstance(clause, ast.ReturnClause):
            return "RETURN " + self._projection(clause, None)
        if isinstance(clause, ast.CreateClause):
            return "CREATE " + ", ".join(self.path(p) for p in clause.patterns)
        if isinstance(clause, ast.MergeClause):
            text = "MERGE " + self.path(clause.pattern)
            if clause.on_create:
                text += " ON CREATE SET " + self._set_items(clause.on_create)
            if clause.on_match:
                text += " ON MATCH SET " + self._set_items(clause.on_match)
            return text
        if isinstance(clause, ast.SetClause):
            return "SET " + self._set_items(clause.items)
        if isinstance(clause, ast.RemoveClause):
            return "REMOVE " + self._set_items(clause.items)
        if isinstance(clause, ast.DeleteClause):
            head = "DETACH DELETE" if clause.detach else "DELETE"
            return f"{head} " + ", ".join(expr(e) for e in clause.expressions)
        if isinstance(clause, ast.CallClause):
            text = f"CALL {clause.procedure}"
            text += "(" + ", ".join(expr(arg) for arg in clause.args) + ")"
            if clause.yields:
                text += " YIELD " + ", ".join(
                    item.column if item.column == item.alias
                    else f"{item.column} AS {item.alias}"
                    for item in clause.yields
                )
            return text
        raise TypeError(f"cannot render clause {clause!r}")

    def _projection(
        self,
        clause: ast.WithClause | ast.ReturnClause,
        where: ast.Expression | None,
    ) -> str:
        expr = self.expression
        flags = "DISTINCT " if clause.distinct else ""
        if clause.star:
            parts = [f"{flags}*"]
        else:
            parts = [
                flags
                + ", ".join(
                    f"{expr(item.expression)} AS {item.alias}"
                    for item in clause.items
                )
            ]
        if where is not None:
            parts.append(f"WHERE {expr(where)}")
        if clause.order_by:
            parts.append(
                "ORDER BY "
                + ", ".join(
                    expr(item.expression) + (" DESC" if item.descending else "")
                    for item in clause.order_by
                )
            )
        if clause.skip is not None:
            parts.append(f"SKIP {expr(clause.skip)}")
        if clause.limit is not None:
            parts.append(f"LIMIT {expr(clause.limit)}")
        return " ".join(parts)

    def _set_items(self, items: tuple[ast.SetItem, ...]) -> str:
        return ", ".join(self._set_item(item) for item in items)

    def _set_item(self, item: ast.SetItem) -> str:
        subject = self.expression(item.subject, _POSTFIX)
        if item.kind == "label":
            return subject + "".join(f":{label}" for label in item.labels)
        value = "" if item.value is None else self.expression(item.value)
        if item.kind == "property":
            return f"{subject}.{item.key}" + (f" = {value}" if value else "")
        op = "+=" if item.kind == "merge_map" else "="
        return f"{subject} {op} {value}"

    # -- patterns -----------------------------------------------------------

    def path(self, pattern: ast.PathPattern) -> str:
        text = self._node(pattern.nodes[0])
        for rel, node in zip(pattern.relationships, pattern.nodes[1:], strict=True):
            text += self._relationship(rel) + self._node(node)
        if pattern.shortest:
            text = f"shortestPath({text})"
        if pattern.path_variable:
            text = f"{pattern.path_variable} = {text}"
        return text

    def _node(self, node: ast.NodePattern) -> str:
        inner = node.variable or ""
        inner += "".join(f":{label}" for label in node.labels)
        if node.properties:
            inner += " " + self._map(node.properties)
        return f"({inner})"

    def _relationship(self, rel: ast.RelPattern) -> str:
        inner = rel.variable or ""
        if rel.types:
            inner += ":" + "|".join(rel.types)
        if rel.is_variable_length:
            inner += "*"
            if rel.min_hops != 1 or rel.max_hops != -1:
                inner += f"{rel.min_hops}.."
                if rel.max_hops != -1:
                    inner += str(rel.max_hops)
        if rel.properties:
            inner += " " + self._map(rel.properties)
        body = f"[{inner}]" if inner else ""
        if rel.direction == "out":
            return f"-{body}->"
        if rel.direction == "in":
            return f"<-{body}-"
        return f"-{body}-"

    def _map(self, items: tuple[tuple[str, ast.Expression], ...]) -> str:
        body = ", ".join(f"{key}: {self.expression(value)}" for key, value in items)
        return "{" + body + "}"

    # -- expressions --------------------------------------------------------

    def expression(self, expression: ast.Expression, minimum: int = 0) -> str:
        """Render one expression; ``minimum`` is the binding strength the
        surrounding position requires (weaker shapes get parentheses)."""
        text, precedence = self._expression(expression)
        if self.masked:
            grouped = isinstance(expression, ast.BinaryOp)
        else:
            grouped = precedence < minimum
        return f"({text})" if grouped else text

    def _expression(self, expression: ast.Expression) -> tuple[str, int]:
        """``(text, binding strength)`` of one node."""
        expr = self.expression
        if isinstance(expression, ast.Literal):
            return ("?" if self.masked else repr(expression.value)), _ATOM
        if isinstance(expression, ast.Parameter):
            return ("$?" if self.masked else f"${expression.name}"), _ATOM
        if isinstance(expression, ast.Variable):
            return expression.name, _ATOM
        if isinstance(expression, ast.PropertyAccess):
            return f"{expr(expression.subject, _POSTFIX)}.{expression.key}", _POSTFIX
        if isinstance(expression, ast.FunctionCall):
            if expression.star:
                return f"{expression.name}(*)", _ATOM
            flags = "DISTINCT " if expression.distinct else ""
            args = ", ".join(expr(arg) for arg in expression.args)
            return f"{expression.name}({flags}{args})", _ATOM
        if isinstance(expression, ast.UnaryOp):
            if expression.op == "not":
                return f"NOT {expr(expression.operand, _NOT)}", _NOT
            return f"{expression.op}{expr(expression.operand, _POSTFIX)}", _NEGATE
        if isinstance(expression, ast.BinaryOp):
            symbol = ast.OPERATOR_SYMBOLS.get(expression.op, expression.op)
            level = _BINARY_PRECEDENCE.get(expression.op, _COMPARISON)
            # A same-level operand keeps its parentheses unless the
            # parser would re-associate it identically: left for the
            # left-associative operators, right for ``^``, and never
            # for comparisons (``(a = b) = c`` reads as a chain bare).
            left = level if level not in (_COMPARISON, _POWER) else level + 1
            right = level if level == _POWER else level + 1
            return (
                f"{expr(expression.left, left)} {symbol} "
                f"{expr(expression.right, right)}"
            ), level
        if isinstance(expression, ast.IsNull):
            verb = "IS NOT NULL" if expression.negated else "IS NULL"
            return f"{expr(expression.operand, _COMPARISON + 1)} {verb}", _COMPARISON
        if isinstance(expression, ast.ListLiteral):
            return "[" + ", ".join(expr(item) for item in expression.items) + "]", _ATOM
        if isinstance(expression, ast.MapLiteral):
            return self._map(expression.items), _ATOM
        if isinstance(expression, ast.IndexAccess):
            subject = expr(expression.subject, _POSTFIX)
            if not expression.is_slice:
                return f"{subject}[{expr(expression.index)}]", _POSTFIX
            start = "" if expression.index is None else expr(expression.index)
            end = "" if expression.end is None else expr(expression.end)
            return f"{subject}[{start}..{end}]", _POSTFIX
        if isinstance(expression, ast.CaseExpression):
            parts = ["CASE"]
            if expression.operand is not None:
                parts.append(expr(expression.operand))
            for condition, value in expression.whens:
                parts.append(f"WHEN {expr(condition)} THEN {expr(value)}")
            if expression.default is not None:
                parts.append(f"ELSE {expr(expression.default)}")
            return " ".join([*parts, "END"]), _ATOM
        if isinstance(expression, ast.ListComprehension):
            body = f"{expression.variable} IN {expr(expression.source)}"
            if expression.predicate is not None:
                body += f" WHERE {expr(expression.predicate)}"
            if expression.projection is not None:
                body += f" | {expr(expression.projection)}"
            return f"[{body}]", _ATOM
        if isinstance(expression, ast.ListPredicate):
            return (
                f"{expression.kind}({expression.variable} IN "
                f"{expr(expression.source)} WHERE {expr(expression.predicate)})"
            ), _ATOM
        if isinstance(expression, ast.Reduce):
            return (
                f"reduce({expression.accumulator} = {expr(expression.init)}, "
                f"{expression.variable} IN {expr(expression.source)} | "
                f"{expr(expression.expression)})"
            ), _ATOM
        if isinstance(expression, ast.PatternPredicate):
            return f"EXISTS {self.path(expression.pattern)}", _ATOM
        raise TypeError(f"cannot render expression {expression!r}")


MASKED = Renderer(masked=True)
PLAIN = Renderer(masked=False)
