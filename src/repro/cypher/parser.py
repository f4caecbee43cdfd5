"""Recursive-descent parser for the Cypher subset.

Grammar (informal)::

    query        := part (UNION [ALL] part)*
    part         := clause+
    clause       := match | unwind | with | return | create | merge
                  | set | remove | delete | call
    match        := [OPTIONAL] MATCH pattern (',' pattern)* [WHERE expr]
    call         := CALL name ('.' name)* '(' [expr (',' expr)*] ')'
                    [YIELD name [AS name] (',' name [AS name])*]
    pattern      := [ident '='] node (rel node)*
    node         := '(' [ident] (':' label)* [map] ')'
    rel          := dash '[' [ident] [':' type ('|' type)*] ['*' range]
                    [map] ']' dash
    return/with  := RETURN|WITH [DISTINCT] items [ORDER BY ...]
                    [SKIP e] [LIMIT e] (WITH also: [WHERE expr])

Expression precedence, loosest first: OR, XOR, AND, NOT, comparisons
(including IN / STARTS WITH / CONTAINS / IS NULL / =~), additive,
multiplicative, power, unary minus, postfix (property access, indexing),
atoms.
"""

from __future__ import annotations

from repro.cypher import ast
from repro.cypher.errors import CypherSyntaxError
from repro.cypher.lexer import Token, TokenType, tokenize

#: Punctuation comparison operator -> ``BinaryOp.op`` (the keyword
#: operators are parsed by name below).
_COMPARISON_PUNCT = {
    symbol: op
    for op, symbol in ast.OPERATOR_SYMBOLS.items()
    if not symbol[0].isalpha()
}


def parse(text: str) -> ast.Query:
    """Parse a query string into an AST."""
    return _Parser(tokenize(text)).parse_query()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ---------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _fail(self, message: str, token: Token | None = None) -> CypherSyntaxError:
        token = token if token is not None else self._current
        return CypherSyntaxError(message, token.position, token.line, token.column)

    @staticmethod
    def _span(token: Token) -> ast.Span:
        length = max(len(token.raw or token.value), 1)
        return ast.Span(token.position, token.line, token.column, length)

    def _peek(self, offset: int = 1) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _accept_keyword(self, *names: str) -> bool:
        if self._current.is_keyword(*names):
            self._advance()
            return True
        return False

    def _expect_keyword(self, name: str) -> None:
        if not self._accept_keyword(name):
            raise self._fail(f"expected {name}, found {self._current.value!r}")

    def _accept_punct(self, *values: str) -> bool:
        if self._current.is_punct(*values):
            self._advance()
            return True
        return False

    def _expect_punct(self, value: str) -> None:
        if not self._accept_punct(value):
            raise self._fail(f"expected {value!r}, found {self._current.value!r}")

    def _expect_ident(self) -> str:
        token = self._current
        # Unreserved keywords may double as identifiers in Neo4j; allow a
        # handful of safe ones (e.g. a variable named `count` is unusual
        # but a label named `On` is plausible).
        if token.type in (TokenType.IDENT,):
            self._advance()
            return token.value
        raise self._fail(f"expected identifier, found {token.value!r}", token)

    def _expect_name(self) -> str:
        """Accept an identifier *or* a keyword used as a name.

        Labels, relationship types and map keys may collide with reserved
        words -- IYP's most important label is ``:AS``.  The original
        spelling is preserved via the token's ``raw`` field.
        """
        token = self._current
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            self._advance()
            return token.raw
        raise self._fail(f"expected name, found {token.value!r}", token)

    def _expect_name_token(self) -> Token:
        """Like :meth:`_expect_name` but returns the whole token so the
        caller can attach a source span (labels, relationship types)."""
        token = self._current
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            self._advance()
            return token
        raise self._fail(f"expected name, found {token.value!r}", token)

    # -- top level -------------------------------------------------------

    def parse_query(self) -> ast.Query:
        first = self._parse_part()
        parts: list[ast.Query] = []
        union_all = False
        while self._accept_keyword("UNION"):
            union_all = self._accept_keyword("ALL")
            parts.append(self._parse_part())
        if self._current.type is not TokenType.EOF:
            raise self._fail(f"unexpected input {self._current.value!r}")
        if parts:
            return ast.Query(first.clauses, tuple(parts), union_all)
        return first

    def _parse_part(self) -> ast.Query:
        clauses: list[ast.Clause] = []
        while True:
            token = self._current
            if token.is_keyword("MATCH", "OPTIONAL"):
                clauses.append(self._parse_match())
            elif token.is_keyword("UNWIND"):
                clauses.append(self._parse_unwind())
            elif token.is_keyword("WITH"):
                clauses.append(self._parse_projection(is_return=False))
            elif token.is_keyword("RETURN"):
                clauses.append(self._parse_projection(is_return=True))
            elif token.is_keyword("CREATE"):
                clauses.append(self._parse_create())
            elif token.is_keyword("MERGE"):
                clauses.append(self._parse_merge())
            elif token.is_keyword("SET"):
                self._advance()
                clauses.append(ast.SetClause(tuple(self._parse_set_items())))
            elif token.is_keyword("REMOVE"):
                clauses.append(self._parse_remove())
            elif token.is_keyword("DELETE", "DETACH"):
                clauses.append(self._parse_delete())
            elif token.is_keyword("CALL"):
                clauses.append(self._parse_call())
            else:
                break
        if not clauses:
            raise self._fail("empty query")
        return ast.Query(tuple(clauses))

    # -- clauses ---------------------------------------------------------

    def _parse_call(self) -> ast.CallClause:
        self._expect_keyword("CALL")
        first = self._expect_name_token()
        last = first
        name_parts = [first.raw]
        while self._accept_punct("."):
            last = self._expect_name_token()
            name_parts.append(last.raw)
        procedure = ".".join(name_parts).lower()
        last_length = max(len(last.raw or last.value), 1)
        name_span = ast.Span(
            first.position,
            first.line,
            first.column,
            last.position - first.position + last_length,
        )
        self._expect_punct("(")
        args: list[ast.Expression] = []
        if not self._current.is_punct(")"):
            args.append(self._parse_expression())
            while self._accept_punct(","):
                args.append(self._parse_expression())
        self._expect_punct(")")
        yields: list[ast.YieldItem] = []
        if self._accept_keyword("YIELD"):
            yields.append(self._parse_yield_item())
            while self._accept_punct(","):
                yields.append(self._parse_yield_item())
        return ast.CallClause(procedure, tuple(args), tuple(yields), name_span)

    def _parse_yield_item(self) -> ast.YieldItem:
        token = self._expect_name_token()
        column = token.raw
        alias = self._expect_name() if self._accept_keyword("AS") else column
        return ast.YieldItem(column, alias, self._span(token))

    def _parse_match(self) -> ast.MatchClause:
        optional = self._accept_keyword("OPTIONAL")
        self._expect_keyword("MATCH")
        patterns = [self._parse_pattern()]
        while self._accept_punct(","):
            patterns.append(self._parse_pattern())
        where = self._parse_expression() if self._accept_keyword("WHERE") else None
        return ast.MatchClause(tuple(patterns), optional, where)

    def _parse_unwind(self) -> ast.UnwindClause:
        self._expect_keyword("UNWIND")
        expression = self._parse_expression()
        self._expect_keyword("AS")
        return ast.UnwindClause(expression, self._expect_name())

    def _parse_projection(self, is_return: bool) -> ast.Clause:
        self._advance()  # RETURN or WITH
        distinct = self._accept_keyword("DISTINCT")
        star = False
        items: list[ast.ProjectionItem] = []
        if self._accept_punct("*"):
            star = True
        else:
            items.append(self._parse_projection_item())
            while self._accept_punct(","):
                items.append(self._parse_projection_item())
        order_by: list[ast.SortItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_sort_item())
            while self._accept_punct(","):
                order_by.append(self._parse_sort_item())
        skip = self._parse_expression() if self._accept_keyword("SKIP") else None
        limit = self._parse_expression() if self._accept_keyword("LIMIT") else None
        if is_return:
            return ast.ReturnClause(
                tuple(items), distinct, star, tuple(order_by), skip, limit
            )
        where = self._parse_expression() if self._accept_keyword("WHERE") else None
        return ast.WithClause(
            tuple(items), distinct, star, where, tuple(order_by), skip, limit
        )

    def _parse_projection_item(self) -> ast.ProjectionItem:
        expression = self._parse_expression()
        if self._accept_keyword("AS"):
            alias = self._expect_name()
        else:
            alias = _implicit_alias(expression)
        return ast.ProjectionItem(expression, alias)

    def _parse_sort_item(self) -> ast.SortItem:
        expression = self._parse_expression()
        descending = False
        if self._accept_keyword("DESC", "DESCENDING"):
            descending = True
        else:
            self._accept_keyword("ASC", "ASCENDING")
        return ast.SortItem(expression, descending)

    def _parse_create(self) -> ast.CreateClause:
        self._expect_keyword("CREATE")
        patterns = [self._parse_pattern()]
        while self._accept_punct(","):
            patterns.append(self._parse_pattern())
        return ast.CreateClause(tuple(patterns))

    def _parse_merge(self) -> ast.MergeClause:
        self._expect_keyword("MERGE")
        pattern = self._parse_pattern()
        on_create: tuple[ast.SetItem, ...] = ()
        on_match: tuple[ast.SetItem, ...] = ()
        while self._accept_keyword("ON"):
            if self._accept_keyword("CREATE"):
                self._expect_keyword("SET")
                on_create = on_create + tuple(self._parse_set_items())
            elif self._accept_keyword("MATCH"):
                self._expect_keyword("SET")
                on_match = on_match + tuple(self._parse_set_items())
            else:
                raise self._fail("expected CREATE or MATCH after ON")
        return ast.MergeClause(pattern, on_create, on_match)

    def _parse_set_items(self) -> list[ast.SetItem]:
        items = [self._parse_set_item()]
        while self._accept_punct(","):
            items.append(self._parse_set_item())
        return items

    def _parse_set_item(self) -> ast.SetItem:
        subject: ast.Expression = ast.Variable(self._expect_ident())
        if self._current.is_punct(":"):
            labels: list[str] = []
            while self._accept_punct(":"):
                labels.append(self._expect_name())
            return ast.SetItem("label", subject, labels=tuple(labels))
        if self._accept_punct("+="):
            return ast.SetItem("merge_map", subject, value=self._parse_expression())
        if self._current.is_punct("="):
            self._advance()
            return ast.SetItem("replace_map", subject, value=self._parse_expression())
        while self._accept_punct("."):
            key = self._expect_ident()
            if self._accept_punct("="):
                return ast.SetItem("property", subject, key=key, value=self._parse_expression())
            subject = ast.PropertyAccess(subject, key)
        raise self._fail("malformed SET item")

    def _parse_remove(self) -> ast.RemoveClause:
        self._expect_keyword("REMOVE")
        items: list[ast.SetItem] = []
        while True:
            subject: ast.Expression = ast.Variable(self._expect_ident())
            if self._current.is_punct(":"):
                labels: list[str] = []
                while self._accept_punct(":"):
                    labels.append(self._expect_name())
                items.append(ast.SetItem("label", subject, labels=tuple(labels)))
            else:
                self._expect_punct(".")
                items.append(ast.SetItem("property", subject, key=self._expect_ident()))
            if not self._accept_punct(","):
                break
        return ast.RemoveClause(tuple(items))

    def _parse_delete(self) -> ast.DeleteClause:
        detach = self._accept_keyword("DETACH")
        self._expect_keyword("DELETE")
        expressions = [self._parse_expression()]
        while self._accept_punct(","):
            expressions.append(self._parse_expression())
        return ast.DeleteClause(tuple(expressions), detach)

    # -- patterns ----------------------------------------------------------

    def _parse_pattern(self) -> ast.PathPattern:
        path_variable = None
        if (
            self._current.type is TokenType.IDENT
            and self._peek().is_punct("=")
            and (
                self._peek(2).is_punct("(")
                or self._peek(2).value.lower() == "shortestpath"
            )
        ):
            path_variable = self._advance().value
            self._advance()  # '='
        # shortestPath((a)-[:T*..n]-(b))
        if (
            self._current.type is TokenType.IDENT
            and self._current.value.lower() == "shortestpath"
            and self._peek().is_punct("(")
        ):
            self._advance()  # shortestPath
            self._expect_punct("(")
            inner = self._parse_pattern()
            self._expect_punct(")")
            if len(inner.nodes) != 2:
                raise self._fail("shortestPath() requires a two-node pattern")
            return ast.PathPattern(
                inner.nodes, inner.relationships, path_variable, shortest=True
            )
        nodes = [self._parse_node_pattern()]
        relationships: list[ast.RelPattern] = []
        while self._current.is_punct("-", "<"):
            relationships.append(self._parse_rel_pattern())
            nodes.append(self._parse_node_pattern())
        return ast.PathPattern(tuple(nodes), tuple(relationships), path_variable)

    def _parse_node_pattern(self) -> ast.NodePattern:
        span = self._span(self._current)
        self._expect_punct("(")
        variable = None
        if self._current.type is TokenType.IDENT and not self._current.is_punct(":"):
            span = self._span(self._current)
            variable = self._advance().value
        labels: list[str] = []
        label_spans: list[ast.Span] = []
        while self._accept_punct(":"):
            token = self._expect_name_token()
            labels.append(token.raw)
            label_spans.append(self._span(token))
        properties: tuple[tuple[str, ast.Expression], ...] = ()
        property_spans: tuple[ast.Span, ...] = ()
        if self._current.is_punct("{"):
            properties, property_spans = self._parse_property_map_spanned()
        self._expect_punct(")")
        return ast.NodePattern(
            variable, tuple(labels), properties,
            span, tuple(label_spans), property_spans,
        )

    def _parse_rel_pattern(self) -> ast.RelPattern:
        span = self._span(self._current)
        direction = "both"
        if self._accept_punct("<"):
            direction = "in"
            self._expect_punct("-")
        else:
            self._expect_punct("-")
        variable = None
        types: list[str] = []
        type_spans: list[ast.Span] = []
        properties: tuple[tuple[str, ast.Expression], ...] = ()
        property_spans: tuple[ast.Span, ...] = ()
        min_hops, max_hops = 1, 1
        if self._accept_punct("["):
            if self._current.type is TokenType.IDENT:
                span = self._span(self._current)
                variable = self._advance().value
            if self._accept_punct(":"):
                token = self._expect_name_token()
                types.append(token.raw)
                type_spans.append(self._span(token))
                while self._accept_punct("|"):
                    self._accept_punct(":")  # legacy ':TYPE1|:TYPE2' spelling
                    token = self._expect_name_token()
                    types.append(token.raw)
                    type_spans.append(self._span(token))
            if self._accept_punct("*"):
                min_hops, max_hops = self._parse_hop_range()
            if self._current.is_punct("{"):
                properties, property_spans = self._parse_property_map_spanned()
            self._expect_punct("]")
        if self._accept_punct(">"):
            if direction == "in":
                raise self._fail("relationship cannot point both ways")
            direction = "out"
        else:
            self._expect_punct("-")
            if self._accept_punct(">"):
                if direction == "in":
                    raise self._fail("relationship cannot point both ways")
                direction = "out"
        return ast.RelPattern(
            variable, tuple(types), properties, direction, min_hops, max_hops,
            span, tuple(type_spans), property_spans,
        )

    def _parse_hop_range(self) -> tuple[int, int]:
        # Forms: *   *2   *1..3   *..3   *2..
        min_hops, max_hops = 1, -1
        if self._current.type is TokenType.INTEGER:
            min_hops = int(self._advance().value)
            max_hops = min_hops
        if self._accept_punct(".."):
            max_hops = -1
            if self._current.type is TokenType.INTEGER:
                max_hops = int(self._advance().value)
        return min_hops, max_hops

    def _parse_property_map(self) -> tuple[tuple[str, ast.Expression], ...]:
        return self._parse_property_map_spanned()[0]

    def _parse_property_map_spanned(
        self,
    ) -> tuple[tuple[tuple[str, ast.Expression], ...], tuple[ast.Span, ...]]:
        self._expect_punct("{")
        items: list[tuple[str, ast.Expression]] = []
        spans: list[ast.Span] = []
        if not self._current.is_punct("}"):
            while True:
                key_token = self._current
                key = self._parse_map_key()
                spans.append(self._span(key_token))
                self._expect_punct(":")
                items.append((key, self._parse_expression()))
                if not self._accept_punct(","):
                    break
        self._expect_punct("}")
        return tuple(items), tuple(spans)

    def _parse_map_key(self) -> str:
        token = self._current
        if token.type in (TokenType.IDENT, TokenType.STRING):
            self._advance()
            return token.value
        if token.type is TokenType.KEYWORD:
            self._advance()
            return token.raw
        raise self._fail(f"expected map key, found {token.value!r}", token)

    # -- expressions -------------------------------------------------------

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_xor()
        while self._accept_keyword("OR"):
            left = ast.BinaryOp("or", left, self._parse_xor())
        return left

    def _parse_xor(self) -> ast.Expression:
        left = self._parse_and()
        while self._accept_keyword("XOR"):
            left = ast.BinaryOp("xor", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ast.BinaryOp("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expression:
        if self._accept_keyword("NOT"):
            return ast.UnaryOp("not", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> ast.Expression:
        left = self._parse_additive()
        while True:
            token = self._current
            if token.type is TokenType.PUNCT and token.value in _COMPARISON_PUNCT:
                op = _COMPARISON_PUNCT[self._advance().value]
                left = ast.BinaryOp(op, left, self._parse_additive())
                continue
            if token.is_keyword("IN"):
                self._advance()
                left = ast.BinaryOp("in", left, self._parse_additive())
                continue
            if token.is_keyword("STARTS"):
                self._advance()
                self._expect_keyword("WITH")
                left = ast.BinaryOp("starts_with", left, self._parse_additive())
                continue
            if token.is_keyword("ENDS"):
                self._advance()
                self._expect_keyword("WITH")
                left = ast.BinaryOp("ends_with", left, self._parse_additive())
                continue
            if token.is_keyword("CONTAINS"):
                self._advance()
                left = ast.BinaryOp("contains", left, self._parse_additive())
                continue
            if token.is_keyword("IS"):
                self._advance()
                negated = self._accept_keyword("NOT")
                self._expect_keyword("NULL")
                left = ast.IsNull(left, negated)
                continue
            return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while self._current.is_punct("+", "-"):
            op = self._advance().value
            left = ast.BinaryOp(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_power()
        while self._current.is_punct("*", "/", "%"):
            op = self._advance().value
            left = ast.BinaryOp(op, left, self._parse_power())
        return left

    def _parse_power(self) -> ast.Expression:
        left = self._parse_unary()
        if self._accept_punct("^"):
            return ast.BinaryOp("^", left, self._parse_power())
        return left

    def _parse_unary(self) -> ast.Expression:
        if self._current.is_punct("-"):
            self._advance()
            return ast.UnaryOp("-", self._parse_unary())
        if self._current.is_punct("+"):
            self._advance()
            return self._parse_unary()
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expression:
        expression = self._parse_atom()
        while True:
            if self._current.is_punct(".") and self._peek().type in (
                TokenType.IDENT,
                TokenType.KEYWORD,
            ):
                self._advance()
                key_token = self._current
                self._advance()
                expression = ast.PropertyAccess(
                    expression, key_token.raw, self._span(key_token)
                )
                continue
            if self._current.is_punct("["):
                self._advance()
                start = None if self._current.is_punct("..") else self._parse_expression()
                if self._accept_punct(".."):
                    end = None if self._current.is_punct("]") else self._parse_expression()
                    self._expect_punct("]")
                    expression = ast.IndexAccess(expression, start, end, is_slice=True)
                else:
                    self._expect_punct("]")
                    expression = ast.IndexAccess(expression, start)
                continue
            return expression

    def _parse_atom(self) -> ast.Expression:
        token = self._current
        if token.type is TokenType.STRING:
            self._advance()
            return ast.Literal(token.value, self._span(token))
        if token.type is TokenType.INTEGER:
            self._advance()
            return ast.Literal(int(token.value), self._span(token))
        if token.type is TokenType.FLOAT:
            self._advance()
            return ast.Literal(float(token.value), self._span(token))
        if token.type is TokenType.PARAMETER:
            self._advance()
            return ast.Parameter(token.value)
        if token.is_keyword("TRUE"):
            self._advance()
            return ast.Literal(True, self._span(token))
        if token.is_keyword("FALSE"):
            self._advance()
            return ast.Literal(False, self._span(token))
        if token.is_keyword("NULL"):
            self._advance()
            return ast.Literal(None, self._span(token))
        if token.is_keyword("CASE"):
            return self._parse_case()
        if token.is_keyword("EXISTS"):
            return self._parse_exists()
        if token.is_punct("["):
            return self._parse_list_or_comprehension()
        if token.is_punct("{"):
            return ast.MapLiteral(self._parse_property_map())
        if token.is_punct("("):
            # Either a parenthesized expression or a pattern predicate.
            if self._looks_like_pattern():
                return ast.PatternPredicate(self._parse_pattern())
            self._advance()
            expression = self._parse_expression()
            self._expect_punct(")")
            return expression
        if token.type is TokenType.IDENT:
            if self._peek().is_punct("("):
                return self._parse_function_call()
            self._advance()
            return ast.Variable(token.value, self._span(token))
        # count(...) is lexed as IDENT but COUNT may appear as keyword in
        # other dialects; treat remaining keywords followed by '(' as calls.
        if token.type is TokenType.KEYWORD and self._peek().is_punct("("):
            return self._parse_function_call()
        raise self._fail(f"unexpected token {token.value!r} in expression", token)

    def _looks_like_pattern(self) -> bool:
        """Disambiguate ``(expr)`` from ``(n)-[...]-(m)`` predicates."""
        depth = 0
        index = self._pos
        while index < len(self._tokens):
            token = self._tokens[index]
            if token.is_punct("("):
                depth += 1
            elif token.is_punct(")"):
                depth -= 1
                if depth == 0:
                    nxt = self._tokens[index + 1] if index + 1 < len(self._tokens) else None
                    return nxt is not None and nxt.is_punct("-", "<")
            elif token.type is TokenType.EOF:
                return False
            index += 1
        return False

    _LIST_PREDICATES = ("all", "any", "none", "single")

    def _parse_function_call(self) -> ast.Expression:
        name = self._advance().value.lower()
        self._expect_punct("(")
        # all/any/none/single(x IN list WHERE pred)
        if (
            name in self._LIST_PREDICATES
            and self._current.type is TokenType.IDENT
            and self._peek().is_keyword("IN")
        ):
            variable = self._advance().value
            self._advance()  # IN
            source = self._parse_expression()
            self._expect_keyword("WHERE")
            predicate = self._parse_expression()
            self._expect_punct(")")
            return ast.ListPredicate(name, variable, source, predicate)
        # reduce(acc = init, x IN list | expr)
        if name == "reduce":
            accumulator = self._expect_ident()
            self._expect_punct("=")
            init = self._parse_expression()
            self._expect_punct(",")
            variable = self._expect_ident()
            self._expect_keyword("IN")
            source = self._parse_expression()
            self._expect_punct("|")
            expression = self._parse_expression()
            self._expect_punct(")")
            return ast.Reduce(accumulator, init, variable, source, expression)
        distinct = self._accept_keyword("DISTINCT")
        star = False
        args: list[ast.Expression] = []
        if self._accept_punct("*"):
            star = True
        elif not self._current.is_punct(")"):
            # exists((a)-[:X]-(b)) takes a pattern argument.
            if name == "exists" and self._looks_like_pattern():
                pattern = self._parse_pattern()
                self._expect_punct(")")
                return ast.PatternPredicate(pattern)
            args.append(self._parse_expression())
            while self._accept_punct(","):
                args.append(self._parse_expression())
        self._expect_punct(")")
        return ast.FunctionCall(name, tuple(args), distinct, star)

    def _parse_case(self) -> ast.CaseExpression:
        self._expect_keyword("CASE")
        operand = None
        if not self._current.is_keyword("WHEN"):
            operand = self._parse_expression()
        whens: list[tuple[ast.Expression, ast.Expression]] = []
        while self._accept_keyword("WHEN"):
            condition = self._parse_expression()
            self._expect_keyword("THEN")
            whens.append((condition, self._parse_expression()))
        if not whens:
            raise self._fail("CASE without WHEN")
        default = self._parse_expression() if self._accept_keyword("ELSE") else None
        self._expect_keyword("END")
        return ast.CaseExpression(operand, tuple(whens), default)

    def _parse_exists(self) -> ast.Expression:
        self._expect_keyword("EXISTS")
        if self._accept_punct("{"):
            if self._current.is_keyword("MATCH"):
                self._advance()
            pattern = self._parse_pattern()
            self._expect_punct("}")
            return ast.PatternPredicate(pattern)
        self._expect_punct("(")
        if self._looks_like_pattern_from_here():
            pattern = self._parse_pattern()
            self._expect_punct(")")
            return ast.PatternPredicate(pattern)
        expression = self._parse_expression()
        self._expect_punct(")")
        return ast.FunctionCall("exists", (expression,))

    def _looks_like_pattern_from_here(self) -> bool:
        return self._current.is_punct("(")

    def _parse_list_or_comprehension(self) -> ast.Expression:
        self._expect_punct("[")
        if self._current.is_punct("]"):
            self._advance()
            return ast.ListLiteral(())
        # Lookahead for comprehension: IDENT IN ...
        if self._current.type is TokenType.IDENT and self._peek().is_keyword("IN"):
            variable = self._advance().value
            self._advance()  # IN
            source = self._parse_expression()
            predicate = self._parse_expression() if self._accept_keyword("WHERE") else None
            projection = self._parse_expression() if self._accept_punct("|") else None
            self._expect_punct("]")
            return ast.ListComprehension(variable, source, predicate, projection)
        items = [self._parse_expression()]
        while self._accept_punct(","):
            items.append(self._parse_expression())
        self._expect_punct("]")
        return ast.ListLiteral(tuple(items))


def _implicit_alias(expression: ast.Expression) -> str:
    """Derive the implicit column name for an un-aliased projection item."""
    if isinstance(expression, ast.Variable):
        return expression.name
    if isinstance(expression, ast.PropertyAccess):
        return f"{_implicit_alias(expression.subject)}.{expression.key}"
    if isinstance(expression, ast.FunctionCall):
        inner = "*" if expression.star else ", ".join(
            _implicit_alias(arg) for arg in expression.args
        )
        distinct = "DISTINCT " if expression.distinct else ""
        return f"{expression.name}({distinct}{inner})"
    if isinstance(expression, ast.Literal):
        return repr(expression.value)
    if isinstance(expression, ast.Parameter):
        return f"${expression.name}"
    return "expr"
