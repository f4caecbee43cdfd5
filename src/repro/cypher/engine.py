"""Query execution: the clause pipeline.

A query is executed as a pipeline of row transformations.  A *row* is a
dict mapping variable names to values (nodes, relationships, scalars,
lists).  Each clause consumes the rows from the previous clause:

    MATCH      -> expands each row into pattern matches (a join)
    UNWIND     -> one output row per list element
    WITH/RETURN-> projection, implicit grouping with aggregates,
                  DISTINCT, ORDER BY, SKIP, LIMIT
    CREATE/MERGE/SET/REMOVE/DELETE -> mutations, rows pass through

Each distinct query text is parsed once into a :class:`Statement` (tree,
read/write class, lazily its fingerprint) held in one bounded LRU, so
re-running the paper's study queries on fresh snapshots costs no
re-parsing while an adversarial stream of distinct queries cannot grow
memory without bound.

MATCH clauses execute through the cost-based planner
(:mod:`repro.cypher.planner`): WHERE conjuncts are pushed to bind time,
indexed equality conjuncts become index seeks, and multi-pattern
clauses are join-reordered.  Every MATCH, MERGE and pattern predicate
then runs on one operator, the matcher's batch expansion
(:meth:`PatternMatcher.expand`); MERGE and a pattern predicate hand it
a one-pattern plan, made once per clause or predicate and set of bound
variables.

The engine is safe for concurrent *read* queries: per-run state
(parameters, the active guard) lives in thread-local storage, and the
query service serializes write queries through the store's write lock.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable

from repro.analytics.registry import ProcedureContext, get_procedure, suggest
from repro.cypher import ast
from repro.cypher.errors import CypherRuntimeError
from repro.cypher.fingerprint import fingerprint_query
from repro.cypher.functions import (
    AGGREGATE_NAMES,
    AGGREGATES,
    PERCENTILE_AGGREGATES,
    SCALAR_FUNCTIONS,
)
from repro.cypher.guard import QueryGuard
from repro.cypher.lru import LRUCache
from repro.cypher.matcher import PatternMatcher
from repro.cypher.parser import parse
from repro.cypher.planner import MatchPlan, plan_match
from repro.cypher.result import QueryResult, WriteStats
from repro.cypher.values import (
    compare,
    equals,
    hash_key,
    is_truthy,
    list_membership,
    logical_and,
    logical_not,
    logical_or,
    logical_xor,
    sort_key,
)
from repro.graphdb.model import Node, Relationship
from repro.graphdb.store import GraphStore
from repro.obs import NULL_TRACER, ProfileNode, Profiler, collecting, record_access

Row = dict[str, Any]


#: Clause types that mutate the store; used to route queries to the
#: store's write lock (everything else can run under a shared read lock).
_WRITE_CLAUSES = (
    ast.CreateClause,
    ast.MergeClause,
    ast.SetClause,
    ast.RemoveClause,
    ast.DeleteClause,
)

#: ``STARTS WITH`` / ``ENDS WITH`` / ``CONTAINS`` / ``=~`` over two
#: strings (any other operand makes the predicate null).
_STRING_PREDICATES: dict[str, Callable[[str, str], bool]] = {
    "starts_with": str.startswith,
    "ends_with": str.endswith,
    "contains": str.__contains__,
    "regex": lambda text, pattern: re.fullmatch(pattern, text) is not None,
}


def _is_number(value: Any) -> bool:
    """An arithmetic operand: int or float, not bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Parse-cache bound: generous for study workloads (dozens of distinct
#: queries) while keeping an adversarial query stream in check.
DEFAULT_PARSE_CACHE_SIZE = 512


@dataclass
class Statement:
    """What the engine keeps per distinct query text."""

    tree: ast.Query
    #: Any mutating clause in any UNION part: decides the store lock the
    #: query service takes and whether the result cache is consulted.
    is_write: bool

    @cached_property
    def identity(self) -> tuple[str, str]:
        """``(fingerprint, normalized text)``, rendered on first use —
        only the statement-statistics path ever asks."""
        return fingerprint_query(self.tree)


@dataclass(frozen=True)
class Explanation:
    """EXPLAIN output: the plan lines plus static lint diagnostics."""

    plan: list[str]
    warnings: list  # list[repro.lint.Diagnostic]

    def __iter__(self):
        return iter(self.plan)


class CypherEngine:
    """Executes Cypher-subset queries against a :class:`GraphStore`."""

    def __init__(
        self,
        store: GraphStore,
        parse_cache_size: int = DEFAULT_PARSE_CACHE_SIZE,
    ):
        self.store = store
        self._matcher = PatternMatcher(store, self._evaluate, self._tick)
        #: query text -> :class:`Statement` (the parse cache).
        self._statements: LRUCache = LRUCache(parse_cache_size)
        self._tls = threading.local()
        #: Span tracer; the query service swaps in its own so engine
        #: spans (parse, execute) nest under the request's trace.
        self.tracer = NULL_TRACER
        #: Planner statistics (:class:`repro.analytics.GraphStatistics`).
        #: When set, MATCH planning estimates cardinalities from measured
        #: label counts and expansion factors; when None the planner
        #: keeps its uniform-cost model.
        self.statistics = None
        #: Precomputed analytics (:class:`repro.analytics.AnalyticsReport`).
        #: Zero-argument ``CALL`` invocations are served from it whenever
        #: its version matches the store's mutation counter.
        self.analytics = None
        #: How many CALL executions were served from ``analytics``.
        self.procedure_cache_hits = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        query: str | Statement,
        parameters: dict[str, Any] | None = None,
        guard: QueryGuard | None = None,
        profiler: Profiler | None = None,
    ) -> QueryResult:
        """Parse (with caching) and execute a query; a caller that
        already resolved the text with :meth:`statement` passes that.

        ``guard`` imposes a cooperative time budget and a result row
        limit; see :class:`repro.cypher.guard.QueryGuard`.  ``profiler``
        collects the executed operator tree (rows, store hits, wall
        time per clause) — see :meth:`profile` for the one-call form.
        """
        if isinstance(query, Statement):
            tree = query.tree
        else:
            with self.tracer.span("parse", query_chars=len(query)):
                tree = self.statement(query).tree
        self._tls.guard = guard
        self._tls.plans = {}
        try:
            with self.tracer.span("execute") as span:
                if profiler is None:
                    result = self._execute(tree, parameters or {})
                else:
                    with collecting(profiler.collector):
                        result = self._execute(tree, parameters or {}, profiler)
                    profiler.finish(len(result.records))
                if span is not None:
                    span.attributes["rows"] = len(result.records)
                    if profiler is not None and profiler.root.hits:
                        span.attributes["counters"] = dict(profiler.root.hits)
        finally:
            self._tls.guard = None
            self._tls.parameters = {}
        if guard is not None:
            guard.check_rows(len(result.records))
        return result

    def profile(
        self,
        query: str,
        parameters: dict[str, Any] | None = None,
        guard: QueryGuard | None = None,
    ) -> tuple[QueryResult, ProfileNode]:
        """Execute a query under PROFILE: run it for real and return the
        result together with the annotated operator tree — per executed
        clause, the rows produced, the store hits broken down by access
        path (index seek / label scan / full scan / expand), and the
        wall time."""
        profiler = Profiler()
        result = self.run(query, parameters, guard, profiler=profiler)
        return result, profiler.root

    def statement(self, query: str) -> Statement:
        """The cached :class:`Statement` for a query text (parsing it on
        first sight)."""
        cached = self._statements.get(query)
        if cached is None:
            tree = parse(query)
            is_write = any(
                isinstance(clause, _WRITE_CLAUSES)
                for clauses in tree.parts()
                for clause in clauses
            )
            cached = Statement(tree, is_write)
            self._statements.put(query, cached)
        return cached

    def is_write_query(self, query: str) -> bool:
        """True when the query contains any mutating clause."""
        return self.statement(query).is_write

    def parse_cache_info(self) -> dict[str, Any]:
        """Size and hit-rate of the bounded statement cache (for /metrics)."""
        return self._statements.info()

    def fingerprint(self, query: str) -> tuple[str, str]:
        """``(fingerprint, normalized text)`` for a query — the stable
        statement identity used by :mod:`repro.obs.statements`.  Two
        queries differing only in literals, parameter names, whitespace,
        or keyword case share a fingerprint (see
        :mod:`repro.cypher.fingerprint`).  Cached on the statement, so
        the steady-state cost is one LRU lookup.
        """
        return self.statement(query).identity

    def explain(self, query: str) -> "Explanation":
        """Describe how each MATCH would be executed (plan introspection).

        For every path pattern, reports the anchor element the planner
        picks and the access path (index seek, label scan, or full
        scan), with its estimated cardinality — the information behind
        the ablation benchmarks.  The result also carries the static
        lint diagnostics for the query (see :mod:`repro.lint`), so
        every EXPLAIN surfaces ontology mistakes before execution;
        iterating an :class:`Explanation` yields the plan lines, which
        keeps ``for line in engine.explain(q)`` working.
        """
        # Imported lazily: repro.lint depends on the cypher parser, so a
        # module-level import would be circular.
        from repro.lint import QueryLinter

        tree = self.statement(query).tree
        plan: list[str] = []
        parts = tree.parts()
        for index, clauses in enumerate(parts, start=1):
            if len(parts) > 1:
                plan.append(f"UNION PART {index}/{len(parts)}")
            bound: frozenset[str] = frozenset()
            for clause in clauses:
                if isinstance(clause, ast.MatchClause):
                    plan.extend(self._explain_match(clause, bound))
                elif isinstance(clause, ast.CallClause):
                    plan.append(self._explain_call(clause))
                else:
                    plan.append(type(clause).__name__.replace("Clause", "").upper())
                bound = _bound_after(clause, bound)
        warnings = QueryLinter(self.store).lint_tree(tree)
        return Explanation(plan, warnings)

    def _explain_match(self, clause: ast.MatchClause, bound: frozenset[str]) -> list[str]:
        """Plan lines for one MATCH, planned against the variables
        earlier clauses bind: per pattern in join order, the
        anchor/access-path description; then one line per pushdown
        decision (promoted seeks, bind-time filters, the residual)."""
        kind = "OPTIONAL MATCH" if clause.optional else "MATCH"
        match_plan = plan_match(
            clause.patterns, clause.where, self.store, bound, statistics=self.statistics
        )
        lines: list[str] = []
        total = len(match_plan.patterns)
        for rank, (source, anchor) in enumerate(
            zip(match_plan.order, match_plan.describe_anchors(), strict=True)
        ):
            line = f"{kind} {anchor}"
            if total > 1:
                line += f" join={rank + 1}/{total} pattern={source}"
            if match_plan.estimates is not None:
                line += f" est~{match_plan.estimates[rank]:.0f}"
            lines.append(line)
        lines.extend(f"  {text}" for text in match_plan.describe_predicates())
        return lines

    def _explain_call(self, clause: ast.CallClause) -> str:
        """One plan line for a CALL: the procedure, the projected
        columns, and whether the build-time precompute would serve it."""
        spec = get_procedure(clause.procedure)
        if spec is None:
            return f"CALL {clause.procedure} (unknown procedure)"
        columns = [item.alias for item in clause.yields] or list(spec.columns)
        line = f"CALL {spec.name} yield=[{', '.join(columns)}]"
        if (
            not clause.args
            and self.analytics is not None
            and self.analytics.version == self.store.version
            and spec.name in self.analytics.procedures
        ):
            line += " precomputed"
        return line

    # ------------------------------------------------------------------
    # Execution pipeline
    # ------------------------------------------------------------------

    def _execute(
        self,
        query: ast.Query,
        parameters: dict[str, Any],
        profiler: Profiler | None = None,
    ) -> QueryResult:
        self._tls.parameters = parameters
        main, *rest = query.parts()
        result = self._execute_union_part(main, profiler, 0, query)
        for index, clauses in enumerate(rest, start=1):
            other = self._execute_union_part(clauses, profiler, index, query)
            if other.columns != result.columns:
                raise CypherRuntimeError(
                    f"UNION column mismatch: {result.columns} vs {other.columns}"
                )
            result.records.extend(other.records)
            _merge_stats(result.stats, other.stats)
        if query.union_parts and not query.union_all:
            result.records = _unique(
                result.records,
                lambda record: tuple(hash_key(record[col]) for col in result.columns),
            )
        return result

    def _execute_union_part(
        self,
        clauses: tuple[ast.Clause, ...],
        profiler: Profiler | None,
        index: int,
        query: ast.Query,
    ) -> QueryResult:
        """One UNION part, wrapped in its own profile operator when the
        query actually has UNION parts."""
        if profiler is None or not query.union_parts:
            return self._execute_part(clauses, profiler)
        total = len(query.union_parts) + 1
        with profiler.operator("UnionPart", f"{index + 1}/{total}") as node:
            result = self._execute_part(clauses, profiler)
            node.rows = len(result.records)
        return result

    def _execute_part(
        self,
        clauses: tuple[ast.Clause, ...],
        profiler: Profiler | None = None,
    ) -> QueryResult:
        context = _Context()
        rows: list[Row] = [{}]
        columns: list[str] | None = None
        for clause in clauses:
            if columns is not None:
                raise CypherRuntimeError("RETURN must be the final clause")
            if profiler is None:
                rows, columns = self._apply_clause(clause, rows, context)
            else:
                name = type(clause).__name__.replace("Clause", "")
                with profiler.operator(name, self._clause_detail(clause)) as node:
                    context.node = node
                    rows, columns = self._apply_clause(clause, rows, context)
                    node.rows = len(rows)
        if columns is None and clauses and isinstance(clauses[-1], ast.CallClause):
            # A standalone CALL (no trailing RETURN) yields its
            # procedure columns directly, like Neo4j.
            columns = [item.alias for item in self._resolve_call(clauses[-1])[1]]
        if columns is None:
            return QueryResult([], [], context.stats)
        return QueryResult(columns, rows, context.stats)

    def _apply_clause(
        self, clause: ast.Clause, rows: list[Row], context: "_Context"
    ) -> tuple[list[Row], list[str] | None]:
        """Dispatch one clause; returns (rows, columns-if-RETURN)."""
        if isinstance(clause, ast.MatchClause):
            return self._apply_match(clause, rows, context), None
        if isinstance(clause, ast.UnwindClause):
            return self._apply_unwind(clause, rows, context), None
        if isinstance(clause, ast.WithClause):
            return self._apply_with(clause, rows, context), None
        if isinstance(clause, ast.ReturnClause):
            return self._apply_return(clause, rows, context)
        if isinstance(clause, ast.CreateClause):
            return self._apply_create(clause, rows, context), None
        if isinstance(clause, ast.MergeClause):
            return self._apply_merge(clause, rows, context), None
        if isinstance(clause, ast.SetClause):
            return self._apply_set(clause.items, rows, context), None
        if isinstance(clause, ast.RemoveClause):
            return self._apply_remove(clause, rows, context), None
        if isinstance(clause, ast.DeleteClause):
            return self._apply_delete(clause, rows, context), None
        if isinstance(clause, ast.CallClause):
            return self._apply_call(clause, rows, context), None
        raise CypherRuntimeError(f"unsupported clause {clause!r}")

    def _clause_detail(self, clause: ast.Clause) -> str:
        """The annotation shown next to a profiled operator; a MATCH
        or MERGE writes its own from the plan it executes."""
        if isinstance(clause, ast.UnwindClause):
            return f"AS {clause.alias}"
        if isinstance(clause, (ast.WithClause, ast.ReturnClause)):
            flags = []
            if clause.distinct:
                flags.append("DISTINCT")
            if clause.order_by:
                flags.append("ORDER BY")
            if clause.limit is not None:
                flags.append("LIMIT")
            if not clause.star:
                flags.append(f"{len(clause.items)} items")
            return " ".join(flags)
        if isinstance(clause, ast.CallClause):
            detail = clause.procedure
            if clause.yields:
                aliases = ",".join(item.alias for item in clause.yields)
                detail += f" yield={aliases}"
            return detail
        return ""

    # -- reading clauses -------------------------------------------------

    def _apply_match(
        self, clause: ast.MatchClause, rows: list[Row], context: "_Context"
    ) -> list[Row]:
        output: list[Row] = []
        new_variables = frozenset().union(
            *(pattern.variables() for pattern in clause.patterns)
        )
        # Rows of one pipeline stage share a variable set, so one plan
        # serves every row of the clause.
        bound = frozenset(rows[0] if rows else ())
        plan = plan_match(
            clause.patterns, clause.where, self.store, bound, statistics=self.statistics
        )
        prefilters, residual = plan.prefilters, plan.residual
        if context.node is not None:
            # PROFILE describes the plan that is about to run: same
            # bound variables, same join order, same pushdown.
            detail = "optional " if clause.optional else ""
            detail += "; ".join(plan.describe_anchors())
            if plan.reordered:
                detail += f" join_order=[{','.join(map(str, plan.order))}]"
            if plan.pushed_count():
                detail += f" pushed={plan.pushed_count()}"
            context.node.detail = detail
        for row in rows:
            matched = False
            if all(is_truthy(self._evaluate(p, row)) for p in prefilters):
                for binding in self._matcher.expand(plan, row):
                    self._tick()
                    if residual is not None:
                        if not is_truthy(self._evaluate(residual, binding)):
                            continue
                    matched = True
                    output.append(binding)
            if not matched and clause.optional:
                padded = dict(row)
                for name in new_variables:
                    padded.setdefault(name, None)
                output.append(padded)
        return output

    def _apply_unwind(
        self, clause: ast.UnwindClause, rows: list[Row], context: "_Context"
    ) -> list[Row]:
        output: list[Row] = []
        for row in rows:
            value = self._evaluate(clause.expression, row)
            if value is None:
                continue
            if not isinstance(value, (list, tuple)):
                value = [value]
            for item in value:
                extended = dict(row)
                extended[clause.alias] = item
                output.append(extended)
        return output

    def _resolve_call(
        self, clause: ast.CallClause
    ) -> tuple[Any, tuple[ast.YieldItem, ...]]:
        """The procedure a CALL names and its YIELD projection (every
        procedure column when none is written)."""
        spec = get_procedure(clause.procedure)
        if spec is None:
            raise CypherRuntimeError(_unknown_procedure_message(clause.procedure))
        return spec, clause.yields or tuple(
            ast.YieldItem(column, column) for column in spec.columns
        )

    def _apply_call(
        self, clause: ast.CallClause, rows: list[Row], context: "_Context"
    ) -> list[Row]:
        """Invoke a registered procedure and stream its records.

        Like UNWIND, each input row fans out into one output row per
        procedure record, so CALL composes with the rest of the
        pipeline.  Arguments are evaluated per row (they may reference
        bound variables or parameters); argument-free invocations are
        served from the engine's precomputed analytics when the cached
        generation matches the store.
        """
        spec, yields = self._resolve_call(clause)
        for item in yields:
            if item.column not in spec.columns:
                raise CypherRuntimeError(
                    f"procedure {spec.name} has no column {item.column!r} "
                    f"(columns: {', '.join(spec.columns)})"
                )
        output: list[Row] = []
        for row in rows:
            args = [self._evaluate(arg, row) for arg in clause.args]
            for record in self._procedure_rows(spec, args):
                self._tick()
                extended = dict(row)
                for item in yields:
                    extended[item.alias] = record[item.column]
                output.append(extended)
        return output

    def _procedure_rows(
        self, spec: Any, args: list[Any]
    ) -> list[dict[str, Any]]:
        """Rows for one procedure invocation, precomputed when possible."""
        if not args and self.analytics is not None:
            cached = self.analytics.procedures.get(spec.name)
            if cached is not None and self.analytics.version == self.store.version:
                self.procedure_cache_hits += 1
                record_access("procedure_cache_hit")
                return cached
        try:
            return spec.run(ProcedureContext(self.store, self.statistics), *args)
        except (TypeError, ValueError) as exc:
            raise CypherRuntimeError(
                f"bad arguments for {spec.name}{spec.signature}: {exc}"
            ) from exc

    def _apply_with(
        self, clause: ast.WithClause, rows: list[Row], context: "_Context"
    ) -> list[Row]:
        projected = self._project(rows, clause, clause.items, clause.star)
        if clause.where is None:
            return projected
        return [
            row
            for row in projected
            if is_truthy(self._evaluate(clause.where, row))
        ]

    def _apply_return(
        self, clause: ast.ReturnClause, rows: list[Row], context: "_Context"
    ) -> tuple[list[Row], list[str]]:
        if clause.star:
            names = sorted({name for row in rows for name in row if not name.startswith("__")})
            items = tuple(
                ast.ProjectionItem(ast.Variable(name), name) for name in names
            )
        else:
            items = clause.items
        projected = self._project(rows, clause, items, star=False)
        return projected, [item.alias for item in items]

    def _project(
        self,
        rows: list[Row],
        clause: ast.WithClause | ast.ReturnClause,
        items: tuple[ast.ProjectionItem, ...],
        star: bool,
    ) -> list[Row]:
        """Project ``items`` (``star``: keep every binding), then apply
        the clause's DISTINCT, ORDER BY, SKIP and LIMIT."""
        if star:
            projected = [dict(row) for row in rows]
        elif any(has_aggregate(item.expression) for item in items):
            projected = self._project_grouped(rows, items)
        else:
            projected = []
            for row in rows:
                self._tick()
                out: Row = {}
                for item in items:
                    out[item.alias] = self._evaluate(item.expression, row)
                # Keep source bindings available for ORDER BY on
                # non-projected expressions, under a side channel.
                out["__source__"] = row
                projected.append(out)
        if clause.distinct and star:
            projected = _unique(
                projected,
                lambda row: tuple(
                    (name, hash_key(value))
                    for name, value in sorted(row.items())
                    if name != "__source__"
                ),
            )
        elif clause.distinct:
            projected = _unique(
                projected,
                lambda row: tuple(hash_key(row[item.alias]) for item in items),
            )
        # Stable multi-key sort honouring per-key direction.
        for sort_item in reversed(clause.order_by):
            projected.sort(
                key=lambda row, si=sort_item: sort_key(
                    self._evaluate_sort(si.expression, row)
                ),
                reverse=sort_item.descending,
            )
        if clause.skip is not None:
            projected = projected[int(self._evaluate(clause.skip, {})) :]
        if clause.limit is not None:
            projected = projected[: int(self._evaluate(clause.limit, {}))]
        for row in projected:
            row.pop("__source__", None)
        return projected

    def _evaluate_sort(self, expression: ast.Expression, row: Row) -> Any:
        """Evaluate a sort key against the projected row, falling back to
        the pre-projection bindings for non-projected expressions."""
        scope = dict(row.get("__source__", {}))
        scope.update({k: v for k, v in row.items() if k != "__source__"})
        return self._evaluate(expression, scope)

    def _project_grouped(
        self, rows: list[Row], items: tuple[ast.ProjectionItem, ...]
    ) -> list[Row]:
        group_items = [
            item for item in items if not has_aggregate(item.expression)
        ]
        groups: dict[tuple, tuple[Row, list[Row]]] = {}
        order: list[tuple] = []
        for row in rows:
            key = tuple(
                hash_key(self._evaluate(item.expression, row)) for item in group_items
            )
            if key not in groups:
                groups[key] = (row, [])
                order.append(key)
            groups[key][1].append(row)
        # With no grouping keys and no rows, aggregates still yield one row
        # (count(*) over nothing is 0).
        if not group_items and not groups:
            groups[()] = ({}, [])
            order.append(())
        output: list[Row] = []
        for key in order:
            representative, members = groups[key]
            out: Row = {}
            for item in items:
                out[item.alias] = self._evaluate(
                    item.expression, representative, group_rows=members
                )
            out["__source__"] = representative
            output.append(out)
        return output

    # -- writing clauses -------------------------------------------------

    def _apply_create(
        self, clause: ast.CreateClause, rows: list[Row], context: "_Context"
    ) -> list[Row]:
        output: list[Row] = []
        for row in rows:
            extended = dict(row)
            for pattern in clause.patterns:
                self._create_path(pattern, extended, context)
            output.append(extended)
        return output

    def _create_path(
        self, pattern: ast.PathPattern, binding: Row, context: "_Context"
    ) -> list[Node]:
        nodes: list[Node] = []
        for node_pattern in pattern.nodes:
            nodes.append(self._create_or_reuse_node(node_pattern, binding, context))
        for index, rel_pattern in enumerate(pattern.relationships):
            if rel_pattern.direction == "both":
                raise CypherRuntimeError("CREATE requires a directed relationship")
            if rel_pattern.is_variable_length or len(rel_pattern.types) != 1:
                raise CypherRuntimeError(
                    "CREATE requires exactly one relationship type per hop"
                )
            start, end = nodes[index], nodes[index + 1]
            if rel_pattern.direction == "in":
                start, end = end, start
            props = {
                key: self._evaluate(expr, binding)
                for key, expr in rel_pattern.properties
            }
            rel = self.store.create_relationship(
                start.id, rel_pattern.types[0], end.id, props
            )
            context.stats.relationships_created += 1
            context.stats.properties_set += len(props)
            if rel_pattern.variable:
                binding[rel_pattern.variable] = rel
        return nodes

    def _create_or_reuse_node(
        self, node_pattern: ast.NodePattern, binding: Row, context: "_Context"
    ) -> Node:
        if node_pattern.variable and node_pattern.variable in binding:
            existing = binding[node_pattern.variable]
            if not isinstance(existing, Node):
                raise CypherRuntimeError(
                    f"variable {node_pattern.variable!r} is not a node"
                )
            if node_pattern.labels or node_pattern.properties:
                raise CypherRuntimeError(
                    f"cannot redeclare bound variable {node_pattern.variable!r}"
                )
            return existing
        props = {
            key: self._evaluate(expr, binding) for key, expr in node_pattern.properties
        }
        node = self.store.create_node(node_pattern.labels, props)
        context.stats.nodes_created += 1
        context.stats.labels_added += len(node_pattern.labels)
        context.stats.properties_set += len(props)
        if node_pattern.variable:
            binding[node_pattern.variable] = node
        return node

    def _plan_pattern(self, pattern: ast.PathPattern, row: Row) -> MatchPlan:
        """The one-pattern plan MERGE and a pattern predicate run, made
        once per run for each pattern and set of bound variables."""
        key = (id(pattern), frozenset(row))
        plans = self._tls.__dict__.setdefault("plans", {})
        if key not in plans:
            plans[key] = plan_match(
                (pattern,), None, self.store, key[1], statistics=self.statistics
            )
        return plans[key]

    def _apply_merge(
        self, clause: ast.MergeClause, rows: list[Row], context: "_Context"
    ) -> list[Row]:
        output: list[Row] = []
        # Rows of one pipeline stage share a variable set.
        plan = self._plan_pattern(clause.pattern, rows[0] if rows else {})
        if context.node is not None:
            context.node.detail = "; ".join(plan.describe_anchors())
        for row in rows:
            matches = list(self._matcher.expand(plan, row))
            if matches:
                for binding in matches:
                    if clause.on_match:
                        self._apply_set(clause.on_match, [binding], context)
                    output.append(binding)
                continue
            extended = dict(row)
            self._create_path(clause.pattern, extended, context)
            if clause.on_create:
                self._apply_set(clause.on_create, [extended], context)
            output.append(extended)
        return output

    def _apply_set(
        self, items: Iterable[ast.SetItem], rows: list[Row], context: "_Context"
    ) -> list[Row]:
        for row in rows:
            for item in items:
                subject = self._evaluate(item.subject, row)
                if subject is None:
                    continue
                if item.kind == "label":
                    if not isinstance(subject, Node):
                        raise CypherRuntimeError("SET :Label requires a node")
                    for label in item.labels:
                        self.store.add_label(subject.id, label)
                        context.stats.labels_added += 1
                    continue
                if item.kind == "property":
                    value = self._evaluate(item.value, row)
                    self._set_properties(subject, {item.key: value}, context)
                    continue
                mapping = self._evaluate(item.value, row)
                if isinstance(mapping, (Node, Relationship)):
                    mapping = dict(mapping.properties)
                if not isinstance(mapping, dict):
                    raise CypherRuntimeError("SET with map requires a map value")
                if item.kind == "replace_map":
                    existing = list(subject.properties)
                    cleared = {key: None for key in existing if key not in mapping}
                    self._set_properties(subject, {**cleared, **mapping}, context)
                else:  # merge_map
                    self._set_properties(subject, mapping, context)
        return rows

    def _set_properties(
        self, subject: Any, properties: dict[str, Any], context: "_Context"
    ) -> None:
        if isinstance(subject, Node):
            self.store.update_node(subject.id, properties)
        elif isinstance(subject, Relationship):
            self.store.update_relationship(subject.id, properties)
        else:
            raise CypherRuntimeError("SET requires a node or relationship")
        context.stats.properties_set += len(properties)

    def _apply_remove(
        self, clause: ast.RemoveClause, rows: list[Row], context: "_Context"
    ) -> list[Row]:
        for row in rows:
            for item in clause.items:
                subject = self._evaluate(item.subject, row)
                if subject is None:
                    continue
                if item.kind == "label":
                    raise CypherRuntimeError("REMOVE :Label is not supported")
                self._set_properties(subject, {item.key: None}, context)
        return rows

    def _apply_delete(
        self, clause: ast.DeleteClause, rows: list[Row], context: "_Context"
    ) -> list[Row]:
        deleted_nodes: set[int] = set()
        deleted_rels: set[int] = set()
        for row in rows:
            for expression in clause.expressions:
                value = self._evaluate(expression, row)
                if value is None:
                    continue
                if isinstance(value, Relationship):
                    if value.id not in deleted_rels:
                        self.store.delete_relationship(value.id)
                        deleted_rels.add(value.id)
                        context.stats.relationships_deleted += 1
                elif isinstance(value, Node):
                    if value.id not in deleted_nodes:
                        before = self.store.relationship_count
                        self.store.delete_node(value.id, detach=clause.detach)
                        deleted_nodes.add(value.id)
                        context.stats.nodes_deleted += 1
                        context.stats.relationships_deleted += (
                            before - self.store.relationship_count
                        )
                else:
                    raise CypherRuntimeError("DELETE requires nodes or relationships")
        return rows

    # ------------------------------------------------------------------
    # Expression evaluation
    # ------------------------------------------------------------------

    def _evaluate(
        self,
        expression: ast.Expression | None,
        row: Row,
        group_rows: list[Row] | None = None,
    ) -> Any:
        if expression is None:
            return None
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.Parameter):
            try:
                return getattr(self._tls, "parameters", {})[expression.name]
            except KeyError:
                raise CypherRuntimeError(
                    f"missing parameter ${expression.name}"
                ) from None
        if isinstance(expression, ast.Variable):
            if expression.name in row:
                return row[expression.name]
            raise CypherRuntimeError(f"undefined variable {expression.name!r}")
        if isinstance(expression, ast.PropertyAccess):
            subject = self._evaluate(expression.subject, row, group_rows)
            if subject is None:
                return None
            if isinstance(subject, (Node, Relationship)):
                return subject.properties.get(expression.key)
            if isinstance(subject, dict):
                return subject.get(expression.key)
            raise CypherRuntimeError(
                f"cannot access property {expression.key!r} of {type(subject).__name__}"
            )
        if isinstance(expression, ast.FunctionCall):
            return self._evaluate_call(expression, row, group_rows)
        if isinstance(expression, ast.UnaryOp):
            return self._evaluate_unary(expression, row, group_rows)
        if isinstance(expression, ast.BinaryOp):
            return self._evaluate_binary(expression, row, group_rows)
        if isinstance(expression, ast.IsNull):
            value = self._evaluate(expression.operand, row, group_rows)
            return (value is not None) if expression.negated else (value is None)
        if isinstance(expression, ast.ListLiteral):
            return [self._evaluate(item, row, group_rows) for item in expression.items]
        if isinstance(expression, ast.MapLiteral):
            return {
                key: self._evaluate(value, row, group_rows)
                for key, value in expression.items
            }
        if isinstance(expression, ast.IndexAccess):
            return self._evaluate_index(expression, row, group_rows)
        if isinstance(expression, ast.CaseExpression):
            return self._evaluate_case(expression, row, group_rows)
        if isinstance(expression, ast.ListComprehension):
            return self._evaluate_comprehension(expression, row, group_rows)
        if isinstance(expression, ast.ListPredicate):
            return self._evaluate_list_predicate(expression, row, group_rows)
        if isinstance(expression, ast.Reduce):
            return self._evaluate_reduce(expression, row, group_rows)
        if isinstance(expression, ast.PatternPredicate):
            plan = self._plan_pattern(expression.pattern, row)
            return any(True for _ in self._matcher.expand(plan, row))
        raise CypherRuntimeError(f"cannot evaluate {expression!r}")

    def _evaluate_list_predicate(
        self, expression: ast.ListPredicate, row: Row, group_rows: list[Row] | None
    ) -> Any:
        source = self._evaluate(expression.source, row, group_rows)
        if source is None:
            return None
        verdicts = []
        for item in source:
            scope = dict(row)
            scope[expression.variable] = item
            verdicts.append(self._evaluate(expression.predicate, scope, group_rows))
        trues = sum(1 for v in verdicts if v is True)
        has_null = any(v is None for v in verdicts)
        if expression.kind == "all":
            if any(v is False for v in verdicts):
                return False
            return None if has_null else True
        if expression.kind == "any":
            if trues:
                return True
            return None if has_null else False
        if expression.kind == "none":
            if trues:
                return False
            return None if has_null else True
        # single
        if trues > 1:
            return False
        if has_null:
            return None
        return trues == 1

    def _evaluate_reduce(
        self, expression: ast.Reduce, row: Row, group_rows: list[Row] | None
    ) -> Any:
        source = self._evaluate(expression.source, row, group_rows)
        if source is None:
            return None
        accumulator = self._evaluate(expression.init, row, group_rows)
        for item in source:
            scope = dict(row)
            scope[expression.accumulator] = accumulator
            scope[expression.variable] = item
            accumulator = self._evaluate(expression.expression, scope, group_rows)
        return accumulator

    def _tick(self) -> None:
        """Cooperative cancellation point, called from inner loops."""
        guard = getattr(self._tls, "guard", None)
        if guard is not None:
            guard.tick()

    def _evaluate_call(
        self, call: ast.FunctionCall, row: Row, group_rows: list[Row] | None
    ) -> Any:
        if call.name in AGGREGATE_NAMES:
            if group_rows is None:
                raise CypherRuntimeError(
                    f"aggregate {call.name}() used outside RETURN/WITH"
                )
            return self._evaluate_aggregate(call, group_rows)
        args = [self._evaluate(arg, row, group_rows) for arg in call.args]
        func = SCALAR_FUNCTIONS.get(call.name)
        if func is None:
            if call.name == "startnode":
                rel = args[0]
                return None if rel is None else self.store.get_node(rel.start_id)
            if call.name == "endnode":
                rel = args[0]
                return None if rel is None else self.store.get_node(rel.end_id)
            raise CypherRuntimeError(f"unknown function {call.name}()")
        return func(*args)

    def _evaluate_aggregate(self, call: ast.FunctionCall, rows: list[Row]) -> Any:
        if call.name == "count" and call.star:
            return len(rows)
        if not call.args:
            raise CypherRuntimeError(f"{call.name}() requires an argument")
        values = []
        for member in rows:
            value = self._evaluate(call.args[0], member)
            if value is not None:
                values.append(value)
        if call.distinct:
            values = _unique(values, hash_key)
        if call.name in AGGREGATES:
            return AGGREGATES[call.name](values)
        percentile = self._evaluate(call.args[1], rows[0] if rows else {})
        return PERCENTILE_AGGREGATES[call.name](values, percentile)

    def _evaluate_unary(
        self, expression: ast.UnaryOp, row: Row, group_rows: list[Row] | None
    ) -> Any:
        value = self._evaluate(expression.operand, row, group_rows)
        if expression.op == "not":
            return logical_not(value)
        if value is None:
            return None
        if not _is_number(value):
            raise CypherRuntimeError(f"cannot negate {value!r}")
        return -value

    def _evaluate_binary(
        self, expression: ast.BinaryOp, row: Row, group_rows: list[Row] | None
    ) -> Any:
        op = expression.op
        if op in ("and", "or", "xor"):
            left = self._evaluate(expression.left, row, group_rows)
            # Short-circuit where three-valued logic allows.
            if op == "and" and left is False:
                return False
            if op == "or" and left is True:
                return True
            right = self._evaluate(expression.right, row, group_rows)
            if op == "and":
                return logical_and(left, right)
            if op == "or":
                return logical_or(left, right)
            return logical_xor(left, right)
        left = self._evaluate(expression.left, row, group_rows)
        right = self._evaluate(expression.right, row, group_rows)
        if op == "eq":
            return equals(left, right)
        if op == "neq":
            verdict = equals(left, right)
            return None if verdict is None else not verdict
        if op in ("lt", "le", "gt", "ge"):
            return compare(left, right, op)
        if op == "in":
            return list_membership(left, right)
        if left is None or right is None:
            return None
        if op in _STRING_PREDICATES:
            if not (isinstance(left, str) and isinstance(right, str)):
                return None  # openCypher: a non-string operand is null
            try:
                return _STRING_PREDICATES[op](left, right)
            except re.error as exc:
                raise CypherRuntimeError(f"invalid regex {right!r}: {exc}") from None
        if op == "+":
            if isinstance(left, list) or isinstance(right, list):
                left_list = left if isinstance(left, list) else [left]
                right_list = right if isinstance(right, list) else [right]
                return left_list + right_list
            if isinstance(left, str) != isinstance(right, str):
                raise CypherRuntimeError(f"cannot add {left!r} and {right!r}")
            return left + right
        if op not in ("-", "*", "/", "%", "^"):
            raise CypherRuntimeError(f"unknown operator {op}")
        if not (_is_number(left) and _is_number(right)):
            raise CypherRuntimeError(f"cannot apply {op} to {left!r} and {right!r}")
        if op == "/" and isinstance(left, int) and isinstance(right, int):
            if right == 0:
                raise CypherRuntimeError("integer division by zero")
            quotient = left // right
            # Cypher truncates toward zero for integer division.
            if quotient < 0 and quotient * right != left:
                quotient += 1
            return quotient
        try:
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                return left / right
            if op == "%":
                return left % right
            return float(left**right)
        except (ArithmeticError, TypeError) as exc:
            raise CypherRuntimeError(f"{left!r} {op} {right!r}: {exc}") from None

    def _evaluate_index(
        self, expression: ast.IndexAccess, row: Row, group_rows: list[Row] | None
    ) -> Any:
        subject = self._evaluate(expression.subject, row, group_rows)
        if subject is None:
            return None
        if expression.is_slice:
            # An open end is an absent sub-expression, which evaluates to None.
            start = self._evaluate(expression.index, row, group_rows)
            end = self._evaluate(expression.end, row, group_rows)
            return subject[start:end]
        index = self._evaluate(expression.index, row, group_rows)
        if isinstance(subject, dict):
            return subject.get(index)
        if isinstance(subject, (Node, Relationship)):
            return subject.properties.get(index)
        if isinstance(subject, (list, tuple, str)):
            if index is None or not -len(subject) <= index < len(subject):
                return None
            return subject[index]
        raise CypherRuntimeError(f"cannot index {type(subject).__name__}")

    def _evaluate_case(
        self, expression: ast.CaseExpression, row: Row, group_rows: list[Row] | None
    ) -> Any:
        if expression.operand is not None:
            operand = self._evaluate(expression.operand, row, group_rows)
            for condition, value in expression.whens:
                if equals(operand, self._evaluate(condition, row, group_rows)) is True:
                    return self._evaluate(value, row, group_rows)
        else:
            for condition, value in expression.whens:
                if is_truthy(self._evaluate(condition, row, group_rows)):
                    return self._evaluate(value, row, group_rows)
        return self._evaluate(expression.default, row, group_rows)

    def _evaluate_comprehension(
        self, expression: ast.ListComprehension, row: Row, group_rows: list[Row] | None
    ) -> Any:
        source = self._evaluate(expression.source, row, group_rows)
        if source is None:
            return None
        result = []
        for item in source:
            scope = dict(row)
            scope[expression.variable] = item
            if expression.predicate is not None and not is_truthy(
                self._evaluate(expression.predicate, scope, group_rows)
            ):
                continue
            if expression.projection is not None:
                result.append(self._evaluate(expression.projection, scope, group_rows))
            else:
                result.append(item)
        return result


class _Context:
    """Per-execution mutable state: write stats and the profiled clause."""

    def __init__(self) -> None:
        self.stats = WriteStats()
        #: The profiler operator of the clause being applied, if any.
        self.node: ProfileNode | None = None


def _unique(items: list[Any], key: Callable[[Any], Any]) -> list[Any]:
    """``items`` minus later duplicates under ``key``, order kept —
    DISTINCT for projections, aggregates and UNION alike."""
    seen: set[Any] = set()
    unique = []
    for item in items:
        identity = key(item)
        if identity not in seen:
            seen.add(identity)
            unique.append(item)
    return unique


def _bound_after(clause: ast.Clause, bound: frozenset[str]) -> frozenset[str]:
    """The variables bound once ``clause`` has run after ``bound``."""
    if isinstance(clause, ast.WithClause):
        aliases = frozenset(item.alias for item in clause.items)
        return bound | aliases if clause.star else aliases
    if isinstance(clause, ast.UnwindClause):
        return bound | {clause.alias}
    if isinstance(clause, ast.CallClause):
        spec = get_procedure(clause.procedure)
        names = [item.alias for item in clause.yields] or (spec.columns if spec else ())
        return bound | frozenset(names)
    if isinstance(clause, ast.MergeClause):
        return bound | clause.pattern.variables()
    if isinstance(clause, (ast.MatchClause, ast.CreateClause)):
        return bound.union(*(pattern.variables() for pattern in clause.patterns))
    return bound


def _merge_stats(target: WriteStats, other: WriteStats) -> None:
    target.nodes_created += other.nodes_created
    target.nodes_deleted += other.nodes_deleted
    target.relationships_created += other.relationships_created
    target.relationships_deleted += other.relationships_deleted
    target.properties_set += other.properties_set
    target.labels_added += other.labels_added


def has_aggregate(expression: ast.Expression) -> bool:
    """True when an aggregate function call appears anywhere in the tree."""
    return any(
        isinstance(node, ast.FunctionCall) and node.name in AGGREGATE_NAMES
        for node, _ in expression.walk()
    )


def _unknown_procedure_message(name: str) -> str:
    """Error text for a CALL naming no registered procedure, with a
    did-you-mean hint from the registry."""
    message = f"unknown procedure {name!r}"
    hints = suggest(name)
    if hints:
        message += "; did you mean " + " or ".join(hints) + "?"
    return message
