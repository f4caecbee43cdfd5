"""The reference leg: a backtracking walk over the same patterns.

This is the row-at-a-time matcher the engine ran before every pattern
shape moved onto the batch operator (:meth:`repro.cypher.matcher.
PatternMatcher.expand`).  It is kept here, outside the program, as the
oracle the operator is compared against: each path pattern is walked
from an anchor element (a bound variable, an indexed label+property
seek, or the smallest label scan), expanding rightward and leftward
with backtracking, one relationship at a time.  Relationship
isomorphism holds across a whole MATCH clause.

Two ways to use it:

- :func:`walking` reroutes an engine's planned MATCH, MERGE and pattern
  predicates through the walk *from the same plan* (same pattern order,
  anchors and pushed filters), so records must agree in order.  Where
  the plan has set semantics (:attr:`MatchPlan.distinct`), the walk
  still enumerates every path, then keeps the first binding of each
  tuple of those variables, and only them;
- :func:`naive_engine` runs it with no planner at all: textual pattern
  order, no pushdown, WHERE applied to complete bindings — the
  reference for the optimizer's result multisets.

The pushed predicates are evaluated the instant their variable binds;
the walk mutates a single working dict with an undo trail per
backtrack point and copies it only when a complete match is yielded.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterator, Mapping

from repro.cypher import CypherEngine, ast
from repro.cypher.errors import CypherRuntimeError
from repro.cypher.planner import Anchor, choose_anchor
from repro.cypher.values import Path, equals, hash_key, is_truthy
from repro.graphdb.model import Direction, Node, Relationship
from repro.graphdb.store import GraphStore
from repro.obs import record_access

Binding = dict[str, Any]
Evaluator = Callable[[ast.Expression, Binding], Any]
Tick = Callable[[], None]
#: Bind-time predicates: variable name -> conjuncts to check on bind.
Pushed = Mapping[str, tuple[ast.Expression, ...]]

_DIRECTIONS = {"out": Direction.OUT, "in": Direction.IN, "both": Direction.BOTH}


def _no_tick() -> None:
    """Default cancellation hook: do nothing."""


class ReferenceMatcher:
    """Matches path patterns against a :class:`GraphStore` by walking.

    ``tick`` is a cooperative-cancellation hook called from the matching
    inner loops; the engine wires it to the active query's guard so a
    runaway traversal can be aborted mid-match (admission control).

    The matcher holds no per-query state — one instance serves every
    concurrent query of an engine — so pushed predicates travel through
    the call chain rather than living on ``self``.
    """

    def __init__(self, store: GraphStore, evaluate: Evaluator, tick: Tick = _no_tick):
        self._store = store
        self._evaluate = evaluate
        self._tick = tick

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def match_patterns(
        self,
        patterns: tuple[ast.PathPattern, ...],
        binding: Binding,
        pushed: Pushed | None = None,
        anchors: tuple[Anchor, ...] | None = None,
    ) -> Iterator[Binding]:
        """Yield bindings satisfying *all* patterns (one MATCH clause).

        ``anchors`` are the plan's per-pattern anchors; without a plan
        each pattern's anchor is chosen against the binding it meets.  A
        bound variable that is not null must be a node where a pattern
        uses it as a node, and a relationship where it names one hop."""
        for pattern in patterns:
            for node in pattern.nodes:
                value = binding.get(node.variable or "")
                if value is not None and not isinstance(value, Node):
                    raise CypherRuntimeError(f"variable {node.variable!r} is not a node")
            for rel in pattern.relationships:
                value = binding.get(rel.variable or "")
                single = not (rel.is_variable_length or pattern.shortest)
                if single and value is not None and not isinstance(value, Relationship):
                    raise CypherRuntimeError(
                        f"variable {rel.variable!r} is not a relationship"
                    )
        steps = tuple(
            zip(patterns, anchors or (None,) * len(patterns), strict=True)
        )
        yield from self._match_rest(steps, binding, frozenset(), pushed)

    def match_single(
        self, pattern: ast.PathPattern, binding: Binding
    ) -> Iterator[Binding]:
        """Yield bindings for one pattern (used by MERGE)."""
        for extended, _rels in self._match_path(pattern, binding, frozenset(), None):
            yield extended

    def pattern_exists(self, pattern: ast.PathPattern, binding: Binding) -> bool:
        """Return True when the pattern has at least one match."""
        for _ in self._match_path(pattern, binding, frozenset(), None):
            return True
        return False

    # ------------------------------------------------------------------
    # Multi-pattern join
    # ------------------------------------------------------------------

    def _match_rest(
        self,
        steps: tuple[tuple[ast.PathPattern, Anchor | None], ...],
        binding: Binding,
        used_rels: frozenset[int],
        pushed: Pushed | None,
    ) -> Iterator[Binding]:
        if not steps:
            yield binding
            return
        pattern, anchor = steps[0]
        for extended, rels in self._match_path(
            pattern, binding, used_rels, pushed, anchor
        ):
            yield from self._match_rest(
                steps[1:], extended, used_rels | rels, pushed
            )

    # ------------------------------------------------------------------
    # Single path
    # ------------------------------------------------------------------

    def _match_path(
        self,
        pattern: ast.PathPattern,
        binding: Binding,
        used_rels: frozenset[int],
        pushed: Pushed | None,
        planned: Anchor | None = None,
    ) -> Iterator[tuple[Binding, frozenset[int]]]:
        chosen = planned or choose_anchor(pattern, binding, self._store)
        if pattern.shortest:
            yield from self._match_shortest(
                pattern, binding, used_rels, pushed, chosen
            )
            return
        anchor = chosen.position  # the walk's fixed point in pattern.nodes
        # One working dict per path; the walk mutates it in place and
        # unwinds its own additions when backtracking.
        work = dict(binding)
        assigned: dict[int, Node] = {}
        # The relationships of each hop in pattern order, for paths.
        hops: dict[int, list[Relationship]] = {}
        local_rels: set[int] = set()
        # Anchor bind attempts are tallied locally and flushed once per
        # path — a per-attempt record_access would dominate this hot
        # path.  Walk-phase volume is already accounted row-accurately
        # by the store's expand / rels_expanded counters.
        binds = 0
        try:
            for candidate in self._anchor_candidates(
                pattern.nodes[anchor], chosen, work
            ):
                self._tick()
                binds += 1
                trail: list[str] = []
                if self._bind_node(
                    pattern.nodes[anchor], candidate, work, trail, pushed
                ):
                    assigned[anchor] = candidate
                    yield from self._walk_right(
                        pattern, anchor, anchor, work, assigned, hops,
                        used_rels, local_rels, pushed,
                    )
                    del assigned[anchor]
                for key in trail:
                    del work[key]
        finally:
            if binds:
                record_access("bind_attempt", binds)

    def _walk_right(
        self,
        pattern: ast.PathPattern,
        anchor: int,
        position: int,
        work: Binding,
        assigned: dict[int, Node],
        hops: dict[int, list[Relationship]],
        used_rels: frozenset[int],
        local_rels: set[int],
        pushed: Pushed | None,
    ) -> Iterator[tuple[Binding, frozenset[int]]]:
        if position == len(pattern.nodes) - 1:
            yield from self._walk_left(
                pattern, anchor, work, assigned, hops, used_rels, local_rels,
                pushed,
            )
            return
        rel_pattern = pattern.relationships[position]
        next_pattern = pattern.nodes[position + 1]
        for rels, neighbor in self._step(
            assigned[position], rel_pattern, used_rels, local_rels, work,
            reverse=False,
        ):
            trail: list[str] = []
            if self._bind_step(
                rel_pattern, rels, next_pattern, neighbor, work, trail, pushed
            ):
                added = [rel.id for rel in rels]
                local_rels.update(added)
                assigned[position + 1] = neighbor
                hops[position] = rels
                yield from self._walk_right(
                    pattern, anchor, position + 1, work, assigned, hops,
                    used_rels, local_rels, pushed,
                )
                del assigned[position + 1]
                local_rels.difference_update(added)
            for key in trail:
                del work[key]

    def _walk_left(
        self,
        pattern: ast.PathPattern,
        position: int,
        work: Binding,
        assigned: dict[int, Node],
        hops: dict[int, list[Relationship]],
        used_rels: frozenset[int],
        local_rels: set[int],
        pushed: Pushed | None,
    ) -> Iterator[tuple[Binding, frozenset[int]]]:
        if position == 0:
            # A complete match: snapshot the working dict — the only
            # copy this path makes per result.
            snapshot = dict(work)
            if pattern.path_variable:
                snapshot[pattern.path_variable] = self._materialize_path(
                    pattern, assigned, hops
                )
            yield snapshot, frozenset(local_rels)
            return
        rel_pattern = pattern.relationships[position - 1]
        prev_pattern = pattern.nodes[position - 1]
        for rels, neighbor in self._step(
            assigned[position], rel_pattern, used_rels, local_rels, work,
            reverse=True,
        ):
            # Walked right to left: a variable-length list still reads
            # in the pattern's order.
            rels = rels[::-1]
            trail: list[str] = []
            if self._bind_step(
                rel_pattern, rels, prev_pattern, neighbor, work, trail, pushed
            ):
                added = [rel.id for rel in rels]
                local_rels.update(added)
                assigned[position - 1] = neighbor
                hops[position - 1] = rels
                yield from self._walk_left(
                    pattern, position - 1, work, assigned, hops, used_rels,
                    local_rels, pushed,
                )
                del assigned[position - 1]
                local_rels.difference_update(added)
            for key in trail:
                del work[key]

    def _materialize_path(
        self,
        pattern: ast.PathPattern,
        assigned: dict[int, Node],
        hops: dict[int, list[Relationship]],
    ) -> Path:
        """A path value is the alternating node/relationship list: every
        node and relationship in pattern order, a variable-length hop's
        interior nodes included."""
        current = assigned[0]
        elements = Path([current])
        for index in range(len(pattern.relationships)):
            for rel in hops[index]:
                current = self._store.get_node(rel.other_end(current.id))
                elements += (rel, current)
        return elements

    # ------------------------------------------------------------------
    # shortestPath()
    # ------------------------------------------------------------------

    def _match_shortest(
        self,
        pattern: ast.PathPattern,
        binding: Binding,
        used_rels: frozenset[int],
        pushed: Pushed | None,
        anchor: Anchor,
    ) -> Iterator[tuple[Binding, frozenset[int]]]:
        """BFS from each start candidate; one shortest path per end node."""
        if len(pattern.relationships) != 1:
            raise CypherRuntimeError(
                "shortestPath() supports a single relationship pattern"
            )
        rel_pattern = pattern.relationships[0]
        start_pattern, end_pattern = pattern.nodes
        flipped = False
        # Anchor the BFS at the cheaper end (BFS explores the same ball
        # either way; starting from the selective end avoids one scan
        # per anchor candidate).
        if anchor.position == 1:
            start_pattern, end_pattern = end_pattern, start_pattern
            if rel_pattern.direction != "both":
                rel_pattern = replace(
                    rel_pattern,
                    direction="in" if rel_pattern.direction == "out" else "out",
                )
            flipped = True
        limit = 10**9 if rel_pattern.max_hops == -1 else max(rel_pattern.max_hops, 1)
        for start_node in self._anchor_candidates(start_pattern, anchor, binding):
            record_access("bind_attempt")
            base = dict(binding)
            if not self._bind_node(start_pattern, start_node, base, None, pushed):
                continue
            visited: set[int] = {start_node.id}
            frontier: list[tuple[Node, list[Relationship]]] = [(start_node, [])]
            depth = 0
            while frontier and depth < limit:
                depth += 1
                next_frontier: list[tuple[Node, list[Relationship]]] = []
                for node, path in frontier:
                    for rel in self._incident(
                        node, rel_pattern.direction, rel_pattern.types
                    ):
                        self._tick()
                        if rel.id in used_rels:
                            continue
                        other = self._store.get_node(rel.other_end(node.id))
                        if other.id in visited:
                            continue
                        if not self._rel_properties_match(rel, rel_pattern, base):
                            continue
                        visited.add(other.id)
                        new_path = path + [rel]
                        next_frontier.append((other, new_path))
                        if depth < rel_pattern.min_hops:
                            continue
                        extended = dict(base)
                        if not self._bind_node(
                            end_pattern, other, extended, None, pushed
                        ):
                            continue
                        if rel_pattern.variable:
                            extended[rel_pattern.variable] = (
                                new_path[::-1] if flipped else list(new_path)
                            )
                        if pattern.path_variable:
                            elements = Path([start_node])
                            for hop in new_path:
                                previous = elements[-1]
                                elements.append(hop)
                                elements.append(
                                    self._store.get_node(hop.other_end(previous.id))
                                )
                            if flipped:
                                elements.reverse()
                            extended[pattern.path_variable] = elements
                        yield extended, frozenset(r.id for r in new_path)
                frontier = next_frontier

    # ------------------------------------------------------------------
    # Anchor candidates
    # ------------------------------------------------------------------

    def _anchor_candidates(
        self, node: ast.NodePattern, anchor: Anchor, binding: Binding
    ) -> Iterator[Node]:
        """The nodes ``anchor`` says to try for its ``node`` pattern."""
        if anchor.access == "bound":
            value = binding[node.variable]
            if value is None:
                return
            if not isinstance(value, Node):
                raise CypherRuntimeError(f"variable {node.variable!r} is not a node")
            yield value
        elif anchor.seek is not None:
            key, value_expr = anchor.seek
            value = self._evaluate(value_expr, binding)
            yield from self._store.find_nodes(anchor.label, key, value)
        elif anchor.label is not None:
            yield from self._store.nodes_with_label(anchor.label)
        else:
            # Stream the full scan: clauses drain the matcher before any
            # mutation clause runs, so the store cannot change mid-iteration.
            yield from self._store.iter_nodes()

    # ------------------------------------------------------------------
    # Single step (fixed- and variable-length relationships)
    # ------------------------------------------------------------------

    def _step(
        self,
        current: Node,
        rel_pattern: ast.RelPattern,
        used_rels: frozenset[int],
        local_rels: set[int],
        binding: Binding,
        reverse: bool,
    ) -> Iterator[tuple[list[Relationship], Node]]:
        direction = rel_pattern.direction
        if reverse and direction != "both":
            direction = "in" if direction == "out" else "out"
        if (
            rel_pattern.variable
            and rel_pattern.variable in binding
            and not rel_pattern.is_variable_length
        ):
            bound = binding[rel_pattern.variable]
            if not isinstance(bound, Relationship):
                return
            if bound.id in used_rels or bound.id in local_rels:
                return
            if not self._rel_touches(bound, current, direction):
                return
            # The hop still constrains a bound relationship.
            if rel_pattern.types and bound.type not in rel_pattern.types:
                return
            if not self._rel_properties_match(bound, rel_pattern, binding):
                return
            yield [bound], self._store.get_node(bound.other_end(current.id))
            return
        if not rel_pattern.is_variable_length:
            for rel in self._incident(current, direction, rel_pattern.types):
                self._tick()
                if rel.id in used_rels or rel.id in local_rels:
                    continue
                if not self._rel_properties_match(rel, rel_pattern, binding):
                    continue
                yield [rel], self._store.get_node(rel.other_end(current.id))
            return
        # Variable-length: DFS with per-path relationship uniqueness.
        limit = 10**9 if rel_pattern.max_hops == -1 else rel_pattern.max_hops
        stack: list[tuple[Node, list[Relationship]]] = [(current, [])]
        while stack:
            self._tick()
            node, path = stack.pop()
            if len(path) >= rel_pattern.min_hops:
                yield list(path), node
            if len(path) >= limit:
                continue
            path_ids = {rel.id for rel in path}
            for rel in self._incident(node, direction, rel_pattern.types):
                if rel.id in used_rels or rel.id in local_rels or rel.id in path_ids:
                    continue
                if not self._rel_properties_match(rel, rel_pattern, binding):
                    continue
                stack.append(
                    (self._store.get_node(rel.other_end(node.id)), path + [rel])
                )

    def _incident(
        self, node: Node, direction: str, types: tuple[str, ...]
    ) -> Iterator[Relationship]:
        if types:
            for rel_type in types:
                yield from self._store.relationships_of(
                    node.id, _DIRECTIONS[direction], rel_type
                )
        else:
            yield from self._store.relationships_of(node.id, _DIRECTIONS[direction])

    @staticmethod
    def _rel_touches(rel: Relationship, node: Node, direction: str) -> bool:
        if direction == "out":
            return rel.start_id == node.id
        if direction == "in":
            return rel.end_id == node.id
        return node.id in (rel.start_id, rel.end_id)

    def _rel_properties_match(
        self, rel: Relationship, rel_pattern: ast.RelPattern, binding: Binding
    ) -> bool:
        for key, value_expr in rel_pattern.properties:
            expected = self._evaluate(value_expr, binding)
            if equals(rel.properties.get(key), expected) is not True:
                return False
        return True

    # ------------------------------------------------------------------
    # Binding helpers
    # ------------------------------------------------------------------

    def _check_pushed(
        self, variable: str, binding: Binding, pushed: Pushed | None
    ) -> bool:
        """Evaluate bind-time predicates for a freshly-bound variable."""
        if not pushed:
            return True
        for predicate in pushed.get(variable, ()):
            if not is_truthy(self._evaluate(predicate, binding)):
                return False
        return True

    def _bind_node(
        self,
        node_pattern: ast.NodePattern,
        node: Node,
        binding: Binding,
        trail: list[str] | None = None,
        pushed: Pushed | None = None,
    ) -> bool:
        """Bind a node into the working dict.

        Keys added are appended to ``trail`` so the caller can unwind on
        backtrack; a False return still records its additions (the
        caller unwinds unconditionally).
        """
        if node_pattern.labels and not all(
            label in node.labels for label in node_pattern.labels
        ):
            return False
        for key, value_expr in node_pattern.properties:
            expected = self._evaluate(value_expr, binding)
            if equals(node.properties.get(key), expected) is not True:
                return False
        variable = node_pattern.variable
        if variable:
            if variable in binding:
                existing = binding[variable]
                if not isinstance(existing, Node) or existing.id != node.id:
                    return False
                # Re-binding an already-bound variable: pushed predicates
                # were checked when it first bound.
                return True
            binding[variable] = node
            if trail is not None:
                trail.append(variable)
            if not self._check_pushed(variable, binding, pushed):
                return False
        return True

    def _bind_step(
        self,
        rel_pattern: ast.RelPattern,
        rels: list[Relationship],
        node_pattern: ast.NodePattern,
        node: Node,
        binding: Binding,
        trail: list[str] | None = None,
        pushed: Pushed | None = None,
    ) -> bool:
        variable = rel_pattern.variable
        if variable:
            value: Any = list(rels) if rel_pattern.is_variable_length else rels[0]
            if variable in binding:
                if binding[variable] != value:
                    return False
            else:
                binding[variable] = value
                if trail is not None:
                    trail.append(variable)
                if not self._check_pushed(variable, binding, pushed):
                    return False
        return self._bind_node(node_pattern, node, binding, trail, pushed)


# ---------------------------------------------------------------------------
# Engines on the walk
# ---------------------------------------------------------------------------


class _Walk:
    """Stands in for an engine's batch operator: ``expand(plan, binding)``
    walks the plan's patterns from the plan's anchors, with its pushed
    filters (``planned``), or chooses each anchor against the binding
    it meets and pushes nothing."""

    def __init__(self, walk: ReferenceMatcher, planned: bool):
        self._walk = walk
        self._planned = planned

    def expand(self, plan, binding: Binding) -> Iterator[Binding]:
        if not self._planned:
            return self._walk.match_patterns(plan.patterns, binding)
        walked = self._walk.match_patterns(
            plan.patterns, binding, plan.pushed or None, plan.anchors
        )
        if plan.distinct is None:
            return walked
        return _first_of_each(walked, binding, plan.distinct)


def _first_of_each(
    bindings: Iterator[Binding], incoming: Binding, read: tuple[str, ...]
) -> Iterator[Binding]:
    """The incoming binding plus ``read``, for the first of ``bindings``
    with each tuple of ``read`` values."""
    seen = set()
    for binding in bindings:
        key = tuple(hash_key(binding[name]) for name in read)
        if key not in seen:
            seen.add(key)
            yield {**incoming, **{name: binding[name] for name in read}}


def walking(engine: CypherEngine) -> CypherEngine:
    """``engine`` with every MATCH, MERGE and pattern predicate walked
    from the very plan the batch operator would run."""
    engine._matcher = _Walk(  # type: ignore[assignment]
        ReferenceMatcher(engine.store, engine._evaluate, engine._tick), True
    )
    return engine


class _NaiveEngine(CypherEngine):
    """Textual pattern order, no pushdown, WHERE on complete bindings."""

    def __init__(self, store: GraphStore):
        super().__init__(store)
        self._walk = ReferenceMatcher(store, self._evaluate, self._tick)
        self._matcher = _Walk(self._walk, False)  # type: ignore[assignment]

    def _apply_match(self, clause, rows, context):
        output = []
        new_variables = frozenset().union(
            *(pattern.variables() for pattern in clause.patterns)
        )
        for row in rows:
            matched = False
            for binding in self._walk.match_patterns(clause.patterns, row):
                self._tick()
                if clause.where is not None and not is_truthy(
                    self._evaluate(clause.where, binding)
                ):
                    continue
                matched = True
                output.append(binding)
            if not matched and clause.optional:
                padded = dict(row)
                for name in new_variables:
                    padded.setdefault(name, None)
                output.append(padded)
        return output


def naive_engine(store: GraphStore) -> CypherEngine:
    """An engine that runs the planner-free reference executor."""
    return _NaiveEngine(store)
