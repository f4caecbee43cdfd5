"""Graph pattern matching for MATCH, MERGE and pattern predicates.

One operator, :meth:`PatternMatcher.expand`, finds every binding.  It
runs a :class:`repro.cypher.planner.MatchPlan` over rows of int ids, a
level (:class:`repro.cypher.planner.ExpandStep`) at a time: a pattern's
anchor candidates, then one hop per level, each later pattern of the
clause extending the same row.  A hop asks the store once per level
(``expand_level``, ``having_labels``) and decides each id once, so a hub
reached by many paths is read once; where nothing reads a relationship
column, parallel copies of one fact count once.  ``Node`` and
``Relationship`` objects are built only for the named variables of
surviving rows, path values from the id columns at the end.

Rows come out in the order a backtracking walk of the same plan yields
them: levels grow in row order, each row in adjacency order (depth
first for a variable-length hop, breadth first for ``shortestPath``).
Relationship isomorphism holds across the clause, which is what makes
the paper's MOAS query (Listing 2) return distinct origin links.
Pushed predicates (:mod:`repro.cypher.planner`) are checked the instant
their variable binds, after its labels and inline map.  Under set
semantics (:attr:`MatchPlan.distinct`) a level keeps the first row of
each distinct tuple of its :attr:`MatchPlan.keep` columns and only read
variables are built; first occurrences keep their order, so distinct
rows, groups and LIMIT come out as from every path.
"""

from __future__ import annotations

from itertools import zip_longest
from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.cypher import ast
from repro.cypher.errors import CypherRuntimeError
from repro.cypher.planner import ExpandStep, MatchPlan
from repro.cypher.values import Path, equals, is_truthy
from repro.graphdb.model import Node
from repro.graphdb.store import GraphStore
from repro.obs import record_access

Binding = dict[str, Any]
Evaluator = Callable[[ast.Expression, Binding], Any]
Tick = Callable[..., None]
Row = tuple[Any, ...]

class PatternMatcher:
    """Matches planned patterns against a :class:`GraphStore`.

    ``tick`` is a cooperative-cancellation hook called from the matching
    inner loops; the engine wires it to the active query's guard so a
    runaway traversal can be aborted mid-match (admission control).

    The matcher holds no per-query state — one instance serves every
    concurrent query of an engine — so each call's state and memos live
    in an :class:`_Expansion` of its own.
    """

    def __init__(self, store: GraphStore, evaluate: Evaluator, tick: Tick):
        self._store = store
        self._evaluate = evaluate
        self._tick = tick

    def expand(self, plan: MatchPlan, binding: Binding) -> Iterator[Binding]:
        """The bindings of ``plan``'s patterns that extend ``binding``."""
        for variable, kind in plan.typed:
            value = binding.get(variable)
            if value is not None and not isinstance(value, kind):
                raise CypherRuntimeError(
                    f"variable {variable!r} is not a {kind.__name__.lower()}"
                )
        call = _Expansion(self, plan, binding)
        rows: list[Row] = [()]
        for step, keep in zip_longest(plan.expand, plan.keep):
            if not rows:
                return
            rows = call.start(step, rows) if step.kind == "start" else call.hop(step, rows, keep)
            if keep is not None:
                rows = _first_of_each(rows, keep)
        yield from call.materialize(rows)


def _first_of_each(rows: list[Row], columns: tuple[int, ...]) -> list[Row]:
    """The first row of each distinct tuple of ``columns``, in order."""
    key, seen = itemgetter(*columns) if columns else (lambda row: ()), set()
    return [row for row in rows if not ((k := key(row)) in seen or seen.add(k))]


class _Expansion:
    """One :meth:`PatternMatcher.expand` call: its plan, its incoming
    binding and the nodes it has fetched."""

    def __init__(self, matcher: PatternMatcher, plan: MatchPlan, binding: Binding):
        self.store, self.evaluate = matcher._store, matcher._evaluate
        self.tick, self.plan, self.binding = matcher._tick, plan, binding
        self.nodes: dict[int, Node] = {}

    def node(self, node_id: int) -> Node:
        node = self.nodes.get(node_id)
        if node is None:
            node = self.nodes[node_id] = self.store.get_node(node_id)
        return node

    def entity(self, kind: str, value: Any) -> Any:
        """The value of a ``node``, ``rel`` or ``rels`` column."""
        if kind == "node":
            return self.node(value)
        if kind == "rel":
            return self.store.get_relationship(value)
        return [self.store.get_relationship(rel_id) for rel_id in value]

    def scope(self, row: Row) -> Binding:
        """The binding plus the variables ``row`` holds so far: what an
        inline map reading earlier variables of the clause evaluates in."""
        scope = dict(self.binding)
        for variable, column, kind in self.plan.named:
            if column < len(row):
                scope[variable] = self.entity(kind, row[column])
        return scope

    def pushed(self, variable: str | None, same: int | None) -> tuple[ast.Expression, ...]:
        """The filters to check when ``variable`` binds here: none where
        an earlier column already bound it."""
        return () if same is not None else self.plan.pushed.get(variable or "", ())

    def holds(
        self, element: ast.NodePattern | ast.RelPattern, entity: Any, scope: Binding
    ) -> bool:
        """``element``'s inline map holds for ``entity``."""
        for key, value in element.properties:
            if equals(entity.properties.get(key), self.evaluate(value, scope)) is not True:
                return False
        return True

    def admits(
        self,
        element: ast.NodePattern | ast.RelPattern,
        entity: Any,
        scope: Binding,
        pushed: tuple[ast.Expression, ...],
        properties: bool = True,
    ) -> bool:
        """Inline map, then the variable: equal to its incoming value,
        or — newly bound — passing its pushed filters."""
        if properties and not self.holds(element, entity, scope):
            return False
        variable = element.variable
        if variable in self.binding:
            return self.binding[variable] == entity
        if not pushed:
            return True
        inner = dict(scope)
        inner[variable or ""] = entity
        return all(is_truthy(self.evaluate(p, inner)) for p in pushed)

    # ------------------------------------------------------------------
    # Levels
    # ------------------------------------------------------------------

    def start(self, step: ExpandStep, rows: list[Row]) -> list[Row]:
        """A pattern's first column: the node a row already holds, or its
        anchor's admitted candidates — found once and crossed with every
        row, unless an inline map reads the row."""
        node, source, per_row, tick = step.node, step.source, step.per_row, self.tick
        pushed = self.pushed(node.variable, source)
        binds = 0

        def admitted(row: Row) -> list[int]:
            nonlocal binds
            scope = self.scope(row) if per_row else self.binding
            if source is not None:
                candidates: Any = (self.node(row[source]),)
            else:
                candidates = self.candidates(step, scope)
            ids = []
            for candidate in candidates:
                tick()
                binds += 1
                if candidate.labels.issuperset(node.labels) and self.admits(
                    node, candidate, scope, pushed
                ):
                    self.nodes[candidate.id] = candidate
                    ids.append(candidate.id)
            return ids

        try:
            shared = None if source is not None or per_row else admitted(())
            grown: list[Row] = []
            for row in rows:
                tick()
                ids = admitted(row) if shared is None else shared
                grown.extend([row + (node_id,) for node_id in ids])
            return grown
        finally:
            if binds:
                record_access("bind_attempt", binds)

    def hop(
        self, step: ExpandStep, rows: list[Row], keep: tuple[int, ...] | None
    ) -> list[Row]:
        """One relationship level: per row, the admitted (relationship,
        node) pairs leaving the node in column ``step.source``.  A single
        hop asks the store once per type for the level's distinct sources
        and once for their neighbours' labels.  Per row only the checks
        that read the row run, in the walk's order; with none, a source's
        pairs are admitted for its first row and copied onto later ones."""
        store, tick, binding = self.store, self.tick, self.binding
        rel, node, source = step.rel, step.node, step.source
        assert rel is not None and source is not None
        single, per_row, labels = step.kind == "hop", step.per_row, node.labels
        exclusive, exclusive_paths = step.exclusive, step.exclusive_paths
        same_rel, same_node = step.same_rel, step.same_node
        rel_pushed = self.pushed(rel.variable, same_rel)
        node_pushed = self.pushed(node.variable, same_node)
        # Beyond type and isomorphism; a tuple's inline map is checked
        # per relationship while searching.
        check_rel = bool(
            (single and rel.properties) or rel_pushed or rel.variable in binding
        )
        check_node = bool(node.properties or node_pushed or node.variable in binding)
        by_row = per_row or exclusive or exclusive_paths or same_rel is not None
        if single:
            sources = list(dict.fromkeys(map(itemgetter(source), rows)))
            first, *others = rel.types or (None,)
            expansions = dict(zip(sources, store.expand_level(sources, step.direction, first)))
            for rel_type in others:
                level = store.expand_level(sources, step.direction, rel_type)
                for key, pairs in zip(sources, level, strict=True):
                    expansions[key] = expansions[key] + pairs
            # Copies of one fact differ only in the relationship: where
            # nothing checks, reads or keeps it, the first stands for all.
            if keep is not None and len(rows[0]) not in keep and not (check_rel or by_row):
                for key, pairs in expansions.items():
                    seen: set[int] = set()
                    expansions[key] = [p for p in pairs if not (p[1] in seen or seen.add(p[1]))]
            ends = {other for pairs in expansions.values() for _, other in pairs}
            labelled = store.having_labels(ends, labels) if labels else ends
        admitted: dict[int, list[tuple[Any, int]]] = {}
        rel_verdicts: dict[Any, bool] = {}
        verdicts: dict[int, bool] = {}
        grown: list[Row] = []
        for row in rows:
            if single:
                tick(len(expansions[row[source]]))
            if (pairs := admitted.get(row[source])) is None:
                scope = self.scope(row) if per_row else binding
                pairs = []
                for slot, other in (
                    expansions[row[source]] if single else self.search(step, row, scope)
                ):
                    if single:
                        if exclusive and any(row[i] == slot for i in exclusive):
                            continue
                        if exclusive_paths and any(slot in row[i] for i in exclusive_paths):
                            continue
                    elif step.reverse:
                        slot = slot[::-1]
                    if check_rel:
                        verdict = None if per_row else rel_verdicts.get(slot)
                        if verdict is None:
                            entity = self.entity("rel" if single else "rels", slot)
                            verdict = rel_verdicts[slot] = self.admits(
                                rel, entity, scope, rel_pushed, single
                            )
                        if not verdict:
                            continue
                    if same_rel is not None and row[same_rel] != slot:
                        continue
                    verdict = None if per_row else verdicts.get(other)
                    if verdict is None:
                        if labels and not (
                            other in labelled if single
                            else store.node_labels(other).issuperset(labels)
                        ):
                            verdict = False
                        elif check_node:
                            # The node's inline map may read the relationship
                            # just traversed.
                            node_scope = self.scope(row + (slot,)) if per_row else binding
                            verdict = self.admits(
                                node, self.node(other), node_scope, node_pushed
                            )
                        else:
                            verdict = True
                        verdicts[other] = verdict
                    if verdict and (same_node is None or row[same_node] == other):
                        pairs.append((slot, other))
                if single and not by_row and same_node is None:
                    admitted[row[source]] = pairs
            grown += [row + pair for pair in pairs]
        return grown

    def search(
        self, step: ExpandStep, row: Row, scope: Binding
    ) -> Iterator[tuple[tuple[int, ...], int]]:
        """A variable-length hop's ``(relationship ids, end node)`` pairs
        from the row's source node, in traversal order: depth first from
        a stack, or — ``shortestPath`` — breadth first with one path per
        end node.  A relationship is used at most once per row; its
        variable binds later, its inline map is checked here."""
        store, tick, rel = self.store, self.tick, step.rel
        assert rel is not None and step.source is not None
        direction = step.direction
        used = {row[i] for i in step.exclusive}
        used.update(rel_id for i in step.exclusive_paths for rel_id in row[i])

        def incident(node_id: int) -> Iterator[tuple[int, int]]:
            for rel_type in rel.types or (None,):
                for rel_id, other in store.expand_ids(node_id, direction, rel_type):
                    if rel_id not in used:
                        yield rel_id, other

        def holds(rel_id: int) -> bool:
            return self.holds(rel, store.get_relationship(rel_id), scope)

        start = row[step.source]
        if step.kind == "shortest":
            limit = 10**9 if rel.max_hops == -1 else max(rel.max_hops, 1)
            visited = {start}
            frontier: list[tuple[int, tuple[int, ...]]] = [(start, ())]
            depth = 0
            while frontier and depth < limit:
                depth += 1
                next_frontier = []
                for node_id, path in frontier:
                    for rel_id, other in incident(node_id):
                        tick()
                        if other in visited or not holds(rel_id):
                            continue
                        visited.add(other)
                        extended = path + (rel_id,)
                        next_frontier.append((other, extended))
                        if depth >= rel.min_hops:
                            yield extended, other
                frontier = next_frontier
            return
        limit = 10**9 if rel.max_hops == -1 else rel.max_hops
        stack: list[tuple[int, tuple[int, ...]]] = [(start, ())]
        while stack:
            tick()
            node_id, path = stack.pop()
            if len(path) >= rel.min_hops:
                yield path, node_id
            if len(path) < limit:
                stack.extend(
                    (other, path + (rel_id,))
                    for rel_id, other in incident(node_id)
                    if rel_id not in path and holds(rel_id)
                )

    # ------------------------------------------------------------------
    # Anchor candidates and materialization
    # ------------------------------------------------------------------

    def candidates(self, step: ExpandStep, scope: Binding) -> Iterator[Node]:
        """The nodes the step's anchor says to try for its node."""
        anchor, variable = step.anchor, step.node.variable
        assert anchor is not None
        if anchor.access == "bound":
            value = scope[variable or ""]
            if value is not None:
                yield value
        elif anchor.seek is not None and anchor.label is not None:
            key, value_expr = anchor.seek
            value = self.evaluate(value_expr, scope)
            yield from self.store.find_nodes(anchor.label, key, value)
        elif anchor.label is not None:
            yield from self.store.nodes_with_label(anchor.label)
        else:
            # Stream the full scan: clauses drain the matcher before any
            # mutation clause runs, so the store cannot change mid-iteration.
            yield from self.store.iter_nodes()

    def materialize(self, rows: list[Row]) -> Iterator[Binding]:
        """One binding per row: one lookup per named element and id —
        under set semantics, per read one."""
        nodes, get_node = self.nodes, self.store.get_node
        get_relationship = self.store.get_relationship
        named, distinct = self.plan.named, self.plan.distinct
        if distinct is not None:
            named = tuple(entry for entry in named if entry[0] in distinct)
        for row in rows:
            out = dict(self.binding)
            for variable, column, kind in named:
                if kind == "node":  # the hot case, looked up inline
                    node = nodes.get(row[column])
                    if node is None:
                        node = nodes[row[column]] = get_node(row[column])
                    out[variable] = node
                else:
                    out[variable] = self.entity(kind, row[column])
            for variable, first, rel_columns in self.plan.paths:
                current = row[first]
                path = Path([self.node(current)])
                for column in rel_columns:
                    slot = row[column]
                    for rel_id in slot if isinstance(slot, tuple) else (slot,):
                        relationship = get_relationship(rel_id)
                        current = relationship.other_end(current)
                        path += (relationship, self.node(current))
                out[variable] = path
            yield out
