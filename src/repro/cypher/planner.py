"""Cost-based planning for one MATCH clause.

Matching patterns in textual order and evaluating the whole WHERE only
after the full pattern product is enumerated gives the right answer
slowly.  The planner turns each MATCH clause into a :class:`MatchPlan`
that the engine and the matcher's batch operator execute instead:

- **Conjunct decomposition** — WHERE is split on top-level ``AND`` into
  conjuncts, each classified independently.  The conjunction is true
  exactly when every conjunct is true (three-valued logic included), so
  the split never changes which rows pass.
- **Prefilters** — conjuncts whose free variables are all bound by
  earlier clauses are evaluated once per incoming row, before any
  pattern matching starts.
- **Index-seek promotion** — ``x.prop = <value>`` conjuncts whose value
  does not depend on variables introduced by this MATCH are rewritten
  into the pattern's inline property map, which the matcher already
  turns into an index seek when a ``(label, prop)`` hash index exists.
  Inline maps and WHERE equality share the same semantics (the match
  requires ``equals(...) is True``), so the rewrite is exact.
- **Predicate pushdown** — remaining single-variable conjuncts
  (``STARTS WITH``, comparisons, ``IN``, pattern predicates over one
  known variable, ...) are attached to that variable and checked by the
  matcher the moment the variable binds, pruning the search tree
  instead of filtering its leaves.
- **Join ordering** — the patterns of a multi-pattern MATCH are
  reordered greedily: the cheapest pattern (by estimated anchor
  cardinality) binds first, then patterns connected to already-bound
  variables are preferred over disconnected ones so selective joins
  run before any cartesian product.  Result multisets are order
  independent — relationship isomorphism is enforced over the whole
  clause regardless of pattern order — so reordering is safe.
- **Expansion steps** — the ordered patterns become one list of
  :class:`ExpandStep`, the levels the batch operator grows its id rows
  by: each later pattern extends the same row, anchored on a node the
  row already holds or on its own anchor.
- **Set semantics** — when the engine says only distinct values of
  some variables (``read``) matter downstream, each level keeps the
  first row of every distinct tuple of the columns still needed: the
  read variables bound so far and every column a later step uses.

Everything that cannot be classified stays in ``residual`` and is
evaluated on complete bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Mapping, NamedTuple, TypeVar

from repro.cypher import ast
from repro.cypher.errors import CypherRuntimeError
from repro.cypher.render import PLAIN
from repro.graphdb.model import Direction, Node, Relationship
from repro.graphdb.store import GraphStore

__all__ = [
    "Anchor",
    "MatchPlan",
    "choose_anchor",
    "plan_match",
    "split_conjuncts",
    "free_variables",
    "render_expression",
]

_Element = TypeVar("_Element", ast.NodePattern, ast.RelPattern)
Named = tuple[str, int, str]
PathColumns = tuple[str, int, tuple[int, ...]]
Typed = tuple[tuple[str, type], ...]
#: A relationship's direction when it is walked against its pattern.
_REVERSED = {"out": "in", "in": "out", "both": "both"}


# ---------------------------------------------------------------------------
# Conjunct decomposition and free-variable analysis
# ---------------------------------------------------------------------------


def split_conjuncts(expression: ast.Expression | None) -> list[ast.Expression]:
    """Flatten top-level ``AND`` into a list of conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, ast.BinaryOp) and expression.op == "and":
        return split_conjuncts(expression.left) + split_conjuncts(expression.right)
    return [expression]


def conjoin(conjuncts: list[ast.Expression]) -> ast.Expression | None:
    """Rebuild a conjunction from a (possibly empty) conjunct list."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = ast.BinaryOp("and", result, conjunct)
    return result


def free_variables(expression: ast.Expression | None) -> frozenset[str]:
    """Variable names an expression reads from the enclosing scope.

    Locally-scoped names (list-comprehension / list-predicate /
    ``reduce`` iteration variables) are excluded.  Pattern predicates
    conservatively report *every* variable their pattern mentions, even
    ones that would bind existentially — over-reporting keeps a
    conjunct out of the pushdown set, never produces a wrong plan.
    """
    names: set[str] = set()
    if expression is None:
        return frozenset()
    for node, scoped in expression.walk():
        if isinstance(node, ast.Variable):
            if node.name not in scoped:
                names.add(node.name)
        elif isinstance(node, ast.PatternPredicate):
            names.update(node.pattern.variables() - scoped)
    return frozenset(names)


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------


@dataclass
class MatchPlan:
    """How one MATCH clause executes: pattern order, pushdown, residue."""

    #: Patterns in execution (join) order, with promoted equalities
    #: already folded into their inline property maps.
    patterns: tuple[ast.PathPattern, ...]
    #: ``order[i]`` is the textual index of ``patterns[i]``.
    order: tuple[int, ...]
    #: ``anchors[i]`` is where ``patterns[i]`` starts, chosen against the
    #: incoming variables plus everything ``patterns[:i]`` bind — the
    #: matcher executes it as given.
    anchors: tuple[Anchor, ...]
    #: The batch operator's steps over every pattern, in plan order.
    expand: tuple[ExpandStep, ...]
    #: ``(variable, column, kind)`` per variable the clause introduces;
    #: kind is ``node``, ``rel`` or ``rels`` (a variable-length list).
    named: tuple[Named, ...]
    #: ``(path variable, first node's column, relationship columns in
    #: pattern order)`` per named path.
    paths: tuple[PathColumns, ...]
    #: ``(variable, Node | Relationship)`` per bound variable the steps
    #: use as a node or a single-hop relationship, which a value must be.
    typed: Typed = ()
    #: Bind-time predicates, keyed by the variable that triggers them.
    pushed: dict[str, tuple[ast.Expression, ...]] = field(default_factory=dict)
    #: Promoted equalities per variable, for EXPLAIN: (key, value expr).
    promoted: dict[str, tuple[tuple[str, ast.Expression], ...]] = field(
        default_factory=dict
    )
    #: Conjuncts decided per incoming row, before matching starts.
    prefilters: tuple[ast.Expression, ...] = ()
    #: What remains of WHERE, evaluated on complete bindings.
    residual: ast.Expression | None = None
    #: Estimated result cardinality per pattern (aligned with
    #: ``patterns``), only present when the plan was built with
    #: measured :class:`repro.analytics.GraphStatistics`.
    estimates: tuple[float, ...] | None = None
    #: Set semantics: the introduced variables read later, which rows are
    #: distinct on; per ``expand`` step, the columns deduplicated on (the
    #: first row kept).  None keeps every row.
    distinct: tuple[str, ...] | None = None
    keep: tuple[tuple[int, ...] | None, ...] = ()

    @property
    def reordered(self) -> bool:
        return self.order != tuple(range(len(self.order)))

    def pushed_count(self) -> int:
        return sum(len(preds) for preds in self.pushed.values()) + sum(
            len(pairs) for pairs in self.promoted.values()
        )

    def describe_anchors(self) -> list[str]:
        """Where each pattern starts, in plan order, for EXPLAIN and
        PROFILE: anchor element, access path, estimated cardinality."""
        lines = []
        for pattern, anchor in zip(self.patterns, self.anchors, strict=True):
            node = pattern.nodes[anchor.position]
            label = f":{node.labels[0]}" if node.labels else "(any)"
            lines.append(
                f"anchor={label} pos={anchor.position} "
                f"access={anchor.access} est={anchor.cost}"
            )
        return lines

    def describe_predicates(self) -> list[str]:
        """EXPLAIN lines for the pushdown decisions, one per predicate,
        then set semantics (the last line, PROFILE's too)."""
        lines: list[str] = []
        for expr in self.prefilters:
            lines.append(f"prefilter: {render_expression(expr)}")
        for var in sorted(self.promoted):
            for key, value in self.promoted[var]:
                lines.append(
                    f"pushed seek {var}.{key} = {render_expression(value)}"
                )
        for var in sorted(self.pushed):
            for expr in self.pushed[var]:
                lines.append(f"pushed filter [{var}]: {render_expression(expr)}")
        if self.residual is not None:
            lines.append(f"residual: {render_expression(self.residual)}")
        if self.distinct is not None:
            lines.append(f"distinct rows on {', '.join(self.distinct) or '<none>'}")
        return lines


def plan_match(
    patterns: tuple[ast.PathPattern, ...],
    where: ast.Expression | None,
    store: GraphStore,
    bound: frozenset[str] = frozenset(),
    statistics=None,
    read: frozenset[str] | None = None,
) -> MatchPlan:
    """Plan one MATCH clause.

    ``bound`` is the set of variables already carried by the incoming
    rows (identical for every row of a pipeline stage); conjuncts that
    only touch those become prefilters, and promoted equality values may
    reference them.

    ``statistics`` is an optional :class:`repro.analytics.
    GraphStatistics`.  When given, join ordering ranks patterns by
    estimated cardinality — anchor population times the measured mean
    fan-out of every expansion hop — instead of anchor cost alone, and
    the per-pattern estimates are recorded on the plan for EXPLAIN.
    Without it, planning is byte-identical to the uniform-cost model.

    ``read``: the variables read after the clause if only their distinct
    values matter there (the engine decides); see :func:`_distinct_columns`.
    """
    # Pushdown targets: node and relationship variables.  A path
    # variable binds only after its whole path materializes.
    bindable = {
        name
        for pattern in patterns
        for name in pattern.variables()
        if name != pattern.path_variable
    }
    prefilters: list[ast.Expression] = []
    pushed: dict[str, list[ast.Expression]] = {}
    promotions: dict[str, list[tuple[str, ast.Expression]]] = {}
    residual: list[ast.Expression] = []
    for conjunct in split_conjuncts(where):
        free = free_variables(conjunct)
        introduced = free - bound
        if not introduced:
            prefilters.append(conjunct)
            continue
        if len(introduced) > 1 or not introduced <= bindable:
            residual.append(conjunct)
            continue
        (variable,) = introduced
        promotion = _as_promotable_equality(conjunct, variable, bound)
        if promotion is not None:
            promotions.setdefault(variable, []).append(promotion)
        else:
            pushed.setdefault(variable, []).append(conjunct)
    rewritten = tuple(_apply_promotions(p, promotions) for p in patterns)
    order, anchors, estimates = _order_patterns(rewritten, store, bound, statistics)
    ordered = tuple(rewritten[i] for i in order)
    expand, named, paths, typed = _expand_steps(ordered, anchors, bound)
    distinct, keep = None, ()
    if read is not None:
        read = read.union(*map(free_variables, residual))
        distinct, keep = _distinct_columns(expand, named, read)
    return MatchPlan(
        patterns=ordered,
        order=order,
        anchors=anchors,
        expand=expand,
        named=named,
        paths=paths,
        typed=typed,
        pushed={var: tuple(preds) for var, preds in pushed.items()},
        promoted={var: tuple(pairs) for var, pairs in promotions.items()},
        prefilters=tuple(prefilters),
        residual=conjoin(residual),
        estimates=estimates,
        distinct=distinct,
        keep=keep,
    )


class ExpandStep(NamedTuple):
    """One level of a batch expansion, which grows rows of ids.

    A ``start`` step begins a pattern with its node's id, drawn from
    ``anchor`` or copied from column ``source``.  Any other step leaves
    the node in column ``source`` over ``rel`` (walked ``direction``,
    ``reverse`` if right to left) and adds the relationship — an id, or
    for ``varlength`` / ``shortest`` an id tuple in pattern order — and
    ``node``.  ``exclusive`` / ``exclusive_paths``: columns of earlier
    ids / id tuples whose types can overlap, the only ones isomorphism
    compares.  ``same_node`` / ``same_rel``: the column already holding
    the variable.  ``per_row``: an inline map reads a variable bound
    earlier in the clause, so verdicts are per row, not per id."""

    kind: str
    rel: ast.RelPattern | None
    node: ast.NodePattern
    anchor: Anchor | None
    direction: Direction | None
    source: int | None
    exclusive: tuple[int, ...]
    exclusive_paths: tuple[int, ...]
    same_node: int | None
    same_rel: int | None
    reverse: bool
    per_row: bool


def _expand_steps(
    patterns: tuple[ast.PathPattern, ...],
    anchors: tuple[Anchor, ...],
    bound: frozenset[str],
) -> tuple[tuple[ExpandStep, ...], tuple[Named, ...], tuple[PathColumns, ...], Typed]:
    """The batch operator's steps for a clause's patterns in plan order,
    each pattern from its anchor: hops right of it first, then the left
    ones, which is the order a backtracking walk takes.  Also returns the
    :attr:`MatchPlan.named`, ``paths`` and ``typed`` columns."""
    steps: list[ExpandStep] = []
    named: dict[str, Named] = {}
    typed: dict[tuple[str, type], None] = {}
    earlier: dict[bool, list[tuple[int, ast.RelPattern]]] = {True: [], False: []}
    paths: list[PathColumns] = []

    def claim(variable: str | None, column: int, kind: str) -> int | None:
        """The column already holding ``variable``, or None after noting
        that ``column`` introduces it."""
        if variable in bound and kind != "rels":
            typed[variable or "", Node if kind == "node" else Relationship] = None
        if not variable or variable in bound:
            return None
        if variable in named:
            return named[variable][1]
        named[variable] = (variable, column, kind)
        return None

    def per_row(*elements: ast.NodePattern | ast.RelPattern) -> bool:
        return any(
            not free_variables(value) <= bound
            for element in elements
            for _, value in element.properties
        )

    def overlapping(rel: ast.RelPattern, single: bool) -> tuple[int, ...]:
        return tuple(
            column
            for column, other in earlier[single]
            if not rel.types or not other.types or set(rel.types) & set(other.types)
        )

    width = 0
    for pattern, anchor in zip(patterns, anchors, strict=True):
        rels = pattern.relationships
        node_columns = [0] * len(pattern.nodes)
        rel_columns = [0] * len(rels)
        start = pattern.nodes[anchor.position]
        source = claim(start.variable, width, "node")
        if source is not None and named[start.variable or ""][2] != "node":
            raise CypherRuntimeError(f"variable {start.variable!r} is not a node")
        steps.append(
            ExpandStep(
                "start", None, start, anchor, None, source, (), (), source, None,
                False, per_row(start),
            )
        )
        node_columns[anchor.position] = width
        width += 1
        right = [(hop, False) for hop in range(anchor.position, len(rels))]
        left = [(hop, True) for hop in range(anchor.position - 1, -1, -1)]
        for hop, reverse in right + left:
            rel = rels[hop]
            direction = Direction(_REVERSED[rel.direction] if reverse else rel.direction)
            kind = "varlength" if rel.is_variable_length else "hop"
            kind = "shortest" if pattern.shortest else kind
            single = kind == "hop"
            # A hop leaves from the node the hop before it reached; the
            # first left hop leaves from the anchor.
            source = node_columns[hop + 1 if reverse else hop]
            target = pattern.nodes[hop if reverse else hop + 1]
            same_rel = claim(rel.variable, width, "rel" if single else "rels")
            same_node = claim(target.variable, width + 1, "node")
            steps.append(
                ExpandStep(
                    kind, rel, target, None, direction, source,
                    overlapping(rel, True), overlapping(rel, False),
                    same_node, same_rel, reverse, per_row(rel, target),
                )
            )
            earlier[single].append((width, rel))
            rel_columns[hop] = width
            node_columns[hop if reverse else hop + 1] = width + 1
            width += 2
        if pattern.path_variable:
            paths.append((pattern.path_variable, node_columns[0], tuple(rel_columns)))
    return tuple(steps), tuple(named.values()), tuple(paths), tuple(typed)


def _distinct_columns(
    steps: tuple[ExpandStep, ...], named: tuple[Named, ...], read: frozenset[str]
) -> tuple[tuple[str, ...], tuple[tuple[int, ...] | None, ...]]:
    """The read variables among ``named``; per level, the columns still
    needed: read ones bound so far and any a later step uses.  None (every
    row) where that is all of them, since distinct paths never share every
    column, and before a ``per_row`` step, whose inline map may read any
    column."""
    keep: list[tuple[int, ...] | None] = []
    width = 0
    for index, step in enumerate(steps):
        width += 1 if step.kind == "start" else 2
        later = steps[index + 1 :]
        needed = {column for name, column, _ in named if name in read}
        for other in later:
            needed.update(other.exclusive, other.exclusive_paths)
            needed.update((other.source, other.same_node, other.same_rel))
        needed &= set(range(width))
        full = any(other.per_row for other in later) or len(needed) == width
        keep.append(None if full else tuple(sorted(needed)))
    return tuple(name for name, _, _ in named if name in read), tuple(keep)


def _as_promotable_equality(
    conjunct: ast.Expression, variable: str, bound: frozenset[str]
) -> tuple[str, ast.Expression] | None:
    """``x.prop = value`` (either side) with ``value`` independent of the
    variables this MATCH introduces -> ``(prop, value)``, else None."""
    if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "eq"):
        return None
    for subject, value in ((conjunct.left, conjunct.right), (conjunct.right, conjunct.left)):
        if (
            isinstance(subject, ast.PropertyAccess)
            and isinstance(subject.subject, ast.Variable)
            and subject.subject.name == variable
            and free_variables(value) <= bound
        ):
            return (subject.key, value)
    return None


def _apply_promotions(
    pattern: ast.PathPattern,
    promotions: Mapping[str, list[tuple[str, ast.Expression]]],
) -> ast.PathPattern:
    """Fold promoted equalities into the pattern's inline property maps."""
    if not promotions:
        return pattern

    def promoted(element: _Element) -> _Element:
        extra = promotions.get(element.variable or "", ())
        # Compared as rendered text: the AST's own equality takes the
        # literal ``true`` for ``1``, which Cypher's ``=`` does not.
        written = {(key, PLAIN.expression(value)) for key, value in element.properties}
        additions = tuple(
            (key, value)
            for key, value in extra
            if (key, PLAIN.expression(value)) not in written
        )
        if not additions:
            return element
        return replace(element, properties=element.properties + additions)

    nodes = tuple(promoted(node) for node in pattern.nodes)
    relationships = tuple(promoted(rel) for rel in pattern.relationships)
    if nodes == pattern.nodes and relationships == pattern.relationships:
        return pattern
    return replace(pattern, nodes=nodes, relationships=relationships)


# ---------------------------------------------------------------------------
# Join ordering
# ---------------------------------------------------------------------------


def _order_patterns(
    patterns: tuple[ast.PathPattern, ...],
    store: GraphStore,
    bound: frozenset[str],
    statistics=None,
) -> tuple[tuple[int, ...], tuple[Anchor, ...], tuple[float, ...] | None]:
    """Greedy join order: cheapest anchor first, then always prefer
    patterns connected (by a shared variable) to what is already bound,
    cheapest connected pattern next.  Disconnected patterns — genuine
    cartesian products — run last, when the bound side is as small as
    the plan can make it.

    With ``statistics``, "cheapest" means smallest *estimated result
    cardinality* (anchor population times measured per-hop fan-out)
    rather than smallest anchor, and the estimate per chosen pattern is
    returned alongside the order.  The anchor each pattern was costed
    with — against exactly the variables bound when it runs — is
    returned too, so the matcher never re-derives it.
    """
    remaining = set(range(len(patterns)))
    available = set(bound)
    order: list[int] = []
    anchors: list[Anchor] = []
    estimates: list[float] = []
    variables = [pattern.variables() for pattern in patterns]
    while remaining:
        connected = [i for i in remaining if variables[i] & available]
        ranked = [
            (_pattern_cost(patterns[i], available, store, statistics), i)
            for i in connected or sorted(remaining)
        ]
        (cost, anchor), best = min(ranked, key=lambda entry: (entry[0][0], entry[1]))
        order.append(best)
        anchors.append(anchor)
        estimates.append(cost)
        remaining.discard(best)
        available |= variables[best]
    return (
        tuple(order),
        tuple(anchors),
        tuple(estimates) if statistics is not None else None,
    )


def _pattern_cost(
    pattern: ast.PathPattern,
    available: set[str],
    store: GraphStore,
    statistics=None,
) -> tuple[float, Anchor]:
    """What running ``pattern`` next would cost, and the anchor that
    cost assumes.  Without ``statistics`` the cost is the anchor's
    estimated cardinality alone; with them it is the estimated rows the
    pattern produces: the anchor's population multiplied by the measured
    mean fan-out of each expansion hop walking away from it.

    Fan-out for a hop is :meth:`GraphStatistics.expansion` for the
    source node's label (smallest-population label when several),
    summed over the relationship's admissible types; a hop traversed
    against its arrow flips the direction it asks for.
    """
    anchor = choose_anchor(pattern, available, store)
    if statistics is None:
        return anchor.cost, anchor
    estimate = float(anchor.cost)
    # Expand rightward from the anchor, then leftward; each hop
    # multiplies by the measured fan-out of its source node.
    for hop in range(anchor.position, len(pattern.relationships)):
        estimate *= _hop_fanout(
            pattern.nodes[hop], pattern.relationships[hop], statistics, False
        )
    for hop in range(anchor.position - 1, -1, -1):
        estimate *= _hop_fanout(
            pattern.nodes[hop + 1], pattern.relationships[hop], statistics, True
        )
    return estimate, anchor


def _hop_fanout(
    source: ast.NodePattern,
    rel: ast.RelPattern,
    statistics,
    reverse: bool,
) -> float:
    """Mean number of neighbours one expansion step yields."""
    direction = _REVERSED[rel.direction] if reverse else rel.direction
    label: str | None = None
    if source.labels:
        label = min(
            source.labels,
            key=lambda candidate: statistics.label_counts.get(candidate, 0),
        )
    if rel.types:
        fanout = sum(
            statistics.expansion(label, rel_type, direction)
            for rel_type in rel.types
        )
    else:
        fanout = statistics.expansion(label, None, direction)
    if rel.is_variable_length:
        # Crude but monotone: a variable-length hop repeats its fan-out
        # up to max_hops times (treat unbounded as 3 levels).
        hops = rel.max_hops if rel.max_hops != -1 else 3
        total = 0.0
        level = 1.0
        for _ in range(max(hops, 1)):
            level *= fanout
            total += level
        return total
    return fanout


# ---------------------------------------------------------------------------
# Anchor selection — the one cost model (MATCH, MERGE, pattern predicates)
# ---------------------------------------------------------------------------


class Anchor(NamedTuple):
    """Where one pattern's expansion starts and how its candidates are
    produced; the matcher executes it without consulting the store's
    statistics again."""

    #: Index into ``pattern.nodes``.
    position: int
    #: Estimated candidate count (the cost model's input).
    cost: int
    #: ``bound`` | ``index seek`` | ``label scan`` | ``all-nodes scan``.
    access: str
    #: The label scanned or seeked (None for bound / all-nodes).
    label: str | None
    #: ``(key, value expression)`` of the inline property to seek on.
    seek: tuple[str, ast.Expression] | None


def _node_cost(
    node: ast.NodePattern, available: Collection[str], store: GraphStore
) -> tuple[int, str, str | None, tuple[str, ast.Expression] | None]:
    """``(cost, access, label, seek)`` of the cheapest way to produce one
    node pattern's candidates: bound variable < index seek < smallest
    label scan < all-nodes scan."""
    if node.variable and node.variable in available:
        return 0, "bound", None, None
    best: tuple[int, str, str | None, tuple[str, ast.Expression] | None] | None = None
    for label in node.labels:
        # label_count probes the index size without materializing nodes
        # (or counting as a label scan in profiles).
        count = store.label_count(label)
        seek = next(
            (pair for pair in node.properties if store.has_index(label, pair[0])),
            None,
        )
        access = "label scan"
        if seek is not None:
            count, access = min(count, 2), "index seek"  # near-constant
        if best is None or count + 1 < best[0]:
            best = (count + 1, access, label, seek)
    return best or (store.node_count + 2, "all-nodes scan", None, None)


def choose_anchor(
    pattern: ast.PathPattern, available: Collection[str], store: GraphStore
) -> Anchor:
    """The cheapest node of ``pattern`` to start from (leftmost on
    ties), given the names already bound when the pattern runs."""
    costs = [_node_cost(node, available, store) for node in pattern.nodes]
    position = min(range(len(costs)), key=lambda index: costs[index][0])
    return Anchor(position, *costs[position])


def render_expression(expression: ast.Expression | None) -> str:
    """The EXPLAIN text of an expression (:data:`repro.cypher.render.PLAIN`)."""
    return "<none>" if expression is None else PLAIN.expression(expression)
