"""Advancing planner statistics and the analytics report by a changelog.

A full :func:`repro.analytics.statistics.compute_statistics` pass is
O(nodes + relationships) — exactly the cost the delta path exists to
avoid.  Everything it measures except the component structure is a sum
over nodes of a per-node contribution (the node's labels times its
per-type degrees), so it can be advanced from the store's own change
events (:meth:`GraphStore.track_changes`) in O(touched nodes):

* the node/relationship/label/type counts are O(#labels) reads of the
  store's indexes;
* for every node an event touched, the state *after* is read off the
  store and the state *before* is recovered by reversing the events on
  that node (degrees minus the net of its created/deleted edges, labels
  minus the ones it gained); the node's before-contribution is taken
  out of the expansion totals and degree histograms and its
  after-contribution put in.  Each old expansion mean is
  ``total / population`` with both integers, so the old total is
  recovered exactly by rounding ``mean * old_population``;
* the component figures are the one thing that needs a pass over the
  graph: they are carried over while no event changed the graph's
  shape, and otherwise reset to "not measured" (0, like
  ``compute_statistics(components=False)``) rather than left stale.

:func:`refresh_statistics` is what a serving replica calls after
``apply_delta``; :func:`refresh_analytics` is the incremental build's:
it re-runs the precompute procedures on top, and their one component
pass fills the figures back in.  Both are tested equal to the
from-scratch functions on the same store.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Iterable, Sequence

from repro.analytics.measures import DIRECTION_NAMES
from repro.analytics.registry import PROCEDURES, ProcedureContext
from repro.analytics.report import COMPONENTS, AnalyticsReport, component_sizes
from repro.analytics.statistics import GraphStatistics
from repro.graphdb.store import (
    STRUCTURAL_EVENT_KINDS,
    ChangeEvent,
    GraphStore,
    directional_count,
)

#: ``{rel_type: (out, in, loops)}``, as ``GraphStore.typed_degrees`` returns.
_Degrees = dict[str, tuple[int, int, int]]
#: A node's contribution to the statistics: its labels and typed degrees.
_Profile = tuple[frozenset[str], _Degrees]


def _structural(events: Iterable[ChangeEvent]) -> bool:
    return any(event.kind in STRUCTURAL_EVENT_KINDS for event in events)


def _edge_of(event: ChangeEvent) -> tuple[str, int, int]:
    """``(type, start, end)`` off a ``rel_deleted`` event's before-image."""
    assert event.rel_type is not None
    assert event.start_id is not None and event.end_id is not None
    return event.rel_type, event.start_id, event.end_id


def _profiles(
    store: GraphStore, events: Sequence[ChangeEvent]
) -> list[tuple[_Profile | None, _Profile | None]]:
    """``(before, after)`` per node the events touched; None where the
    node did not exist."""
    deleted_edges = {
        event.entity_id: _edge_of(event)
        for event in events
        if event.kind == "rel_deleted"
    }
    net: dict[int, dict[str, list[int]]] = defaultdict(dict)
    gained: dict[int, set[str]] = defaultdict(set)
    created: set[int] = set()
    last_labels: dict[int, frozenset[str]] = {}

    def count_edge(rel_type: str, start_id: int, end_id: int, sign: int) -> None:
        net[start_id].setdefault(rel_type, [0, 0, 0])[0] += sign
        net[end_id].setdefault(rel_type, [0, 0, 0])[1] += sign
        if start_id == end_id:
            net[start_id][rel_type][2] += sign

    for event in events:
        kind = event.kind
        if kind == "rel_created":
            edge = deleted_edges.get(event.entity_id)
            if edge is None:
                rel = store.get_relationship(event.entity_id)
                edge = (rel.type, rel.start_id, rel.end_id)
            count_edge(*edge, +1)
        elif kind == "rel_deleted":
            count_edge(*deleted_edges[event.entity_id], -1)
        elif kind == "label_added":
            assert event.label is not None
            gained[event.entity_id].add(event.label)
        elif kind == "node_created":
            created.add(event.entity_id)
        elif kind == "node_deleted":
            last_labels[event.entity_id] = event.labels or frozenset()

    pairs: list[tuple[_Profile | None, _Profile | None]] = []
    for node_id in net.keys() | gained.keys() | created | last_labels.keys():
        after = None
        labels = last_labels.get(node_id, frozenset())
        degrees: _Degrees = {}
        if store.has_node(node_id):
            labels = store.node_labels(node_id)
            degrees = store.typed_degrees(node_id)
            after = (labels, degrees)
        before = None
        if node_id not in created:
            changes = net.get(node_id, {})
            was: _Degrees = {}
            for rel_type in degrees.keys() | changes.keys():
                now = degrees.get(rel_type, (0, 0, 0))
                change = changes.get(rel_type, (0, 0, 0))
                entry = (now[0] - change[0], now[1] - change[1], now[2] - change[2])
                if entry[0] or entry[1]:
                    was[rel_type] = entry
            before = (labels - gained.get(node_id, set()), was)
        if before != after:
            pairs.append((before, after))
    return pairs


def refresh_statistics(
    previous: GraphStatistics, store: GraphStore, events: Sequence[ChangeEvent]
) -> GraphStatistics:
    """Statistics for ``store`` after ``events``, without a full rescan.

    ``previous`` must describe the store as it was before ``events``.
    """
    # Net change per expansion total and per histogram bucket.
    shifts: dict[tuple[str, str, str], int] = defaultdict(int)
    moves: dict[tuple[str, str], dict[int, int]] = defaultdict(
        lambda: defaultdict(int)
    )
    born = 0  # nodes that appeared minus nodes that disappeared

    def count(profile: _Profile, sign: int, rel_keys: Iterable[str]) -> None:
        labels, degrees = profile
        whole = tuple(map(sum, zip(*degrees.values()))) or (0, 0, 0)
        for rel_key in rel_keys:
            out, inbound, loops = whole if rel_key == "*" else degrees.get(
                rel_key, (0, 0, 0)
            )
            for name, direction in DIRECTION_NAMES:
                moves[(rel_key, name)][
                    directional_count(out, inbound, loops, direction)
                ] += sign
            for label in labels:
                shifts[(label, rel_key, "out")] += sign * out
                shifts[(label, rel_key, "in")] += sign * inbound
                shifts[(label, rel_key, "both")] += sign * (out + inbound)

    for before, after in _profiles(store, events):
        # A node moves in the histograms of the types it touches.  One
        # that appears or disappears also counts at degree 0 in every
        # other histogram: ``born`` puts it at 0 in all of them below,
        # so here it is taken out of 0 where it really has a degree.
        involved = {"*"}.union(*(side[1] for side in (before, after) if side))
        for profile, sign in ((before, -1), (after, +1)):
            if profile is not None:
                count(profile, sign, involved)
        if before is None or after is None:
            arrival = +1 if before is None else -1
            born += arrival
            count((frozenset(), {}), -arrival, involved)

    label_counts = store.label_counts()
    type_counts = store.relationship_type_counts()
    expansions: dict[tuple[str, str, str], float] = {}
    for key in previous.expansions.keys() | shifts.keys():
        total = shifts.get(key, 0) + round(
            previous.expansions.get(key, 0.0) * previous.label_counts.get(key[0], 0)
        )
        population = label_counts.get(key[0], 0)
        if population and total:
            expansions[key] = total / population
    # Untouched histograms are shared with ``previous``, never mutated.
    histograms = dict(previous.degree_histograms)
    if born:
        for key in histograms.keys() | moves.keys():
            moves[key][0] += born
    for key, moved in moves.items():
        # A type (or "*") the graph did not have yet: every node sat at 0.
        histogram = defaultdict(
            int, histograms.get(key) or {0: previous.node_count}
        )
        for degree, nodes in moved.items():
            histogram[degree] += nodes
        histograms[key] = {
            degree: nodes for degree, nodes in histogram.items() if nodes
        }
    statistics = GraphStatistics(
        version=store.version,
        node_count=store.node_count,
        relationship_count=store.relationship_count,
        label_counts=label_counts,
        relationship_type_counts=type_counts,
        expansions=expansions,
        degree_histograms={
            key: histogram
            for key, histogram in histograms.items()
            if (store.node_count if key[0] == "*" else key[0] in type_counts)
        },
    )
    if not _structural(events):
        statistics.component_count = previous.component_count
        statistics.component_sizes = previous.component_sizes
    return statistics


def refresh_analytics(
    previous: AnalyticsReport, store: GraphStore, events: Sequence[ChangeEvent]
) -> AnalyticsReport:
    """The report ``compute_analytics_report(store)`` would return, from
    the report of the same store before ``events``.

    The statistics are advanced, ``algo.components`` keeps its rows
    unless an event changed the graph's shape, and every other
    precompute procedure re-runs (``algo.degree_distribution`` reads the
    advanced histogram; the AS-subgraph ones are cheap).
    """
    started = time.perf_counter()
    assert previous.statistics is not None
    statistics = refresh_statistics(previous.statistics, store, events)
    context = ProcedureContext(store, statistics)
    kept = {} if _structural(events) else {COMPONENTS: previous.procedures[COMPONENTS]}
    procedures = {
        name: kept[name] if name in kept else spec.run(context)
        for name, spec in PROCEDURES.items()
        if spec.precompute
    }
    statistics.set_component_sizes(component_sizes(procedures))
    return AnalyticsReport(
        version=store.version,
        seconds=time.perf_counter() - started,
        statistics=statistics,
        procedures=procedures,
    )
