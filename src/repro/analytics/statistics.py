"""Graph statistics for the cost-based planner and reporting.

:class:`GraphStatistics` snapshots the measured shape of a store —
label populations, per-type degree histograms, per-(label, type) mean
expansion factors, and component structure.  The Cypher planner
(:mod:`repro.cypher.planner`) consumes it, when attached to an engine,
to replace its uniform-cost guesses with real cardinality estimates;
the build pipeline embeds it in the :class:`~repro.analytics.report.
AnalyticsReport` cached alongside snapshots.

Everything but the components comes from one walk over the store's
nodes: one ``typed_degrees`` and one ``node_labels`` call per node,
never a per-relationship lookup.  The components are one union-find
pass over ``iter_edges``.  The result serializes to plain JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.analytics.measures import DIRECTION_NAMES, weakly_connected_components
from repro.graphdb.interface import GraphReadStore
from repro.graphdb.store import directional_count

#: How many of the largest component sizes to retain in the summary.
TOP_COMPONENT_SIZES = 10


@dataclass
class GraphStatistics:
    """Measured cardinalities of one store generation."""

    #: The store's mutation counter when the statistics were computed.
    version: int = 0
    node_count: int = 0
    relationship_count: int = 0
    label_counts: dict[str, int] = field(default_factory=dict)
    relationship_type_counts: dict[str, int] = field(default_factory=dict)
    #: ``(label, rel_type, direction)`` -> mean typed degree of a node
    #: carrying that label; ``rel_type`` ``"*"`` aggregates all types and
    #: direction is ``out``/``in``/``both``.
    expansions: dict[tuple[str, str, str], float] = field(default_factory=dict)
    #: ``(rel_type or "*", direction)`` -> ``{degree: node count}``.
    degree_histograms: dict[tuple[str, str], dict[int, int]] = field(
        default_factory=dict
    )
    component_count: int = 0
    #: Sizes of the largest weakly-connected components, descending.
    component_sizes: tuple[int, ...] = ()

    def set_component_sizes(self, sizes: Sequence[int]) -> None:
        """Record the component structure from every component's size,
        largest first."""
        self.component_count = len(sizes)
        self.component_sizes = tuple(sizes[:TOP_COMPONENT_SIZES])

    def expansion(
        self,
        label: str | None,
        rel_type: str | None = None,
        direction: str = "both",
    ) -> float:
        """Mean fan-out of one expansion hop.

        For a known label the per-label mean is authoritative (absence
        of an entry means that label never touches that type: 0.0).
        Unknown or absent labels fall back to the global mean degree
        for the type/direction slice.
        """
        rel_key = rel_type if rel_type is not None else "*"
        if label is not None and self.label_counts.get(label):
            return self.expansions.get((label, rel_key, direction), 0.0)
        histogram = self.degree_histograms.get((rel_key, direction))
        if not histogram:
            return 0.0
        population = sum(histogram.values())
        if not population:
            return 0.0
        return sum(degree * count for degree, count in histogram.items()) / population

    def to_dict(self) -> dict[str, Any]:
        expansions: dict[str, dict[str, dict[str, float]]] = {}
        for (label, rel_type, direction), mean in sorted(self.expansions.items()):
            expansions.setdefault(label, {}).setdefault(rel_type, {})[direction] = mean
        histograms: dict[str, dict[str, dict[str, int]]] = {}
        for (rel_type, direction), histogram in sorted(self.degree_histograms.items()):
            histograms.setdefault(rel_type, {})[direction] = {
                str(degree): count for degree, count in sorted(histogram.items())
            }
        return {
            "version": self.version,
            "node_count": self.node_count,
            "relationship_count": self.relationship_count,
            "label_counts": dict(sorted(self.label_counts.items())),
            "relationship_type_counts": dict(
                sorted(self.relationship_type_counts.items())
            ),
            "expansions": expansions,
            "degree_histograms": histograms,
            "component_count": self.component_count,
            "component_sizes": list(self.component_sizes),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "GraphStatistics":
        expansions: dict[tuple[str, str, str], float] = {}
        for label, per_type in payload.get("expansions", {}).items():
            for rel_type, per_direction in per_type.items():
                for direction, mean in per_direction.items():
                    expansions[(label, rel_type, direction)] = mean
        histograms: dict[tuple[str, str], dict[int, int]] = {}
        for rel_type, per_direction in payload.get("degree_histograms", {}).items():
            for direction, histogram in per_direction.items():
                histograms[(rel_type, direction)] = {
                    int(degree): count for degree, count in histogram.items()
                }
        return cls(
            version=payload.get("version", 0),
            node_count=payload.get("node_count", 0),
            relationship_count=payload.get("relationship_count", 0),
            label_counts=dict(payload.get("label_counts", {})),
            relationship_type_counts=dict(
                payload.get("relationship_type_counts", {})
            ),
            expansions=expansions,
            degree_histograms=histograms,
            component_count=payload.get("component_count", 0),
            component_sizes=tuple(payload.get("component_sizes", ())),
        )


def degree_histograms(store: GraphReadStore) -> dict[tuple[str, str], dict[int, int]]:
    """All per-(type, direction) degree histograms in one node pass.

    Keys are ``(rel_type, direction_name)`` with ``"*"`` aggregating
    every relationship type and direction names ``out``/``in``/``both``.
    A node that does not touch a type sits at degree 0 in its
    histograms, so every histogram sums to the node count.
    """
    return _degree_pass(store)[0]


def compute_statistics(store: GraphReadStore, components: bool = True) -> GraphStatistics:
    """Measure ``store`` in one node pass (plus the union-find pass).

    ``components=False`` skips the union-find pass for callers that only
    need cardinalities (e.g. per-request serving-state construction).
    """
    histograms, incidences = _degree_pass(store)
    label_counts = store.label_counts()
    statistics = GraphStatistics(
        version=store.version,
        node_count=store.node_count,
        relationship_count=store.relationship_count,
        label_counts=label_counts,
        relationship_type_counts=store.relationship_type_counts(),
        expansions={
            key: total / label_counts[key[0]] for key, total in incidences.items()
        },
        degree_histograms=histograms,
    )
    if components:
        statistics.set_component_sizes(
            [len(ids) for ids in weakly_connected_components(store)]
        )
    return statistics


def _degree_pass(
    store: GraphReadStore,
) -> tuple[dict[tuple[str, str], dict[int, int]], dict[tuple[str, str, str], int]]:
    """The degree histograms and the ``(label, rel_type, direction)``
    endpoint totals behind the expansion factors, from one walk over
    ``node_ids()``.

    Each node reads its ``typed_degrees`` and ``node_labels`` once and
    counts one ``(labels, type, out, in, loops)`` profile per type it
    touches, plus one for ``"*"`` with its totals.  Far fewer profiles
    are distinct than (node, type) pairs exist, and both outputs are
    sums over them.  A total counts relationship ends on the label's
    nodes (``both`` = ``out`` + ``in``, so a self-loop counts twice);
    only non-zero totals are kept.
    """
    profiles: dict[tuple[frozenset[str], str, int, int, int], int] = {}
    for node_id in store.node_ids():
        labels = store.node_labels(node_id)
        total_out = total_in = total_loops = 0
        for rel_type, (out, inbound, loops) in store.typed_degrees(node_id).items():
            profile = (labels, rel_type, out, inbound, loops)
            profiles[profile] = profiles.get(profile, 0) + 1
            total_out += out
            total_in += inbound
            total_loops += loops
        profile = (labels, "*", total_out, total_in, total_loops)
        profiles[profile] = profiles.get(profile, 0) + 1

    histograms: dict[tuple[str, str], dict[int, int]] = {}
    incidences: dict[tuple[str, str, str], int] = {}
    touching: dict[str, int] = {}
    for (labels, rel_type, out, inbound, loops), nodes in profiles.items():
        touching[rel_type] = touching.get(rel_type, 0) + nodes
        for name, direction in DIRECTION_NAMES:
            histogram = histograms.get((rel_type, name))
            if histogram is None:
                histogram = histograms[(rel_type, name)] = {}
            degree = directional_count(out, inbound, loops, direction)
            histogram[degree] = histogram.get(degree, 0) + nodes
        for name, ends in (("out", out), ("in", inbound), ("both", out + inbound)):
            if ends:
                for label in labels:
                    key = (label, rel_type, name)
                    incidences[key] = incidences.get(key, 0) + ends * nodes
    # Every node counts under "*"; the rest of a type's nodes sit at 0.
    for rel_type, nodes in touching.items():
        missing = store.node_count - nodes
        if missing:
            for name, _ in DIRECTION_NAMES:
                histogram = histograms[(rel_type, name)]
                histogram[0] = histogram.get(0, 0) + missing
    return histograms, incidences
