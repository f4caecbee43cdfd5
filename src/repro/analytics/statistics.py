"""Graph statistics for the cost-based planner and reporting.

:class:`GraphStatistics` snapshots the measured shape of a store —
label populations, per-type degree histograms, per-(label, type) mean
expansion factors, and component structure.  The Cypher planner
(:mod:`repro.cypher.planner`) consumes it, when attached to an engine,
to replace its uniform-cost guesses with real cardinality estimates;
the build pipeline embeds it in the :class:`~repro.analytics.report.
AnalyticsReport` cached alongside snapshots.

Everything here is derived in O(nodes + relationships) single passes
over the store's internal maps and serializes to plain JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.analytics.measures import degree_histograms, weakly_connected_components
from repro.graphdb.interface import GraphReadStore

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


def compute_statistics(store: GraphReadStore, components: bool = True) -> GraphStatistics:
    """Measure ``store`` in a few linear passes.

    ``components=False`` skips the union-find pass for callers that only
    need cardinalities (e.g. per-request serving-state construction).
    """
    label_counts = store.label_counts()

    out_totals: dict[tuple[str, str], int] = {}
    in_totals: dict[tuple[str, str], int] = {}
    for rel_type, start_id, end_id in store.iter_edges():
        for label in store.node_labels(start_id):
            for rel_key in (rel_type, "*"):
                key = (label, rel_key)
                out_totals[key] = out_totals.get(key, 0) + 1
        for label in store.node_labels(end_id):
            for rel_key in (rel_type, "*"):
                key = (label, rel_key)
                in_totals[key] = in_totals.get(key, 0) + 1
    expansions: dict[tuple[str, str, str], float] = {}
    for (label, rel_key), total in out_totals.items():
        population = label_counts.get(label, 0)
        if population:
            expansions[(label, rel_key, "out")] = total / population
    for (label, rel_key), total in in_totals.items():
        population = label_counts.get(label, 0)
        if population:
            expansions[(label, rel_key, "in")] = total / population
    for (label, rel_key) in set(out_totals) | set(in_totals):
        population = label_counts.get(label, 0)
        if population:
            combined = out_totals.get((label, rel_key), 0) + in_totals.get(
                (label, rel_key), 0
            )
            expansions[(label, rel_key, "both")] = combined / population

    statistics = GraphStatistics(
        version=store.version,
        node_count=store.node_count,
        relationship_count=store.relationship_count,
        label_counts=label_counts,
        relationship_type_counts=store.relationship_type_counts(),
        expansions=expansions,
        degree_histograms=degree_histograms(store),
    )
    if components:
        statistics.set_component_sizes(
            [len(ids) for ids in weakly_connected_components(store)]
        )
    return statistics
