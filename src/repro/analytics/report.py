"""Build-time analytics precompute.

:func:`compute_analytics_report` runs every ``precompute``-flagged
procedure with default arguments plus :func:`compute_statistics`, and
bundles the results into an :class:`AnalyticsReport` stamped with the
store's version.  The build pipeline attaches the report to its
``BuildReport`` and the snapshot archive persists ``report.to_dict()``
in the manifest, so a serving process can answer zero-argument
``CALL algo.*`` queries from the cache without recomputing anything.

A report loaded against a deserialized snapshot must be re-stamped with
that store's version (the binary loader resets the mutation counter):
:meth:`AnalyticsReport.for_store` does exactly that.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any

from repro.analytics.registry import PROCEDURES, ProcedureContext
from repro.analytics.statistics import GraphStatistics, compute_statistics
from repro.graphdb.store import GraphStore

#: The precompute procedure whose rows the statistics' component
#: figures are read from.
COMPONENTS = "algo.components"


@dataclass(frozen=True)
class AnalyticsReport:
    """Precomputed analytics for one store generation."""

    #: Store version the rows were computed against; the engine only
    #: serves the cache when this matches the live store's version.
    version: int = 0
    #: Wall-clock seconds spent on statistics plus precompute.
    seconds: float = 0.0
    statistics: GraphStatistics | None = None
    #: ``{procedure name: result rows}`` for precompute procedures.
    procedures: dict[str, list[dict[str, Any]]] = field(default_factory=dict)

    def rows(self, name: str) -> list[dict[str, Any]] | None:
        """Cached rows for ``name``, or None if not precomputed."""
        return self.procedures.get(name)

    def for_store(self, store: GraphStore) -> "AnalyticsReport":
        """Re-stamp the report (and its statistics) to ``store``'s
        version — used when attaching archived analytics to a freshly
        loaded snapshot, whose mutation counter restarts at zero."""
        statistics = self.statistics
        if statistics is not None:
            statistics = replace_version(statistics, store.version)
        return replace(self, version=store.version, statistics=statistics)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "seconds": round(self.seconds, 6),
            "statistics": (
                self.statistics.to_dict() if self.statistics is not None else None
            ),
            "procedures": self.procedures,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AnalyticsReport":
        statistics = payload.get("statistics")
        return cls(
            version=payload.get("version", 0),
            seconds=payload.get("seconds", 0.0),
            statistics=(
                GraphStatistics.from_dict(statistics)
                if statistics is not None
                else None
            ),
            procedures={
                name: list(rows)
                for name, rows in payload.get("procedures", {}).items()
            },
        )


def replace_version(statistics: GraphStatistics, version: int) -> GraphStatistics:
    """Copy ``statistics`` with a new store version."""
    copied = GraphStatistics(**vars(statistics))
    copied.version = version
    return copied


def compute_analytics_report(
    store: GraphStore, statistics: GraphStatistics | None = None
) -> AnalyticsReport:
    """Run statistics plus every precompute procedure against ``store``.

    The graph's components are labelled once: the ``algo.components``
    rows carry every size the statistics summarize.
    """
    started = time.perf_counter()
    measured = statistics is None
    if statistics is None:
        statistics = compute_statistics(store, components=False)
    context = ProcedureContext(store, statistics)
    procedures = {
        name: spec.run(context)
        for name, spec in PROCEDURES.items()
        if spec.precompute
    }
    if measured:
        statistics.set_component_sizes(component_sizes(procedures))
    return AnalyticsReport(
        version=store.version,
        seconds=time.perf_counter() - started,
        statistics=statistics,
        procedures=procedures,
    )


def component_sizes(procedures: dict[str, list[dict[str, Any]]]) -> list[int]:
    """Every component's size, largest first, off the precomputed
    ``algo.components`` rows."""
    return [row["size"] for row in procedures[COMPONENTS]]
