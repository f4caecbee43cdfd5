"""Graph analytics over the knowledge graph.

The subsystem behind ``CALL algo.*`` (Section 4 of the paper's
application studies, generalized): vectorized measures over the store's
typed adjacency (:mod:`repro.analytics.measures`), a procedure registry
shared by the Cypher engine, CLI and linter
(:mod:`repro.analytics.registry`), planner statistics
(:mod:`repro.analytics.statistics`), and the build-time precompute
report cached in the snapshot archive (:mod:`repro.analytics.report`).
See ``documentation/analytics.md`` for the measure catalog and the
``CALL`` grammar.
"""

from repro.analytics.measures import (
    AS_EDGE_TYPES,
    betweenness_centrality,
    bounded_reach,
    customer_cones,
    degree_centrality,
    degree_histogram,
    k_reach,
    pagerank,
    parse_direction,
    transitive_closure,
    weakly_connected_components,
)
from repro.analytics.registry import (
    PROCEDURES,
    ProcedureContext,
    ProcedureSpec,
    get_procedure,
    suggest,
)
from repro.analytics.report import AnalyticsReport, compute_analytics_report
from repro.analytics.statistics import (
    GraphStatistics,
    compute_statistics,
    degree_histograms,
)

__all__ = [
    "AS_EDGE_TYPES",
    "AnalyticsReport",
    "GraphStatistics",
    "PROCEDURES",
    "ProcedureContext",
    "ProcedureSpec",
    "betweenness_centrality",
    "bounded_reach",
    "compute_analytics_report",
    "compute_statistics",
    "customer_cones",
    "degree_centrality",
    "degree_histogram",
    "degree_histograms",
    "get_procedure",
    "k_reach",
    "pagerank",
    "parse_direction",
    "suggest",
    "transitive_closure",
    "weakly_connected_components",
]
