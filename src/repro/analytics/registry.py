"""The ``CALL algo.*`` procedure registry.

Each procedure wraps one measure from :mod:`repro.analytics.measures`
behind a stable name, a fixed column tuple, and a deterministic row
order, so the same registry serves two consumers: the Cypher engine's
``CALL`` clause (``repro query "CALL algo.pagerank() ..."`` on the
command line) and the build-time precompute
(:mod:`repro.analytics.report`).
Procedures flagged ``precompute`` run with default arguments at build
time and their rows are cached in the snapshot archive; the engine
serves the cache whenever a zero-argument ``CALL`` hits a store whose
version matches the cached generation.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analytics import measures
from repro.graphdb.store import GraphStore


@dataclass(frozen=True)
class ProcedureContext:
    """What a procedure sees when invoked: the store and, when the
    engine has them, planner statistics."""

    store: GraphStore
    statistics: Any = None


@dataclass(frozen=True)
class ProcedureSpec:
    """One registered procedure."""

    name: str
    summary: str
    #: Human-readable argument signature, e.g. ``(damping?, iterations?)``.
    signature: str
    columns: tuple[str, ...]
    runner: Callable[..., list[dict[str, Any]]] = field(compare=False)
    #: Whether the zero-argument invocation is computed at build time
    #: and cached in the snapshot archive.
    precompute: bool = False

    def run(self, context: ProcedureContext, *args: Any) -> list[dict[str, Any]]:
        return self.runner(context, *args)


def _components(
    context: ProcedureContext, rel_type: str | None = None
) -> list[dict[str, Any]]:
    return [
        {"component": component[0], "size": len(component)}
        for component in measures.weakly_connected_components(
            context.store, rel_type
        )
    ]


def _pagerank(
    context: ProcedureContext, damping: float = 0.85, iterations: int = 40
) -> list[dict[str, Any]]:
    scores = measures.pagerank(
        context.store, damping=float(damping), iterations=int(iterations)
    )
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [{"asn": asn, "score": score} for asn, score in ordered]


def _degree_distribution(
    context: ProcedureContext,
    rel_type: str | None = None,
    direction: str = "both",
    label: str | None = None,
) -> list[dict[str, Any]]:
    parsed = measures.parse_direction(direction)
    histogram = None
    statistics = context.statistics
    if (
        label is None
        and rel_type != "*"
        and statistics is not None
        and statistics.version == context.store.version
    ):
        # Every label-free slice of a type the graph has is one the
        # statistics hold ("*" there means all types).
        histogram = statistics.degree_histograms.get(
            ("*" if rel_type is None else rel_type, parsed.value)
        )
    if histogram is None:
        histogram = measures.degree_histogram(
            context.store, rel_type=rel_type, direction=parsed, label=label
        )
    return [
        {"degree": degree, "nodes": count}
        for degree, count in sorted(histogram.items())
    ]


def _degree_centrality(
    context: ProcedureContext,
    label: str | None = None,
    rel_type: str | None = None,
    direction: str = "both",
) -> list[dict[str, Any]]:
    rows = measures.degree_centrality(
        context.store,
        label=label,
        rel_type=rel_type,
        direction=measures.parse_direction(direction),
    )
    return [
        {"node": node_id, "degree": degree, "score": score}
        for node_id, degree, score in rows
    ]


def _betweenness(
    context: ProcedureContext, label: str = "AS"
) -> list[dict[str, Any]]:
    scores = measures.betweenness_centrality(context.store, label=label)
    ordered = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return [{"asn": asn, "score": score} for asn, score in ordered]


def _kreach(
    context: ProcedureContext,
    node: int,
    k: int,
    rel_type: str | None = None,
    direction: str = "both",
) -> list[dict[str, Any]]:
    depths = measures.k_reach(
        context.store,
        int(node),
        int(k),
        rel_type=rel_type,
        direction=measures.parse_direction(direction),
    )
    ordered = sorted(depths.items(), key=lambda item: (item[1], item[0]))
    return [{"node": node_id, "depth": depth} for node_id, depth in ordered]


def _customer_cone(context: ProcedureContext) -> list[dict[str, Any]]:
    cones = measures.customer_cones(context.store)
    return [{"asn": asn, "size": len(members)} for asn, members in sorted(cones.items())]


PROCEDURES: dict[str, ProcedureSpec] = {
    spec.name: spec
    for spec in (
        ProcedureSpec(
            name="algo.components",
            summary="Weakly-connected components, largest first; the "
            "component id is its smallest member node id.",
            signature="(rel_type?)",
            columns=("component", "size"),
            runner=_components,
            precompute=True,
        ),
        ProcedureSpec(
            name="algo.pagerank",
            summary="PageRank over the directed AS graph "
            "(PEERS_WITH + DEPENDS_ON), highest score first.",
            signature="(damping?, iterations?)",
            columns=("asn", "score"),
            runner=_pagerank,
            precompute=True,
        ),
        ProcedureSpec(
            name="algo.degree_distribution",
            summary="Degree histogram, optionally restricted to one "
            "relationship type, direction, or label.",
            signature="(rel_type?, direction?, label?)",
            columns=("degree", "nodes"),
            runner=_degree_distribution,
            precompute=True,
        ),
        ProcedureSpec(
            name="algo.degree_centrality",
            summary="Per-node degree and normalized degree centrality, "
            "highest degree first.",
            signature="(label?, rel_type?, direction?)",
            columns=("node", "degree", "score"),
            runner=_degree_centrality,
        ),
        ProcedureSpec(
            name="algo.betweenness",
            summary="Brandes betweenness over the undirected AS graph, "
            "highest score first.",
            signature="(label?)",
            columns=("asn", "score"),
            runner=_betweenness,
        ),
        ProcedureSpec(
            name="algo.kreach",
            summary="Minimum hop count to every node within k hops of a "
            "source node.",
            signature="(node, k, rel_type?, direction?)",
            columns=("node", "depth"),
            runner=_kreach,
        ),
        ProcedureSpec(
            name="algo.customer_cone",
            summary="AS customer cone sizes from BGPKIT "
            "provider-to-customer links, by ascending ASN.",
            signature="()",
            columns=("asn", "size"),
            runner=_customer_cone,
            precompute=True,
        ),
    )
}


def get_procedure(name: str) -> ProcedureSpec | None:
    """Look up a procedure by (case-insensitive) dotted name."""
    return PROCEDURES.get(name.lower())


def suggest(name: str) -> list[str]:
    """Closest registered procedure names for a did-you-mean hint."""
    candidate = name.lower()
    matches = difflib.get_close_matches(candidate, PROCEDURES, n=3, cutoff=0.4)
    if not matches and "." not in candidate:
        matches = difflib.get_close_matches(
            f"algo.{candidate}", PROCEDURES, n=3, cutoff=0.4
        )
    return matches
