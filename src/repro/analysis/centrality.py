"""Centrality of ASes in the knowledge graph vs published rankings.

PageRank over the AS-level subgraph (PEERS_WITH and DEPENDS_ON links,
:func:`repro.analytics.pagerank`) gives an independent importance
measure; comparing it against CAIDA's ASRank (imported as RANK links)
quantifies how much of the published ranking is recoverable from graph
structure alone.
"""

from __future__ import annotations

from repro.analytics import pagerank
from repro.core import IYP


def asrank_positions(iyp: IYP) -> dict[int, int]:
    """CAIDA ASRank positions from the knowledge graph."""
    rows = iyp.run(
        """
        MATCH (a:AS)-[r:RANK]->(:Ranking {name:'CAIDA ASRank'})
        RETURN a.asn AS asn, r.rank AS rank
        """
    ).records
    return {row["asn"]: row["rank"] for row in rows}


def rank_agreement(iyp: IYP, top_k: int = 20) -> float:
    """Overlap between PageRank's and ASRank's top-k AS sets, in [0, 1]."""
    scores = pagerank(iyp.store)
    asrank = asrank_positions(iyp)
    if not scores or not asrank:
        return 0.0
    top_pagerank = {
        asn
        for asn, _score in sorted(
            scores.items(), key=lambda kv: -kv[1]
        )[:top_k]
    }
    top_asrank = {
        asn for asn, rank in sorted(asrank.items(), key=lambda kv: kv[1])[:top_k]
    }
    return len(top_pagerank & top_asrank) / top_k
