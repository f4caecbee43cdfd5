"""Knowledge-graph applications on top of IYP.

The paper's conclusion names knowledge reasoning, recommender systems,
and knowledge-graph embeddings as the applications IYP paves the way
for.  This package implements working versions of each:

- :mod:`repro.analysis.reasoning` — a rule engine that materializes
  implicit knowledge as new, provenance-stamped links;
- :mod:`repro.analysis.embeddings` — TransE embeddings trained on the
  graph's triples, with link prediction and nearest-neighbour queries
  (the recommender building block);
- :mod:`repro.analysis.centrality` — PageRank over the AS-level
  subgraph, comparable against CAIDA's ASRank and IHR hegemony.
"""

from repro.analysis.centrality import rank_agreement
from repro.analysis.embeddings import TransEConfig, TransEModel, train_transe
from repro.analysis.reasoning import (
    DEFAULT_RULES,
    InferenceRule,
    run_inference,
)

__all__ = [
    "DEFAULT_RULES",
    "InferenceRule",
    "TransEConfig",
    "TransEModel",
    "rank_agreement",
    "run_inference",
    "train_transe",
]
