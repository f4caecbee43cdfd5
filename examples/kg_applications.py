#!/usr/bin/env python3
"""Knowledge-graph applications (paper Section 10, Conclusion).

The paper closes by naming the applications IYP paves the way for:
knowledge reasoning, recommender systems, and knowledge-graph
embeddings.  This example runs working versions of all three on the
synthetic knowledge graph:

1. rule-based inference materializes implicit links;
2. TransE embeddings are trained on the graph's triples;
3. embedding-space nearest neighbours act as a simple recommender
   ("networks similar to this one"), and PageRank over the AS subgraph
   is compared against the imported CAIDA ASRank.

Run:  python examples/kg_applications.py
"""

from repro.analysis import (
    TransEConfig,
    rank_agreement,
    run_inference,
    train_transe,
)
from repro.analytics import pagerank
from repro.pipeline import build_iyp
from repro.simnet import WorldConfig, build_world


def main() -> None:
    print("Building world and knowledge graph...")
    world = build_world(WorldConfig.small())
    iyp, report = build_iyp(world)
    print(f"  {report.nodes:,} nodes / {report.relationships:,} relationships")

    print("\n1. Knowledge reasoning (rule-based inference)")
    created = run_inference(iyp)
    for rule, count in created.items():
        print(f"   {rule:<22} +{count:,} links")
    example = iyp.run(
        """
        MATCH (i:IP)-[r:COUNTRY {reference_name:'iyp.inference.ip_country'}]
              ->(c:Country)
        RETURN i.ip AS ip, c.country_code AS cc LIMIT 3
        """
    )
    print("   e.g. inferred IP countries:")
    for row in example:
        print(f"     {row['ip']:<18} -> {row['cc']}")

    print("\n2. Knowledge-graph embeddings (TransE)")
    model = train_transe(
        iyp.store, TransEConfig(dimensions=24, epochs=8, batch_size=4096)
    )
    print(f"   trained {model.n_entities:,} entity / {model.n_relations} "
          f"relation vectors")

    print("\n3. Recommender: ASes nearest to the top CDN in embedding space")
    cdn_asn = next(
        asn for asn, info in world.ases.items()
        if info.category == "Content Delivery Network"
    )
    cdn_node = iyp.store.find_nodes("AS", "asn", cdn_asn)[0]
    print(f"   anchor: AS{cdn_asn} ({world.ases[cdn_asn].name})")
    for node_id, distance in model.nearest_entities(cdn_node.id, k=5):
        node = iyp.store.get_node(node_id)
        label = sorted(node.labels)[0]
        key = node.properties.get("asn") or node.properties.get(
            "name", node.properties.get("prefix", "?")
        )
        print(f"     d={distance:.3f}  :{label} {key}")

    print("\n4. Centrality: PageRank over the AS subgraph vs CAIDA ASRank")
    scores = pagerank(iyp.store)
    top = sorted(scores, key=lambda asn: -scores[asn])[:5]
    for asn in top:
        print(f"   AS{asn:<8} pagerank={scores[asn]:.4f} "
              f"asrank={world.ases[asn].rank} ({world.ases[asn].name})")
    agreement = rank_agreement(iyp, top_k=20)
    print(f"   top-20 agreement between the two rankings: {agreement:.0%}")


if __name__ == "__main__":
    main()
