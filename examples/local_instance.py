#!/usr/bin/env python3
"""Local-instance workflow (Section 6.1 "Lessons learned").

Mirrors the paper's recommended way of working with IYP locally:

1. build (or download) a snapshot of the knowledge graph;
2. load it into a local instance;
3. add private annotations (tag the resources under study);
4. run analysis queries that mix public data with the private tags;
5. share the *queries*, not the data (Section 6.2).

Run:  python examples/local_instance.py
"""

import tempfile
from pathlib import Path

from repro.core import IYP
from repro.graphdb import load_snapshot, save_snapshot
from repro.pipeline import build_iyp
from repro.simnet import WorldConfig, build_world

STUDY_TAG = "My Hosting Study"

# The query a paper would publish (Section 6.2: share queries + snapshot
# date, and anyone can regenerate the numbers).
PUBLISHED_QUERY = """
MATCH (d:DomainName)-[:CATEGORIZED]-(:Tag {label: $tag})
MATCH (d)-[:PART_OF]-(:HostName)-[:RESOLVES_TO]-(:IP)
      -[:PART_OF]-(:Prefix)-[:ORIGINATE]-(a:AS)
RETURN a.asn AS asn, count(DISTINCT d) AS domains
ORDER BY domains DESC LIMIT 5
"""


def main() -> None:
    print("Building the public knowledge graph and writing a snapshot...")
    world = build_world(WorldConfig.small())
    iyp, report = build_iyp(world)
    with tempfile.TemporaryDirectory() as tmp:
        snapshot_path = Path(tmp) / "iyp-2024-05-01.iyp2"
        save_snapshot(iyp.store, snapshot_path)
        size_mb = snapshot_path.stat().st_size / 1e6
        print(f"  snapshot: {snapshot_path.name} ({size_mb:.1f} MB, "
              f"{report.nodes:,} nodes)")

        print("\nStarting a 'local instance' from the snapshot...")
        local = IYP(load_snapshot(snapshot_path))

    print("Tagging the resources under study (private annotation)...")
    result = local.run(
        """
        MATCH (:Ranking {name:'Tranco top 1M'})-[r:RANK]-(d:DomainName)
        WHERE r.rank <= 100
        MERGE (t:Tag {label: $tag})
        MERGE (d)-[:CATEGORIZED {reference_name:'local.study'}]->(t)
        """,
        {"tag": STUDY_TAG},
    )
    print(f"  relationships created: {result.stats.relationships_created}")

    print("\nRunning the published query against local + private data:")
    result = local.run(PUBLISHED_QUERY, {"tag": STUDY_TAG})
    print(result.to_table())

    print(
        "\nThe public instance is untouched; re-running the same query on a "
        "newer\nsnapshot refreshes the results - the paper's on-demand "
        "reproducibility."
    )


if __name__ == "__main__":
    main()
