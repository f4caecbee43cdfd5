"""Section 3.1 — implementation scale: graph construction throughput and
snapshot size.

The paper: a full IYP snapshot is ~4GB compressed / 40GB loaded, built
four times a month, queryable from a small VM.  Here the analogous
numbers for the synthetic medium world.
"""

import os

from benchmarks.conftest import record_comparison
from repro.graphdb import load_snapshot, save_snapshot
from repro.pipeline import build_iyp


def test_sec31_full_build(benchmark, bench_world):
    def build():
        iyp, report = build_iyp(bench_world)
        return iyp, report

    iyp, report = benchmark.pedantic(build, rounds=1, iterations=1)
    throughput = report.relationships / max(report.total_seconds, 1e-9)
    record_comparison(
        "Section 3.1 - graph construction",
        ["metric", "value"],
        [
            ["nodes", report.nodes],
            ["relationships", report.relationships],
            ["build seconds", f"{report.total_seconds:.1f}"],
            ["links/second", f"{throughput:,.0f}"],
        ],
    )
    assert report.ok
    assert report.nodes > 10_000


def test_sec31_snapshot_roundtrip(benchmark, bench_iyp, tmp_path):
    path = tmp_path / "iyp.iyp2"

    def snapshot_cycle():
        save_snapshot(bench_iyp.store, path)
        return load_snapshot(path)

    restored = benchmark.pedantic(snapshot_cycle, rounds=1, iterations=1)
    size_mb = os.path.getsize(path) / 1e6
    record_comparison(
        "Section 3.1 - snapshot (paper: ~4GB compressed for the 1M-scale graph)",
        ["metric", "value"],
        [
            ["snapshot size (MB, this world)", f"{size_mb:.1f}"],
            ["nodes restored", restored.node_count],
            ["relationships restored", restored.relationship_count],
        ],
    )
    assert restored.node_count == bench_iyp.store.node_count
    assert restored.relationship_count == bench_iyp.store.relationship_count
