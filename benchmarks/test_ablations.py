"""Ablations of the reproduction's design choices.

DESIGN.md calls out four load-bearing mechanisms; each ablation turns
one off and measures the difference:

1. hash indexes (Section 3.1): identifier seek vs full label scan;
2. cost-based anchor selection: planner picks the cheapest pattern
   element vs naively anchoring on the leftmost one;
3. canonical identifier forms (Section 2.3): with canonicalization
   disabled, the same prefix spelled differently splits into duplicate
   nodes and cross-dataset queries lose matches;
4. the parse cache: repeated study queries skip re-parsing.
"""

import random

from benchmarks.conftest import record_comparison
from repro.core import IYP, Reference
from repro.cypher.parser import parse


def test_ablation_index_seek(benchmark, bench_iyp, bench_world):
    """Indexed identifier lookup vs the same lookup forced to scan."""
    asn = sorted(bench_world.ases)[len(bench_world.ases) // 2]
    store = bench_iyp.store

    def indexed():
        return store.find_nodes("AS", "asn", asn)

    def scan():
        return [
            node
            for node in store.nodes_with_label("AS")
            if node.properties.get("asn") == asn
        ]

    found_indexed = benchmark(indexed)
    assert found_indexed == scan()
    import time

    start = time.perf_counter()
    for _ in range(100):
        indexed()
    indexed_time = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(100):
        scan()
    scan_time = time.perf_counter() - start
    record_comparison(
        "Ablation 1 - hash index vs label scan (100 AS lookups)",
        ["access path", "seconds", "speedup"],
        [
            ["label scan", f"{scan_time:.4f}", "1x"],
            ["index seek", f"{indexed_time:.4f}",
             f"{scan_time / max(indexed_time, 1e-9):.0f}x"],
        ],
    )
    assert indexed_time < scan_time


def test_ablation_anchor_selection(benchmark, bench_iyp):
    """Cost-based anchoring vs naive leftmost anchoring on a Listing-4
    style pattern whose selective element is in the middle."""
    import time

    from repro.cypher import ast, planner

    query = (
        "MATCH (i:IP)-[:PART_OF]-(pfx:Prefix)-[:CATEGORIZED]-"
        "(t:Tag {label:'RPKI Invalid'}) RETURN count(DISTINCT pfx)"
    )

    def cost_based():
        return bench_iyp.run(query).value()

    result = benchmark.pedantic(cost_based, rounds=3, iterations=1)

    start = time.perf_counter()
    cost_based()
    smart_time = time.perf_counter() - start

    original = planner.choose_anchor

    def leftmost(pattern, available, store):
        head = ast.PathPattern(pattern.nodes[:1], ())
        return original(head, available, store)

    try:
        planner.choose_anchor = leftmost
        start = time.perf_counter()
        naive_result = bench_iyp.run(query).value()
        naive_time = time.perf_counter() - start
    finally:
        planner.choose_anchor = original

    assert naive_result == result
    record_comparison(
        "Ablation 2 - anchor selection on a selective-in-the-middle pattern",
        ["planner", "seconds", "speedup"],
        [
            ["naive leftmost anchor", f"{naive_time:.3f}", "1x"],
            ["cost-based anchor", f"{smart_time:.3f}",
             f"{naive_time / max(smart_time, 1e-9):.0f}x"],
        ],
    )
    assert smart_time < naive_time


def test_ablation_canonicalization(benchmark, bench_world):
    """Without canonical forms, mixed identifier spellings create
    duplicate nodes and fusion silently breaks."""
    rng = random.Random(1)
    prefixes = [p for p in sorted(bench_world.prefixes) if ":" in p][:300]

    def mixed_spellings(prefix: str) -> str:
        return prefix.upper() if rng.random() < 0.5 else prefix

    def load(canonical: bool) -> int:
        iyp = IYP()
        ref_a = Reference("A", "a.origins")
        ref_b = Reference("B", "b.origins")
        for prefix in prefixes:
            spelling_a = prefix
            spelling_b = mixed_spellings(prefix)
            if canonical:
                node_a = iyp.get_node("Prefix", prefix=spelling_a)
                node_b = iyp.get_node("Prefix", prefix=spelling_b)
            else:
                node_a = iyp.store.merge_node("Prefix", "prefix", spelling_a)
                node_b = iyp.store.merge_node("Prefix", "prefix", spelling_b)
            asn = iyp.get_node("AS", asn=bench_world.prefixes[prefix].origins[0])
            iyp.add_link(asn, "ORIGINATE", node_a, reference=ref_a)
            iyp.add_link(asn, "ORIGINATE", node_b, reference=ref_b)
        # Fusion query: prefixes seen by BOTH datasets.
        return iyp.run(
            "MATCH (:AS)-[a:ORIGINATE {reference_name:'a.origins'}]-(p:Prefix)"
            "-[b:ORIGINATE {reference_name:'b.origins'}]-(:AS) "
            "RETURN count(DISTINCT p)"
        ).value()

    fused_canonical = benchmark.pedantic(
        load, args=(True,), rounds=1, iterations=1
    )
    fused_raw = load(False)
    record_comparison(
        "Ablation 3 - canonical identifier forms (300 IPv6 prefixes, two "
        "datasets with mixed spellings)",
        ["mode", "prefixes fused across both datasets"],
        [
            ["canonicalization ON", fused_canonical],
            ["canonicalization OFF", fused_raw],
        ],
    )
    assert fused_canonical == len(prefixes)
    assert fused_raw < fused_canonical  # fusion silently loses matches


def test_ablation_parse_cache(benchmark, bench_iyp):
    """Parse cost amortized across repeated study queries."""
    import time

    query = (
        "MATCH (:Ranking {name:'Tranco top 1M'})-[r:RANK]-(d:DomainName) "
        "WHERE r.rank <= 10 RETURN collect(d.name)"
    )
    benchmark(bench_iyp.run, query)

    start = time.perf_counter()
    for _ in range(200):
        parse(query)
    parse_time = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(200):
        bench_iyp.engine.statement(query)
    cached_time = time.perf_counter() - start
    record_comparison(
        "Ablation 4 - parse cache (200 repeats of a study query)",
        ["mode", "seconds"],
        [
            ["re-parse every run", f"{parse_time:.4f}"],
            ["parse cache", f"{cached_time:.4f}"],
        ],
    )
    assert cached_time < parse_time
