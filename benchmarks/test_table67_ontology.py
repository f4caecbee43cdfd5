"""Tables 6 & 7 — the ontology, and full-graph schema validation."""

from benchmarks.conftest import record_comparison
from repro.lint import GraphValidator
from repro.ontology import ENTITIES, RELATIONSHIPS


def test_table67_ontology_validation(benchmark, bench_iyp):
    validator = GraphValidator()
    report = benchmark.pedantic(
        validator.validate, args=(bench_iyp.store,), rounds=1, iterations=1
    )
    used_labels = {
        label
        for label in bench_iyp.store.label_counts()
        if label in ENTITIES
    }
    used_rels = {
        rel_type
        for rel_type in bench_iyp.store.relationship_type_counts()
        if rel_type in RELATIONSHIPS
    }
    record_comparison(
        "Tables 6/7 - ontology",
        ["metric", "paper", "this repro"],
        [
            ["entity types defined", "24", len(ENTITIES)],
            ["relationship types defined", "24", len(RELATIONSHIPS)],
            ["entity types present in graph", "-", len(used_labels)],
            ["relationship types present in graph", "-", len(used_rels)],
            ["schema violations", "0", len(report.violations)],
        ],
    )
    assert len(ENTITIES) == 24
    assert len(RELATIONSHIPS) == 24
    assert report.ok, [str(v) for v in report.violations[:5]]
    assert len(used_labels) >= 20
    assert len(used_rels) >= 20
