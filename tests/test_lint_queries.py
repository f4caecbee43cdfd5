"""The static Cypher linter: diagnostics, codes, spans, strictness."""

import pytest

from repro.graphdb import GraphStore
from repro.lint import (
    CODES,
    QueryLinter,
    fails_strict,
    lint_query,
    worst_severity,
)
from repro.studies import queries as paper_queries


def codes(findings):
    return [f.code for f in findings]


class TestSyntaxErrors:
    def test_unparsable_query_is_lnt000(self):
        findings = lint_query("MATCH (a:AS RETURN a")
        assert codes(findings) == ["LNT000"]
        assert findings[0].severity == "error"

    def test_lnt000_carries_position(self):
        findings = lint_query("MATCH (a:AS RETURN a")
        assert findings[0].span is not None
        assert findings[0].span.line == 1
        assert findings[0].span.column > 1


class TestOntologyChecks:
    def test_unknown_label_is_lnt001(self):
        findings = lint_query("MATCH (a:ASN) RETURN a")
        assert codes(findings) == ["LNT001"]
        assert ":ASN" in findings[0].message
        assert findings[0].span.line == 1
        assert findings[0].span.column == 10

    def test_unknown_relationship_type_is_lnt002(self):
        findings = lint_query(
            "MATCH (a:AS)-[:ORIGINATES]-(p:Prefix) RETURN a, p"
        )
        assert codes(findings) == ["LNT002"]
        assert ":ORIGINATES" in findings[0].message

    def test_impossible_endpoints_is_lnt003(self):
        # ORIGINATE is stored (AS)->(Prefix); the directed arrow is wrong.
        findings = lint_query(
            "MATCH (p:Prefix)-[:ORIGINATE]->(a:AS) RETURN a, p"
        )
        assert "LNT003" in codes(findings)

    def test_undirected_pattern_accepts_either_orientation(self):
        findings = lint_query(
            "MATCH (p:Prefix)-[:ORIGINATE]-(a:AS) RETURN a, p"
        )
        assert "LNT003" not in codes(findings)

    def test_unknown_property_is_lnt004(self):
        findings = lint_query("MATCH (a:AS) WHERE a.nombre = 'x' RETURN a")
        assert "LNT004" in codes(findings)
        assert "`nombre`" in [f for f in findings if f.code == "LNT004"][0].message

    def test_label_knowledge_crosses_clauses(self):
        # `pfx` is bound as :Prefix in the first MATCH; a wrong property
        # on it in the second clause must still be caught (Listing 3's
        # variable-reuse shape).
        findings = lint_query(
            "MATCH (pfx:Prefix) WITH pfx "
            "MATCH (pfx)-[:PART_OF]-(i:IP) RETURN pfx.bogus"
        )
        assert "LNT004" in codes(findings)


class TestFlowChecks:
    def test_cartesian_product_is_lnt005(self):
        findings = lint_query("MATCH (a:AS), (p:Prefix) RETURN a, p")
        assert "LNT005" in codes(findings)

    def test_connected_patterns_are_not_cartesian(self):
        findings = lint_query(
            "MATCH (a:AS), (a)-[:ORIGINATE]-(p:Prefix) RETURN a, p"
        )
        assert "LNT005" not in codes(findings)

    def test_unused_variable_is_lnt006_info(self):
        findings = lint_query("MATCH (a:AS)-[r:ORIGINATE]-(p:Prefix) RETURN a, p")
        lnt006 = [f for f in findings if f.code == "LNT006"]
        assert len(lnt006) == 1
        assert "`r`" in lnt006[0].message
        assert lnt006[0].severity == "info"

    def test_return_star_suppresses_lnt006(self):
        findings = lint_query("MATCH (a:AS)-[r:ORIGINATE]-(p:Prefix) RETURN *")
        assert "LNT006" not in codes(findings)

    def test_unbound_variable_is_lnt007(self):
        findings = lint_query("MATCH (a:AS) RETURN b.asn")
        assert "LNT007" in codes(findings)

    def test_with_narrows_scope(self):
        findings = lint_query(
            "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) WITH p RETURN a"
        )
        assert "LNT007" in codes(findings)

    def test_reduce_source_is_scope_checked(self):
        findings = lint_query("RETURN reduce(s = 0, x IN nope | s + x)")
        assert codes(findings) == ["LNT007"]
        assert "`nope`" in findings[0].message

    def test_reduce_source_counts_as_a_use(self):
        findings = lint_query(
            "MATCH p = (a:AS)-[:PEERS_WITH]-(:AS) "
            "RETURN reduce(s = 0, n IN nodes(p) | s + 1)"
        )
        unused = [f.message for f in findings if f.code == "LNT006"]
        assert unused == ["variable `a` is bound but never used"]

    def test_inline_property_values_see_the_pattern_so_far(self):
        bound = "MATCH (a:AS)-[:PEERS_WITH]-(b:AS {asn: a.asn}) RETURN a, b"
        assert "LNT007" not in codes(lint_query(bound))
        ahead = "MATCH (a:AS {asn: b.asn})-[:PEERS_WITH]-(b:AS) RETURN a, b"
        assert "LNT007" in codes(lint_query(ahead))

    def test_pattern_predicate_values_see_local_names(self):
        findings = lint_query(
            "MATCH (a:AS) "
            "RETURN [x IN [1, 2] WHERE (a)-[:PEERS_WITH]-(:AS {asn: x}) | x]"
        )
        assert "LNT007" not in codes(findings)


class TestTypeChecks:
    def test_string_literal_against_int_property_is_lnt009(self):
        findings = lint_query("MATCH (a:AS) WHERE a.asn = '2907' RETURN a")
        assert "LNT009" in codes(findings)

    def test_matching_literal_kind_is_clean(self):
        findings = lint_query("MATCH (a:AS) WHERE a.asn = 2907 RETURN a")
        assert "LNT009" not in codes(findings)

    def test_string_operator_on_numeric_property_is_lnt009(self):
        findings = lint_query("MATCH (a:AS) WHERE a.asn CONTAINS 'x' RETURN a")
        assert "LNT009" in codes(findings)

    def test_inline_property_map_kind_checked(self):
        findings = lint_query("MATCH (a:AS {asn: '2907'}) RETURN a")
        assert "LNT009" in codes(findings)


class TestIndexChecks:
    def test_lnt008_requires_a_store(self):
        findings = lint_query("MATCH (a:AS {asn: 2497}) RETURN a.asn")
        assert "LNT008" not in codes(findings)

    def test_unindexed_lookup_flagged_with_store(self):
        store = GraphStore()
        store.create_node({"AS"}, {"asn": 2497})
        findings = QueryLinter(store).lint("MATCH (a:AS {asn: 2497}) RETURN a.asn")
        assert "LNT008" in codes(findings)

    def test_indexed_lookup_is_clean(self):
        store = GraphStore()
        store.create_index("AS", "asn")
        store.create_node({"AS"}, {"asn": 2497})
        findings = QueryLinter(store).lint("MATCH (a:AS {asn: 2497}) RETURN a.asn")
        assert "LNT008" not in codes(findings)


class TestProcedureChecks:
    def test_known_procedure_is_clean(self):
        findings = lint_query(
            "CALL algo.pagerank() YIELD asn, score RETURN asn, score"
        )
        assert findings == []

    def test_unknown_procedure_is_lnt010(self):
        findings = lint_query("CALL algo.compnents() YIELD component RETURN component")
        assert codes(findings) == ["LNT010"]
        assert findings[0].severity == "error"
        assert "`algo.compnents`" in findings[0].message

    def test_lnt010_suggests_registry_names(self):
        finding = lint_query("CALL algo.compnents()")[0]
        assert "did you mean" in finding.message
        assert "`algo.components`" in finding.message

    def test_lnt010_span_covers_the_procedure_name(self):
        finding = lint_query("CALL algo.compnents()")[0]
        assert finding.span is not None
        assert (finding.span.line, finding.span.column) == (1, 6)
        assert finding.span.length == len("algo.compnents")

    def test_call_arguments_are_linted(self):
        findings = lint_query(
            "CALL algo.kreach(b.asn, 2) YIELD node RETURN node"
        )
        assert "LNT007" in codes(findings)  # `b` was never bound

    def test_standalone_call_is_clean(self):
        assert lint_query("CALL algo.customer_cone()") == []

    def test_unused_mid_pipeline_yield_is_lnt006(self):
        findings = lint_query(
            "CALL algo.pagerank() YIELD asn AS a, score RETURN score"
        )
        lnt006 = [f for f in findings if f.code == "LNT006"]
        assert len(lnt006) == 1
        assert "`a`" in lnt006[0].message

    def test_final_call_yields_are_result_columns_not_unused(self):
        findings = lint_query(
            "MATCH (n:AS) RETURN n.asn"  # sanity: the fixture query shape
        )
        assert "LNT006" not in codes(findings)
        findings = lint_query("CALL algo.pagerank() YIELD asn, score")
        assert "LNT006" not in codes(findings)


class TestDiagnosticsModel:
    def test_every_code_has_severity_and_title(self):
        for code, (severity, title) in CODES.items():
            # Two families share the registry: Cypher lint codes and the
            # concurrency analyzer's RACE codes.
            assert code.startswith(("LNT", "RACE"))
            assert severity in {"error", "warning", "info"}
            assert title

    def test_to_dict_carries_position(self):
        finding = lint_query("MATCH (a:ASN) RETURN a")[0]
        payload = finding.to_dict()
        assert payload["code"] == "LNT001"
        assert payload["line"] == 1 and payload["column"] == 10

    def test_format_cites_source_and_position(self):
        finding = lint_query("MATCH (a:ASN) RETURN a")[0]
        assert finding.format("q.cypher").startswith("q.cypher:1:10: error LNT001")

    def test_worst_severity_and_strictness(self):
        errors = lint_query("MATCH (a:ASN) RETURN a")
        infos = lint_query("MATCH (a:AS)-[r:ORIGINATE]-(p:Prefix) RETURN a, p")
        assert worst_severity(errors) == "error"
        assert worst_severity(infos) == "info"
        assert fails_strict(errors)
        assert not fails_strict(infos)  # info never fails, even strict
        assert not fails_strict([])

    def test_diagnostics_sorted_by_position(self):
        findings = lint_query("MATCH (a:ASN)-[:ORIGINATES]-(p:Prefx) RETURN a, p")
        offsets = [f.span.offset for f in findings if f.span]
        assert offsets == sorted(offsets)


class TestPaperListings:
    """Every published listing must stay lint-clean (strict)."""

    @pytest.mark.parametrize("name", [f"LISTING_{n}" for n in range(1, 7)])
    def test_listing_passes_strict(self, name):
        findings = lint_query(getattr(paper_queries, name))
        assert not fails_strict(findings), [str(f) for f in findings]
