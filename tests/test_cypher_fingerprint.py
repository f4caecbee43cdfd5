"""Query fingerprinting: literal-insensitive, structure-sensitive.

The contract statement statistics rely on: two executions of the "same"
query — same shape, different constants — must aggregate under one
fingerprint, while any structural difference (labels, clauses,
projections) must split them.
"""

from __future__ import annotations

import json
import string
from pathlib import Path

from repro.cypher import CypherEngine
from repro.cypher.fingerprint import (
    FINGERPRINT_HEX_CHARS,
    fingerprint_query,
    normalize_query,
)
from repro.cypher.parser import parse
from repro.graphdb import GraphStore
from repro.lint.extract import extract_queries
from repro.studies import queries as listings

ROOT = Path(__file__).resolve().parent.parent


def fp(query: str) -> str:
    return fingerprint_query(parse(query))[0]


def normalized(query: str) -> str:
    return normalize_query(parse(query))


class TestLiteralMasking:
    def test_integer_literals_share_a_fingerprint(self):
        assert fp("MATCH (a:AS) WHERE a.asn = 1 RETURN a") == fp(
            "MATCH (a:AS) WHERE a.asn = 99999 RETURN a"
        )

    def test_string_literals_share_a_fingerprint(self):
        assert fp("MATCH (n:Name) WHERE n.name = 'NTT' RETURN n") == fp(
            "MATCH (n:Name) WHERE n.name = 'Cloudflare' RETURN n"
        )

    def test_whitespace_and_keyword_case_are_insignificant(self):
        assert fp("MATCH (a:AS) WHERE a.asn = 1 RETURN a") == fp(
            "match   (a:AS)\n  where a.asn = 5\n  return a"
        )

    def test_parameter_names_are_masked(self):
        assert fp("MATCH (a:AS) WHERE a.asn = $x RETURN a") == fp(
            "MATCH (a:AS) WHERE a.asn = $other RETURN a"
        )

    def test_limit_literal_is_masked(self):
        assert fp("MATCH (a:AS) RETURN a LIMIT 10") == fp(
            "MATCH (a:AS) RETURN a LIMIT 50"
        )

    def test_normalized_text_hides_the_literal(self):
        text = normalized("MATCH (a:AS) WHERE a.asn = 2497 RETURN a")
        assert "2497" not in text
        assert "?" in text


class TestWriteClauseMasking:
    """SET, REMOVE and MERGE's ON CREATE / ON MATCH SET render their
    items with values masked and keys, labels and operators kept."""

    def test_set_values_share_a_fingerprint(self):
        assert fp("MATCH (a:AS) SET a.name = 'x', a += {tag: 1} RETURN a") == fp(
            "MATCH (a:AS) SET a.name = 'y', a += {tag: 2} RETURN a"
        )
        assert normalized("MATCH (a:AS) SET a.name = 'x', a += {tag: 1}, a = {}") == (
            "MATCH (a:AS) SET a.name = ?, a += {tag: ?}, a = {}"
        )

    def test_remove_renders_properties_and_labels(self):
        text = normalized("MATCH (a:AS) REMOVE a.name, a:Tagged")
        assert text == "MATCH (a:AS) REMOVE a.name, a:Tagged"
        assert fp("MATCH (a:AS) REMOVE a.name") != fp("MATCH (a:AS) REMOVE a.tag")

    def test_merge_on_create_set_masks_values(self):
        def query(label: str, seen: int) -> str:
            return (
                f"MERGE (t:Tag {{label: '{label}'}}) "
                f"ON CREATE SET t.seen = {seen} ON MATCH SET t:Old"
            )

        assert fp(query("a", 1)) == fp(query("b", 2))
        assert normalized(query("a", 1)) == (
            "MERGE (t:Tag {label: ?}) ON CREATE SET t.seen = ? ON MATCH SET t:Old"
        )


class TestStructureSensitivity:
    def test_label_change_changes_the_fingerprint(self):
        assert fp("MATCH (a:AS) WHERE a.asn = 1 RETURN a") != fp(
            "MATCH (a:Prefix) WHERE a.asn = 1 RETURN a"
        )

    def test_literal_and_parameter_are_distinct(self):
        # A parameterized query plans differently from an inlined one;
        # they must not share an aggregate.
        assert fp("MATCH (a:AS) WHERE a.asn = 1 RETURN a") != fp(
            "MATCH (a:AS) WHERE a.asn = $asn RETURN a"
        )

    def test_extra_clause_changes_the_fingerprint(self):
        assert fp("MATCH (a:AS) RETURN a") != fp(
            "MATCH (a:AS) WHERE a.asn = 1 RETURN a"
        )

    def test_projection_change_changes_the_fingerprint(self):
        assert fp("MATCH (a:AS) RETURN a.asn") != fp("MATCH (a:AS) RETURN a.name")

    def test_relationship_direction_changes_the_fingerprint(self):
        out = "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN a"
        rev = "MATCH (a:AS)<-[:ORIGINATE]-(p:Prefix) RETURN a"
        assert fp(out) != fp(rev)


class TestFingerprintFormat:
    def test_fingerprint_is_short_hex(self):
        value = fp("RETURN 1")
        assert len(value) == FINGERPRINT_HEX_CHARS
        assert set(value) <= set(string.hexdigits.lower())

    def test_deterministic_across_calls(self):
        query = "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN a, p LIMIT 10"
        assert fp(query) == fp(query)


class TestEngineCache:
    def test_engine_fingerprint_is_cached(self):
        engine = CypherEngine(GraphStore())
        first = engine.fingerprint("MATCH (a:AS) WHERE a.asn = 1 RETURN a")
        again = engine.fingerprint("MATCH (a:AS) WHERE a.asn = 1 RETURN a")
        assert first == again
        assert first[0] == fp("MATCH (a:AS) WHERE a.asn = 1 RETURN a")


class TestGoldenFingerprints:
    """Statement identities are a published surface (``/debug/statements``,
    ``repro top``, slow-log joins): the paper listings and every
    ``cypher`` fence of EXPERIMENTS.md keep, byte for byte, the
    normalized text and fingerprint recorded in ``golden/fingerprints.json``
    before the fingerprint and EXPLAIN renderers were merged."""

    def test_published_queries_keep_their_identity(self):
        sources = [
            (name, getattr(listings, name))
            for name in sorted(dir(listings))
            if name.startswith("LISTING_")
        ]
        sources += [
            (f"EXPERIMENTS.md fence {index}", query)
            for index, (_, query) in enumerate(
                extract_queries(ROOT / "EXPERIMENTS.md"), start=1
            )
        ]
        current = []
        for name, query in sources:
            fingerprint, text = fingerprint_query(parse(query))
            current.append(
                {"source": name, "fingerprint": fingerprint, "normalized": text}
            )
        golden = json.loads((ROOT / "tests/golden/fingerprints.json").read_text())
        assert current == golden
