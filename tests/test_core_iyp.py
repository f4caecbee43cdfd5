"""The IYP facade: canonicalization, provenance, dataset parallelism."""

import pytest

from repro.core import Reference


class TestCanonicalization:
    def test_prefix_dedup_from_paper(self, empty_iyp):
        # Section 2.3's exact example: both spellings -> one node.
        first = empty_iyp.get_node("Prefix", prefix="2001:DB8::/32")
        second = empty_iyp.get_node("Prefix", prefix="2001:0db8::/32")
        assert first.id == second.id
        assert first.properties["prefix"] == "2001:db8::/32"

    def test_asn_spellings_dedup(self, empty_iyp):
        assert (
            empty_iyp.get_node("AS", asn="AS2914").id
            == empty_iyp.get_node("AS", asn=2914).id
        )

    def test_hostname_case_dedup(self, empty_iyp):
        assert (
            empty_iyp.get_node("HostName", name="WWW.Example.COM.").id
            == empty_iyp.get_node("HostName", name="www.example.com").id
        )

    def test_country_code_uppercased(self, empty_iyp):
        node = empty_iyp.get_node("Country", country_code="nl")
        assert node.properties["country_code"] == "NL"

    def test_ip_canonicalized(self, empty_iyp):
        node = empty_iyp.get_node("IP", ip="2001:DB8::0001")
        assert node.properties["ip"] == "2001:db8::1"

    def test_unknown_label_rejected(self, empty_iyp):
        with pytest.raises(KeyError):
            empty_iyp.get_node("Widget", id=1)

    def test_missing_key_property_rejected(self, empty_iyp):
        with pytest.raises(TypeError):
            empty_iyp.get_node("AS", name="missing asn")

    def test_extra_properties_merged(self, empty_iyp):
        empty_iyp.get_node("AS", asn=1)
        node = empty_iyp.get_node("AS", properties={"cone": 5}, asn=1)
        assert node.properties["cone"] == 5

    def test_batch_get_nodes_dedups(self, empty_iyp):
        nodes = empty_iyp.batch_get_nodes("AS", "asn", ["AS1", 1, "1", 2])
        assert set(nodes) == {1, 2}
        assert empty_iyp.store.node_count == 2


class TestProvenance:
    def test_reference_properties_stamped(self, empty_iyp):
        a = empty_iyp.get_node("AS", asn=1)
        p = empty_iyp.get_node("Prefix", prefix="10.0.0.0/8")
        ref = Reference("BGPKIT", "bgpkit.pfx2as", url_data="https://x", time_fetch="t")
        rel = empty_iyp.add_link(a, "ORIGINATE", p, reference=ref)
        assert rel.properties["reference_org"] == "BGPKIT"
        assert rel.properties["reference_name"] == "bgpkit.pfx2as"
        assert rel.properties["reference_url_data"] == "https://x"
        assert rel.properties["reference_time_fetch"] == "t"

    def test_same_dataset_does_not_duplicate(self, empty_iyp):
        a = empty_iyp.get_node("AS", asn=1)
        p = empty_iyp.get_node("Prefix", prefix="10.0.0.0/8")
        ref = Reference("BGPKIT", "bgpkit.pfx2as")
        empty_iyp.add_link(a, "ORIGINATE", p, reference=ref)
        empty_iyp.add_link(a, "ORIGINATE", p, reference=ref)
        assert empty_iyp.store.relationship_count == 1

    def test_two_datasets_yield_parallel_links(self, empty_iyp):
        # Section 2.3: the semantically same link from two datasets
        # stays two distinct relationships.
        a = empty_iyp.get_node("AS", asn=1)
        p = empty_iyp.get_node("Prefix", prefix="10.0.0.0/8")
        empty_iyp.add_link(a, "ORIGINATE", p, reference=Reference("BGPKIT", "bgpkit.pfx2as"))
        empty_iyp.add_link(a, "ORIGINATE", p, reference=Reference("IHR", "ihr.rov"))
        assert empty_iyp.store.relationship_count == 2

    def test_dataset_selectable_by_reference_name(self, empty_iyp):
        a = empty_iyp.get_node("AS", asn=1)
        p = empty_iyp.get_node("Prefix", prefix="10.0.0.0/8")
        empty_iyp.add_link(a, "ORIGINATE", p, reference=Reference("BGPKIT", "bgpkit.pfx2as"))
        empty_iyp.add_link(a, "ORIGINATE", p, reference=Reference("IHR", "ihr.rov"))
        result = empty_iyp.run(
            "MATCH (:AS)-[r:ORIGINATE {reference_name:'ihr.rov'}]->(:Prefix) "
            "RETURN count(r)"
        )
        assert result.value() == 1


class TestQueriesAndSummary:
    def test_run_docstring_example(self, empty_iyp):
        asn = empty_iyp.get_node("AS", asn="AS2914")
        pfx = empty_iyp.get_node("Prefix", prefix="10.0.0.0/8")
        empty_iyp.add_link(asn, "ORIGINATE", pfx, reference=Reference("BGPKIT", "x"))
        value = empty_iyp.run(
            "MATCH (a:AS)-[:ORIGINATE]-(:Prefix) RETURN a.asn"
        ).value()
        assert value == 2914

    def test_summary_counts(self, empty_iyp):
        empty_iyp.get_node("AS", asn=1)
        empty_iyp.get_node("AS", asn=2)
        summary = empty_iyp.summary()
        assert summary["nodes"] == 2
        assert summary["labels"] == {"AS": 2}

    def test_indexes_exist_for_all_entities(self, empty_iyp):
        from repro.ontology import ENTITIES

        for definition in ENTITIES.values():
            assert empty_iyp.store.has_index(definition.label, definition.key)
