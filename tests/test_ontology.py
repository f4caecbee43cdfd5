"""The ontology (Tables 6 and 7), its property catalog checked against a
built graph, and the store validator that enforces it."""

import pytest

from repro.graphdb import GraphStore
from repro.lint import GraphValidator
from repro.ontology import (
    ENTITIES,
    NODE_PROPERTIES,
    PROVENANCE,
    REFERENCE_PROPERTIES,
    RELATIONSHIP_PROPERTIES,
    RELATIONSHIPS,
    entity,
    node_identity,
    rel_identity,
    relationship,
    value_kind,
)


class TestTables:
    def test_24_entities_as_in_table6(self):
        assert len(ENTITIES) == 24

    def test_24_relationships_as_in_table7(self):
        assert len(RELATIONSHIPS) == 24

    def test_paper_entities_present(self):
        for label in (
            "AS", "Prefix", "IP", "HostName", "DomainName", "Country",
            "Organization", "IXP", "Tag", "Ranking", "AtlasProbe",
            "AtlasMeasurement", "OpaqueID", "URL",
        ):
            assert label in ENTITIES

    def test_paper_relationships_present(self):
        for rel_type in (
            "ORIGINATE", "RESOLVES_TO", "MANAGED_BY", "PART_OF", "RANK",
            "CATEGORIZED", "COUNTRY", "ROUTE_ORIGIN_AUTHORIZATION",
            "PEERS_WITH", "DEPENDS_ON", "QUERIED_FROM", "MEMBER_OF",
            "SIBLING_OF", "TARGET", "EXTERNAL_ID", "ALIAS_OF",
        ):
            assert rel_type in RELATIONSHIPS

    def test_every_entity_has_key_and_description(self):
        for definition in ENTITIES.values():
            assert definition.key
            assert definition.description

    def test_every_relationship_has_endpoints_and_description(self):
        for definition in RELATIONSHIPS.values():
            assert definition.endpoints
            assert definition.description

    def test_endpoint_labels_are_known_entities(self):
        for definition in RELATIONSHIPS.values():
            for start, end in definition.endpoints:
                assert start == "*" or start in ENTITIES
                assert end == "*" or end in ENTITIES

    def test_lookup_helpers(self):
        assert entity("AS").key == "asn"
        assert relationship("ORIGINATE").endpoints == (("AS", "Prefix"),)
        with pytest.raises(KeyError):
            entity("Nope")

    def test_permits_is_directed(self):
        originate = relationship("ORIGINATE")
        assert originate.permits({"AS"}, {"Prefix"})
        assert not originate.permits({"Prefix"}, {"AS"})
        assert relationship("COUNTRY").permits({"IXP"}, {"Country"})  # wildcard
        assert not relationship("COUNTRY").permits({"Country"}, {"IXP"})

    def test_identity(self):
        # First sorted ontology label whose key is present.
        both = {"HostName", "AuthoritativeNameServer"}
        assert node_identity(both, {"name": "ns1.example"}) == (
            "AuthoritativeNameServer", "ns1.example")
        assert node_identity({"Mystery", "AS"}, {"asn": 1}) == ("AS", 1)
        assert node_identity({"AS"}, {"name": "no asn"}) is None
        assert rel_identity("a", "ORIGINATE", "b", {"reference_name": "x"}) == (
            "a", "ORIGINATE", "b", "x")
        assert rel_identity("a", "ORIGINATE", "b", {})[3] == ""

    def test_canonical_forms_ride_on_the_rows(self):
        assert entity("AS").canonical("AS2914") == 2914
        assert entity("Country").canonical(" nl ") == "NL"
        assert entity("Prefix").canonical("2001:DB8::/32") == "2001:db8::/32"
        assert entity("Tag").canonical("as is") == "as is"


class TestCatalogConformance:
    """The rows' property declarations equal what a build stores."""

    @pytest.fixture(scope="class")
    def stored(self, small_iyp):
        nodes, rels = set(), set()
        for node in small_iyp.store.iter_nodes():
            for label in node.labels:
                for name, value in node.properties.items():
                    nodes.add((label, name, value_kind(value)))
        for rel in small_iyp.store.iter_relationships():
            for name, value in rel.properties.items():
                rels.add((rel.type, name, value_kind(value)))
        return nodes, rels

    def test_node_properties_match_in_both_directions(self, stored):
        nodes, _ = stored
        declared = {
            (label, name, kind)
            for label in {label for label, _, _ in nodes}
            for name, kind in NODE_PROPERTIES[label].items()
        }
        assert nodes - declared == set(), "stored but not declared"
        assert declared - nodes == set(), "declared but never stored"

    def test_relationship_properties_match_in_both_directions(self, stored):
        _, rels = stored
        declared = {
            (rel_type, name, kind)
            for rel_type in {rel_type for rel_type, _, _ in rels}
            for name, kind in RELATIONSHIP_PROPERTIES[rel_type].items()
        }
        # A dataset without, say, a modification time does not stamp
        # one: optional provenance is checked across the whole graph.
        optional = {name for name, _, required in PROVENANCE if not required}
        assert rels - declared == set(), "stored but not declared"
        assert {
            row for row in declared - rels if row[1] not in optional
        } == set(), "declared but never stored"
        assert {name for _, name, _ in rels if name.startswith("reference_")} == set(
            REFERENCE_PROPERTIES
        )


class TestValidator:
    """Each way a store can break the ontology, by the SCH code it trips."""

    REF = {"reference_org": "BGPKIT", "reference_name": "bgpkit.pfx2as"}

    def _valid_store(self):
        store = GraphStore()
        a = store.create_node({"AS"}, {"asn": 1})
        p = store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8"})
        store.create_relationship(a.id, "ORIGINATE", p.id, dict(self.REF))
        return store

    @staticmethod
    def _codes(store):
        return [v.code for v in GraphValidator().validate(store).violations]

    def test_valid_graph_passes(self):
        report = GraphValidator().validate(self._valid_store())
        assert report.ok
        assert report.nodes_checked == 2
        assert report.relationships_checked == 1

    def test_unknown_label_flagged(self):
        store = GraphStore()
        store.create_node({"Mystery"}, {"x": 1})
        assert self._codes(store) == ["SCH001"]

    def test_missing_key_property_flagged(self):
        store = GraphStore()
        store.create_node({"AS"}, {"name": "no asn"})
        assert self._codes(store) == ["SCH002"]

    def test_unknown_relationship_flagged(self):
        store = self._valid_store()
        a = store.nodes_with_label("AS")[0]
        p = store.nodes_with_label("Prefix")[0]
        store.create_relationship(a.id, "FROBNICATES", p.id, dict(self.REF))
        assert self._codes(store) == ["SCH003"]

    def test_bad_endpoints_flagged(self):
        store = GraphStore()
        a = store.create_node({"AS"}, {"asn": 1})
        b = store.create_node({"AS"}, {"asn": 2})
        store.create_relationship(a.id, "RESOLVES_TO", b.id, dict(self.REF))
        assert self._codes(store) == ["SCH004"]

    def test_reverse_orientation_accepted(self):
        # IYP stores links directed but queries them undirected.
        store = GraphStore()
        a = store.create_node({"AS"}, {"asn": 1})
        p = store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8"})
        store.create_relationship(p.id, "ORIGINATE", a.id, dict(self.REF))
        assert self._codes(store) == []

    def test_missing_provenance_flagged(self):
        store = GraphStore()
        a = store.create_node({"AS"}, {"asn": 1})
        p = store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8"})
        store.create_relationship(a.id, "ORIGINATE", p.id)
        assert self._codes(store) == ["SCH005"]

    def test_wildcard_endpoint(self):
        store = GraphStore()
        ixp = store.create_node({"IXP"}, {"name": "X-IX"})
        country = store.create_node({"Country"}, {"country_code": "NL"})
        store.create_relationship(ixp.id, "COUNTRY", country.id, dict(self.REF))
        assert self._codes(store) == []
