"""The IYP facade: canonicalization, provenance, dataset parallelism."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IYP, Reference
from repro.core.diff import snapshot_diff
from repro.nettypes.asn import InvalidASNError
from repro.obs import AccessCollector, collecting


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

    def test_batch_get_nodes_validates_like_get_node(self, empty_iyp):
        with pytest.raises(KeyError):
            empty_iyp.batch_get_nodes("Widget", "id", [1])
        with pytest.raises(TypeError):  # not the identifying property
            empty_iyp.batch_get_nodes("AS", "name", ["NTT"])
        assert empty_iyp.store.node_count == 0


class TestCanonicalMemo:
    """The per-instance memo in front of ``EntityDef.canonical``."""

    def test_spellings_of_one_identifier_share_a_node(self, empty_iyp):
        ids = {empty_iyp.get_node("AS", asn=raw).id for raw in (1, "1", "AS1", 1)}
        assert len(ids) == 1

    def test_hash_equal_raw_values_are_not_conflated(self, empty_iyp):
        # 1 == True share a dict slot; parse_asn(True) must keep raising
        # once asn=1 has been memoized, in either call form.
        empty_iyp.get_node("AS", asn=1)
        with pytest.raises(InvalidASNError):
            empty_iyp.get_node("AS", asn=True)
        with pytest.raises(InvalidASNError):
            empty_iyp.batch_get_nodes("AS", "asn", [1, True])
        with pytest.raises(InvalidASNError):
            empty_iyp.canonicalize("AS", "asn", True)
        assert empty_iyp.store.node_count == 1

    def test_invalid_spelling_is_not_cached(self, empty_iyp):
        for _ in range(2):
            with pytest.raises(InvalidASNError):
                empty_iyp.get_node("AS", asn="bogus")
        assert (str, "bogus") not in empty_iyp._canonical["AS"]
        assert empty_iyp.store.node_count == 0

    def test_unhashable_input_bypasses_the_memo(self, empty_iyp):
        # The canonicalizer's own error, not "unhashable type: 'list'".
        with pytest.raises(AttributeError):
            empty_iyp.get_node("AS", asn=[1])
        assert empty_iyp._canonical["AS"] == {}

    def test_memo_is_per_instance(self, empty_iyp):
        empty_iyp.get_node("AS", asn="AS7")
        assert IYP()._canonical["AS"] == {}


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


# ---------------------------------------------------------------------------
# Bulk ≡ per-datapoint
# ---------------------------------------------------------------------------

#: Raw identifiers per (label, key property): duplicates by construction
#: (small pools) and several spellings of one canonical value.
_SPELLINGS = {
    ("AS", "asn"): [1, "1", "AS1", "as2", 2, 3, "AS3"],
    ("Prefix", "prefix"): ["10.0.0.0/8", "2001:DB8::/32", "2001:0db8::/32"],
    ("HostName", "name"): ["a.example.com", "A.Example.COM.", "b.example.com"],
}
_REFERENCES = [
    None,
    Reference("Org A", "dataset.a", url_data="https://a"),
    Reference("Org B", "dataset.b"),
    Reference("Org O", "dataset.other"),  # the one already in the store
]
_datapoints = st.lists(
    st.sampled_from(sorted(_SPELLINGS)).flatmap(
        lambda column: st.tuples(
            st.just(column), st.sampled_from(_SPELLINGS[column])
        )
    ),
    min_size=1, max_size=14,
)
_links = st.lists(
    st.tuples(
        st.integers(0, 13), st.sampled_from(["PEERS_WITH", "DEPENDS_ON"]),
        st.integers(0, 13),
        st.sampled_from([None, {"rel": 0}, {"rel": 1}, {"hege": 0.5}]),
        st.sampled_from(_REFERENCES),
    ),
    max_size=14,
)


def _seeded() -> IYP:
    """A store that already holds an edge from another dataset."""
    iyp = IYP()
    one, two = iyp.get_node("AS", asn=1), iyp.get_node("AS", asn=2)
    iyp.add_link(one, "PEERS_WITH", two, {"rel": 0}, _REFERENCES[3])
    return iyp


def _drive(datapoints, links, node_columns, bulk: bool):
    """Load the datapoints then the links, one at a time or in columns;
    ``node_columns`` lists the datapoint positions of each bulk call."""
    iyp = _seeded()
    nodes: dict[int, object] = {}
    with collecting(AccessCollector()) as collector:
        with iyp.store.track_changes() as events:
            if bulk:
                for positions in node_columns:
                    label, key_prop = datapoints[positions[0]][0]
                    values = [datapoints[i][1] for i in positions]
                    by_key = iyp.batch_get_nodes(label, key_prop, values)
                    for i, value in zip(positions, values):
                        nodes[i] = by_key[iyp.canonicalize(label, key_prop, value)]
            else:
                for i, ((label, key_prop), value) in enumerate(datapoints):
                    nodes[i] = iyp.get_node(label, **{key_prop: value})
            rows = [
                (nodes[start % len(nodes)], rel_type, nodes[end % len(nodes)],
                 properties, reference)
                for start, rel_type, end, properties, reference in links
            ]
            # One add_links per run of rows sharing a Reference.
            for reference, run in itertools.groupby(rows, key=lambda row: row[4]):
                batch = [row[:4] for row in run]
                if bulk:
                    assert iyp.add_links(batch, reference) == len(batch)
                else:
                    for row in batch:
                        iyp.add_link(*row, reference)
    return iyp, events, collector.hits


def _records(store):
    """Every entity with its id: equal only when ids are."""
    return (
        [(n.id, n.labels, n.properties) for n in store.iter_nodes()],
        [(r.id, r.type, r.start_id, r.end_id, r.properties)
         for r in store.iter_relationships()],
    )


@settings(max_examples=60, deadline=None)
@given(_datapoints, _links, st.booleans())
def test_bulk_calls_equal_per_datapoint_calls(datapoints, links, by_label):
    """``batch_get_nodes`` / ``add_links`` build the graph, the changelog
    and the counters that ``get_node`` / ``add_link`` build."""
    positions = range(len(datapoints))

    def column_of(position):
        return datapoints[position][0]

    if by_label:  # what a crawler does: one column per label
        node_columns = [
            [i for i in positions if column_of(i) == column]
            for column in dict.fromkeys(map(column_of, positions))
        ]
    else:  # runs of one label: entities are touched in the same order
        node_columns = [
            list(run) for _, run in itertools.groupby(positions, key=column_of)
        ]
    single, single_events, single_hits = _drive(datapoints, links, node_columns, False)
    bulk, bulk_events, bulk_hits = _drive(datapoints, links, node_columns, True)

    assert snapshot_diff(single.store, bulk.store).unchanged
    assert bulk_hits == single_hits
    assert [e.kind for e in bulk_events] == [e.kind for e in single_events]
    if not by_label:
        assert bulk_events == single_events  # ids and before/after values too
        assert _records(bulk.store) == _records(single.store)
