"""Longitudinal series and snapshot diffing."""

import pytest

from repro.core import IYP, Reference
from repro.core.diff import snapshot_diff
from repro.ontology import node_identity
from repro.studies.longitudinal import SnapshotSeries


def _mini_iyp(with_extra: bool = False) -> IYP:
    iyp = IYP()
    ref = Reference("T", "test.bgp")
    a = iyp.get_node("AS", asn=1)
    p = iyp.get_node("Prefix", prefix="10.0.0.0/8")
    iyp.add_link(a, "ORIGINATE", p, reference=ref)
    if with_extra:
        b = iyp.get_node("AS", asn=2)
        iyp.add_link(b, "ORIGINATE", p, reference=ref)
    return iyp


class TestSnapshotDiff:
    def test_identical_snapshots_unchanged(self):
        diff = snapshot_diff(_mini_iyp().store, _mini_iyp().store)
        assert diff.unchanged

    def test_added_node_and_link(self):
        diff = snapshot_diff(_mini_iyp().store, _mini_iyp(with_extra=True).store)
        assert diff.nodes_added == [("AS", 2)]
        assert not diff.nodes_removed
        assert len(diff.relationships_added) == 1
        start, rel_type, end, dataset = diff.relationships_added[0]
        assert start == ("AS", 2) and rel_type == "ORIGINATE"
        assert end == ("Prefix", "10.0.0.0/8") and dataset == "test.bgp"

    def test_removed_is_symmetric(self):
        diff = snapshot_diff(_mini_iyp(with_extra=True).store, _mini_iyp().store)
        assert diff.nodes_removed == [("AS", 2)]
        assert len(diff.relationships_removed) == 1

    def test_identity_ignores_internal_ids(self):
        # Build the same content in a different insertion order.
        iyp = IYP()
        ref = Reference("T", "test.bgp")
        p = iyp.get_node("Prefix", prefix="10.0.0.0/8")
        a = iyp.get_node("AS", asn=1)
        iyp.add_link(a, "ORIGINATE", p, reference=ref)
        diff = snapshot_diff(_mini_iyp().store, iyp.store)
        assert diff.unchanged

    def test_same_link_different_dataset_counts_as_change(self):
        left = _mini_iyp()
        right = _mini_iyp()
        a = right.store.find_nodes("AS", "asn", 1)[0]
        p = right.store.find_nodes("Prefix", "prefix", "10.0.0.0/8")[0]
        right.add_link(a, "ORIGINATE", p, reference=Reference("U", "other.bgp"))
        diff = snapshot_diff(left.store, right.store)
        assert len(diff.relationships_added) == 1
        assert diff.relationships_added[0][3] == "other.bgp"

    def test_summary_counts(self):
        diff = snapshot_diff(_mini_iyp().store, _mini_iyp(with_extra=True).store)
        summary = diff.summary()
        assert summary["nodes_added"] == {"AS": 1}
        assert summary["relationships_added"] == {"ORIGINATE": 1}

    def test_node_identity(self):
        iyp = _mini_iyp()
        node = iyp.store.find_nodes("AS", "asn", 1)[0]
        assert node_identity(node.labels, node.properties) == ("AS", 1)


class TestModifiedEntities:
    """Property-level changes on entities present in both snapshots."""

    def test_modified_node_properties(self):
        left = _mini_iyp()
        right = _mini_iyp()
        node = right.store.find_nodes("AS", "asn", 1)[0]
        right.store.update_node(node.id, {"name": "RENAMED", "rank": 7})
        diff = snapshot_diff(left.store, right.store)
        assert not diff.unchanged
        assert not diff.nodes_added and not diff.nodes_removed
        [(key, changes)] = diff.nodes_modified
        assert key == ("AS", 1)
        assert changes["name"] == (None, "RENAMED")
        assert changes["rank"] == (None, 7)

    def test_modified_value_reports_before_and_after(self):
        left = _mini_iyp()
        right = _mini_iyp()
        for iyp, rank in ((left, 3), (right, 7)):
            node = iyp.store.find_nodes("AS", "asn", 1)[0]
            iyp.store.update_node(node.id, {"rank": rank})
        diff = snapshot_diff(left.store, right.store)
        [(key, changes)] = diff.nodes_modified
        assert changes == {"rank": (3, 7)}

    def test_type_change_counts_as_modification(self):
        # 1 == True in Python; the diff must still see the type flip.
        left = _mini_iyp()
        right = _mini_iyp()
        for iyp, value in ((left, 1), (right, True)):
            node = iyp.store.find_nodes("AS", "asn", 1)[0]
            iyp.store.update_node(node.id, {"flag": value})
        diff = snapshot_diff(left.store, right.store)
        [(_, changes)] = diff.nodes_modified
        assert changes == {"flag": (1, True)}

    def test_modified_relationship_properties(self):
        left = _mini_iyp()
        right = _mini_iyp()
        rel = next(iter(right.store.iter_relationships()))
        right.store.update_relationship(rel.id, {"count": 9})
        diff = snapshot_diff(left.store, right.store)
        [(key, changes)] = diff.relationships_modified
        assert key[1] == "ORIGINATE"
        assert changes["count"] == (None, 9)

    def test_summary_counts_modifications(self):
        left = _mini_iyp()
        right = _mini_iyp()
        node = right.store.find_nodes("AS", "asn", 1)[0]
        right.store.update_node(node.id, {"rank": 7})
        summary = snapshot_diff(left.store, right.store).summary()
        assert summary["nodes_modified"] == {"AS": 1}
        assert summary["relationships_modified"] == {}

    def test_unchanged_requires_no_modifications(self):
        assert snapshot_diff(_mini_iyp().store, _mini_iyp().store).unchanged


class TestSeriesFromArchive:
    def test_series_loads_archived_snapshots_in_order(self, tmp_path):
        from repro.archive import SnapshotArchive

        archive = SnapshotArchive(tmp_path / "archive")
        archive.add(_mini_iyp().store, "t0")
        archive.add(_mini_iyp(with_extra=True).store, "t1")
        series = SnapshotSeries.from_archive(archive)
        assert list(series.snapshots) == ["t0", "t1"]
        assert series.metric("MATCH (a:AS) RETURN count(a)") == {"t0": 1, "t1": 2}

    def test_label_filter(self, tmp_path):
        from repro.archive import SnapshotArchive

        archive = SnapshotArchive(tmp_path / "archive")
        archive.add(_mini_iyp().store, "t0")
        archive.add(_mini_iyp(with_extra=True).store, "t1")
        series = SnapshotSeries.from_archive(archive, labels=["t1"])
        assert list(series.snapshots) == ["t1"]


class TestLongitudinal:
    @pytest.fixture(scope="class")
    def series(self):
        series = SnapshotSeries()
        series.add("t0", _mini_iyp())
        series.add("t1", _mini_iyp(with_extra=True))
        return series

    def test_metric_series(self, series):
        counts = series.metric("MATCH (a:AS) RETURN count(a)")
        assert counts == {"t0": 1, "t1": 2}

    def test_trend_preserves_order(self, series):
        trend = series.trend("MATCH (a:AS) RETURN count(a)")
        assert trend == [("t0", 1), ("t1", 2)]

    def test_run_full_results(self, series):
        results = series.run("MATCH (a:AS) RETURN a.asn ORDER BY a.asn")
        assert results["t1"].column() == [1, 2]

    def test_study_runner(self, series):
        sizes = series.study(lambda iyp: iyp.store.node_count)
        assert sizes["t1"] == sizes["t0"] + 1

    def test_paper_arc_2015_to_2024(self):
        # The Limitations-section workflow on the era presets: RPKI
        # coverage of all announced prefixes across two eras.
        from repro.pipeline import build_iyp
        from repro.simnet import WorldConfig, build_world

        series = SnapshotSeries()
        for label, config in (
            ("2015", WorldConfig.year2015(scale=0.1, n_domains=500, n_ases=150)),
            ("2024", WorldConfig(seed=20240501, scale=0.1, n_domains=500,
                                 n_ases=150)),
        ):
            iyp, _report = build_iyp(
                build_world(config), dataset_names=["ihr.rov"], postprocess=False
            )
            series.add(label, iyp)
        coverage = series.metric(
            """
            MATCH (p:Prefix)
            OPTIONAL MATCH (p)-[:CATEGORIZED]-(t:Tag)
            WHERE t.label IN ['RPKI Valid', 'RPKI Invalid',
                              'RPKI Invalid,more-specific']
            WITH p, count(t) AS tags
            RETURN 100.0 * sum(CASE WHEN tags > 0 THEN 1 ELSE 0 END) / count(p)
            """
        )
        assert coverage["2024"] > 4 * coverage["2015"]
