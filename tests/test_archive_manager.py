"""The snapshot archive: manifest, retention, integrity, deltas."""

import hashlib
import json

import pytest

from repro.archive import ArchiveEntry, SnapshotArchive
from repro.cli import main
from repro.core import IYP, Reference
from repro.graphdb import load_snapshot
from repro.graphdb.snapshot import snapshot_dict
from tests.conftest import write_v1_snapshot


def _mini_iyp(extra_asn: int | None = None) -> IYP:
    iyp = IYP()
    ref = Reference("T", "test.bgp")
    a = iyp.get_node("AS", asn=1)
    p = iyp.get_node("Prefix", prefix="10.0.0.0/8")
    iyp.add_link(a, "ORIGINATE", p, reference=ref)
    if extra_asn is not None:
        b = iyp.get_node("AS", asn=extra_asn)
        iyp.add_link(b, "ORIGINATE", p, reference=ref)
    return iyp


@pytest.fixture
def archive(tmp_path):
    return SnapshotArchive(tmp_path / "archive")


def _add_v1_entry(archive, store, label):
    """An entry as pre-IYP2 archives recorded it: a gzip-JSON file and
    ``"format": 1`` in the manifest.  ``add`` no longer writes these."""
    path = archive.root / f"{label}.json.gz"
    write_v1_snapshot(store, path)
    checksum = hashlib.sha256(path.read_bytes()).hexdigest()
    entry = ArchiveEntry(
        label, path.name, 1, checksum, store.node_count, store.relationship_count
    )
    archive._write_manifest([*archive.entries(), entry])
    return path


class TestAddAndResolve:
    def test_add_and_load(self, archive):
        store = _mini_iyp().store
        entry = archive.add(store, "2024-05-01")
        assert entry.label == "2024-05-01"
        assert entry.nodes == store.node_count
        assert entry.relationships == store.relationship_count
        assert snapshot_dict(archive.load("2024-05-01")) == snapshot_dict(store)

    def test_manifest_persists_across_instances(self, archive):
        archive.add(_mini_iyp().store, "2024-05-01")
        reopened = SnapshotArchive(archive.root)
        assert reopened.labels() == ["2024-05-01"]
        assert reopened.resolve("latest").label == "2024-05-01"

    def test_duplicate_label_rejected(self, archive):
        archive.add(_mini_iyp().store, "2024-05-01")
        with pytest.raises(ValueError, match="2024-05-01"):
            archive.add(_mini_iyp().store, "2024-05-01")

    def test_resolve_latest_prefix_and_unknown(self, archive):
        archive.add(_mini_iyp().store, "2024-05-01")
        archive.add(_mini_iyp(extra_asn=2).store, "2024-05-08")
        assert archive.resolve("latest").label == "2024-05-08"
        assert archive.resolve("2024-05-01").label == "2024-05-01"
        assert archive.resolve("2024-05-08").label == "2024-05-08"
        with pytest.raises(KeyError, match="ambiguous"):
            archive.resolve("2024-05")
        with pytest.raises(KeyError, match="no archived snapshot"):
            archive.resolve("2030-01-01")

    def test_resolve_latest_on_empty_archive(self, archive):
        with pytest.raises(KeyError):
            archive.resolve("latest")

    def test_v1_format_entries_supported(self, archive):
        """Read compatibility with pre-IYP2 dumps, at every entry point:
        the file, a ``"format": 1`` manifest entry, and the one-way
        migration ``repro archive add old.json.gz``."""
        store = _mini_iyp().store
        path = _add_v1_entry(archive, store, "old-style")
        assert snapshot_dict(load_snapshot(path)) == snapshot_dict(store)
        assert archive.resolve("old-style").format == 1
        assert snapshot_dict(archive.load("old-style")) == snapshot_dict(store)

        code = main([
            "archive", "add", str(path), "--dir", str(archive.root),
            "--label", "migrated",
        ])
        assert code == 0
        migrated = archive.resolve("migrated")
        assert migrated.format == 2 and migrated.filename == "migrated.iyp2"
        assert snapshot_dict(archive.load("migrated")) == snapshot_dict(store)

    def test_build_metadata_recorded(self, archive):
        entry = archive.add(
            _mini_iyp().store, "b1", build={"total_seconds": 1.5, "crawlers": 3}
        )
        assert archive.resolve("b1").build == {"total_seconds": 1.5, "crawlers": 3}
        info = archive.info("b1")
        assert info["build"]["crawlers"] == 3
        assert info["bytes"] > 0
        assert entry.checksum == json.loads(
            (archive.root / "manifest.json").read_text()
        )["snapshots"][0]["checksum"]


class TestDedupAndDelta:
    def test_identical_snapshots_share_one_file(self, archive):
        e1 = archive.add(_mini_iyp().store, "a")
        e2 = archive.add(_mini_iyp().store, "b")
        assert e1.checksum == e2.checksum
        assert e1.filename == e2.filename
        assert len(list(archive.root.glob("*.iyp2"))) == 1
        assert e2.delta["identical"] is True

    def test_delta_between_consecutive_snapshots(self, archive):
        archive.add(_mini_iyp().store, "t0")
        e2 = archive.add(_mini_iyp(extra_asn=2).store, "t1")
        assert e2.delta["vs"] == "t0"
        assert e2.delta["identical"] is False
        assert e2.delta["nodes_added"] == {"AS": 1}

    def test_first_entry_has_no_delta(self, archive):
        entry = archive.add(_mini_iyp().store, "t0")
        assert entry.delta is None

    def test_diff_between_named_entries(self, archive):
        archive.add(_mini_iyp().store, "t0")
        archive.add(_mini_iyp(extra_asn=2).store, "t1")
        diff = archive.diff("t0", "t1")
        assert diff.nodes_added == [("AS", 2)]
        assert archive.diff("t0", "t0").unchanged


class TestVerify:
    def test_clean_archive_verifies(self, archive):
        archive.add(_mini_iyp().store, "t0")
        _add_v1_entry(archive, _mini_iyp(extra_asn=2).store, "t1")
        report = archive.verify(deep=True)
        assert report.ok
        assert report.entries_checked == 2

    def test_missing_file_detected(self, archive):
        entry = archive.add(_mini_iyp().store, "t0")
        archive.path(entry).unlink()
        report = archive.verify()
        assert not report.ok
        assert "missing" in report.problems[0]

    def test_corrupted_file_detected(self, archive):
        entry = archive.add(_mini_iyp().store, "t0")
        path = archive.path(entry)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF
        path.write_bytes(bytes(raw))
        report = archive.verify()
        assert not report.ok
        assert "checksum" in report.problems[0]

    def test_deep_verify_catches_count_drift(self, archive):
        entry = archive.add(_mini_iyp().store, "t0")
        # Tamper with the manifest counts but keep the file intact.
        manifest_path = archive.root / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["snapshots"][0]["nodes"] = 999
        manifest_path.write_text(json.dumps(manifest))
        report = SnapshotArchive(archive.root).verify(deep=True)
        assert not report.ok
        assert any("999" in problem for problem in report.problems)
        assert entry.nodes != 999


class TestPruneAndRetention:
    def test_prune_keeps_newest(self, archive):
        for i in range(4):
            archive.add(_mini_iyp(extra_asn=10 + i).store, f"t{i}")
        removed = archive.prune(keep=2)
        assert [entry.label for entry in removed] == ["t0", "t1"]
        assert archive.labels() == ["t2", "t3"]
        assert archive.verify(deep=True).ok

    def test_prune_spares_files_shared_by_dedup(self, archive):
        archive.add(_mini_iyp().store, "t0")
        archive.add(_mini_iyp().store, "t1")  # dedups onto t0's file
        archive.add(_mini_iyp(extra_asn=2).store, "t2")
        archive.prune(keep=2)
        assert archive.labels() == ["t1", "t2"]
        assert archive.verify(deep=True).ok

    def test_retention_policy_applies_on_add(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "archive", retention=2)
        for i in range(4):
            archive.add(_mini_iyp(extra_asn=10 + i).store, f"t{i}")
        assert archive.labels() == ["t2", "t3"]
        assert archive.verify(deep=True).ok
