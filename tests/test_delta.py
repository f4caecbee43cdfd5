"""End-to-end incremental ingestion (``repro.delta``).

Covers the whole delta pipeline: record canonicalization, seeded
random-world fuzz asserting diff → DeltaBatch → ``apply_delta``
reproduces the target store exactly, changelog-vs-diff extraction
equivalence, atomicity and edge cases (delete with dangling endpoints,
delete-then-recreate under one key), the IYPD binary file, archive
delta chains on both backends' load paths, the serving follow path
(``QueryService.apply_delta`` + ``ArchiveWatcher``), and the
incremental build itself.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.analytics import compute_statistics
from repro.archive import ArchiveWatcher, SnapshotArchive
from repro.core.diff import snapshot_diff
from repro.delta import (
    DeltaApplyError,
    DeltaBatch,
    DeltaError,
    delta_from_changelog,
    delta_from_diff,
    delta_to_json,
    is_delta_file,
    load_delta,
    read_delta_meta,
    refresh_statistics,
    save_delta,
)
from repro.delta.records import node_key, record_order_key, rel_key
from repro.graphdb.store import GraphStore
from repro.pipeline.build import build_iyp
from repro.server.app import QueryService
from tests.test_optimizer_equivalence import PAPER_LISTINGS, result_multiset

# ---------------------------------------------------------------------------
# Random-store fuzz machinery
# ---------------------------------------------------------------------------

#: (label, key property) pairs drawn from the ontology — node identity
#: in a delta record is exactly this pair plus the key value.
LABEL_KEYS = (
    ("AS", "asn"),
    ("Name", "name"),
    ("Country", "country_code"),
    ("Prefix", "prefix"),
    ("Tag", "label"),
)

DATASETS = ("test.alpha", "test.beta", "test.gamma")
REL_TYPES = ("ORIGINATE", "NAME", "COUNTRY", "CATEGORIZED")


def _key_value(prop: str, index: int):
    return 64000 + index if prop == "asn" else f"{prop}-{index}"


def random_store(rng: random.Random, nodes: int = 50, rels: int = 110) -> GraphStore:
    """A seeded random graph over ontology-shaped identities."""
    store = GraphStore()
    for label, prop in LABEL_KEYS:
        store.create_index(label, prop)
    ids = []
    for index in range(nodes):
        label, prop = LABEL_KEYS[rng.randrange(len(LABEL_KEYS))]
        node = store.create_node(
            {label},
            {prop: _key_value(prop, index), "weight": rng.randrange(100)},
        )
        ids.append(node.id)
    seen = set()
    created = attempts = 0
    while created < rels and attempts < rels * 10:
        attempts += 1
        start, end = rng.choice(ids), rng.choice(ids)
        rel_type, dataset = rng.choice(REL_TYPES), rng.choice(DATASETS)
        if (start, rel_type, end, dataset) in seen:
            continue
        seen.add((start, rel_type, end, dataset))
        store.create_relationship(
            start, rel_type, end,
            {"reference_name": dataset, "count": rng.randrange(5)},
        )
        created += 1
    return store


def copy_store(store: GraphStore) -> GraphStore:
    """An independent deep copy preserving ids, indexes, constraints."""
    return GraphStore.from_records(
        [
            (node.id, set(node.labels), dict(node.properties))
            for node in store.iter_nodes()
        ],
        [
            (rel.id, rel.type, rel.start_id, rel.end_id, dict(rel.properties))
            for rel in store.iter_relationships()
        ],
        indexes=store.indexes(),
        constraints=store.constraints(),
    )


def _rel_identities(store: GraphStore) -> set[tuple]:
    out = set()
    for rel in store.iter_relationships():
        out.add(
            (rel.start_id, rel.type, rel.end_id,
             rel.properties.get("reference_name", ""))
        )
    return out


def mutate(rng: random.Random, store: GraphStore, ops: int = 40) -> None:
    """Random in-place churn that stays inside what deltas model: key
    properties and surviving nodes' label sets are never touched."""
    counter = 10_000
    for _ in range(ops):
        node_ids = [node.id for node in store.iter_nodes()]
        rel_ids = [rel.id for rel in store.iter_relationships()]
        op = rng.randrange(7)
        if op == 0:  # create a node under a fresh key
            label, prop = LABEL_KEYS[rng.randrange(len(LABEL_KEYS))]
            store.create_node(
                {label}, {prop: _key_value(prop, counter), "weight": 1}
            )
            counter += 1
        elif op == 1 and node_ids:  # delete a node (with its links)
            store.delete_node(rng.choice(node_ids), detach=True)
        elif op == 2 and node_ids:  # update non-key properties
            store.update_node(
                rng.choice(node_ids),
                {"weight": rng.randrange(100), "color": rng.choice("rgb")},
            )
        elif op == 3 and rel_ids:  # delete a relationship
            store.delete_relationship(rng.choice(rel_ids))
        elif op == 4 and len(node_ids) >= 2:  # create a relationship
            start, end = rng.choice(node_ids), rng.choice(node_ids)
            rel_type, dataset = rng.choice(REL_TYPES), rng.choice(DATASETS)
            if (start, rel_type, end, dataset) in _rel_identities(store):
                continue
            store.create_relationship(
                start, rel_type, end,
                {"reference_name": dataset, "count": rng.randrange(5)},
            )
        elif op == 5 and rel_ids:  # update relationship properties
            store.update_relationship(
                rng.choice(rel_ids), {"count": rng.randrange(5)}
            )
        elif op == 6 and node_ids:  # delete + recreate under the same key
            node = store.get_node(rng.choice(node_ids))
            labels, props = set(node.labels), dict(node.properties)
            store.delete_node(node.id, detach=True)
            props["weight"] = rng.randrange(100)
            store.create_node(labels, props)


def assert_stores_equivalent(expected: GraphStore, actual: GraphStore) -> None:
    """Identity-level equality: nodes, relationships, properties,
    indexes, constraints, and derived counts all match."""
    diff = snapshot_diff(expected, actual)
    assert diff.unchanged, json.dumps(diff.summary(), indent=1)
    assert actual.node_count == expected.node_count
    assert actual.relationship_count == expected.relationship_count
    assert actual.label_counts() == expected.label_counts()
    assert (
        actual.relationship_type_counts()
        == expected.relationship_type_counts()
    )
    assert sorted(actual.indexes()) == sorted(expected.indexes())
    assert sorted(actual.constraints()) == sorted(expected.constraints())
    # The hash indexes must agree with the data they index.
    for label, prop in actual.indexes():
        for node in actual.nodes_with_label(label):
            value = node.properties.get(prop)
            if value is not None and isinstance(value, (str, int, float, bool)):
                assert node.id in {
                    found.id for found in actual.find_nodes(label, prop, value)
                }


# ---------------------------------------------------------------------------
# Record canonicalization
# ---------------------------------------------------------------------------


class TestDeltaRecords:
    def test_node_key_rejects_non_scalar(self):
        with pytest.raises(DeltaError):
            node_key("AS", "asn", [1, 2])

    def test_batch_roundtrips_through_dict(self):
        record = {
            "op": "create", "entity": "node",
            "key": node_key("AS", "asn", 65000),
            "labels": ["AS"], "properties": {"asn": 65000},
        }
        batch = DeltaBatch(records=[record], base_label="b", base_checksum="c")
        again = DeltaBatch.from_dict(batch.to_dict())
        assert again.records == batch.records
        assert again.base_label == "b" and again.base_checksum == "c"

    def test_out_of_order_batch_rejected(self):
        create = {
            "op": "create", "entity": "node",
            "key": node_key("AS", "asn", 1),
            "labels": ["AS"], "properties": {"asn": 1},
        }
        delete = {
            "op": "delete", "entity": "node",
            "key": node_key("AS", "asn", 2),
        }
        ordered = DeltaBatch(records=sorted(
            [create, delete], key=record_order_key
        ))
        ordered.validate()
        with pytest.raises(DeltaError, match="order"):
            DeltaBatch(records=[create, delete]).validate()

    def test_rel_key_shape(self):
        key = rel_key(
            node_key("AS", "asn", 1), "ORIGINATE",
            node_key("Prefix", "prefix", "10.0.0.0/8"), "test.bgp",
        )
        assert key["type"] == "ORIGINATE"
        assert key["dataset"] == "test.bgp"
        assert key["start"]["label"] == "AS"


# ---------------------------------------------------------------------------
# Fuzz: diff -> DeltaBatch -> apply reproduces the target exactly
# ---------------------------------------------------------------------------


class TestFuzzRoundtrip:
    @pytest.mark.parametrize("seed", range(8))
    def test_diff_delta_apply_roundtrip(self, seed):
        rng = random.Random(seed)
        old = random_store(rng)
        target = copy_store(old)
        mutate(rng, target)
        batch = delta_from_diff(old, target)
        batch.validate()
        applied = copy_store(old)
        previous = compute_statistics(applied, components=False)
        version_before = applied.version
        result = applied.apply_delta(batch)
        assert applied.version == version_before + 1
        assert result.version == applied.version
        assert_stores_equivalent(target, applied)
        refreshed = refresh_statistics(previous, applied, result.events)
        assert refreshed == compute_statistics(applied, components=False)

    @pytest.mark.parametrize("seed", range(8))
    def test_changelog_matches_diff(self, seed):
        rng = random.Random(1000 + seed)
        old = random_store(rng)
        target = copy_store(old)
        with target.track_changes() as events:
            mutate(rng, target)
        from_log = delta_from_changelog(target, events)
        from_diff = delta_from_diff(old, target)
        assert from_log.records == from_diff.records

    @pytest.mark.parametrize("seed", range(4))
    def test_empty_delta_for_identical_stores(self, seed):
        rng = random.Random(2000 + seed)
        old = random_store(rng)
        batch = delta_from_diff(old, copy_store(old))
        assert batch.empty
        applied = copy_store(old)
        applied.apply_delta(batch)
        assert_stores_equivalent(old, applied)


# ---------------------------------------------------------------------------
# Apply semantics and edge cases
# ---------------------------------------------------------------------------


def _two_as_store() -> GraphStore:
    store = GraphStore()
    store.create_index("AS", "asn")
    a = store.create_node({"AS"}, {"asn": 1})
    b = store.create_node({"AS"}, {"asn": 2})
    store.create_relationship(
        a.id, "PEERS_WITH", b.id, {"reference_name": "test.bgp"}
    )
    store.create_relationship(
        b.id, "PEERS_WITH", a.id, {"reference_name": "test.bgp"}
    )
    return store


class TestApplyEdgeCases:
    def test_node_delete_detaches_dangling_relationships(self):
        store = _two_as_store()
        batch = DeltaBatch(records=[
            {"op": "delete", "entity": "node", "key": node_key("AS", "asn", 2)}
        ])
        result = store.apply_delta(batch)
        assert store.node_count == 1
        assert store.relationship_count == 0
        assert result.nodes_deleted == 1
        assert result.relationships_deleted == 2

    def test_delete_then_recreate_same_key_in_one_batch(self):
        store = _two_as_store()
        records = sorted(
            [
                {"op": "delete", "entity": "node",
                 "key": node_key("AS", "asn", 2)},
                {"op": "create", "entity": "node",
                 "key": node_key("AS", "asn", 2),
                 "labels": ["AS"], "properties": {"asn": 2, "fresh": True}},
            ],
            key=record_order_key,
        )
        store.apply_delta(DeltaBatch(records=records))
        (node,) = store.find_nodes("AS", "asn", 2)
        assert node.properties.get("fresh") is True
        assert store.relationship_count == 0  # old links died with the old node

    def test_unknown_node_delete_is_atomic_noop(self):
        store = _two_as_store()
        records = sorted(
            [
                {"op": "create", "entity": "node",
                 "key": node_key("AS", "asn", 3),
                 "labels": ["AS"], "properties": {"asn": 3}},
                {"op": "delete", "entity": "node",
                 "key": node_key("AS", "asn", 99)},
            ],
            key=record_order_key,
        )
        with pytest.raises(DeltaApplyError, match="99"):
            store.apply_delta(DeltaBatch(records=records))
        # Prevalidation rejected the whole batch: nothing was applied.
        assert store.find_nodes("AS", "asn", 3) == []
        assert store.node_count == 2 and store.relationship_count == 2

    def test_rel_create_with_missing_endpoint_rejected(self):
        store = _two_as_store()
        batch = DeltaBatch(records=[{
            "op": "create", "entity": "rel",
            "key": rel_key(node_key("AS", "asn", 1), "PEERS_WITH",
                           node_key("AS", "asn", 42), "test.bgp"),
            "properties": {},
        }])
        with pytest.raises(DeltaApplyError):
            store.apply_delta(batch)
        assert store.relationship_count == 2

    def test_key_property_mutation_rejected_at_extraction(self):
        old = _two_as_store()
        new = copy_store(old)
        (node,) = new.find_nodes("AS", "asn", 2)
        new.delete_node(node.id, detach=True)
        replacement = new.create_node({"AS"}, {"asn": 2})
        with new.track_changes() as events:
            new.update_node(replacement.id, {"asn": 20})
        with pytest.raises(DeltaError, match="key"):
            delta_from_changelog(new, events)


class TestStatisticsRefresh:
    """``refresh_statistics`` over the changelog of an apply equals a
    fresh ``compute_statistics`` — also where the tallies it replaced
    were blind (label adds) or delicate (self-loops, detaching deletes)."""

    @staticmethod
    def refreshed(store: GraphStore, records: list[dict]):
        previous = compute_statistics(store, components=False)
        result = store.apply_delta(DeltaBatch(records=records))
        return refresh_statistics(previous, store, result.events)

    def test_added_label_counts_the_nodes_expansions(self):
        store = GraphStore()
        store.create_index("AS", "asn")
        store.create_index("Prefix", "prefix")
        origin = store.create_node({"AS"}, {"asn": 1})
        prefix = store.create_node({"Prefix"}, {"prefix": "10.0.0.0/8"})
        store.create_relationship(
            origin.id, "ORIGINATE", prefix.id, {"reference_name": "test.bgp"}
        )
        refreshed = self.refreshed(store, [{
            "op": "update", "entity": "node",
            "key": node_key("Prefix", "prefix", "10.0.0.0/8"),
            "changes": {}, "add_labels": ["RPKIPrefix"],
        }])
        assert refreshed.expansions[("RPKIPrefix", "ORIGINATE", "in")] == 1.0
        assert refreshed == compute_statistics(store, components=False)

    def test_self_loop_created_then_deleted(self):
        store = _two_as_store()
        loop = {
            "entity": "rel",
            "key": rel_key(node_key("AS", "asn", 1), "PEERS_WITH",
                           node_key("AS", "asn", 1), "test.bgp"),
        }
        refreshed = self.refreshed(store, [{**loop, "op": "create", "properties": {}}])
        assert refreshed.degree_histograms[("PEERS_WITH", "both")] == {3: 1, 2: 1}
        assert refreshed == compute_statistics(store, components=False)
        refreshed = self.refreshed(store, [{**loop, "op": "delete"}])
        assert refreshed == compute_statistics(store, components=False)

    def test_detaching_node_delete(self):
        store = _two_as_store()
        refreshed = self.refreshed(store, [
            {"op": "delete", "entity": "node", "key": node_key("AS", "asn", 2)}
        ])
        assert refreshed.degree_histograms == {
            ("*", "out"): {0: 1}, ("*", "in"): {0: 1}, ("*", "both"): {0: 1},
        }
        assert refreshed == compute_statistics(store, components=False)


# ---------------------------------------------------------------------------
# The IYPD binary file
# ---------------------------------------------------------------------------


class TestDeltaFile:
    def _batch(self) -> DeltaBatch:
        old = _two_as_store()
        new = copy_store(old)
        (node,) = new.find_nodes("AS", "asn", 1)
        new.update_node(node.id, {"name": "RENAMED"})
        return delta_from_diff(old, new)

    def test_roundtrip_and_determinism(self, tmp_path):
        batch = self._batch()
        first, second = tmp_path / "a.iypd", tmp_path / "b.iypd"
        for path in (first, second):
            save_delta(batch, path, base_label="base", base_checksum="abc",
                       nodes_after=2, relationships_after=2)
        assert first.read_bytes() == second.read_bytes()
        assert is_delta_file(first)
        loaded, meta = load_delta(first)
        assert loaded.records == batch.records
        assert meta["base_label"] == "base"
        assert meta["base_checksum"] == "abc"
        assert read_delta_meta(first)["nodes"] == 2

    def test_full_snapshot_is_not_a_delta_file(self, tmp_path):
        from repro.archive.format import save_snapshot_v2

        path = tmp_path / "full.iyp"
        save_snapshot_v2(_two_as_store(), path)
        assert not is_delta_file(path)

    def test_json_rendering_parses(self):
        batch = self._batch()
        payload = json.loads(delta_to_json(batch))
        assert payload["format"] == "iyp-delta"
        assert payload["records"] == batch.records


# ---------------------------------------------------------------------------
# Archive delta chains, on both backends' load paths
# ---------------------------------------------------------------------------


@pytest.fixture
def chain_archive(tmp_path):
    """Archive with base full snapshot + two delta entries, and the
    three store states they describe."""
    archive = SnapshotArchive(tmp_path / "archive")
    base = _two_as_store()
    archive.add(base, "2024-05-01")

    step1 = copy_store(base)
    (node,) = step1.find_nodes("AS", "asn", 1)
    step1.update_node(node.id, {"name": "FIRST"})
    archive.add_delta(
        step1, delta_from_diff(base, step1), "2024-05-08", base="2024-05-01"
    )

    step2 = copy_store(step1)
    step2.create_node({"AS"}, {"asn": 3})
    archive.add_delta(
        step2, delta_from_diff(step1, step2), "2024-05-15", base="2024-05-08"
    )
    return archive, base, step1, step2


class TestArchiveDeltaChain:
    def test_chain_load_matches_each_state(self, chain_archive):
        archive, base, step1, step2 = chain_archive
        assert_stores_equivalent(step1, archive.load("2024-05-08"))
        assert_stores_equivalent(step2, archive.load("2024-05-15"))
        assert_stores_equivalent(base, archive.load("2024-05-01"))

    def test_reopened_archive_still_loads_chain(self, chain_archive):
        archive, _base, _step1, step2 = chain_archive
        reopened = SnapshotArchive(archive.root)
        assert_stores_equivalent(step2, reopened.load("latest"))

    def test_verify_covers_delta_entries(self, chain_archive):
        archive, *_ = chain_archive
        report = archive.verify(deep=True)
        assert report.ok, [problem for _, problem in report.problems]

    def test_columnar_backend_loads_delta_chain(self, chain_archive):
        from repro.columnar import ColumnarGraphStore

        archive, _base, _step1, step2 = chain_archive
        columnar = ColumnarGraphStore.from_store(archive.load("latest"))
        assert columnar.node_count == step2.node_count
        assert columnar.relationship_count == step2.relationship_count
        assert columnar.label_counts() == step2.label_counts()

    def test_prune_keeps_transitive_base_chain(self, chain_archive):
        archive, _base, _step1, step2 = chain_archive
        removed = archive.prune(keep=1)
        # The surviving delta still loads: its full base must survive too.
        kept = [entry.label for entry in archive.entries()]
        assert "2024-05-15" in kept and "2024-05-01" in kept
        assert all(entry.label == "2024-05-08" for entry in removed)
        assert_stores_equivalent(step2, archive.load("latest"))

    def test_delta_against_missing_base_fails_loudly(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "archive")
        base = _two_as_store()
        archive.add(base, "full-1")
        step = copy_store(base)
        step.create_node({"AS"}, {"asn": 9})
        archive.add_delta(step, delta_from_diff(base, step), "delta-1")
        manifest = json.loads(archive.manifest_path.read_text())
        for entry in manifest["snapshots"]:
            if entry["label"] == "delta-1":
                entry["base"] = "nonexistent"
        archive.manifest_path.write_text(json.dumps(manifest))
        reopened = SnapshotArchive(archive.root)
        with pytest.raises(KeyError):
            reopened.load("delta-1")


# ---------------------------------------------------------------------------
# Serving: QueryService.apply_delta and the --watch watcher
# ---------------------------------------------------------------------------


def _service_with_archive(tmp_path, backend="dict"):
    archive = SnapshotArchive(tmp_path / "archive")
    base = _two_as_store()
    archive.add(base, "gen-1")
    store = archive.load("gen-1")
    if backend == "columnar":  # frozen: no apply_delta
        from repro.columnar import ColumnarGraphStore

        store = ColumnarGraphStore.from_store(store)
    service = QueryService(store, archive=archive, snapshot_label="gen-1")
    return service, archive, base


class TestServiceApplyDelta:
    def test_apply_updates_label_and_invalidates_cache(self, tmp_path):
        service, _archive, base = _service_with_archive(tmp_path)
        query = "MATCH (a:AS) RETURN count(a) AS n"
        assert service.execute(query)["rows"] == [[2]]
        assert service.execute(query)["meta"]["cached"] is True

        new = copy_store(base)
        new.create_node({"AS"}, {"asn": 3})
        body = service.apply_delta(delta_from_diff(base, new), label="gen-2")
        assert body["snapshot"] == "gen-2"
        assert service.snapshot_label == "gen-2"
        assert body["applied"]["nodes_created"] == 1

        fresh = service.execute(query)
        assert fresh["rows"] == [[3]]
        assert fresh["meta"]["cached"] is False
        # In-place: same generation, no swap counted.
        assert service.generation == 0

    def test_bad_batch_leaves_service_untouched(self, tmp_path):
        service, _archive, _base = _service_with_archive(tmp_path)
        batch = DeltaBatch(records=[
            {"op": "delete", "entity": "node", "key": node_key("AS", "asn", 77)}
        ])
        with pytest.raises(DeltaApplyError):
            service.apply_delta(batch, label="gen-2")
        assert service.snapshot_label == "gen-1"
        assert service.store.node_count == 2


def _archive_next_delta(archive, base, asn, label, base_label):
    """Archive ``base`` + one more AS as a delta entry; returns the new store."""
    new = copy_store(base)
    new.create_node({"AS"}, {"asn": asn})
    archive.add_delta(new, delta_from_diff(base, new), label, base=base_label)
    return new


class TestArchiveWatcher:
    def test_unchanged_manifest_is_not_reparsed(self, tmp_path):
        service, archive, _base = _service_with_archive(tmp_path)
        watcher = ArchiveWatcher(service, archive)
        assert watcher.check_once() is False  # parses once, already current
        assert watcher.check_once() is False
        assert watcher.check_once() is False
        assert watcher.skipped_polls >= 2

    def test_follow_applies_delta_chain_in_place(self, tmp_path):
        service, archive, base = _service_with_archive(tmp_path)
        watcher = ArchiveWatcher(service, archive)
        watcher.check_once()
        _archive_next_delta(archive, base, 3, "gen-2", "gen-1")

        assert watcher.check_once() is True
        assert watcher.delta_applies == 1
        assert watcher.swaps == 0
        assert service.snapshot_label == "gen-2"
        assert service.store.node_count == 3
        assert service.generation == 0  # no swap happened

    def test_follow_falls_back_to_swap_on_full_snapshot(self, tmp_path):
        service, archive, base = _service_with_archive(tmp_path)
        watcher = ArchiveWatcher(service, archive)
        new = copy_store(base)
        new.create_node({"AS"}, {"asn": 3})
        archive.add(new, "gen-2")  # a full snapshot breaks the chain

        assert watcher.check_once() is True
        assert watcher.swaps == 1
        assert watcher.delta_applies == 0
        assert service.snapshot_label == "gen-2"
        assert service.generation == 1

    def test_store_without_apply_delta_swaps_on_delta_entry(self, tmp_path):
        """``--backend columnar``: the frozen store cannot take a delta,
        so the entry arrives through the chain-aware load-and-swap."""
        service, archive, base = _service_with_archive(tmp_path, "columnar")
        watcher = ArchiveWatcher(service, archive)
        _archive_next_delta(archive, base, 3, "gen-2", "gen-1")

        assert watcher.check_once() is True
        assert (watcher.swaps, watcher.delta_applies) == (1, 0)
        assert service.snapshot_label == "gen-2"
        assert service.store.node_count == 3
        assert service.generation == 1

    def test_checksum_mismatch_applies_nothing(self, tmp_path):
        """A chain whose tail fails base-checksum verification is refused
        whole: the head is not replayed, and the swap fallback (which
        verifies the same chain) leaves the old label serving."""
        service, archive, base = _service_with_archive(tmp_path)
        watcher = ArchiveWatcher(service, archive)
        second = _archive_next_delta(archive, base, 3, "gen-2", "gen-1")
        _archive_next_delta(archive, second, 4, "gen-3", "gen-2")
        manifest = json.loads(archive.manifest_path.read_text())
        manifest["snapshots"][1]["checksum"] = "0" * 64  # gen-3 no longer fits
        archive.manifest_path.write_text(json.dumps(manifest))

        assert watcher.check_once() is False
        assert (watcher.swaps, watcher.delta_applies) == (0, 0)
        assert service.snapshot_label == "gen-1"
        assert service.store.node_count == 2

    @pytest.mark.parametrize("backend", ["dict", "columnar"])
    def test_corrupt_newest_entry_keeps_old_label_serving(
        self, tmp_path, backend, caplog
    ):
        service, archive, base = _service_with_archive(tmp_path, backend)
        watcher = ArchiveWatcher(service, archive)
        new = copy_store(base)
        new.create_node({"AS"}, {"asn": 3})
        entry = archive.add(new, "gen-2")
        path = archive.path(entry)
        path.write_bytes(path.read_bytes()[:-10])  # truncated dump

        with caplog.at_level("WARNING", logger="repro.archive"):
            assert watcher.check_once() is False
        assert "swap to 'gen-2' failed" in caplog.text
        assert service.snapshot_label == "gen-1"
        assert service.execute("MATCH (a:AS) RETURN count(a) AS n")["rows"] == [[2]]

        _archive_next_delta(archive, base, 5, "gen-3", "gen-1")  # a good entry
        assert watcher.check_once() is True
        assert service.snapshot_label == "gen-3"
        assert service.store.node_count == 3


# ---------------------------------------------------------------------------
# The incremental build
# ---------------------------------------------------------------------------

#: Small dataset slice: the three AS-name sources plus one structural
#: source that the rename churn must not re-run.
_NAME_DATASETS = [
    "bgptools.as_names",
    "emileaben.as_names",
    "ripe.as_names",
    "bgpkit.pfx2as",
]


class TestIncrementalBuild:
    def test_incremental_equals_scratch_rebuild(self, small_world):
        iyp, report = build_iyp(
            small_world, dataset_names=list(_NAME_DATASETS),
            validate=False, analytics=False,
        )
        assert all(run.payload_checksum for run in report.crawler_runs)

        # A live service on an independent copy of week 1 (the
        # incremental build mutates ``iyp.store`` itself).
        service = QueryService(copy_store(iyp.store))

        new_world = copy.deepcopy(small_world)
        renamed = sorted(new_world.ases)[0]
        new_world.ases[renamed].name += " (renamed)"

        iyp2, report2 = build_iyp(
            new_world, dataset_names=list(_NAME_DATASETS),
            incremental=True, previous=report, iyp=iyp,
            validate=False, analytics=False,
        )
        assert report2.incremental
        assert report2.postprocess_skipped
        skipped = {run.name for run in report2.crawler_runs if run.skipped}
        assert "bgpkit.pfx2as" in skipped  # prefix data did not change
        assert not report2.delta.empty

        scratch, _ = build_iyp(
            new_world, dataset_names=list(_NAME_DATASETS),
            validate=False, analytics=False,
        )
        assert_stores_equivalent(scratch.store, iyp2.store)

        # The delta alone advances the served week-1 store to week 2,
        # and it then answers the paper listings like the rebuild.
        service.apply_delta(report2.delta, label="week-2")
        assert_stores_equivalent(scratch.store, service.store)
        rows = 0
        for name in sorted(PAPER_LISTINGS):
            parameters = {"org_name": "none"} if name == "LISTING_3" else None
            expected = scratch.engine.run(PAPER_LISTINGS[name], parameters)
            served = service.engine.run(PAPER_LISTINGS[name], parameters)
            assert result_multiset(expected) == result_multiset(served), name
            rows += len(expected.records)
        assert rows > 0, "replay matched nothing"

    def test_no_churn_build_skips_everything(self, small_world):
        iyp, report = build_iyp(
            small_world, dataset_names=list(_NAME_DATASETS),
            validate=False, analytics=False,
        )
        _iyp2, report2 = build_iyp(
            small_world, dataset_names=list(_NAME_DATASETS),
            incremental=True, previous=report, iyp=iyp,
            validate=False, analytics=False,
        )
        assert all(run.skipped for run in report2.crawler_runs)
        assert report2.delta.empty
        assert report2.postprocess_skipped

    def test_previous_report_roundtrips_through_metadata(self, small_world):
        from repro.pipeline.build import BuildReport

        _iyp, report = build_iyp(
            small_world, dataset_names=list(_NAME_DATASETS),
            validate=False, analytics=False,
        )
        rebuilt = BuildReport.from_build_metadata(report.build_metadata())
        assert [run.name for run in rebuilt.crawler_runs] == [
            run.name for run in report.crawler_runs
        ]
        assert all(
            rebuilt_run.payload_checksum == run.payload_checksum
            for rebuilt_run, run in zip(
                rebuilt.crawler_runs, report.crawler_runs, strict=True
            )
        )

    def test_incremental_requires_previous_and_store(self, small_world):
        with pytest.raises(ValueError, match="previous"):
            build_iyp(small_world, incremental=True)

    def test_incremental_archives_delta_entry(self, small_world, tmp_path):
        archive = SnapshotArchive(tmp_path / "archive")
        iyp, report = build_iyp(
            small_world, dataset_names=list(_NAME_DATASETS),
            validate=False, analytics=False,
            archive=archive, archive_label="week-1",
        )
        new_world = copy.deepcopy(small_world)
        renamed = sorted(new_world.ases)[0]
        new_world.ases[renamed].name += " (renamed)"
        _iyp2, report2 = build_iyp(
            new_world, dataset_names=list(_NAME_DATASETS),
            incremental=True, previous=report, iyp=iyp,
            validate=False, analytics=False,
            archive=archive, archive_label="week-2",
        )
        entry = archive.resolve("week-2")
        assert entry.kind == "delta" and entry.base == "week-1"
        assert report2.archived_as == "week-2"
        assert_stores_equivalent(iyp.store, archive.load("week-2"))
