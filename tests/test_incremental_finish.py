"""The finish of an incremental build costs what changed — and changes nothing.

An incremental ``build_iyp`` advances the previous build's schema report
and analytics report over its own changelog instead of sweeping the
graph again.  The from-scratch functions stay the definition:
``GraphValidator.validate``, ``compute_analytics_report`` and
``compute_statistics`` are the oracles every step of a seeded sequence
of world edits and injected violations is compared against, on the
builder and on a replica that only ever applied ``report.delta``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import compute_analytics_report, compute_statistics
from repro.archive import SnapshotArchive
from repro.archive.manager import MANIFEST_VERSION
from repro.core import IYP
from repro.delta import delta_from_changelog, refresh_analytics, refresh_statistics
from repro.lint import GraphValidator, touched_entities
from repro.obs import Tracer
from repro.pipeline.build import BuildReport, build_iyp
from repro.simnet.world import ASInfo
from tests.test_delta import copy_store, mutate, random_store

#: Names (renames), origins (re-origination) and the AS graph PageRank
#: and the customer cones read.
DATASETS = ["bgptools.as_names", "ripe.as_names", "bgpkit.pfx2as", "bgpkit.as2rel"]

INJECTED = {"reference_name": "test.injected", "reference_org": "Test"}


@pytest.fixture(scope="module")
def base(small_world):
    iyp, report = build_iyp(small_world, dataset_names=DATASETS)
    assert report.ok
    return iyp.store, report


def analytics_dict(report) -> dict:
    payload = report.to_dict()
    del payload["seconds"]
    return payload


def as_node(store, asn):
    return store.find_nodes("AS", "asn", asn)[0]


def name_rel(store, asn):
    """One ``(:AS)-[:NAME]->(:Name)`` link of ``asn``, the same one on
    any store holding the same graph (ids differ between stores)."""
    return min(
        store.relationships_of(as_node(store, asn).id, rel_type="NAME"),
        key=lambda rel: (
            rel.properties["reference_name"],
            store.get_node(rel.end_id).properties["name"],
        ),
    )


class Lifecycle:
    """A builder and a replica walking through the same history."""

    def __init__(self, base, world):
        store, report = base
        self.world = copy.deepcopy(world)
        self.iyp = IYP(copy_store(store))
        # A copied store counts its versions from zero, like a loaded one.
        self.report = dataclasses.replace(
            report, analytics=report.analytics.for_store(self.iyp.store)
        )
        self.replica = copy_store(store)
        self.replica_statistics = compute_statistics(self.replica, components=False)
        self.tracer = Tracer()

    # -- the oracle ---------------------------------------------------------

    def check(self) -> None:
        store = self.iyp.store
        assert self.report.schema_report == GraphValidator().validate(store)
        assert analytics_dict(self.report.analytics) == analytics_dict(
            compute_analytics_report(store)
        )
        assert self.replica_statistics == compute_statistics(
            self.replica, components=False
        )

    def span(self, name: str) -> dict:
        (span,) = self.tracer.spans_named(self.report.trace_id, name)
        return span.attributes

    # -- world edits, through an incremental build ---------------------------

    def rebuild(self) -> None:
        _, self.report = build_iyp(
            self.world, dataset_names=DATASETS, incremental=True,
            previous=self.report, iyp=self.iyp, tracer=self.tracer,
        )
        store = self.iyp.store
        assert self.span("analytics")["statistics"] == "advanced"
        assert self.span("validate_schema")["nodes_rechecked"] < store.node_count
        result = self.replica.apply_delta(self.report.delta)
        self.replica_statistics = refresh_statistics(
            self.replica_statistics, self.replica, result.events
        )
        self.check()

    def rename(self, rng) -> None:
        self.world.ases[rng.choice(sorted(self.world.ases))].name += " (renamed)"
        self.rebuild()

    def add_as(self, rng) -> None:
        asn = max(self.world.ases) + 1
        self.world.ases[asn] = ASInfo(
            asn=asn, name=f"Added {asn}", org_name="Added", country="NL",
            category="", customers=[rng.choice(sorted(self.world.ases))],
        )
        self.rebuild()

    def remove_as(self, rng) -> None:
        del self.world.ases[rng.choice(sorted(self.world.ases))]
        self.rebuild()

    def reoriginate(self, rng) -> None:
        prefix = rng.choice(sorted(self.world.prefixes))
        self.world.prefixes[prefix].origins = [rng.choice(sorted(self.world.ases))]
        self.rebuild()

    # -- violations, straight into the store under track_changes ------------

    def inject(self, mutate) -> None:
        """Run ``mutate(store)`` on the builder and on the replica, each
        under change tracking, and advance every report over the log."""
        store = self.iyp.store
        with store.track_changes() as events:
            mutate(store)
        self.report = dataclasses.replace(
            self.report,
            schema_report=GraphValidator().revalidate(
                store, self.report.schema_report, *touched_entities(store, events)
            ),
            analytics=refresh_analytics(self.report.analytics, store, events),
        )
        with self.replica.track_changes() as events:
            mutate(self.replica)
        self.replica_statistics = refresh_statistics(
            self.replica_statistics, self.replica, events
        )
        self.check()

    def graph_asn(self, rng) -> int:
        """An AS of the world that is in the graph with a name."""
        store = self.iyp.store
        return rng.choice([
            asn for asn in sorted(self.world.ases)
            if store.find_nodes("AS", "asn", asn)
            and store.relationships_of(as_node(store, asn).id, rel_type="NAME")
        ])

    def stray_reference(self, rng) -> None:
        asn = self.graph_asn(rng)
        self.inject(lambda store: store.update_relationship(
            name_rel(store, asn).id, {"reference_bogus": "x"}
        ))
        assert "SCH006" in self.report.schema_report.by_code()

    def missing_provenance(self, rng) -> None:
        asn = self.graph_asn(rng)
        dataset = name_rel(self.iyp.store, asn).properties["reference_name"]
        broken = {}  # store -> relationship id, to repair the same link

        def strip(store):
            broken[id(store)] = name_rel(store, asn).id
            store.update_relationship(broken[id(store)], {"reference_name": None})

        self.inject(strip)
        assert "SCH005" in self.report.schema_report.by_code()
        self.inject(lambda store: store.update_relationship(
            broken[id(store)], {"reference_name": dataset}
        ))
        assert "SCH005" not in self.report.schema_report.by_code()

    def lost_key(self, rng) -> None:
        asn = self.graph_asn(rng)
        keyless = {}

        def drop(store):
            keyless[id(store)] = as_node(store, asn).id
            store.update_node(keyless[id(store)], {"asn": None})

        self.inject(drop)
        assert "SCH002" in self.report.schema_report.by_code()
        self.inject(lambda store: store.update_node(keyless[id(store)], {"asn": asn}))
        assert "SCH002" not in self.report.schema_report.by_code()

    def forbidden_pair_then_label(self, rng) -> None:
        """``(:AS)-[:MANAGED_BY]->(:Name)`` is no ontology pair; once the
        Name node is also an AuthoritativeNameServer... it still is not,
        but ``(:Prefix)-[:MANAGED_BY]->`` it is: the label alone, on a
        node no event otherwise touches, must clear the violation."""
        asn = self.graph_asn(rng)
        prefix = rng.choice(sorted(self.world.prefixes))
        if not self.iyp.store.find_nodes("Prefix", "prefix", prefix):
            return

        def link(store):
            start = store.find_nodes("Prefix", "prefix", prefix)[0]
            store.create_relationship(
                start.id, "MANAGED_BY", name_rel(store, asn).end_id, INJECTED
            )

        before = self.report.schema_report.by_code().get("SCH004", 0)
        self.inject(link)
        assert self.report.schema_report.by_code()["SCH004"] == before + 1
        self.inject(lambda store: store.add_label(
            name_rel(store, asn).end_id, "AuthoritativeNameServer"
        ))
        assert self.report.schema_report.by_code().get("SCH004", 0) == before


STEPS = (
    Lifecycle.rename,
    Lifecycle.add_as,
    Lifecycle.remove_as,
    Lifecycle.reoriginate,
    Lifecycle.stray_reference,
    Lifecycle.missing_provenance,
    Lifecycle.lost_key,
    Lifecycle.forbidden_pair_then_label,
)


def test_incremental_reports_equal_the_full_functions(base, small_world):
    # The fixtures stay out of the @given signature: hypothesis prints
    # every argument of a falsifying example, and these are megabytes.
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        steps=st.lists(st.sampled_from(STEPS), min_size=4, max_size=9),
        seed=st.integers(0, 2**16),
    )
    def walk(steps, seed):
        rng = random.Random(seed)
        lifecycle = Lifecycle(base, small_world)
        lifecycle.check()
        for step in steps:
            step(lifecycle, rng)

    walk()


def test_every_step_kind_holds(base, small_world):
    """The fixed sequence: each edit and each violation once, violations
    first so that builds carry them."""
    rng = random.Random(18)
    lifecycle = Lifecycle(base, small_world)
    for step in STEPS[4:] + STEPS[:4]:
        step(lifecycle, rng)
    assert not lifecycle.report.schema_report.ok  # the stray reference stays


class TestFallBack:
    """Without something to advance, the from-scratch passes run."""

    def edited(self, base, world) -> Lifecycle:
        lifecycle = Lifecycle(base, world)
        lifecycle.world.ases[min(lifecycle.world.ases)].name += " (renamed)"
        return lifecycle

    def rebuild_fully(self, lifecycle: Lifecycle, previous: BuildReport) -> None:
        store = lifecycle.iyp.store
        _, lifecycle.report = build_iyp(
            lifecycle.world, dataset_names=DATASETS, incremental=True,
            previous=previous, iyp=lifecycle.iyp, tracer=lifecycle.tracer,
        )
        assert lifecycle.report.incremental and not lifecycle.report.delta.empty
        assert lifecycle.span("analytics")["statistics"] == "recomputed"
        assert lifecycle.span("validate_schema") == {
            "nodes_rechecked": store.node_count,
            "relationships_rechecked": store.relationship_count,
        }
        assert lifecycle.report.schema_report == GraphValidator().validate(store)
        assert analytics_dict(lifecycle.report.analytics) == analytics_dict(
            compute_analytics_report(store)
        )

    def test_report_rebuilt_from_manifest_metadata(self, base, small_world):
        lifecycle = self.edited(base, small_world)
        previous = BuildReport.from_build_metadata(lifecycle.report.build_metadata())
        assert previous.schema_report is None and previous.analytics is None
        self.rebuild_fully(lifecycle, previous)

    def test_store_changed_behind_the_reports_back(self, base, small_world):
        lifecycle = self.edited(base, small_world)
        store = lifecycle.iyp.store
        # Nobody tracked this: the previous reports no longer describe
        # the store, and their counts show it.
        stranger = store.create_node({"Tag"}, {})
        store.create_relationship(
            as_node(store, min(small_world.ases)).id, "CATEGORIZED", stranger.id
        )
        self.rebuild_fully(lifecycle, lifecycle.report)
        assert lifecycle.report.schema_report.by_code() == {"SCH002": 1, "SCH005": 1}


class TestManifestIO:
    @pytest.fixture()
    def chain(self, tmp_path, monkeypatch):
        """An archive with a growing delta chain, and the list every read
        of its manifest file is appended to."""
        rng = random.Random(3)
        store = random_store(rng)
        archive = SnapshotArchive(tmp_path / "archive")
        archive.add(store, "full")
        reads: list[Path] = []
        read_text = Path.read_text

        def counting(path, *args, **kwargs):
            if path == archive.manifest_path:
                reads.append(path)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting)

        def grow(label: str) -> None:
            with store.track_changes() as events:
                mutate(rng, store, ops=5)
            batch = delta_from_changelog(store, events)
            reads.clear()
            archive.add_delta(store, batch, label)

        return archive, store, reads, grow

    def test_add_delta_reads_the_manifest_once(self, chain):
        _, _, reads, grow = chain
        for length in range(1, 7):
            grow(f"delta-{length}")
            assert len(reads) == 1, f"chain length {length}"

    def test_add_on_top_of_a_delta_chain_reads_it_once(self, chain):
        archive, store, reads, grow = chain
        grow("delta-1")
        grow("delta-2")
        store.create_node({"Tag"}, {"label": "fresh"})
        reads.clear()
        entry = archive.add(store, "full-2")  # diffs against the loaded chain
        assert entry.delta["vs"] == "delta-2" and not entry.delta["identical"]
        assert len(reads) == 1

    def test_one_entry_per_line(self, chain):
        archive, _, _, grow = chain
        grow("delta-1")
        lines = archive.manifest_path.read_text().splitlines()
        assert len(lines) == 2 + 2  # the array's brackets around two entries
        assert [line.startswith('{"analytics":') for line in lines] == [
            False, True, True, False,
        ]
        assert sum('"label":"delta-1"' in line for line in lines) == 1
        document = json.loads(archive.manifest_path.read_text())
        assert document["manifest_version"] == MANIFEST_VERSION
        assert [entry["label"] for entry in document["snapshots"]] == [
            "full", "delta-1",
        ]
