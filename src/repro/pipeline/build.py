"""One-call knowledge-graph construction.

``build_iyp(world)`` runs every registered crawler against the world's
simulated datasets (Knowledge Extraction), lets the shared IYP facade
fuse identical entities (Fusion), and finishes with the refinement pass
— the three columns of the paper's Figure 2.

Each crawler runs under its own telemetry scope: a tracer span, a
thread-local :class:`~repro.obs.record.AccessCollector` counting the
store mutations it caused (nodes/relationships created vs merged), and a
structured JSON log line on ``repro.pipeline``.  The per-crawler numbers
land in :class:`BuildReport.crawler_runs`.

Incremental builds (``build_iyp(..., incremental=True)``) reuse the
previous build's store and :class:`BuildReport` instead of starting
over: every fetched payload is checksummed (the
:class:`~repro.datasets.base.RecordingFetcher` is always in the path,
so any build can seed the next incremental one), crawlers whose inputs
did not change are skipped entirely, changed crawlers re-run against
the live store with change tracking on, links they no longer assert are
retired, and the refinement pass re-runs only when the churn touched
structure it actually reads — as one more source under the same
retirement rule.  The net effect of the whole build lands
in ``report.delta`` as an ordered
:class:`~repro.delta.records.DeltaBatch` ready for
:meth:`~repro.graphdb.store.GraphStore.apply_delta` on a replica.  The
finish costs what changed too: the schema report and the analytics
report are the previous build's, advanced over the same changelog —
unless the previous report does not carry them or no longer describes
the store, in which case the from-scratch passes run.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.core import IYP
from repro.datasets.base import FetchError, RecordingFetcher
from repro.datasets.registry import crawlers_for, make_fetcher
from repro.graphdb.errors import GraphError
from repro.graphdb.store import ChangeEvent, GraphStore
from repro.lint import GraphValidationReport, GraphValidator, touched_entities
from repro.obs import NULL_TRACER, AccessCollector, Tracer, collecting
from repro.ontology import DATASET_PROPERTY
from repro.pipeline.postprocess import (
    READ_LABELS,
    READ_PROPERTIES,
    REFINEMENT_REFERENCE,
    run_postprocessing,
)
from repro.simnet.world import World

log = logging.getLogger("repro.pipeline")

#: Kinds of changelog events that mark a relationship as still asserted
#: by the crawler that just re-ran (anything else it contributed before
#: is stale and gets retired).
_TOUCH_KINDS = frozenset({"rel_created", "rel_merged", "rel_updated"})


@dataclass
class CrawlerRun:
    """Telemetry for one crawler execution."""

    name: str
    seconds: float = 0.0
    nodes_created: int = 0
    nodes_merged: int = 0
    relationships_created: int = 0
    relationships_merged: int = 0
    error: str | None = None
    #: One checksum over every payload the crawler fetched; the next
    #: incremental build compares it to decide whether to re-run.
    payload_checksum: str = ""
    #: The URLs behind that checksum, in fetch order.
    urls: list[str] = field(default_factory=list)
    #: True when an incremental build proved the inputs unchanged and
    #: did not run the crawler at all.
    skipped: bool = False
    #: Stale links retired after an incremental re-run (links the
    #: previous build attributed to this crawler that the re-run no
    #: longer asserted).
    relationships_deleted: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seconds": round(self.seconds, 6),
            "nodes_created": self.nodes_created,
            "nodes_merged": self.nodes_merged,
            "relationships_created": self.relationships_created,
            "relationships_merged": self.relationships_merged,
            "relationships_deleted": self.relationships_deleted,
            "error": self.error,
            "payload_checksum": self.payload_checksum,
            "urls": list(self.urls),
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CrawlerRun":
        """Rebuild a run record from manifest build metadata."""
        return cls(
            name=data["name"],
            seconds=data.get("seconds", 0.0),
            nodes_created=data.get("nodes_created", 0),
            nodes_merged=data.get("nodes_merged", 0),
            relationships_created=data.get("relationships_created", 0),
            relationships_merged=data.get("relationships_merged", 0),
            relationships_deleted=data.get("relationships_deleted", 0),
            error=data.get("error"),
            payload_checksum=data.get("payload_checksum", ""),
            urls=list(data.get("urls", ())),
            skipped=data.get("skipped", False),
        )


@dataclass
class BuildReport:
    """What happened during a build: timings, sizes, failures."""

    crawler_seconds: dict[str, float] = field(default_factory=dict)
    crawler_errors: dict[str, str] = field(default_factory=dict)
    crawler_runs: list[CrawlerRun] = field(default_factory=list)
    refinement_counts: dict[str, int] = field(default_factory=dict)
    total_seconds: float = 0.0
    nodes: int = 0
    relationships: int = 0
    trace_id: str | None = None
    schema_report: GraphValidationReport | None = None
    archived_as: str | None = None
    #: Build-time analytics precompute
    #: (:class:`repro.analytics.AnalyticsReport`): graph statistics plus
    #: the cached rows of every precompute procedure.  None when the
    #: build ran with ``analytics=False``.
    analytics: Any | None = None
    #: True when this report came from an incremental build.
    incremental: bool = False
    #: True when an incremental build proved the refinement pass could
    #: not observe any of the churn and skipped it.
    postprocess_skipped: bool = False
    #: The build's net effect as an ordered
    #: :class:`~repro.delta.records.DeltaBatch` (incremental builds
    #: only): apply it to a copy of the previous store and you get this
    #: build's result.
    delta: Any | None = None

    @property
    def ok(self) -> bool:
        if self.crawler_errors:
            return False
        return self.schema_report is None or self.schema_report.ok

    def build_metadata(self) -> dict[str, Any]:
        """The build facts an archive manifest entry records.

        The per-crawler runs ride along so data-quality telemetry
        (:mod:`repro.obs.quality`) can derive coverage and fusion
        agreement per source from the manifest alone, without re-running
        the build — and so the *next* build can go incremental straight
        from the manifest (:meth:`from_build_metadata`): the per-crawler
        payload checksums are all it needs to decide what to skip.
        """
        return {
            "total_seconds": round(self.total_seconds, 3),
            "nodes": self.nodes,
            "relationships": self.relationships,
            "crawlers": len(self.crawler_runs),
            "crawler_errors": dict(self.crawler_errors),
            "crawler_runs": [run.to_dict() for run in self.crawler_runs],
            "schema_ok": self.schema_report is None or self.schema_report.ok,
            "trace_id": self.trace_id,
            "incremental": self.incremental,
            "refinement_counts": dict(self.refinement_counts),
        }

    @classmethod
    def from_build_metadata(cls, data: dict[str, Any]) -> "BuildReport":
        """A report good enough to seed an incremental build, rebuilt
        from an archive manifest entry's ``build`` metadata."""
        report = cls(
            total_seconds=data.get("total_seconds", 0.0),
            nodes=data.get("nodes", 0),
            relationships=data.get("relationships", 0),
            crawler_errors=dict(data.get("crawler_errors", {})),
            refinement_counts=dict(data.get("refinement_counts", {})),
            incremental=data.get("incremental", False),
        )
        report.crawler_runs = [
            CrawlerRun.from_dict(entry) for entry in data.get("crawler_runs", ())
        ]
        report.crawler_seconds = {
            run.name: run.seconds for run in report.crawler_runs
        }
        return report


def _execute_crawler(
    crawler: Any,
    fetcher: RecordingFetcher,
    report: BuildReport,
    tracer: Tracer,
    raise_on_error: bool,
) -> CrawlerRun:
    """Run one crawler with full telemetry; always appends its run."""
    run = CrawlerRun(name=crawler.name)
    collector = AccessCollector()
    crawl_start = time.perf_counter()
    fetcher.begin()
    try:
        with tracer.span("crawler", crawler=crawler.name):
            with collecting(collector):
                crawler.run()
    except Exception as exc:  # noqa: BLE001 - report which dataset failed
        run.error = f"{type(exc).__name__}: {exc}"
        if raise_on_error:
            raise
        report.crawler_errors[crawler.name] = run.error
    finally:
        run.urls = fetcher.end()
        run.payload_checksum = fetcher.payload_checksum(run.urls)
        run.seconds = time.perf_counter() - crawl_start
        hits = collector.hits
        run.nodes_created = hits.get("node_created", 0)
        run.nodes_merged = hits.get("node_merged", 0)
        run.relationships_created = hits.get("rel_created", 0)
        run.relationships_merged = hits.get("rel_merged", 0)
        report.crawler_runs.append(run)
        report.crawler_seconds[crawler.name] = run.seconds
        log.info("crawler %s", json.dumps(run.to_dict(), sort_keys=True))
    return run


def _changed_crawlers(
    crawlers: list[Any],
    previous: BuildReport,
    fetcher: RecordingFetcher,
) -> dict[str, bool]:
    """Which crawlers must re-run, by re-checksumming their inputs.

    Unknown crawlers, previously failed ones, and any whose payload
    cannot be re-fetched are conservatively treated as changed.
    """
    prev_runs = {run.name: run for run in previous.crawler_runs}
    changed: dict[str, bool] = {}
    for crawler in crawlers:
        prev = prev_runs.get(crawler.name)
        if prev is None or prev.error or not prev.payload_checksum:
            changed[crawler.name] = True
            continue
        try:
            current = fetcher.payload_checksum(list(prev.urls))
        except FetchError:
            changed[crawler.name] = True
            continue
        changed[crawler.name] = current != prev.payload_checksum
    return changed


def _rels_by_source(store: GraphStore, sources: set[str]) -> dict[str, set[int]]:
    """One scan: relationship ids per watched dataset name."""
    before: dict[str, set[int]] = {name: set() for name in sources}
    for rel in store.iter_relationships():
        name = rel.properties.get(DATASET_PROPERTY)
        if isinstance(name, str) and name in before:
            before[name].add(rel.id)
    return before


def _retire_stale(
    store: GraphStore,
    before: set[int],
    events: list[ChangeEvent],
    dangling: set[int],
) -> int:
    """The retirement rule, one for every dataset: of the links a source
    held ``before`` it re-ran, delete those its re-run (``events``) did
    not touch, and collect their endpoints so orphaned nodes can be
    dropped afterwards.  Returns how many were deleted."""
    touched = {event.entity_id for event in events if event.kind in _TOUCH_KINDS}
    stale = before - touched
    for rel_id in sorted(stale):
        rel = store.get_relationship(rel_id)
        dangling.add(rel.start_id)
        dangling.add(rel.end_id)
        store.delete_relationship(rel_id)
    return len(stale)


def _drop_orphans(
    store: GraphStore, candidates: set[int], pending: set[int]
) -> int:
    """Delete the candidate nodes no link keeps alive.

    Every IYP node exists because some link references it (crawlers and
    refinement only create nodes to connect them), so a node orphaned by
    stale-link retirement would not exist in a from-scratch rebuild
    either.  A link in ``pending`` — output of a source that is about to
    re-run and re-state what it still derives — keeps nothing alive: it
    goes with its node and leaves ``pending``.
    """
    count = 0
    for node_id in sorted(candidates):
        if not store.has_node(node_id):
            continue
        incident = {rel.id for rel in store.relationships_of(node_id)}
        if incident <= pending:
            pending -= incident
            store.delete_node(node_id, detach=True)
            count += 1
    return count


def _postprocess_affected(store: GraphStore, events: list[Any]) -> bool:
    """Could the refinement pass observe any of this build's churn?

    True when a structural event (or a property change it reads) touches
    one of :data:`~repro.pipeline.postprocess.READ_LABELS`.  Endpoint
    labels of deleted relationships are resolved through the changelog's
    before-images when the node itself is gone.
    """
    deleted_labels: dict[int, frozenset[str]] = {}
    deleted_endpoints: dict[int, tuple[int, int]] = {}
    for event in events:
        if event.kind == "node_deleted":
            deleted_labels[event.entity_id] = event.labels or frozenset()
        elif event.kind == "rel_deleted":
            assert event.start_id is not None and event.end_id is not None
            deleted_endpoints[event.entity_id] = (event.start_id, event.end_id)

    def labels_of(node_id: int) -> frozenset[str]:
        if store.has_node(node_id):
            return frozenset(store.get_node(node_id).labels)
        return deleted_labels.get(node_id, frozenset())

    for event in events:
        kind = event.kind
        if kind in ("node_created", "node_deleted"):
            if labels_of(event.entity_id) & READ_LABELS:
                return True
        elif kind == "label_added":
            if event.label in READ_LABELS:
                return True
        elif kind == "node_updated":
            if (
                event.changes
                and set(event.changes) & READ_PROPERTIES
                and labels_of(event.entity_id) & READ_LABELS
            ):
                return True
        elif kind in ("rel_created", "rel_deleted"):
            endpoints = deleted_endpoints.get(event.entity_id)
            if endpoints is None:
                try:
                    rel = store.get_relationship(event.entity_id)
                except GraphError:
                    continue
                endpoints = (rel.start_id, rel.end_id)
            if (
                labels_of(endpoints[0]) & READ_LABELS
                or labels_of(endpoints[1]) & READ_LABELS
            ):
                return True
    return False


def _advanceable(
    previous: BuildReport, store: GraphStore
) -> tuple[GraphValidationReport | None, Any | None]:
    """The previous build's schema report and analytics report, each
    only if it can be advanced: present, and counting the nodes and
    relationships ``store`` holds right now, before this build touches
    it.  (A report rebuilt from manifest metadata carries neither; a
    store somebody changed in between disagrees on the counts.)"""
    counts = (store.node_count, store.relationship_count)
    schema, measured = previous.schema_report, previous.analytics
    if schema is not None and counts != (
        schema.nodes_checked, schema.relationships_checked
    ):
        schema = None
    statistics = measured.statistics if measured is not None else None
    if statistics is None or counts != (
        statistics.node_count, statistics.relationship_count
    ):
        measured = None
    return schema, measured


class _Churn(NamedTuple):
    """What the crawl + refine phases of an incremental build did."""

    #: Every store mutation, in order (:meth:`GraphStore.track_changes`).
    events: list[ChangeEvent]
    sources_removed: int
    orphans_dropped: int


def build_iyp(
    world: World,
    dataset_names: list[str] | None = None,
    postprocess: bool = True,
    iyp: IYP | None = None,
    raise_on_error: bool = True,
    tracer: Tracer | None = None,
    validate: bool = True,
    analytics: bool = True,
    archive: Any | None = None,
    archive_label: str | None = None,
    incremental: bool = False,
    previous: BuildReport | None = None,
    archive_base: str = "latest",
) -> tuple[IYP, BuildReport]:
    """Build the knowledge graph from a synthetic world.

    ``dataset_names`` restricts the import to a subset (useful for
    focused tests and the dataset-comparison study); by default every
    dataset in the registry is imported.  Pass ``tracer`` to hang the
    build's span tree off a live tracer.

    With ``validate`` (the default) the finished graph is swept by the
    ontology schema validator; the per-crawler violation report lands in
    ``report.schema_report`` and any violations flip ``report.ok``.

    With ``analytics`` (the default) the finished graph is measured
    once — graph statistics for the cost-based planner plus every
    precompute ``algo.*`` procedure — and the resulting
    :class:`repro.analytics.AnalyticsReport` lands in
    ``report.analytics`` (and, when archiving, in the manifest entry,
    so a serving process can answer those ``CALL`` queries from cache).
    Analytics never affects ``report.ok``.

    Pass ``archive`` (a :class:`repro.archive.SnapshotArchive`) to
    archive the finished graph in one step: the snapshot lands in the
    archive under ``archive_label`` with this report's build metadata on
    its manifest entry, and ``report.archived_as`` records the label.

    With ``incremental`` the build is O(changes) instead of O(world):
    pass the previous build's ``iyp`` (mutated in place) and its
    ``previous`` report (or one rebuilt from the archive manifest via
    :meth:`BuildReport.from_build_metadata`).  Crawlers whose payload
    checksums match the previous build are skipped; changed ones re-run
    under change tracking, after which links they stopped asserting are
    retired (and value nodes orphaned by that, dropped).  The refinement
    pass re-runs only when the churn touched structure it reads; until
    it has, its links keep no node alive, and afterwards those it did
    not re-state are retired like a crawler's.  The
    whole build's net effect lands in ``report.delta``; when archiving,
    the entry is a binary delta against ``archive_base`` instead of a
    full snapshot.  Validation and analytics advance ``previous``'s
    reports over the build's changelog where those describe the store
    (see :func:`_advanceable`) and equal the from-scratch passes, which
    run otherwise.
    """
    started = time.perf_counter()
    if incremental:
        if previous is None:
            raise ValueError("incremental build requires the previous BuildReport")
        if iyp is None:
            raise ValueError(
                "incremental build mutates the previous build's IYP in place"
            )
    iyp = iyp or IYP()
    store = iyp.store
    fetcher = RecordingFetcher(make_fetcher(world))
    tracer = tracer or NULL_TRACER
    report = BuildReport(incremental=incremental)
    with tracer.trace("build") as build_span:
        if build_span is not None:
            report.trace_id = build_span.trace_id
        crawlers = list(crawlers_for(iyp, fetcher, dataset_names))
        churn = prior_schema = prior_analytics = None
        if incremental:
            assert previous is not None
            prior_schema, prior_analytics = _advanceable(previous, store)
            churn = _build_incremental(
                iyp, crawlers, previous, fetcher, report,
                postprocess=postprocess, tracer=tracer,
                raise_on_error=raise_on_error,
                all_sources=dataset_names is None,
            )
        else:
            for crawler in crawlers:
                _execute_crawler(crawler, fetcher, report, tracer, raise_on_error)
            if postprocess:
                with tracer.span("postprocess"):
                    report.refinement_counts = run_postprocessing(iyp)
        rechecked = (0, 0)  # nodes, relationships the validator looked at
        if validate:
            with tracer.span("validate_schema") as span:
                if churn is not None and prior_schema is not None:
                    nodes, rels = touched_entities(store, churn.events)
                    report.schema_report = GraphValidator().revalidate(
                        store, prior_schema, nodes, rels
                    )
                    rechecked = (len(nodes), len(rels))
                else:
                    report.schema_report = GraphValidator().validate(store)
                    rechecked = (store.node_count, store.relationship_count)
                if span is not None:
                    span.attributes.update(
                        nodes_rechecked=rechecked[0],
                        relationships_rechecked=rechecked[1],
                    )
            if not report.schema_report.ok:
                log.warning(
                    "schema validation: %d violation(s) %s",
                    len(report.schema_report.violations),
                    json.dumps(report.schema_report.by_code(), sort_keys=True),
                )
        statistics = "not measured"
        if analytics:
            # Imported here so a build without analytics never pays for
            # the package import.
            from repro.analytics import compute_analytics_report
            from repro.delta.statistics import refresh_analytics

            with tracer.span("analytics") as span:
                if churn is not None and prior_analytics is not None:
                    statistics = "advanced"
                    report.analytics = refresh_analytics(
                        prior_analytics, store, churn.events
                    )
                else:
                    statistics = "recomputed"
                    report.analytics = compute_analytics_report(store)
                if span is not None:
                    span.attributes["statistics"] = statistics
            log.info(
                "analytics precompute: %d procedure(s) in %.3fs",
                len(report.analytics.procedures),
                report.analytics.seconds,
            )
        if churn is not None:
            skipped = sum(1 for run in report.crawler_runs if run.skipped)
            log.info(
                "incremental build: %d/%d crawler(s) skipped, %d source(s) "
                "removed, %d orphan node(s) dropped, postprocess %s, "
                "%d node(s) + %d relationship(s) re-validated, statistics %s, "
                "delta %s",
                skipped, len(crawlers), churn.sources_removed,
                churn.orphans_dropped,
                "skipped" if report.postprocess_skipped else "ran",
                *rechecked, statistics,
                json.dumps(report.delta.summary(), sort_keys=True),
            )
    report.total_seconds = time.perf_counter() - started
    report.nodes = store.node_count
    report.relationships = store.relationship_count
    if archive is not None:
        label = archive_label or f"build-{len(archive.entries()) + 1:04d}"
        analytics_payload = (
            report.analytics.to_dict() if report.analytics is not None else None
        )
        with tracer.span("archive", label=label):
            if incremental and report.delta is not None:
                entry = archive.add_delta(
                    iyp.store,
                    report.delta,
                    label,
                    base=archive_base,
                    build=report.build_metadata(),
                    analytics=analytics_payload,
                )
            else:
                entry = archive.add(
                    iyp.store,
                    label,
                    build=report.build_metadata(),
                    analytics=analytics_payload,
                )
        report.archived_as = entry.label
        log.info(
            "archived %s %s (%s, checksum %s)",
            entry.kind, entry.label, entry.filename, entry.checksum[:12],
        )
    return iyp, report


def _build_incremental(
    iyp: IYP,
    crawlers: list[Any],
    previous: BuildReport,
    fetcher: RecordingFetcher,
    report: BuildReport,
    *,
    postprocess: bool,
    tracer: Tracer,
    raise_on_error: bool,
    all_sources: bool,
) -> _Churn:
    """The incremental crawl + refine phases, mutating ``iyp`` in place.

    Leaves the whole build's net effect in ``report.delta`` and returns
    the changelog it was extracted from.
    """
    from repro.delta import delta_from_changelog

    store = iyp.store
    prev_runs = {run.name: run for run in previous.crawler_runs}
    with tracer.span("checksum"):
        changed = _changed_crawlers(crawlers, previous, fetcher)
    # Sources present last build but gone from the registry now: all
    # their links are stale.  Only meaningful when building the full
    # registry — a dataset_names subset says nothing about the rest.
    current_names = {crawler.name for crawler in crawlers}
    removed = (
        {name for name in prev_runs if name not in current_names}
        if all_sources
        else set()
    )
    watch = {name for name, dirty in changed.items() if dirty} | removed
    with tracer.span("prescan", sources=len(watch)):
        before = _rels_by_source(store, watch) if watch else {}
    dangling: set[int] = set()
    with store.track_changes() as events:
        for crawler in crawlers:
            if not changed[crawler.name]:
                prev = prev_runs[crawler.name]
                run = CrawlerRun(
                    name=crawler.name,
                    skipped=True,
                    payload_checksum=prev.payload_checksum,
                    urls=list(prev.urls),
                )
                report.crawler_runs.append(run)
                report.crawler_seconds[crawler.name] = 0.0
                continue
            mark = len(events)
            run = _execute_crawler(crawler, fetcher, report, tracer, raise_on_error)
            if run.error is None:
                # Everything the re-run created, merged, or updated is
                # still asserted; the rest of its previous contribution
                # is stale.  A failed run retires nothing — its old
                # links outlive the failure, exactly like a failed full
                # rebuild would keep serving the old snapshot.
                run.relationships_deleted = _retire_stale(
                    store, before.get(crawler.name, set()), events[mark:],
                    dangling,
                )
        for name in sorted(removed):
            _retire_stale(store, before.get(name, set()), [], dangling)
        # The refinement re-runs as one more source, after the crawlers
        # it reads.  Until it re-states its links they are stale, so they
        # keep no node alive: a node only the pass still links is dropped
        # here, and re-created if the new graph still implies it.
        rerun = postprocess and _postprocess_affected(store, events)
        refined: set[int] = set()
        if rerun:
            refinement = REFINEMENT_REFERENCE.dataset_name
            refined = _rels_by_source(store, {refinement})[refinement]
            for rel_id in refined:
                rel = store.get_relationship(rel_id)
                dangling.update((rel.start_id, rel.end_id))
        orphans_dropped = _drop_orphans(store, dangling, refined)
        if rerun:
            mark = len(events)
            with tracer.span("postprocess"):
                report.refinement_counts = run_postprocessing(iyp)
            # The endpoints of what it retires all kept a crawler's link
            # through the drop above, so nothing more is orphaned.
            _retire_stale(store, refined, events[mark:], set())
        elif postprocess:
            report.postprocess_skipped = True
            report.refinement_counts = dict(previous.refinement_counts)
    with tracer.span("extract_delta"):
        report.delta = delta_from_changelog(store, events)
    return _Churn(events, len(removed), orphans_dropped)
