"""The four workloads.

Each is a fixed script of *slots* (one timed operation each): a set-up
script executed from scratch a few times, and a round replayed R times
from the same starting state.  Every layer is measured from outside, by
timing calls into its public functions; with the recorder enabled the
same code additionally records harness spans, and the two places where
the untraced pass uses one public call for several stages
(``build_iyp``) drive those stages one by one instead.

All load is closed-loop with one caller.  At most two busy threads
exist at any moment (the harness and, in ``serve_refresh``, the server
thread answering it) and they never compete: writer and reader both run
on the harness thread.
"""

from __future__ import annotations

import copy
import http.client
import json
import shutil
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from repro.analytics import compute_analytics_report, compute_statistics
from repro.archive import SnapshotArchive, save_snapshot_v2
from repro.columnar import attach_manifest, pack_store
from repro.columnar.pool import WorkerPool
from repro.columnar.shm import segment_registry
from repro.core import IYP
from repro.core.diff import snapshot_diff
from repro.cypher import CypherEngine
from repro.cypher.lexer import tokenize
from repro.cypher.parser import parse
from repro.datasets.base import Fetcher, RecordingFetcher
from repro.datasets.registry import crawlers_for, make_fetcher
from repro.graphdb import Direction
from repro.lint import GraphValidator
from repro.obs import AccessCollector, collecting
from repro.pipeline import build_iyp
from repro.pipeline.build import BuildReport, CrawlerRun
from repro.pipeline.postprocess import run_postprocessing
from repro.server import QueryService, create_server, encode_result
from repro.simnet import build_world

from . import metrics, queries
from .spans import Recorder

Slots = list[tuple[str, float]]


def _fastest(function, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return best


# ---------------------------------------------------------------------------
# Timing wrappers handed to the crawlers by the staged build
# ---------------------------------------------------------------------------


class TimedFetcher(Fetcher):
    """Accumulates the time spent rendering dataset payloads."""

    def __init__(self, inner: Fetcher):
        self.inner = inner
        self.seconds = 0.0

    def fetch(self, url: str) -> str:
        started = time.perf_counter()
        try:
            return self.inner.fetch(url)
        finally:
            self.seconds += time.perf_counter() - started


class TimedIYP(IYP):
    """Accumulates the time crawlers spend inside the fusion facade."""

    def __init__(self) -> None:
        super().__init__()
        self.seconds = 0.0
        self._inside = False

    def _timed(self, method, *args, **kwargs):
        if self._inside:  # add_links calls add_link: count the outer call
            return method(*args, **kwargs)
        self._inside = True
        started = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - started
            self._inside = False

    def get_node(self, label, /, properties=None, **key_props):
        return self._timed(super().get_node, label, properties, **key_props)

    def batch_get_nodes(self, label, key_prop, values):
        return self._timed(super().batch_get_nodes, label, key_prop, values)

    def add_link(self, start, rel_type, end, properties=None, reference=None):
        return self._timed(super().add_link, start, rel_type, end, properties,
                           reference)

    def add_links(self, links, reference=None):
        return self._timed(super().add_links, links, reference)


# ---------------------------------------------------------------------------
# Base class
# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, world_seed: int, scratch: Path,
                 recorder: Recorder):
        self.seed = seed
        self.world_seed = world_seed
        self.pinned = queries.PINNED_ROWS.get(world_seed, {})
        self.scratch = scratch
        self.rec = recorder
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.layer: dict[str, float] = {}
        self._slots: Slots = []

    # -- bookkeeping ----------------------------------------------------

    def gate(self, ok: bool, message: str) -> None:
        """One checked operation: counted, and reported when wrong."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    @contextmanager
    def slot(self, name: str, **counts: Any) -> Iterator[dict[str, Any]]:
        """Time one operation of the current script."""
        with self.rec.span(name, **counts) as span_counts:
            started = time.perf_counter()
            try:
                yield span_counts
            finally:
                self._slots.append((name, time.perf_counter() - started))

    def collect(self, script, *args: Any) -> Slots:
        """Run one script (a set-up execution or a round); its slots."""
        self._slots = []
        script(*args)
        return self._slots

    # -- protocol ---------------------------------------------------------

    def setup(self, execution: int) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed, after the last set-up execution."""

    def round(self, index: int) -> None:
        raise NotImplementedError

    def after_round(self, index: int) -> None:
        """Untimed: the round's correctness gates and its clean-up."""

    def finish(self) -> None:
        """Untimed: the gates that need the whole run."""

    def probes(self) -> None:
        """Traced run only: per-layer measurements outside the rounds,
        left in ``self.layer``."""

    def close(self) -> None:
        """Stop everything the workload started."""

    # -- shared scripts -------------------------------------------------

    def make_world(self):
        with self.slot("world"):
            return build_world(metrics.world_config(self.world_seed))

    def build_and_dump(
        self, world, archive: SnapshotArchive, label: str, staged: bool = False
    ) -> tuple[IYP, BuildReport]:
        """``build_iyp(world)`` then ``archive.add`` — what
        ``build_iyp(world, archive=...)`` does — as 46 crawler slots from
        the build's own report, one ``build_finish`` slot defined by
        subtraction (refine + validate + analytics), and ``archive_add``.
        ``staged`` drives the stages one by one to time each layer."""
        started = time.perf_counter()
        if staged:
            iyp, report = self._staged_build(world)
        else:
            iyp, report = build_iyp(world)
        wall = time.perf_counter() - started
        crawl = 0.0
        for run in report.crawler_runs:
            self._slots.append((f"crawler:{run.name}", run.seconds))
            crawl += run.seconds
            self.gate(run.error is None, f"crawler {run.name}: {run.error}")
            if not staged:
                self.rec.add(f"crawler:{run.name}", run.seconds)
        self._slots.append(("build_finish", wall - crawl))
        if not staged:
            self.rec.add("build_finish", wall - crawl)
        self.gate(report.schema_report.ok, "schema validation found violations")
        with self.slot("archive_add") as counts:
            entry = archive.add(
                iyp.store, label,
                build=report.build_metadata(),
                analytics=report.analytics.to_dict(),
            )
            counts["bytes"] = archive.path(entry).stat().st_size
        return iyp, report

    def _staged_build(self, world) -> tuple[IYP, BuildReport]:
        rec = self.rec
        iyp = TimedIYP()
        fetcher = TimedFetcher(RecordingFetcher(make_fetcher(world)))
        report = BuildReport()
        for crawler in crawlers_for(iyp, fetcher):
            collector = AccessCollector()
            fetch_before, merge_before = fetcher.seconds, iyp.seconds
            run = CrawlerRun(name=crawler.name)
            started = time.perf_counter()
            with rec.span(f"crawler:{crawler.name}") as counts:
                try:
                    with collecting(collector):
                        crawler.run()
                except Exception as exc:  # noqa: BLE001 - counted as a failure
                    run.error = f"{type(exc).__name__}: {exc}"
                    report.crawler_errors[crawler.name] = run.error
                run.seconds = time.perf_counter() - started
                hits = collector.hits
                run.nodes_created = hits.get("node_created", 0)
                run.nodes_merged = hits.get("node_merged", 0)
                run.relationships_created = hits.get("rel_created", 0)
                run.relationships_merged = hits.get("rel_merged", 0)
                counts.update(
                    fetch_s=fetcher.seconds - fetch_before,
                    merge_s=iyp.seconds - merge_before,
                    nodes_created=run.nodes_created,
                    nodes_merged=run.nodes_merged,
                    relationships_created=run.relationships_created,
                )
            report.crawler_runs.append(run)
        with rec.span("pipeline.postprocess"):
            report.refinement_counts = run_postprocessing(iyp)
        with rec.span("lint.validate"):
            report.schema_report = GraphValidator().validate(iyp.store)
        with rec.span("analytics.precompute"):
            report.analytics = compute_analytics_report(iyp.store)
        report.nodes = iyp.store.node_count
        report.relationships = iyp.store.relationship_count
        return iyp, report


# ---------------------------------------------------------------------------
# build_dump
# ---------------------------------------------------------------------------


class BuildDump(Workload):
    """The operator's cold write path: build the graph, dump it, check
    that the dump reloads and packs."""

    name = metrics.BUILD

    def setup(self, execution: int) -> None:
        self.world = self.make_world()
        self.checksum: str | None = None
        self.archive = self.iyp = self.report = self.loaded = None

    def round(self, index: int) -> None:
        # Identical starting state: the previous round's graphs are gone
        # (an operator's build starts in a fresh process), and a fresh
        # archive keeps the manifest from growing under the timed window.
        self.iyp = self.report = self.loaded = None
        if self.archive is not None:
            shutil.rmtree(self.archive.root)
        self.archive = SnapshotArchive(self.scratch / "round")
        self.iyp, self.report = self.build_and_dump(
            self.world, self.archive, "week-0", staged=self.rec.enabled
        )
        with self.slot("archive_load"):
            self.loaded = self.archive.load("week-0")
        with self.slot("columnar_pack") as counts:
            manifest = pack_store(self.loaded)
            counts["bytes"] = manifest.size
        with self.slot("columnar_attach"):
            attach_manifest(manifest).close()
            segment_registry().unlink(manifest.name)

    def after_round(self, index: int) -> None:
        checksum = self.archive.resolve("week-0").checksum
        if self.checksum is None:
            self.checksum = checksum
        self.gate(
            checksum == self.checksum,
            f"round {index}: dump bytes differ from the first round "
            "(build not deterministic)",
        )

    def finish(self) -> None:
        self.gate(
            snapshot_diff(self.iyp.store, self.loaded).unchanged,
            "the reloaded dump differs from the built store",
        )

    def probes(self) -> None:
        rec, layer, runs = self.rec, self.layer, self.report.crawler_runs
        names = [f"crawler:{run.name}" for run in runs]
        # Fastest-of-repeats per crawler, then summed.
        crawl = [rec.fastest(name) for name in names]
        fetch = sum(rec.fastest(name, "fetch_s") for name in names)
        merge = sum(rec.fastest(name, "merge_s") for name in names)
        layer["datasets.crawl_s"] = sum(crawl)
        layer["datasets.fetch_s"] = fetch
        layer["core.merge_s"] = merge
        layer["datasets.parse_s"] = sum(crawl) - fetch - merge
        layer["datasets.crawler_max_s"] = max(crawl)
        layer["datasets.crawlers_failed"] = sum(1 for run in runs if run.error)
        created = sum(run.nodes_created for run in runs)
        merged = sum(run.nodes_merged for run in runs)
        layer["graphdb.node_merge_ratio"] = merged / max(1, created + merged)
        layer["pipeline.postprocess_s"] = rec.fastest("pipeline.postprocess")
        layer["lint.validate_s"] = rec.fastest("lint.validate")
        layer["analytics.precompute_s"] = rec.fastest("analytics.precompute")
        store = self.iyp.store
        dump = self.scratch / "probe.iyp2"
        layer["archive.save_s"] = _fastest(lambda: save_snapshot_v2(store, dump), 2)
        layer["archive.manifest_s"] = max(
            0.0, rec.fastest("archive_add") - layer["archive.save_s"]
        )
        layer["archive.load_s"] = rec.fastest("archive_load")
        layer["columnar.pack_s"] = rec.fastest("columnar_pack")
        layer["columnar.attach_s"] = rec.fastest("columnar_attach")
        layer["graphdb.nodes"] = store.node_count
        layer["graphdb.relationships"] = store.relationship_count
        layer["archive.snapshot_bytes"] = dump.stat().st_size
        layer["archive.bytes_per_rel"] = dump.stat().st_size / store.relationship_count
        layer["graphdb.memory_bytes"] = store.memory_info()["total_bytes"]
        manifest = pack_store(self.loaded)
        columnar = attach_manifest(manifest)
        layer["columnar.segment_bytes"] = manifest.size
        layer["columnar.memory_bytes"] = columnar.memory_info()["total_bytes"]
        columnar.close()
        segment_registry().unlink(manifest.name)


# ---------------------------------------------------------------------------
# notebook_dict / notebook_columnar
# ---------------------------------------------------------------------------


#: Slot-name suffix of the second lap of a notebook round.
WARM = "+warm"


class Notebook(Workload):
    """An analyst opens the dump and refreshes a notebook in-process:
    one cold lap, one warm lap."""

    #: Backend name in the ``cypher.*`` layer metrics, and the module the
    #: direct store reads are booked under.
    backend = "dict"
    store_layer = "graphdb"

    @property
    def columnar(self) -> bool:
        return self.backend == "columnar"

    def setup(self, execution: int) -> None:
        self.world = self.make_world()
        self.archive = SnapshotArchive(self.scratch / f"setup-{execution}")
        iyp, _ = self.build_and_dump(self.world, self.archive, "week-0")
        self.manifest = None
        if execution == 0:
            with self.rec.span("reference_lap"):
                self.answer_on_built_store(iyp.store)

    def answer_on_built_store(self, store) -> None:
        """Untimed.  The first execution's built store, never dumped and
        reloaded, answers the lap once; every round is compared with it.
        The store is not kept: a second live graph would slow every
        collection and set the process's peak memory."""
        engine = CypherEngine(store)
        self.lap = queries.build_lap(engine, self.world, self.seed)
        self.expected = {
            query.name: queries.result_multiset(
                engine.run(query.text, query.parameters)
            )
            for query in self.lap
        }

    def open(self) -> CypherEngine:
        """``archive.load`` → (``pack_store`` → ``attach_manifest``) →
        ``compute_statistics`` → ``CypherEngine``, as ``QueryService``
        attaches them."""
        with self.rec.span("archive.load"):
            store = self.archive.load("latest")
        if self.columnar:
            with self.rec.span("columnar.pack"):
                self.manifest = pack_store(store)
            with self.rec.span("columnar.attach"):
                store = attach_manifest(self.manifest)
        with self.rec.span("analytics.statistics"):
            stats = compute_statistics(store, components=False)
        engine = CypherEngine(store)
        engine.statistics = stats
        return engine

    def run_lap(self, engine: CypherEngine, suffix: str = "") -> list:
        results = []
        for query in self.lap:
            with self.slot(f"{query.cls}:{query.name}{suffix}") as counts:
                result = engine.run(query.text, query.parameters)
                counts["rows"] = len(result.records)
            results.append(result)
        return results

    def round(self, index: int) -> None:
        with self.slot("open"):
            self.engine = self.open()
        self.results = self.run_lap(self.engine) + self.run_lap(self.engine, WARM)

    def after_round(self, index: int) -> None:
        for query, result in zip(self.lap * 2, self.results, strict=True):
            self.gate(
                queries.result_multiset(result) == self.expected[query.name],
                f"round {index}: {query.name} differs from the built dict store",
            )
            pinned = self.pinned.get(query.name)
            if pinned is not None:
                self.gate(
                    len(result.records) == pinned,
                    f"round {index}: {query.name} returned "
                    f"{len(result.records)} rows, pinned {pinned}",
                )
        self.release()

    def release(self) -> None:
        """Drop the round's store; the segment is unlinked after the round."""
        if self.manifest is not None:
            self.engine.store.close()
            segment_registry().unlink(self.manifest.name)
            self.manifest = None
        self.engine = self.results = None

    def close(self) -> None:
        self.release()

    def probes(self) -> None:
        rec, layer, backend = self.rec, self.layer, self.backend
        cold: dict[str, float] = {}
        warm = 0.0
        for query in self.lap:
            cold[query.name] = rec.fastest(f"{query.cls}:{query.name}")
            warm += rec.fastest(f"{query.cls}:{query.name}{WARM}")
        # The memoised materialisation warms in the first lap.
        layer["columnar.cold_penalty"] = sum(cold.values()) / warm
        for cls in metrics.QUERY_CLASSES:
            layer[f"cypher.{cls}.{backend}_ms"] = 1000.0 * sum(
                cold[q.name] for q in self.lap if q.cls == cls
            )
        for number in range(1, 7):
            layer[f"cypher.listing_{number}.{backend}_ms"] = (
                1000.0 * cold[f"listing_{number}"]
            )
        layer["archive.load_s"] = rec.fastest("archive.load")
        layer["analytics.statistics_s"] = rec.fastest("analytics.statistics")
        if self.columnar:
            layer["columnar.pack_s"] = rec.fastest("columnar.pack")
            layer["columnar.attach_s"] = rec.fastest("columnar.attach")

        with rec.span("probe:open"):
            self.engine = engine = self.open()

        texts = sorted({query.text for query in self.lap})
        with rec.span("probe:lex_parse_plan"):
            layer["cypher.lex_us"] = 1e6 * sum(
                _fastest(lambda t=t: tokenize(t), 5) for t in texts
            ) / len(texts)
            layer["cypher.parse_us"] = 1e6 * sum(
                _fastest(lambda t=t: parse(t), 5) for t in texts
            ) / len(texts)
            layer["cypher.plan_ms"] = 1e3 * sum(
                _fastest(lambda t=t: engine.explain(t), 3) for t in texts
            ) / len(texts)

        rows = dict.fromkeys(metrics.QUERY_CLASSES, 0)
        hits = dict.fromkeys(metrics.QUERY_CLASSES, 0)
        with rec.span("probe:profile_lap"):
            for query in self.lap:
                result, plan = engine.profile(query.text, query.parameters)
                rows[query.cls] += len(result.records)
                hits[query.cls] += plan.total_hits
        for cls in metrics.QUERY_CLASSES:
            layer[f"cypher.{cls}.rows"] = rows[cls]
            layer[f"cypher.{cls}.store_hits"] = hits[cls]
        layer["cypher.hits_per_row"] = sum(hits.values()) / max(1, sum(rows.values()))

        store = engine.store
        asns = sorted(self.world.ases)
        with rec.span("probe:store_reads"):
            find = _fastest(
                lambda: [store.find_nodes("AS", "asn", asn) for asn in asns], 3
            )
            node_ids = [store.find_nodes("AS", "asn", asn)[0].id for asn in asns]
            expand = _fastest(
                lambda: [
                    store.relationships_of(node_id, Direction.BOTH, "ORIGINATE")
                    for node_id in node_ids
                ],
                3,
            )
        layer[f"{self.store_layer}.find_nodes_us"] = 1e6 * find / len(asns)
        layer[f"{self.store_layer}.expand_us"] = 1e6 * expand / len(asns)


class NotebookDict(Notebook):
    name = metrics.DICT


class NotebookColumnar(Notebook):
    name = metrics.COLUMNAR
    backend = store_layer = "columnar"


# ---------------------------------------------------------------------------
# serve_refresh
# ---------------------------------------------------------------------------

RENAME_SUFFIX = " (renamed)"


class ServeRefresh(Workload):
    """Clients of a live instance while the operator refreshes it."""

    name = metrics.SERVE

    def __init__(self, seed: int, world_seed: int, scratch: Path,
                 recorder: Recorder):
        super().__init__(seed, world_seed, scratch, recorder)
        self.server = None
        self.thread = None
        self.conn = None
        self.pool = None
        self.refreshes = 0
        self.http_timeouts = 0

    # -- set-up -----------------------------------------------------------

    def setup(self, execution: int) -> None:
        self.stop_server()  # of an earlier execution
        world = self.make_world()
        with self.slot("world_refreshed"):
            # The second of the two fixed world states: two ASes renamed.
            renamed = queries.renamed_ases(world)
            refreshed = copy.deepcopy(world)
            for asn in renamed:
                refreshed.ases[asn].name += RENAME_SUFFIX
        self.worlds = (world, refreshed)
        self.renamed = renamed
        self.archive = SnapshotArchive(self.scratch / f"setup-{execution}")
        self.iyp, self.report = self.build_and_dump(world, self.archive, "week-0")
        with self.slot("service_start"):
            self.service = QueryService(
                self.archive.load("week-0"),
                archive=self.archive, snapshot_label="week-0",
            )
            self.start_server()
        self.state = 0

    def start_server(self) -> None:
        self.server = create_server(self.service, port=0)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True,
        )
        self.thread.start()
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", self.server.server_address[1], timeout=60
        )

    def stop_server(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.server = None

    def prepare(self) -> None:
        engine = CypherEngine(self.iyp.store)  # still at state 0
        self.mix = queries.build_http_mix(engine, self.worlds[0], self.seed)
        self.expected_rows = {
            request.query.name: len(
                engine.run(request.query.text, request.query.parameters).records
            )
            for request in self.mix
        }

    # -- the round --------------------------------------------------------

    def refresh(self) -> None:
        """Flip to the other world state: incremental build, delta entry
        into the archive, in-place apply on the served store."""
        self.state = 1 - self.state
        self.refreshes += 1
        world = self.worlds[self.state]
        label = f"delta-{self.refreshes:04d}"
        if self.rec.enabled:
            with self.rec.span("delta.incremental_build") as counts:
                _, report = build_iyp(
                    world, incremental=True, previous=self.report, iyp=self.iyp
                )
                counts["records"] = len(report.delta.records)
            with self.rec.span("archive.add_delta"):
                self.archive.add_delta(
                    self.iyp.store, report.delta, label,
                    build=report.build_metadata(),
                    analytics=report.analytics.to_dict(),
                )
        else:
            _, report = build_iyp(
                world, incremental=True, previous=self.report, iyp=self.iyp,
                archive=self.archive, archive_label=label,
            )
        with self.rec.span("delta.apply"):
            self.service.apply_delta(report.delta, label=label)
        self.report = report

    def post(self, conn, query: queries.Query) -> tuple[int, bytes]:
        conn.request(
            "POST", "/query",
            body=json.dumps({"query": query.text, "parameters": query.parameters}),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, response.read()

    def run_mix(self, conn) -> None:
        self.replies = []
        for request in self.mix:
            with self.slot(request.slot) as counts:
                reply = self.post(conn, request.query)
                counts["bytes"] = len(reply[1])
            self.replies.append(reply)

    def round(self, index: int) -> None:
        with self.slot("refresh"):
            self.refresh()
        self.run_mix(self.conn)

    def after_round(self, index: int) -> None:
        for run in self.report.crawler_runs:
            self.gate(run.error is None, f"refresh crawler {run.name}: {run.error}")
        self.check_replies(f"round {index}", self.replies, check_cache=True)

    def check_replies(self, where: str, replies, check_cache: bool) -> None:
        world = self.worlds[self.state]
        self.cache_hits = 0
        for request, (status, raw) in zip(self.mix, replies, strict=True):
            name = request.query.name
            if status == 408:
                self.http_timeouts += 1
            if status != 200:
                self.gate(False, f"{where}: {name} answered {status}")
                continue
            body = json.loads(raw)
            rows = body["row_count"]
            self.gate(
                rows == self.expected_rows[name],
                f"{where}: {name} returned {rows} rows, "
                f"expected {self.expected_rows[name]}",
            )
            pinned = self.pinned.get(name)
            if pinned is not None:
                self.gate(
                    rows == pinned, f"{where}: {name} {rows} rows, pinned {pinned}"
                )
            cached = bool(body["meta"]["cached"])
            if request.query.cls == "light":
                self.cache_hits += cached
            if check_cache:
                self.gate(
                    cached == request.cached,
                    f"{where}: {name} cached={cached}, expected {request.cached}",
                )
            asn = request.query.parameters.get("asn")
            if name.startswith("hot_name_") and asn in self.renamed:
                served = body["rows"][0][0] if body["rows"] else None
                self.gate(
                    served == world.ases[asn].name,
                    f"{where}: AS{asn} served as {served!r}, "
                    f"world says {world.ases[asn].name!r}",
                )

    def finish(self) -> None:
        """The week-0 entry is the dump of the from-scratch build, and no
        delta ever touches it: after flipping back to state 0 the served
        store, refreshed only by deltas, must equal it."""
        if self.state != 0:
            self.refresh()  # untimed
        self.gate(
            snapshot_diff(
                self.archive.load("week-0"), self.service.store
            ).unchanged,
            "the delta-refreshed served store differs from the from-scratch build",
        )

    def close(self) -> None:
        self.stop_server()
        if self.pool is not None:
            self.pool.stop()
            self.pool = None

    # -- traced run only --------------------------------------------------

    def inproc_mix(self, service: QueryService) -> list[float]:
        """The request mix through ``QueryService.execute``: no socket."""
        service.cache.clear()
        seconds = []
        for request in self.mix:
            started = time.perf_counter()
            service.execute(request.query.text, request.query.parameters)
            seconds.append(time.perf_counter() - started)
        return seconds

    def class_median(self, per_request: list[float], cls: str) -> float:
        return statistics.median([
            seconds
            for seconds, request in zip(per_request, self.mix, strict=True)
            if request.query.cls == cls
        ])

    def probes(self) -> None:
        rec, layer, service = self.rec, self.layer, self.service
        light = [r for r in self.mix if r.query.cls == "light"]
        http_light = statistics.median(rec.fastest(request.slot) for request in light)
        layer["server.cache_hit_rate"] = self.cache_hits / len(light)
        layer["server.response_bytes"] = sum(len(raw) for _, raw in self.replies)
        layer["delta.incremental_build_s"] = rec.fastest("delta.incremental_build")
        layer["archive.add_delta_s"] = rec.fastest("archive.add_delta")
        layer["delta.apply_s"] = rec.fastest("delta.apply")
        layer["delta.crawlers_skipped"] = sum(
            1 for run in self.report.crawler_runs if run.skipped
        )
        layer["delta.records"] = len(self.report.delta.records)
        head = self.archive.resolve("latest")
        layer["delta.bytes"] = self.archive.path(head).stat().st_size
        layer["archive.manifest_bytes"] = self.archive.manifest_path.stat().st_size

        with rec.span("probe:inproc"):
            passes = [self.inproc_mix(service) for _ in range(3)]
            per_request = [min(column) for column in zip(*passes, strict=True)]
        layer["server.light_inproc_ms"] = 1e3 * self.class_median(per_request, "light")
        layer["server.heavy_inproc_ms"] = 1e3 * self.class_median(per_request, "heavy")
        layer["server.http_floor_ms"] = (
            1e3 * http_light - layer["server.light_inproc_ms"]
        )

        with rec.span("probe:encode"):
            heavy_results = [
                service.engine.run(r.query.text, r.query.parameters)
                for r in self.mix if r.query.cls == "heavy"
            ]
            layer["server.encode_ms"] = 1e3 * _fastest(
                lambda: [
                    json.dumps(encode_result(result), separators=(",", ":"))
                    for result in heavy_results
                ],
                3,
            )

        with rec.span("probe:first_request"):
            fresh = http.client.HTTPConnection(
                "127.0.0.1", self.server.server_address[1], timeout=60
            )
            started = time.perf_counter()
            status, _ = self.post(fresh, light[0].query)
            layer["server.first_request_ms"] = 1e3 * (time.perf_counter() - started)
            fresh.close()
            self.gate(status == 200, f"first request answered {status}")

        with rec.span("probe:obs_overhead"):
            # Paired, alternating blocks on one store: everything on
            # (the default) against tracing and statement statistics off.
            store = self.archive.load("week-0")
            observed = QueryService(store, archive=self.archive,
                                    snapshot_label="week-0")
            bare = QueryService(store, archive=self.archive,
                                snapshot_label="week-0",
                                tracing=False, statement_stats=False)
            best = {id(observed): float("inf"), id(bare): float("inf")}
            for block in range(10):
                pair = (observed, bare) if block % 2 == 0 else (bare, observed)
                for candidate in pair:
                    candidate.cache.clear()
                    started = time.perf_counter()
                    for request in light:
                        candidate.execute(request.query.text, request.query.parameters)
                    best[id(candidate)] = min(
                        best[id(candidate)], time.perf_counter() - started
                    )
            layer["obs.overhead_pct"] = 100.0 * (
                best[id(observed)] / best[id(bare)] - 1.0
            )

        with rec.span("probe:chain_load"):
            layer["archive.chain_load_s"] = _fastest(
                lambda: self.archive.load("latest"), 2
            )

        with rec.span("probe:full_refresh"):
            # One full rebuild + add + load_and_swap, for scale.
            started = time.perf_counter()
            full_iyp, full_report = build_iyp(self.worlds[self.state])
            self.archive.add(
                full_iyp.store, "full-refresh",
                build=full_report.build_metadata(),
                analytics=full_report.analytics.to_dict(),
            )
            swap_started = time.perf_counter()
            service.load_and_swap("full-refresh")
            ended = time.perf_counter()
            layer["server.swap_s"] = ended - swap_started
            layer["refresh.full_s"] = ended - started

        layer["server.cache_evictions"] = service.cache.info()["evictions"]
        layer["server.rejected"] = service.admission.info()["rejected"]
        layer["server.timeouts"] = self.http_timeouts

        # The pool seen without oversubscription: one worker, driven by
        # one connection.  The threaded server stops first so the fork
        # happens in a process with no other busy thread.
        self.stop_server()
        with rec.span("probe:pool"):
            manifest = pack_store(service.store)
            self.pool = WorkerPool(manifest, port=0, workers=1)
            started = time.perf_counter()
            self.pool.start()
            layer["columnar.pool_start_s"] = time.perf_counter() - started
            conn = http.client.HTTPConnection(*self.pool.address, timeout=60)
            per_request = [seconds for _, seconds in self.collect(self.run_mix, conn)]
            conn.close()
            self.check_replies("pool", self.replies, check_cache=False)
            layer["columnar.pool_light_ms"] = 1e3 * self.class_median(
                per_request, "light"
            )
            layer["columnar.pool_heavy_ms"] = 1e3 * self.class_median(
                per_request, "heavy"
            )
            self.pool.stop()
            self.pool = None


CLASSES = {
    cls.name: cls
    for cls in (BuildDump, NotebookDict, NotebookColumnar, ServeRefresh)
}
