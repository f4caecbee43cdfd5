"""The query service: everything the HTTP layer needs, HTTP-free.

:class:`QueryService` ties together the engine, the store's
readers-writer lock, the result cache, admission control, and metrics.
Keeping it transport-agnostic means tests (and the CLI) can exercise the
full serving semantics — caching, invalidation, admission, structured
errors — without opening a socket.

One execution path (:meth:`QueryService.execute`), two lock modes:

- **read queries** run under the store's shared read lock, so any number
  execute in parallel; results are memoized in the version-keyed cache;
- **write queries** take the exclusive write lock for their whole
  execution, bump ``store.version`` (invalidating every cached result),
  and are never cached.

Telemetry: each request fills one :class:`RequestRecord`, and whatever
the outcome :meth:`QueryService._emit` feeds it to metrics, the SLO
tracker, statement statistics and the slow log exactly once.

Hot swap and time travel: the store, engine, and linter live together
in one immutable :class:`ServingState` that every request captures once
up front.  :meth:`QueryService.swap_store` builds a fresh state around
a new store and installs it under the *old* store's write lock — in-
flight readers finish on the state they captured, new requests see the
new one, and nothing fails mid-swap.  Each state carries a generation
token that participates in every cache key, so results computed against
one store can never answer for another even when version counters
collide.  With an archive attached, ``snapshot=`` on ``/query`` resolves
a named historical dump into a read-only serving state (LRU-cached) and
runs the query there instead.
"""

from __future__ import annotations

import json
import logging
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analytics import AnalyticsReport, compute_statistics
from repro.concurrency import new_lock
from repro.cypher import CypherEngine
from repro.cypher.errors import (
    CypherError,
    CypherSyntaxError,
    QueryTimeoutError,
    RowLimitError,
)
from repro.cypher.result import QueryResult
from repro.cypher.lru import LRUCache
from repro.graphdb.errors import ConstraintViolationError, GraphError
from repro.graphdb.store import GraphStore
from repro.lint import QueryLinter, fails_strict
from repro.obs import (
    ProfileNode,
    Profiler,
    SLOTracker,
    SlowQueryLog,
    StatementRegistry,
    Tracer,
    archive_quality,
    quality_gauges,
)
from repro.ontology import ENTITIES, RELATIONSHIPS
from repro.server.admission import AdmissionController, ServerBusyError
from repro.server.cache import ResultCache
from repro.server.metrics import Metrics

log = logging.getLogger("repro.server")


class ServiceError(Exception):
    """An error with an HTTP status and a structured JSON body."""

    def __init__(self, status: int, code: str, message: str):
        self.status = status
        self.code = code
        #: Trace id of the ``/query`` that failed, when it was traced.
        self.trace_id: str | None = None
        super().__init__(message)

    def payload(self) -> dict[str, Any]:
        return {
            "error": {"code": self.code, "message": str(self), "status": self.status}
        }


#: Ordered ``(exception type, HTTP status, error code)``: the first row
#: an exception is an instance of decides how a failed query is answered,
#: so subclasses precede their bases.  Anything no row matches is
#: ``500 internal``.
OUTCOMES: tuple[tuple[type[Exception], int, str], ...] = (
    (ServerBusyError, 429, "busy"),
    (QueryTimeoutError, 408, "timeout"),
    (RowLimitError, 413, "row_limit"),
    (CypherSyntaxError, 400, "syntax_error"),
    (ConstraintViolationError, 409, "constraint_violation"),
    (CypherError, 400, "query_error"),
    (GraphError, 400, "query_error"),
)

#: Failures that enter the slow log whatever they took: the queries that
#: *couldn't* finish are exactly the ones an operator most wants to see.
SLOW_LOGGED = frozenset({"timeout", "row_limit", "internal"})


def service_error(exc: Exception) -> ServiceError:
    """Translate an execution failure through :data:`OUTCOMES`."""
    for kind, status, code in OUTCOMES:
        if isinstance(exc, kind):
            return ServiceError(status, code, str(exc))
    # The client gets a generic message; the text stays on this side.
    log.exception("unexpected error while serving a query")
    return ServiceError(500, "internal", "internal server error")


def encode_json(payload: Any) -> bytes:
    """The wire form of every JSON body this server sends."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def encode_value(value: Any) -> Any:
    """Translate a query-result value into plain JSON-able data.

    Nodes and relationships become tagged objects mirroring the Neo4j
    HTTP API's shape; paths (alternating node/rel lists) encode
    element-wise.
    """
    # Import here to avoid widening the module's public dependencies.
    from repro.graphdb.model import Node, Relationship

    if isinstance(value, Node):
        return {
            "_type": "node",
            "id": value.id,
            "labels": sorted(value.labels),
            "properties": dict(value.properties),
        }
    if isinstance(value, Relationship):
        return {
            "_type": "relationship",
            "id": value.id,
            "type": value.type,
            "start": value.start_id,
            "end": value.end_id,
            "properties": dict(value.properties),
        }
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: encode_value(item) for key, item in value.items()}
    return value


def encode_result(result: QueryResult) -> dict[str, Any]:
    """Encode a :class:`QueryResult` as the /query response body."""
    payload: dict[str, Any] = {
        "columns": list(result.columns),
        "rows": [
            [encode_value(record[column]) for column in result.columns]
            for record in result.records
        ],
        "row_count": len(result.records),
    }
    if result.stats:
        stats = result.stats
        payload["stats"] = {
            "nodes_created": stats.nodes_created,
            "nodes_deleted": stats.nodes_deleted,
            "relationships_created": stats.relationships_created,
            "relationships_deleted": stats.relationships_deleted,
            "properties_set": stats.properties_set,
            "labels_added": stats.labels_added,
        }
    return payload


class ServingState:
    """Everything bound to one served store, swapped as a unit.

    Instances are immutable after construction; requests capture one
    reference and use it throughout, so a concurrent hot swap can never
    hand a request the engine of one store and the lock of another.
    ``generation`` is part of every result-cache key: live states carry
    a monotonically increasing integer, historical (time-travel) states
    carry their archive label.
    """

    __slots__ = ("store", "engine", "linter", "generation", "label")

    # Immutable after construction — the whole point of the class: a
    # request captures one reference and every slot stays consistent.
    GUARDED_BY = {
        "store": "frozen",
        "engine": "frozen",
        "linter": "frozen",
        "generation": "frozen",
        "label": "frozen",
    }

    def __init__(
        self,
        store: GraphStore,
        engine: CypherEngine,
        linter: QueryLinter,
        generation: Any,
        label: str | None = None,
    ):
        self.store = store
        self.engine = engine
        self.linter = linter
        self.generation = generation
        self.label = label


@dataclass(slots=True)
class RequestRecord:
    """Everything one ``/query`` did.

    :meth:`QueryService.execute` fills it in as the request advances and
    hands it to :meth:`QueryService._emit` exactly once, however the
    request ended; every telemetry view (metrics, SLO, statements, slow
    log) reads from it and from nothing else.
    """

    query: str
    parameters: dict[str, Any]
    started: float = field(default_factory=time.monotonic)
    trace_id: str | None = None
    #: The serving state (generation, label, backend) the query was
    #: validated against; None while it has not got that far.
    state: ServingState | None = None
    is_write: bool = False
    #: ``(fingerprint, normalized text)`` when statements are kept.
    statement: tuple[str, str] | None = None
    elapsed: float = 0.0
    rows: int = 0
    cached: bool = False
    #: Error code of the outcome; None is success.
    code: str | None = None
    #: Executed operator tree, whose root carries the query's resource
    #: counters; None for cache hits and failures.
    plan: ProfileNode | None = None
    #: Size of the serialized response (HTTP only).
    response_bytes: int = 0

    def fail(self, error: ServiceError) -> ServiceError:
        """Close the record on ``error`` and tie the error to its trace."""
        self.code = error.code
        self.elapsed = time.monotonic() - self.started
        error.trace_id = self.trace_id
        return error


class QueryService:
    """Concurrent Cypher-over-JSON serving against one graph store."""

    GUARDED_BY = {
        # The serving-state pointer: reads are a single lock-free
        # reference load (every request captures it once), but swaps are
        # serialized by _swap_lock — two concurrent swap_store calls must
        # not both derive a generation from the same old state.
        "_state": "write:_swap_lock",
        "_swap_count": "write:_swap_lock",
        "_loading": "_loading_lock",
        # Assigned once in __init__; the objects are internally locked.
        "archive": "frozen",
        "_historical": "frozen",
        "cache": "frozen",
        "admission": "frozen",
        "metrics": "frozen",
        "tracer": "frozen",
        "slowlog": "frozen",
        "statements": "frozen",
        "slo": "frozen",
        "_lint_cache": "frozen",
        "_started": "frozen",
    }

    def __init__(
        self,
        store: GraphStore,
        *,
        max_concurrent: int = 8,
        default_timeout: float | None = 30.0,
        default_max_rows: int | None = 100_000,
        cache_size: int = 256,
        metrics: Metrics | None = None,
        tracing: bool = True,
        slow_query_seconds: float = 1.0,
        archive: Any | None = None,
        snapshot_label: str | None = None,
        statement_stats: bool = True,
    ):
        #: Optional :class:`repro.archive.SnapshotArchive` backing the
        #: time-travel (``snapshot=``) selector and ``/admin/swap``.
        self.archive = archive
        #: With ``tracing`` off, spans and per-query profiling are both
        #: disabled — the comparison baseline of the lifecycle
        #: benchmark's ``obs.overhead_pct``.
        self.tracer = Tracer(enabled=tracing)
        self._state = self._build_state(store, 0, snapshot_label)
        #: label -> ServingState for the four archived snapshots that
        #: time travel used most recently.
        self._historical: LRUCache = LRUCache(4)
        # Serializes hot swaps: the pointer install itself is atomic, but
        # generation arithmetic and the cache clears must not interleave.
        self._swap_lock = new_lock("QueryService._swap_lock")
        self._swap_count = 0
        self.cache = ResultCache(cache_size)
        self.admission = AdmissionController(
            max_concurrent=max_concurrent,
            default_timeout=default_timeout,
            default_max_rows=default_max_rows,
        )
        #: One registry for everything — query serving, pipeline
        #: telemetry, observability gauges — so /metrics and /stats stay
        #: single-sourced.  Callers may pass a pre-populated registry
        #: (e.g. one the build pipeline already wrote crawler counters
        #: into).
        self.metrics = metrics or Metrics()
        self.slowlog = SlowQueryLog(threshold_seconds=slow_query_seconds)
        #: pg_stat_statements-style per-fingerprint aggregates (None when
        #: disabled — the overhead-guard baseline).  With stats enabled a
        #: per-query profiler always runs, so resource counters (nodes
        #: scanned, binds attempted, ...) flow into the aggregates even
        #: when tracing is off.
        self.statements: StatementRegistry | None = (
            StatementRegistry() if statement_stats else None
        )
        #: Rolling-window latency/availability objectives.
        self.slo = SLOTracker()
        #: Archive loads currently in flight; ``/readyz`` returns 503
        #: while this is non-zero (a swap's load phase can take seconds —
        #: a rollout orchestrator should not route new traffic here
        #: until the snapshot is actually being served).
        self._loading = 0
        self._loading_lock = new_lock("QueryService._loading_lock")
        #: Lint results per query text, so /query's meta.warnings does
        #: not re-analyze a hot query on every request.  Counters are
        #: bumped on the miss path only — once per distinct query.
        #: Cleared on hot swap (index-aware checks depend on the store).
        self._lint_cache: LRUCache = LRUCache(256)
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Serving state (hot swap + time travel)
    # ------------------------------------------------------------------

    @property
    def store(self) -> GraphStore:
        """The currently served store (changes on hot swap)."""
        return self._state.store

    @property
    def engine(self) -> CypherEngine:
        """The engine bound to the currently served store."""
        return self._state.engine

    @property
    def linter(self) -> QueryLinter:
        """The linter bound to the currently served store."""
        return self._state.linter

    @property
    def generation(self) -> int:
        """How many hot swaps this service has performed."""
        return self._state.generation

    @property
    def snapshot_label(self) -> str | None:
        """Archive label of the served snapshot, when known."""
        return self._state.label

    def _build_state(
        self, store: GraphStore, generation: Any, label: str | None
    ) -> ServingState:
        engine = CypherEngine(store)
        engine.tracer = self.tracer
        self._attach_analytics(engine, store, label)
        return ServingState(store, engine, QueryLinter(store), generation, label)

    def _attach_analytics(
        self, engine: CypherEngine, store: GraphStore, label: str | None
    ) -> None:
        """Give a serving engine measured planner statistics and, when
        the archive carries a build-time precompute for ``label``, the
        cached ``CALL algo.*`` rows.

        Archived reports are re-stamped to the loaded store's version
        (the binary loader resets the mutation counter), so the engine's
        generation check keeps matching until the first write.  Without
        archived analytics the statistics are measured on the spot —
        components skipped, serving only needs cardinalities.
        """
        payload = None
        if label is not None and self.archive is not None:
            try:
                payload = self.archive.resolve(label).analytics
            except KeyError:
                payload = None
        if payload:
            report = AnalyticsReport.from_dict(payload).for_store(store)
            engine.analytics = report
            if report.statistics is not None:
                engine.statistics = report.statistics
        if engine.statistics is None:
            engine.statistics = compute_statistics(store, components=False)

    def swap_store(self, store: GraphStore, label: str | None = None) -> dict[str, Any]:
        """Atomically replace the served store with ``store``.

        Swaps are serialized by ``_swap_lock`` (two concurrent swaps must
        not both derive a generation from the same old state).  The new
        serving state is built with no store locks held; the pointer swap
        happens under the *old* store's write lock, so it serializes with
        in-flight queries: readers that captured the old state finish
        against the old store, requests arriving after the swap see the
        new one, and none fail.  The result and lint caches are cleared —
        the new state's generation also keys every cache entry, so a
        reader racing the swap cannot poison the cache for the new store.
        """
        with self.tracer.trace("store_swap", label=label or ""):
            with self._swap_lock:
                old = self._state
                state = self._build_state(store, old.generation + 1, label)
                with old.store.write_lock():
                    self._state = state
                self.cache.clear()
                self._lint_cache.clear()
                self._swap_count += 1
        self.metrics.inc("store_swaps_total")
        return {
            "generation": state.generation,
            "snapshot": label,
            "nodes": store.node_count,
            "relationships": store.relationship_count,
        }

    def apply_delta(self, batch: Any, label: str | None = None) -> dict[str, Any]:
        """Advance the served store in place by applying a delta batch.

        The in-place counterpart to :meth:`swap_store` for ``repro serve
        --watch``: instead of building a whole new serving state around
        a reloaded store, the batch is replayed into the *live* store
        under its write lock (one atomic scope, one version bump), the
        planner's statistics are advanced over the changelog of the
        apply, and a new :class:`ServingState` sharing the same store /
        engine / linter is installed carrying the new snapshot label.

        The generation is deliberately *not* bumped and the result cache
        is *not* cleared: the store's version bump already retires every
        cached entry (version participates in each cache key), and the
        lint cache only depends on indexes, which deltas never change.
        Raises :class:`~repro.delta.apply.DeltaApplyError` with the store
        untouched when the batch does not fit the served graph.
        """
        from repro.delta import refresh_statistics

        with self.tracer.trace("delta_apply", label=label or ""):
            with self._swap_lock:
                old = self._state
                result = old.store.apply_delta(batch)
                previous = old.engine.statistics
                if previous is not None:
                    # Atomic attribute store: a racing reader plans with
                    # either the old or the new statistics — both safe.
                    old.engine.statistics = refresh_statistics(
                        previous, old.store, result.events
                    )
                state = ServingState(
                    old.store, old.engine, old.linter, old.generation, label
                )
                with old.store.write_lock():
                    self._state = state
        self.metrics.inc("delta_applies_total")
        return {
            "generation": state.generation,
            "snapshot": label,
            "applied": result.counts(),
            "store_version": result.version,
            "nodes": state.store.node_count,
            "relationships": state.store.relationship_count,
        }

    def load_and_swap(self, selector: str = "latest") -> dict[str, Any]:
        """``POST /admin/swap``: load an archived snapshot, then swap.

        The load runs before any lock is taken, so queries keep flowing
        against the current store for its whole duration.
        """
        entry = self._archive_entry(selector)
        started = time.monotonic()
        with self._loading_guard():
            with self.tracer.trace("archive_load", label=entry.label):
                store = self.archive.load(entry)
            self.metrics.inc("archive_loads_total", labels={"reason": "swap"})
            body = self.swap_store(store, label=entry.label)
        body["load_seconds"] = round(time.monotonic() - started, 3)
        return body

    @contextmanager
    def _loading_guard(self):
        """Flip ``/readyz`` to 503 for the duration of the block."""
        with self._loading_lock:
            self._loading += 1
        try:
            yield
        finally:
            with self._loading_lock:
                self._loading -= 1

    def _resolve(self, selector: str):
        if self.archive is None:
            raise ServiceError(400, "no_archive", "no snapshot archive attached")
        if not isinstance(selector, str) or not selector:
            raise ServiceError(400, "bad_request", "snapshot selector must be a string")
        try:
            return self.archive.resolve(selector)
        except KeyError as exc:
            raise ServiceError(404, "unknown_snapshot", str(exc.args[0])) from exc

    def _archive_entry(self, selector: str):
        """Resolve for an archive route, counting the failure here — a
        ``/query`` that names a snapshot counts its own in :meth:`_emit`."""
        try:
            return self._resolve(selector)
        except ServiceError as exc:
            self.metrics.inc("query_errors_total", labels={"code": exc.code})
            raise

    def _historical_state(self, selector: str) -> ServingState:
        """The (cached) read-only serving state for an archived snapshot."""
        entry = self._resolve(selector)
        state = self._historical.get(entry.label)
        if state is None:
            with self.tracer.span("archive_load", label=entry.label):
                store = self.archive.load(entry)
            self.metrics.inc("archive_loads_total", labels={"reason": "time_travel"})
            state = self._build_state(
                store, generation=("snapshot", entry.label), label=entry.label
            )
            self._historical.put(entry.label, state)
        return state

    def archive_listing(self) -> dict[str, Any]:
        """``GET /archive``: the manifest, newest entry last."""
        if self.archive is None:
            raise ServiceError(400, "no_archive", "no snapshot archive attached")
        return {
            "root": str(self.archive.root),
            "snapshots": [entry.to_dict() for entry in self.archive.entries()],
            "serving": self.snapshot_label,
        }

    def archive_info(self, selector: str) -> dict[str, Any]:
        """``GET /archive/info?snapshot=...``: one entry's record."""
        entry = self._archive_entry(selector)
        return self.archive.info(entry.label)

    # ------------------------------------------------------------------
    # POST /query
    # ------------------------------------------------------------------

    def execute(
        self,
        query: str,
        parameters: Mapping[str, Any] | None = None,
        timeout: float | None = None,
        max_rows: int | None = None,
        profile: bool = False,
        snapshot: str | None = None,
        wire: bool = False,
    ) -> Any:
        """Run one query with admission control and caching.

        Returns the JSON-able response body; raises :class:`ServiceError`
        with the right HTTP status for every failure mode.  With
        ``profile`` the result cache is bypassed in both directions and
        the response carries the executed operator tree (``POST
        /profile``).  With ``snapshot`` the query runs read-only against
        the named archived dump (time travel) instead of the live store.
        With ``wire`` (the HTTP handler) the body is serialized here, so
        its size is on the record before the record is emitted, and
        ``(payload bytes, trace id)`` is returned instead.

        However the request ends, its :class:`RequestRecord` reaches
        :meth:`_emit` exactly once.
        """
        record = RequestRecord(query, dict(parameters or {}))
        try:
            with self.tracer.trace("request", profile=profile) as root:
                if root is not None:
                    record.trace_id = root.trace_id
                body = self._run(record, timeout, max_rows, profile, snapshot)
                state, plan = record.state, record.plan
                meta: dict[str, Any] = {
                    "cached": record.cached,
                    "elapsed_ms": round(record.elapsed * 1000, 3),
                    "store_version": state.store.version,
                }
                if record.statement is not None:
                    meta["fingerprint"] = record.statement[0]
                if snapshot is not None:
                    meta["snapshot"] = state.label
                warnings = self._lint_warnings(state, query)
                if warnings:
                    meta["warnings"] = warnings
                if record.trace_id is not None:
                    meta["trace_id"] = record.trace_id
                response = {**body, "meta": meta}
                if profile and plan is not None:
                    response["profile"] = {
                        "plan": plan.to_dict(),
                        "render": plan.render().splitlines(),
                    }
                if not wire:
                    return response
                payload = encode_json(response)
                record.response_bytes = len(payload)
                return payload, record.trace_id
        except ServiceError as exc:
            record.fail(exc)
            raise
        except Exception as exc:
            raise record.fail(service_error(exc)) from exc
        finally:
            self._emit(record)

    def _run(
        self,
        record: RequestRecord,
        timeout: float | None,
        max_rows: int | None,
        profile: bool,
        snapshot: str | None,
    ) -> dict[str, Any]:
        """Validate, admit and execute ``record.query``; the encoded
        result body.  Reads and writes differ only in the store lock they
        hold and in whether the result cache is consulted."""
        query, params = record.query, record.parameters
        if not isinstance(query, str) or not query.strip():
            raise ServiceError(400, "bad_request", "empty query")
        # Capture one serving state for the whole request: a hot swap
        # concurrent with this query must not mix stores.
        state = self._state if snapshot is None else self._historical_state(snapshot)
        # One statement-cache lookup serves the read/write routing, the
        # statement identity and the execution below.
        with self.tracer.span("parse", query_chars=len(query)):
            statement = state.engine.statement(query)
        is_write = statement.is_write
        if is_write and snapshot is not None:
            raise ServiceError(
                403, "read_only_snapshot",
                f"archived snapshot {state.label!r} is read-only",
            )
        record.state, record.is_write = state, is_write
        if self.statements is not None:
            record.statement = statement.identity
        cacheable = not (is_write or profile)
        with ExitStack() as stack:
            with self.tracer.span("admission"):
                stack.enter_context(self.admission.slot())
            # The lock spans version read + cache lookup + execution, so
            # a cached entry is guaranteed to describe the version it is
            # keyed on — a writer cannot slip in halfway through.  The
            # state's generation joins the cache key: results computed on
            # a pre-swap store (or an archived one) can never answer for
            # the live store even when version counters coincide.
            store = state.store
            stack.enter_context(store.write_lock() if is_write else store.read_lock())
            version = (state.generation, store.version)
            body = None
            if cacheable:
                with self.tracer.span("cache_lookup"):
                    body = self.cache.get(query, params, version)
            if body is not None:
                record.cached = True
            else:
                # Profiled whenever someone will read the plan: the slow
                # log (tracing on), the statement counters, or the caller.
                observed = profile or self.tracer.enabled or self.statements is not None
                profiler = Profiler() if observed else None
                guard = self.admission.guard(timeout, max_rows)
                result = state.engine.run(
                    statement, params, guard=guard, profiler=profiler
                )
                body = encode_result(result)
                if cacheable:
                    self.cache.put(query, params, version, body)
                if profiler is not None:
                    record.plan = profiler.root
        record.rows = body.get("row_count", 0)
        record.elapsed = time.monotonic() - record.started
        return body

    def _emit(self, record: RequestRecord) -> None:
        """Feed one finished request to every telemetry view — the only
        place query telemetry is written."""
        metrics, code, elapsed = self.metrics, record.code, record.elapsed
        if code is None:
            metrics.observe("query_latency_seconds", elapsed)
            metrics.inc(
                "queries_total",
                labels={"kind": "write" if record.is_write else "read",
                        "cache": "hit" if record.cached else "miss"},
            )
        else:
            metrics.inc("query_errors_total", labels={"code": code})
        if record.state is None:
            return  # turned away before it named a runnable query
        self.slo.observe(elapsed, code)
        # Whole-query resource counters (nodes scanned, rels expanded,
        # binds attempted, ...) aggregated by the profiler; cache hits
        # executed nothing and carry only the bytes sent.
        plan = record.plan
        counters = dict(plan.hits) if plan is not None else {}
        if record.response_bytes:
            metrics.inc("response_bytes_total", record.response_bytes)
            counters["bytes_serialized"] = record.response_bytes
        fingerprint = None
        if record.statement is not None:  # set only when statements are kept
            fingerprint, normalized = record.statement
            self.statements.record(
                fingerprint,
                normalized,
                elapsed=elapsed,
                rows=record.rows,
                cached=record.cached,
                error=code,
                counters=counters,
            )
        if code in SLOW_LOGGED or (
            plan is not None and self.slowlog.should_record(elapsed)
        ):
            metrics.inc("slow_queries_total")
            self.slowlog.record(
                record.query,
                elapsed,
                parameters=record.parameters,
                trace_id=record.trace_id,
                plan=plan.to_dict() if plan is not None else None,
                error=code,
                fingerprint=fingerprint,
                counters=counters,
            )

    # ------------------------------------------------------------------
    # GET endpoints
    # ------------------------------------------------------------------

    def _lint_warnings(self, state: ServingState, query: str) -> list[dict[str, Any]]:
        """Cached lint diagnostics for ``meta.warnings`` on /query."""
        cached = self._lint_cache.get(query)
        if cached is not None:
            return cached
        try:
            findings = state.linter.lint(query)
        except Exception:  # pragma: no cover - linting must never 500 a query
            findings = []
        encoded = [finding.to_dict() for finding in findings]
        for finding in findings:
            self.metrics.inc(
                "lint_diagnostics_total", labels={"severity": finding.severity}
            )
        self._lint_cache.put(query, encoded)
        return encoded

    def lint(self, query: str) -> dict[str, Any]:
        """``POST /lint``: static diagnostics for a query, no execution."""
        if not isinstance(query, str) or not query.strip():
            self.metrics.inc("query_errors_total", labels={"code": "bad_request"})
            raise ServiceError(400, "bad_request", "empty query")
        findings = self.linter.lint(query)
        for finding in findings:
            self.metrics.inc(
                "lint_diagnostics_total", labels={"severity": finding.severity}
            )
        return {
            "query": query,
            "diagnostics": [finding.to_dict() for finding in findings],
            "ok": not any(f.severity == "error" for f in findings),
            "strict_ok": not fails_strict(findings),
        }

    def explain(self, query: str) -> dict[str, Any]:
        """The engine's plan description for one query, plus lint warnings."""
        try:
            explanation = self.engine.explain(query)
        except CypherSyntaxError as exc:
            raise ServiceError(400, "syntax_error", str(exc)) from exc
        return {
            "query": query,
            "plan": explanation.plan,
            "warnings": [finding.to_dict() for finding in explanation.warnings],
        }

    def ontology(self) -> dict[str, Any]:
        """The IYP schema: entities and relationships (Tables 6-7)."""
        return {
            "entities": [
                {
                    "label": definition.label,
                    "key_properties": [definition.key],
                    "description": definition.description,
                    "loose": definition.loose,
                }
                for definition in ENTITIES.values()
            ],
            "relationships": [
                {
                    "type": definition.type,
                    "endpoints": [list(pair) for pair in definition.endpoints],
                    "description": definition.description,
                }
                for definition in RELATIONSHIPS.values()
            ],
        }

    def trace(self, trace_id: str) -> dict[str, Any]:
        """``GET /debug/trace?id=...``: one buffered trace as a span tree."""
        tree = self.tracer.trace_tree(trace_id)
        if tree is None:
            raise ServiceError(404, "unknown_trace", f"no trace {trace_id!r} buffered")
        return {"trace_id": trace_id, "spans": tree}

    def traces(self) -> dict[str, Any]:
        """``GET /debug/traces``: ids of every buffered trace, oldest first."""
        return {"trace_ids": self.tracer.trace_ids(), **self.tracer.info()}

    def slowlog_snapshot(self) -> dict[str, Any]:
        """``GET /debug/slowlog``: the slow-query ring, oldest first."""
        return self.slowlog.snapshot()

    def statements_snapshot(
        self, top: int | None = None, sort: str = "total_seconds"
    ) -> dict[str, Any]:
        """``GET /debug/statements``: per-fingerprint aggregates,
        hottest first."""
        if self.statements is None:
            raise ServiceError(
                404, "statements_disabled", "statement statistics are disabled"
            )
        try:
            return self.statements.snapshot(top=top, sort=sort)
        except ValueError as exc:
            raise ServiceError(400, "bad_request", str(exc)) from exc

    def ready(self) -> tuple[bool, dict[str, Any]]:
        """``GET /readyz``: readiness, distinct from liveness.

        Not ready (503) while an archive load / hot swap is in flight —
        the served store is about to be replaced, so a rollout
        orchestrator should hold new traffic.  ``/healthz`` stays 200
        throughout: the process is alive either way.
        """
        with self._loading_lock:
            loading = self._loading
        ready = loading == 0
        state = self._state
        return ready, {
            "status": "ready" if ready else "loading",
            "loads_in_flight": loading,
            "generation": state.generation,
            "snapshot": state.label,
        }

    def quality_report(self) -> dict[str, Any]:
        """Longitudinal data-quality report over the attached archive."""
        if self.archive is None:
            raise ServiceError(400, "no_archive", "no snapshot archive attached")
        entries = [entry.to_dict() for entry in self.archive.entries()]
        return archive_quality(entries)

    def stats(self) -> dict[str, Any]:
        """Graph composition plus serving statistics."""
        state = self._state
        store = state.store
        with store.read_lock():
            graph = {
                "backend": store.backend_name,
                "nodes": store.node_count,
                "relationships": store.relationship_count,
                "labels": dict(sorted(store.label_counts().items())),
                "relationship_types": dict(
                    sorted(store.relationship_type_counts().items())
                ),
                "indexes": [list(pair) for pair in store.indexes()],
                "constraints": [list(pair) for pair in store.constraints()],
                "version": store.version,
                "generation": state.generation,
                "snapshot": state.label,
            }
        return {
            "graph": graph,
            "archive": {
                "attached": self.archive is not None,
                "swaps": self._swap_count,
                "historical_loaded": len(self._historical),
            },
            "result_cache": self.cache.info(),
            "parse_cache": self.engine.parse_cache_info(),
            "admission": self.admission.info(),
            "tracer": self.tracer.info(),
            "slowlog": {
                "threshold_seconds": self.slowlog.threshold_seconds,
                "entries": len(self.slowlog),
                "recorded_total": self.slowlog.recorded_total,
            },
            "statements": (
                self.statements.info()
                if self.statements is not None
                else {"enabled": False}
            ),
            "slo": self.slo.snapshot(),
            "metrics": self.metrics.snapshot(),
            "uptime_seconds": round(time.monotonic() - self._started, 3),
        }

    def health(self) -> dict[str, Any]:
        """Liveness: cheap, no locks beyond two dict length reads."""
        state = self._state
        return {
            "status": "ok",
            "nodes": state.store.node_count,
            "relationships": state.store.relationship_count,
            "store_version": state.store.version,
            "generation": state.generation,
            "snapshot": state.label,
        }

    def metrics_text(self) -> str:
        """The /metrics body in Prometheus text exposition format."""
        result_cache = self.cache.info()
        parse_cache = self.engine.parse_cache_info()
        admission = self.admission.info()
        gauges = {
            "store_version": float(self.store.version),
            "store_nodes": float(self.store.node_count),
            "store_relationships": float(self.store.relationship_count),
            "result_cache_size": float(result_cache["size"]),
            "result_cache_hit_rate": result_cache["hit_rate"],
            "result_cache_hits_total": float(result_cache["hits"]),
            "result_cache_misses_total": float(result_cache["misses"]),
            "result_cache_evictions_total": float(result_cache["evictions"]),
            "parse_cache_size": float(parse_cache["size"]),
            "parse_cache_hit_rate": parse_cache["hit_rate"],
            "parse_cache_hits_total": float(parse_cache["hits"]),
            "parse_cache_misses_total": float(parse_cache["misses"]),
            "queries_active": float(admission["active"]),
            "queries_peak_active": float(admission["peak_active"]),
            "queries_rejected_total": float(admission["rejected"]),
            "slowlog_entries": float(len(self.slowlog)),
            "slowlog_recorded_total": float(self.slowlog.recorded_total),
            "traces_buffered": float(self.tracer.info()["traces_buffered"]),
            "serving_generation": float(self._state.generation),
            "historical_stores_loaded": float(len(self._historical)),
            "uptime_seconds": time.monotonic() - self._started,
        }
        gauges.update(self.slo.gauges())
        if self.statements is not None:
            statements = self.statements.info()
            gauges["statements_tracked"] = float(statements["statements_tracked"])
            gauges["statements_recorded_total"] = float(
                statements["recorded_total"]
            )
            gauges["statements_evicted_total"] = float(statements["evicted_total"])
        if self.archive is not None:
            # Per-crawler labelled gauges persist in the registry; the
            # manifest is one small JSON read per scrape.
            try:
                report = self.quality_report()
            except (ServiceError, OSError, ValueError):
                report = None
            if report is not None:
                for name, value, labels in quality_gauges(report):
                    self.metrics.set_gauge(name, value, labels)
        return self.metrics.render(extra_gauges=gauges)
