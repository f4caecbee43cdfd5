"""Server-level observability: statement statistics over HTTP, the
readiness endpoint during hot swaps, SLO surfacing, and the quality
endpoint over an archive.

Complements the unit tests in ``test_obs_statements.py`` /
``test_obs_slo.py`` / ``test_obs_quality.py`` by exercising the same
machinery through real sockets.
"""

from __future__ import annotations

import json
import re
import threading
import urllib.error
import urllib.request
from contextlib import ExitStack

import pytest

from repro.archive import SnapshotArchive
from repro.graphdb import GraphStore
from repro.server import QueryService, ServiceError, create_server

# ---------------------------------------------------------------------------
# plumbing (same shape as test_server.py)
# ---------------------------------------------------------------------------


def _request(method: str, url: str, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _serve(service: QueryService):
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


def _store_with_ases(n: int) -> GraphStore:
    store = GraphStore()
    store.create_index("AS", "asn")
    for asn in range(64500, 64500 + n):
        store.create_node({"AS"}, {"asn": asn})
    return store


def _dense_store() -> GraphStore:
    """Ten ASes under a uniqueness constraint plus a 10-clique whose
    variable-length expansion can burn any time budget."""
    store = _store_with_ases(10)
    store.create_unique_constraint("AS", "asn")
    dense = [store.create_node({"Dense"}, {"i": i}) for i in range(10)]
    for a in dense:
        for b in dense:
            if a.id < b.id:
                store.create_relationship(a.id, "LINK", b.id)
    return store


BURN = "MATCH (a:Dense)-[:LINK*1..9]-(b:Dense) RETURN count(*)"


@pytest.fixture()
def served():
    service = QueryService(_store_with_ases(10))
    server, base = _serve(service)
    yield base, service
    server.shutdown()
    server.server_close()


# ---------------------------------------------------------------------------
# statement statistics over HTTP
# ---------------------------------------------------------------------------


class TestStatementEndpoint:
    def test_mixed_workload_aggregates_by_fingerprint(self, served):
        base, service = served
        # Two literal variants of one shape, plus a distinct shape.
        for asn in (64500, 64501, 64502):
            status, body = _request(
                "POST", f"{base}/query",
                {"query": f"MATCH (a:AS) WHERE a.asn = {asn} RETURN a.asn"},
            )
            assert status == 200
        status, _ = _request(
            "POST", f"{base}/query", {"query": "MATCH (a:AS) RETURN count(a)"}
        )
        assert status == 200
        status, snapshot = _request("GET", f"{base}/debug/statements")
        assert status == 200
        assert snapshot["statements_tracked"] == 2
        assert snapshot["recorded_total"] == 4
        hot = snapshot["statements"][0]
        variants = next(
            row for row in snapshot["statements"] if row["calls"] == 3
        )
        assert "?" in variants["query"]
        assert variants["rows"] == 3
        assert hot["counters"]  # resource accounting rode along

    def test_meta_fingerprint_matches_statement(self, served):
        base, _ = served
        _, first = _request(
            "POST", f"{base}/query",
            {"query": "MATCH (a:AS) WHERE a.asn = 64500 RETURN a.asn"},
        )
        _, second = _request(
            "POST", f"{base}/query",
            {"query": "MATCH (a:AS)   WHERE a.asn = 64509   RETURN a.asn"},
        )
        assert first["meta"]["fingerprint"] == second["meta"]["fingerprint"]
        status, snapshot = _request("GET", f"{base}/debug/statements")
        assert first["meta"]["fingerprint"] in {
            row["fingerprint"] for row in snapshot["statements"]
        }

    def test_cache_hits_and_response_bytes_are_counted(self, served):
        base, _ = served
        query = {"query": "MATCH (a:AS) RETURN count(a)"}
        _request("POST", f"{base}/query", query)
        _, body = _request("POST", f"{base}/query", query)
        assert body["meta"]["cached"] is True
        _, snapshot = _request("GET", f"{base}/debug/statements")
        row = snapshot["statements"][0]
        assert row["calls"] == 2
        assert row["cache_hits"] == 1
        assert row["counters"]["bytes_serialized"] > 0

    def test_errors_are_aggregated_too(self, served):
        base, service = served
        status, _ = _request(
            "POST", f"{base}/query",
            {"query": "MATCH (a:AS) RETURN a.asn", "max_rows": 2},
        )
        assert status == 413
        rows = service.statements.snapshot()["statements"]
        errored = next(row for row in rows if row["errors"])
        assert errored["errors"] == {"row_limit": 1}

    def test_top_and_sort_parameters(self, served):
        base, _ = served
        for query in ("RETURN 1", "RETURN 2", "MATCH (a:AS) RETURN count(a)"):
            _request("POST", f"{base}/query", {"query": query})
        status, snapshot = _request(
            "GET", f"{base}/debug/statements?top=1&sort=calls"
        )
        assert status == 200
        assert len(snapshot["statements"]) == 1
        status, body = _request("GET", f"{base}/debug/statements?sort=bogus")
        assert status == 400
        status, body = _request("GET", f"{base}/debug/statements?top=x")
        assert status == 400

    def test_disabled_statements_is_404(self):
        service = QueryService(_store_with_ases(1), statement_stats=False)
        server, base = _serve(service)
        try:
            service.execute("RETURN 1")
            status, body = _request("GET", f"{base}/debug/statements")
            assert status == 404
            assert body["error"]["code"] == "statements_disabled"
        finally:
            server.shutdown()
            server.server_close()


class TestSlowlogJoin:
    def test_slowlog_entries_carry_fingerprint_and_counters(self):
        # Threshold 0: every query is "slow", so one read suffices.
        service = QueryService(_store_with_ases(5), slow_query_seconds=0.0)
        response = service.execute(
            "MATCH (a:AS) WHERE a.asn = 64500 RETURN a.asn"
        )
        entry = service.slowlog.snapshot()["entries"][-1]
        assert entry["fingerprint"] == response["meta"]["fingerprint"]
        assert entry["counters"].get("nodes_scanned", 0) >= 1
        assert "stmt=" in service.slowlog.format_text()


# ---------------------------------------------------------------------------
# readiness during hot swap
# ---------------------------------------------------------------------------


class TestReadiness:
    @pytest.fixture()
    def archived(self, tmp_path):
        archive = SnapshotArchive(tmp_path / "archive")
        archive.add(_store_with_ases(1), "day-1")
        archive.add(_store_with_ases(2), "day-2")
        service = QueryService(
            archive.load("day-1"), archive=archive, snapshot_label="day-1"
        )
        server, base = _serve(service)
        yield base, service, archive
        server.shutdown()
        server.server_close()

    def test_ready_when_idle(self, archived):
        base, _, _ = archived
        status, body = _request("GET", f"{base}/readyz")
        assert status == 200
        assert body["status"] == "ready"
        assert body["loads_in_flight"] == 0

    def test_readyz_is_503_while_a_swap_loads(self, archived, monkeypatch):
        base, service, archive = archived
        loading = threading.Event()
        release = threading.Event()
        original_load = archive.load

        def slow_load(entry):
            loading.set()
            assert release.wait(timeout=30)
            return original_load(entry)

        monkeypatch.setattr(archive, "load", slow_load)
        swap_result: list = []
        swapper = threading.Thread(
            target=lambda: swap_result.append(
                _request("POST", f"{base}/admin/swap", {"snapshot": "day-2"})
            ),
            daemon=True,
        )
        swapper.start()
        assert loading.wait(timeout=30)
        try:
            status, body = _request("GET", f"{base}/readyz")
            assert status == 503
            assert body["status"] == "loading"
            assert body["loads_in_flight"] == 1
            # Liveness is unaffected, and queries still flow.
            assert _request("GET", f"{base}/healthz")[0] == 200
            status, result = _request(
                "POST", f"{base}/query", {"query": "MATCH (a:AS) RETURN count(a)"}
            )
            assert status == 200 and result["rows"] == [[1]]
        finally:
            release.set()
        swapper.join(timeout=30)
        status, swapped = swap_result[0]
        assert status == 200 and swapped["generation"] == 1
        status, body = _request("GET", f"{base}/readyz")
        assert status == 200
        assert body["snapshot"] == "day-2"

    def test_quality_endpoint_reports_over_the_archive(self, archived):
        base, _, _ = archived
        status, report = _request("GET", f"{base}/quality")
        assert status == 200
        assert report["latest"] == "day-2"
        assert [row["label"] for row in report["snapshots"]] == ["day-1", "day-2"]
        assert report["stale"] is False  # entries were just stamped

    def test_quality_without_archive_is_400(self, served):
        base, _ = served
        status, body = _request("GET", f"{base}/quality")
        assert status == 400
        assert body["error"]["code"] == "no_archive"


# ---------------------------------------------------------------------------
# SLO surfacing
# ---------------------------------------------------------------------------


class TestSLOSurfacing:
    def test_stats_and_metrics_carry_slo_blocks(self, served):
        base, _ = served
        _request("POST", f"{base}/query", {"query": "MATCH (a:AS) RETURN count(a)"})
        status, stats = _request("GET", f"{base}/stats")
        assert status == 200
        slo = stats["slo"]
        assert slo["queries_in_window"] >= 1
        assert 0.0 <= slo["availability"]["compliance"] <= 1.0
        with urllib.request.urlopen(f"{base}/metrics", timeout=30) as response:
            text = response.read().decode()
        assert "repro_slo_latency_burn_rate" in text
        assert "repro_slo_availability_budget_remaining" in text
        assert "repro_statements_tracked" in text

    def test_client_errors_do_not_burn_budget(self, served):
        base, service = served
        status, _ = _request("POST", f"{base}/query", {"query": "MATCH ("})
        assert status == 400
        availability = service.slo.snapshot()["availability"]
        assert availability["compliance"] == 1.0

    def test_operational_errors_burn_budget(self):
        service = QueryService(_store_with_ases(5))
        with pytest.raises(ServiceError):
            service.execute("MATCH (a:AS) RETURN a.asn", max_rows=1)
        availability = service.slo.snapshot()["availability"]
        assert availability["compliance"] < 1.0
        assert availability["burn_rate"] > 0.0


# ---------------------------------------------------------------------------
# the request record: every outcome reaches every view exactly once
# ---------------------------------------------------------------------------

COUNT = "MATCH (a:AS) RETURN count(a)"

#: case id, query, execute() limits, slow-log threshold, error code (None
#: is success), whether the outcome enters the slow log.
OUTCOME_CASES = [
    ("success-miss", COUNT, {}, 1.0, None, False),
    ("success-hit", COUNT, {}, 1.0, None, False),
    ("success-slow", COUNT, {}, 0.0, None, True),
    ("busy", COUNT, {}, 1.0, "busy", False),
    ("timeout", BURN, {"timeout": 0.05}, 1.0, "timeout", True),
    ("row_limit", "MATCH (a:AS) RETURN a.asn", {"max_rows": 2}, 1.0, "row_limit", True),
    ("syntax_error", "MATCH (", {}, 1.0, "syntax_error", False),
    ("constraint_violation", "CREATE (a:AS {asn: 64500})", {}, 1.0,
     "constraint_violation", False),
    ("query_error", "RETURN nope(1)", {}, 1.0, "query_error", False),
    ("internal", COUNT, {}, 1.0, "internal", True),
]


def _views(service: QueryService) -> dict[str, float]:
    metrics = service.metrics
    return {
        "queries_total": metrics.counter_total("queries_total"),
        "query_errors_total": metrics.counter_total("query_errors_total"),
        "slow_queries_total": metrics.counter_total("slow_queries_total"),
        "slo": service.slo.snapshot()["queries_in_window"],
        "statements": service.statements.recorded_total,
        "slowlog": service.slowlog.recorded_total,
    }


class TestRequestRecord:
    @pytest.mark.parametrize(
        "case, query, limits, threshold, code, slow",
        OUTCOME_CASES,
        ids=[case[0] for case in OUTCOME_CASES],
    )
    def test_each_outcome_moves_each_view_exactly_once(
        self, case, query, limits, threshold, code, slow, monkeypatch
    ):
        service = QueryService(
            _dense_store(), max_concurrent=1, slow_query_seconds=threshold
        )
        engine = service.engine
        if case == "success-hit":
            service.execute(query)
        if case == "internal":
            def broken_run(*args, **kwargs):
                raise RuntimeError("boom")

            monkeypatch.setattr(engine, "run", broken_run)
        lookups: list[str] = []
        fingerprint_of = engine.fingerprint
        monkeypatch.setattr(
            engine, "fingerprint",
            lambda text: lookups.append(text) or fingerprint_of(text),
        )
        before = _views(service)
        with ExitStack() as stack:
            if case == "busy":
                stack.enter_context(service.admission.slot())
            if code is None:
                body = service.execute(query, **limits)
                assert body["meta"]["cached"] is (case == "success-hit")
            else:
                with pytest.raises(ServiceError) as caught:
                    service.execute(query, **limits)
                assert (caught.value.code, caught.value.status >= 400) == (code, True)
        delta = {key: value - before[key] for key, value in _views(service).items()}
        # A query that does not parse names no statement and is turned
        # away before it is a query the objectives are about.
        ran = 0 if code == "syntax_error" else 1
        assert delta == {
            "queries_total": 1 if code is None else 0,
            "query_errors_total": 0 if code is None else 1,
            "slow_queries_total": 1 if slow else 0,
            "slo": ran,
            "statements": ran,
            "slowlog": 1 if slow else 0,
        }
        assert len(lookups) <= 1
        if code is not None:
            assert service.metrics.counter_value(
                "query_errors_total", {"code": code}
            ) == 1
        if ran:
            row = service.statements.get(fingerprint_of(query)[0])
            assert row.calls == (2 if case == "success-hit" else 1)
            assert row.cache_hits == (1 if case == "success-hit" else 0)
            assert row.errors == ({code: 1} if code else {})
        if slow:
            entry = service.slowlog.snapshot()["entries"][-1]
            assert entry["error"] == code
            assert (entry["plan"] is not None) == (code is None)

    def test_one_hop_from_a_408_to_trace_slowlog_and_statement(self):
        """An error body has no ``meta``; the ``X-Trace-Id`` header alone
        must lead to the trace, the slow-log entry and the statement."""
        service = QueryService(_dense_store(), slow_query_seconds=0.0)
        server, base = _serve(service)
        try:
            request = urllib.request.Request(
                f"{base}/query",
                data=json.dumps({"query": BURN, "timeout": 0.05}).encode("utf-8"),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30)
            assert caught.value.code == 408
            trace_id = caught.value.headers["X-Trace-Id"]
            caught.value.close()
            status, trace = _request("GET", f"{base}/debug/trace?id={trace_id}")
            assert status == 200 and trace["spans"]["status"] == "error"
            _, slowlog = _request("GET", f"{base}/debug/slowlog")
            (entry,) = [e for e in slowlog["entries"] if e["trace_id"] == trace_id]
            assert entry["error"] == "timeout"
            _, statements = _request("GET", f"{base}/debug/statements")
            (row,) = [
                r for r in statements["statements"]
                if r["fingerprint"] == entry["fingerprint"]
            ]
            assert row["errors"] == {"timeout": 1}
        finally:
            server.shutdown()
            server.server_close()

    def test_trace_header_matches_meta_and_follows_the_tracing_switch(self):
        for tracing in (True, False):
            service = QueryService(_store_with_ases(2), tracing=tracing)
            server, base = _serve(service)
            try:
                request = urllib.request.Request(
                    f"{base}/profile",
                    data=json.dumps({"query": COUNT}).encode("utf-8"),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    header = response.headers["X-Trace-Id"]
                    meta = json.loads(response.read())["meta"]
                assert header == meta.get("trace_id")
                assert (header is not None) is tracing
            finally:
                server.shutdown()
                server.server_close()


# ---------------------------------------------------------------------------
# the published surface: names and shapes other tools depend on
# ---------------------------------------------------------------------------

METRIC_SERIES = {
    "repro_" + name
    for name in (
        "historical_stores_loaded", "lint_diagnostics_total",
        "parse_cache_hit_rate", "parse_cache_hits_total",
        "parse_cache_misses_total", "parse_cache_size", "queries_active",
        "queries_peak_active", "queries_rejected_total", "queries_total",
        "query_errors_total", "query_latency_seconds",
        "query_latency_seconds_bucket", "query_latency_seconds_count",
        "query_latency_seconds_sum", "response_bytes_total",
        "result_cache_evictions_total", "result_cache_hit_rate",
        "result_cache_hits_total", "result_cache_misses_total",
        "result_cache_size", "serving_generation",
        "slo_availability_budget_remaining", "slo_availability_burn_rate",
        "slo_availability_compliance", "slo_availability_target",
        "slo_latency_budget_remaining", "slo_latency_burn_rate",
        "slo_latency_compliance", "slo_latency_target",
        "slo_queries_in_window", "slo_window_seconds", "slow_queries_total",
        "slowlog_entries", "slowlog_recorded_total",
        "statements_evicted_total", "statements_recorded_total",
        "statements_tracked", "store_nodes", "store_relationships",
        "store_version", "traces_buffered", "uptime_seconds",
    )
}

STATS_KEYS = {
    "graph": {
        "backend", "nodes", "relationships", "labels", "relationship_types",
        "indexes", "constraints", "version", "generation", "snapshot",
    },
    "archive": {"attached", "swaps", "historical_loaded"},
    "result_cache": {"size", "maxsize", "hits", "misses", "evictions", "hit_rate"},
    "parse_cache": {"size", "maxsize", "hits", "misses", "evictions", "hit_rate"},
    "admission": {
        "max_concurrent", "active", "peak_active", "admitted", "rejected",
        "default_timeout", "default_max_rows",
    },
    "tracer": {"enabled", "traces_buffered", "max_traces"},
    "slowlog": {"threshold_seconds", "entries", "recorded_total"},
    "statements": {
        "capacity", "statements_tracked", "recorded_total", "evicted_total",
    },
    "slo": {"availability", "latency", "queries_in_window", "window_seconds"},
    "metrics": {"counters", "latency_ms"},
    "uptime_seconds": None,
}


class TestPublishedSurface:
    def test_names_and_key_sets_are_pinned(self):
        """One session touching every view; the names it publishes were
        recorded before the request record replaced the hand-threaded
        emission and must not drift."""
        service = QueryService(_dense_store(), slow_query_seconds=0.0)
        server, base = _serve(service)
        try:
            _, miss = _request("POST", f"{base}/query", {"query": COUNT})
            _, hit = _request("POST", f"{base}/query", {"query": COUNT})
            _, warned = _request(
                "POST", f"{base}/query", {"query": "MATCH (a:Nope) RETURN a"}
            )
            _, profiled = _request("POST", f"{base}/profile", {"query": COUNT})
            status, failed = _request(
                "POST", f"{base}/query",
                {"query": "MATCH (a:AS) RETURN a.asn", "max_rows": 2},
            )
            assert status == 413
            base_meta = {
                "cached", "elapsed_ms", "store_version", "fingerprint", "trace_id",
            }
            assert set(miss["meta"]) == set(hit["meta"]) == base_meta
            assert set(warned["meta"]) == base_meta | {"warnings"}
            assert set(miss) == {"columns", "rows", "row_count", "meta"}
            assert set(profiled) == set(miss) | {"profile"}
            assert set(profiled["profile"]) == {"plan", "render"}
            assert set(failed) == {"error"}
            assert set(failed["error"]) == {"code", "message", "status"}

            _, stats = _request("GET", f"{base}/stats")
            assert {
                key: set(value) if isinstance(value, dict) else None
                for key, value in stats.items()
            } == STATS_KEYS
            _, healthz = _request("GET", f"{base}/healthz")
            assert set(healthz) == {
                "status", "nodes", "relationships", "store_version",
                "generation", "snapshot",
            }
            _, readyz = _request("GET", f"{base}/readyz")
            assert set(readyz) == {
                "status", "loads_in_flight", "generation", "snapshot",
            }
            _, slowlog = _request("GET", f"{base}/debug/slowlog")
            assert set(slowlog) == {
                "threshold_seconds", "capacity", "recorded_total", "entries",
            }
            assert {frozenset(entry) for entry in slowlog["entries"]} == {
                frozenset({
                    "time", "query", "params_hash", "trace_id", "fingerprint",
                    "elapsed_ms", "counters", "plan", "error",
                })
            }
            _, statements = _request("GET", f"{base}/debug/statements")
            assert set(statements) == {
                "capacity", "statements_tracked", "recorded_total",
                "evicted_total", "sort", "statements",
            }
            assert set(statements["statements"][0]) == {
                "fingerprint", "query", "calls", "rows", "errors", "cache_hits",
                "cache_hit_rate", "total_seconds", "mean_ms", "min_ms", "max_ms",
                "p50_ms", "p95_ms", "p99_ms", "counters", "first_seen",
                "last_seen",
            }
            _, traces = _request("GET", f"{base}/debug/traces")
            assert set(traces) == {
                "trace_ids", "enabled", "traces_buffered", "max_traces",
            }
            _, trace = _request(
                "GET", f"{base}/debug/trace?id={miss['meta']['trace_id']}"
            )
            assert set(trace) == {"trace_id", "spans"}
            assert set(trace["spans"]) == {
                "trace_id", "span_id", "parent_id", "name", "started_at",
                "duration_ms", "attributes", "status", "children",
            }
            with urllib.request.urlopen(f"{base}/metrics", timeout=30) as response:
                text = response.read().decode()
            series = {
                re.match(r"[A-Za-z_:][A-Za-z0-9_:]*", line).group(0)
                for line in text.splitlines()
                if line and not line.startswith("#")
            }
            assert series == METRIC_SERIES
        finally:
            server.shutdown()
            server.server_close()
