"""End-to-end tests for the HTTP query service.

A real ``IYPHTTPServer`` is bound to an ephemeral port and exercised
over sockets — the same path a user's ``curl`` takes.  Two servers are
used: a module-scoped one over the shared (read-only!) ``small_iyp``
fixture, and a function-scoped one over a scratch store for everything
that mutates, times out, or trips limits.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.graphdb import GraphStore
from repro.server import QueryService, create_server
from repro.studies.queries import LISTING_1, LISTING_2
from tests.conftest import KEEPALIVE_KINDS, LARGE_QUERY, SEEK_QUERY, fastest_keepalive_ms

# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _request(method: str, url: str, body=None):
    """Issue one HTTP request; returns (status, decoded JSON body)."""
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


def _get(url):
    return _request("GET", url)


def _post_query(base: str, query: str, **fields):
    return _request("POST", f"{base}/query", {"query": query, **fields})


def _address(base: str) -> tuple[str, int]:
    host, port = base.removeprefix("http://").split(":")
    return host, int(port)


def _serve(service: QueryService):
    """Bind an ephemeral port and serve from a daemon thread."""
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, f"http://127.0.0.1:{server.server_address[1]}"


@pytest.fixture(scope="module")
def iyp_server(small_iyp):
    """An HTTP server over the session's built knowledge graph.

    The underlying store is shared with every other test — the queries
    sent here must all be reads.
    """
    service = QueryService(small_iyp.store)
    server, base = _serve(service)
    yield base, service, small_iyp
    server.shutdown()
    server.server_close()


@pytest.fixture()
def scratch_server():
    """A private small store: safe to mutate, abort, and overload."""
    store = GraphStore()
    store.create_index("AS", "asn")
    for asn in range(64500, 64520):
        store.create_node({"AS"}, {"asn": asn})
    # A dense 10-clique so variable-length queries can burn arbitrary
    # CPU — the raw material for the timeout test.
    dense = [store.create_node({"Dense"}, {"i": i}) for i in range(10)]
    for a in dense:
        for b in dense:
            if a.id < b.id:
                store.create_relationship(a.id, "LINK", b.id)
    service = QueryService(store, max_concurrent=2, cache_size=32)
    server, base = _serve(service)
    yield base, service, store
    server.shutdown()
    server.server_close()


# ---------------------------------------------------------------------------
# read-only endpoints over the built graph
# ---------------------------------------------------------------------------


class TestEndpoints:
    def test_healthz(self, iyp_server):
        base, _, iyp = iyp_server
        status, body = _get(f"{base}/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["nodes"] == iyp.store.node_count
        assert body["relationships"] == iyp.store.relationship_count

    def test_stats(self, iyp_server):
        base, _, iyp = iyp_server
        status, body = _get(f"{base}/stats")
        assert status == 200
        assert body["graph"]["nodes"] == iyp.store.node_count
        assert body["graph"]["labels"]["AS"] > 0
        assert ["AS", "asn"] in body["graph"]["indexes"]
        assert body["result_cache"]["maxsize"] > 0
        assert body["admission"]["max_concurrent"] == 8
        assert body["uptime_seconds"] >= 0

    def test_ontology(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _get(f"{base}/ontology")
        assert status == 200
        labels = {entity["label"] for entity in body["entities"]}
        assert "AS" in labels and "Prefix" in labels
        assert len(body["entities"]) == 24  # Table 6 of the paper
        types = {rel["type"] for rel in body["relationships"]}
        assert "ORIGINATE" in types and "DEPENDS_ON" in types

    def test_explain(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _get(
            f"{base}/explain?q=MATCH%20(a:AS%20%7Basn:%202497%7D)%20RETURN%20a"
        )
        assert status == 200
        assert "plan" in body and body["plan"]

    def test_explain_requires_query(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _get(f"{base}/explain")
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_metrics_text_format(self, iyp_server):
        base, _, _ = iyp_server
        _post_query(base, "MATCH (a:AS) RETURN count(a)")
        response = urllib.request.urlopen(f"{base}/metrics", timeout=30)
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode()
        assert "# TYPE repro_queries_total counter" in text
        assert "repro_store_nodes " in text
        assert "repro_query_latency_seconds_bucket" in text

    def test_unknown_route_is_404(self, iyp_server):
        base, _, _ = iyp_server
        assert _get(f"{base}/nope")[0] == 404
        assert _request("POST", f"{base}/nope", {"query": "RETURN 1"})[0] == 404

    def test_malformed_body_is_400(self, iyp_server):
        base, _, _ = iyp_server
        request = urllib.request.Request(
            f"{base}/query", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=30)
        assert err.value.code == 400

    def test_empty_query_is_400(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _post_query(base, "   ")
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_syntax_error_is_400(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _post_query(base, "MATCH (a:AS RETURN a")
        assert status == 400
        assert body["error"]["code"] == "syntax_error"
        assert body["error"]["status"] == 400


# ---------------------------------------------------------------------------
# paper listings: the HTTP path must match the in-process engine
# ---------------------------------------------------------------------------


class TestListingEquivalence:
    @pytest.mark.parametrize(
        "listing", [LISTING_1, LISTING_2], ids=["listing1", "listing2"]
    )
    def test_listing_matches_in_process(self, iyp_server, listing):
        base, _, iyp = iyp_server
        status, body = _post_query(base, listing)
        assert status == 200
        local = iyp.run(listing)
        assert body["columns"] == list(local.columns)
        served = sorted(row[0] for row in body["rows"])
        direct = sorted(record[local.columns[0]] for record in local.records)
        assert served == direct
        assert body["row_count"] == len(local.records)

    def test_parameterized_query(self, iyp_server):
        base, _, iyp = iyp_server
        asn = iyp.run("MATCH (a:AS) RETURN a.asn ORDER BY a.asn LIMIT 1")[0]["a.asn"]
        status, body = _post_query(
            base,
            "MATCH (a:AS {asn: $asn}) RETURN a.asn",
            parameters={"asn": asn},
        )
        assert status == 200
        assert body["rows"] == [[asn]]

    def test_node_encoding(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _post_query(base, "MATCH (a:AS) RETURN a LIMIT 1")
        assert status == 200
        node = body["rows"][0][0]
        assert node["_type"] == "node"
        assert "AS" in node["labels"]
        assert "asn" in node["properties"]


# ---------------------------------------------------------------------------
# caching, invalidation, and writes (scratch store only)
# ---------------------------------------------------------------------------


class TestCachingAndWrites:
    QUERY = "MATCH (a:AS) RETURN count(a) AS n"

    def test_repeat_query_is_cached(self, scratch_server):
        base, _, _ = scratch_server
        _, first = _post_query(base, self.QUERY)
        _, second = _post_query(base, self.QUERY)
        assert first["meta"]["cached"] is False
        assert second["meta"]["cached"] is True
        assert second["rows"] == first["rows"]

    def test_write_bumps_version_and_invalidates(self, scratch_server):
        base, service, store = scratch_server
        _, before = _post_query(base, self.QUERY)
        _post_query(base, self.QUERY)  # warm the cache
        version_before = store.version

        status, write = _post_query(base, "CREATE (a:AS {asn: 65000})")
        assert status == 200
        assert write["stats"]["nodes_created"] == 1
        assert write["meta"]["cached"] is False
        assert store.version > version_before

        status, after = _post_query(base, self.QUERY)
        assert status == 200
        assert after["meta"]["cached"] is False  # old entry is dead
        assert after["rows"][0][0] == before["rows"][0][0] + 1
        assert after["meta"]["store_version"] > before["meta"]["store_version"]

    def test_distinct_parameters_not_conflated(self, scratch_server):
        base, _, _ = scratch_server
        query = "MATCH (a:AS {asn: $asn}) RETURN a.asn"
        _, one = _post_query(base, query, parameters={"asn": 64500})
        _, two = _post_query(base, query, parameters={"asn": 64501})
        assert one["rows"] == [[64500]]
        assert two["rows"] == [[64501]]


# ---------------------------------------------------------------------------
# admission control: timeout, row limit, busy — and staying alive
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_timeout_returns_408(self, scratch_server):
        base, _, _ = scratch_server
        status, body = _post_query(
            base,
            "MATCH (a:Dense)-[:LINK*1..9]-(b:Dense) RETURN count(*)",
            timeout=0.05,
        )
        assert status == 408
        assert body["error"]["code"] == "timeout"
        assert "time budget" in body["error"]["message"]

    def test_row_limit_returns_413(self, scratch_server):
        base, _, _ = scratch_server
        status, body = _post_query(
            base, "MATCH (a:AS) RETURN a.asn", max_rows=3
        )
        assert status == 413
        assert body["error"]["code"] == "row_limit"

    def test_limit_clause_within_budget_is_fine(self, scratch_server):
        base, _, _ = scratch_server
        status, body = _post_query(
            base, "MATCH (a:AS) RETURN a.asn LIMIT 3", max_rows=3
        )
        assert status == 200
        assert body["row_count"] == 3

    def test_busy_returns_429(self, scratch_server):
        base, service, _ = scratch_server
        # Fill every admission slot from the outside, then knock.
        with service.admission.slot(), service.admission.slot():
            status, body = _post_query(base, "MATCH (a:AS) RETURN count(a)")
        assert status == 429
        assert body["error"]["code"] == "busy"
        assert service.admission.rejected >= 1

    def test_errors_do_not_poison_cache_or_server(self, scratch_server):
        base, service, _ = scratch_server
        query = "MATCH (a:AS) RETURN a.asn"
        assert _post_query(base, query, max_rows=2)[0] == 413
        assert _post_query(base, "MATCH (x:AS RETURN", timeout=1)[0] == 400
        # Same query text, no limit: must execute fresh, not replay an error.
        status, body = _post_query(base, query)
        assert status == 200
        assert body["meta"]["cached"] is False
        assert body["row_count"] == 20
        # And now it is cached like any healthy result.
        assert _post_query(base, query)[1]["meta"]["cached"] is True
        errors = service.metrics.counter_total("query_errors_total")
        assert errors >= 2

    def test_aborted_queries_land_in_slowlog(self, scratch_server):
        base, service, _ = scratch_server
        service.slowlog.clear()
        status, _ = _post_query(base, "MATCH (a:AS) RETURN a.asn", max_rows=3)
        assert status == 413
        entries = service.slowlog.snapshot()["entries"]
        assert entries[-1]["error"] == "row_limit"
        assert entries[-1]["query"] == "MATCH (a:AS) RETURN a.asn"

    def test_unexpected_exception_is_a_500_every_view_sees_once(
        self, scratch_server, monkeypatch
    ):
        base, service, _ = scratch_server

        def broken_run(*args, **kwargs):
            raise RuntimeError("procedure blew up: secret detail")

        monkeypatch.setattr(service.engine, "run", broken_run)
        query = "MATCH (a:AS) RETURN count(a)"
        fingerprint, _ = service.engine.fingerprint(query)

        def views():
            return [
                service.metrics.counter_value(
                    "query_errors_total", {"code": "internal"}
                ),
                service.slo.snapshot()["queries_in_window"],
                service.statements.recorded_total,
                service.slowlog.recorded_total,
            ]

        before = views()
        connection = http.client.HTTPConnection(*_address(base), timeout=30)
        try:
            connection.request("POST", "/query", body=json.dumps({"query": query}))
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 500
            assert body["error"]["code"] == "internal"
            assert body["error"]["status"] == 500
            assert "secret detail" not in body["error"]["message"]
            # The same keep-alive connection answers the next request.
            connection.request("GET", "/healthz")
            alive = connection.getresponse()
            assert alive.status == 200
            assert json.loads(alive.read())["status"] == "ok"
        finally:
            connection.close()
        moved = [b - a for a, b in zip(before, views(), strict=True)]
        assert moved == [1, 1, 1, 1]
        assert service.statements.get(fingerprint).errors == {"internal": 1}
        assert service.slo.snapshot()["availability"]["compliance"] < 1.0
        entry = service.slowlog.snapshot()["entries"][-1]
        assert entry["error"] == "internal" and entry["fingerprint"] == fingerprint
        # The exception text stays server-side: on the trace, not the wire.
        spans = service.tracer.get_trace(entry["trace_id"])
        assert any("secret detail" in s.attributes.get("error", "") for s in spans)

    def test_unexpected_exception_outside_query_routes_is_a_500(
        self, scratch_server, monkeypatch
    ):
        base, service, _ = scratch_server

        def broken_ontology():
            raise RuntimeError("boom")

        monkeypatch.setattr(service, "ontology", broken_ontology)
        status, body = _get(f"{base}/ontology")
        assert status == 500
        assert body["error"]["code"] == "internal"
        assert _get(f"{base}/healthz")[0] == 200

    def test_parallel_readers_all_succeed(self, iyp_server):
        """Six clients sweeping distinct parameters (every request
        misses the cache) really do run inside the store together; the
        same clients repeating one parameter are answered by the cache."""
        base, service, iyp = iyp_server
        query = (
            "MATCH (a:AS)-[:ORIGINATE]-(p:Prefix) WHERE a.asn >= $asn "
            "RETURN count(DISTINCT p) AS n"
        )
        asns = iyp.run("MATCH (a:AS) RETURN a.asn ORDER BY a.asn").column()

        def drive(asns):
            results: list[int] = []

            def client(worker: int):
                for i in range(4):
                    asn = asns[(worker * 4 + i) % len(asns)]
                    status, _ = _post_query(base, query, parameters={"asn": asn})
                    results.append(status)

            threads = [
                threading.Thread(target=client, args=(w,)) for w in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return results

        assert drive(asns) == [200] * 24
        assert service.admission.peak_active >= 2, "no reader parallelism"
        hits_before = service.cache.info()["hits"]
        assert drive(asns[:1]) == [200] * 24
        assert service.cache.info()["hits"] > hits_before
        assert service.cache.info()["hit_rate"] > 0


# ---------------------------------------------------------------------------
# transport: one send per response, no Nagle, and when the server closes
# ---------------------------------------------------------------------------


def _until_closed(base: str, payload: bytes) -> bytes:
    """Send raw bytes and read until the server closes the connection
    (a server that keeps it open fails the test by timing out)."""
    with socket.create_connection(_address(base), timeout=10) as sock:
        sock.sendall(payload)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closed with bytes of ours still unread: a reset, not a FIN
    return b"".join(chunks)


PIPELINED_GET = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"


class TestTransport:
    @pytest.mark.parametrize(
        ("method", "path", "body"), KEEPALIVE_KINDS, ids=["healthz", "seek", "large"]
    )
    def test_keepalive_requests_do_not_wait_for_a_delayed_ack(
        self, scratch_server, method, path, body
    ):
        base, _, _ = scratch_server
        fastest = fastest_keepalive_ms(*_address(base), method, path, body)
        assert fastest < 20, f"fastest keep-alive {method} {path}: {fastest:.1f} ms"

    def test_every_response_is_one_send_without_nagle(
        self, scratch_server, socket_sends, monkeypatch
    ):
        base, service, _ = scratch_server
        connection = http.client.HTTPConnection(*_address(base), timeout=30)

        def exchange(method, path, body=None):
            connection.request(method, path, body=body)
            response = connection.getresponse()
            payload = response.read()
            assert response.getheader("Connection") is None
            return response.status, payload

        def query(text):
            return exchange("POST", "/query", json.dumps({"query": text}))

        try:
            sent = {
                "small": exchange("GET", "/healthz"),
                "seek": query(SEEK_QUERY),
                "large": query(LARGE_QUERY),
                "service_error": query("MATCH (x:AS RETURN"),
            }
            monkeypatch.setattr(service.engine, "run", lambda *a, **k: 1 / 0)
            sent["internal"] = query("MATCH (a:AS) RETURN count(a)")
        finally:
            connection.close()
        assert [status for status, _ in sent.values()] == [200, 200, 200, 400, 500]
        assert len(sent["large"][1]) > 64 * 1024
        sends = socket_sends()
        # One send each, holding the headers and the whole body, on a
        # socket that had TCP_NODELAY by the time it sent.
        assert len(sends) == len(sent)
        for (size, nodelay), (_, payload) in zip(sends, sent.values(), strict=True):
            assert nodelay
            assert len(payload) < size < len(payload) + 512

    @pytest.mark.parametrize(
        ("head", "status", "code"),
        [
            (b"POST /query HTTP/1.1\r\nContent-Length: 5000000", 413, "body_too_large"),
            (b"POST /query HTTP/1.1\r\nContent-Length: abc", 400, "bad_request"),
            (b"POST /query HTTP/1.1\r\nContent-Length: -5", 400, "bad_request"),
            (b"POST /nowhere HTTP/1.1\r\nContent-Length: 2", 404, "not_found"),
        ],
        ids=["oversized", "non-numeric-length", "negative-length", "unknown-route"],
    )
    def test_reply_ahead_of_an_unread_body_closes_the_connection(
        self, scratch_server, caplog, head, status, code
    ):
        """The bytes behind such a reply are body, not a request line: a
        request pipelined after them must not be parsed out of them."""
        base, service, _ = scratch_server

        def views():
            return [
                service.metrics.counter_value("query_errors_total", {"code": code}),
                service.slo.snapshot()["queries_in_window"],
                service.statements.recorded_total,
                service.slowlog.recorded_total,
            ]

        before = views()
        with caplog.at_level("ERROR", logger="repro.server"):
            reply = _until_closed(
                base, head + b"\r\nHost: t\r\n\r\n{}" + PIPELINED_GET
            )
        assert reply.count(b"HTTP/1.1 ") == 1
        headers, _, body = reply.partition(b"\r\n\r\n")
        assert headers.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"\r\nConnection: close" in headers
        assert json.loads(body)["error"]["code"] == code
        assert not caplog.records  # a malformed length is no traceback
        counted = 0 if status == 404 else 1  # body rejections are counted
        assert [b - a for a, b in zip(before, views(), strict=True)] == [counted, 0, 0, 0]
        # A new connection is served as if nothing had happened.
        assert _post_query(base, SEEK_QUERY)[1]["rows"] == [[64501]]

    def test_error_after_the_body_was_read_keeps_the_connection(self, scratch_server):
        base, _, _ = scratch_server
        connection = http.client.HTTPConnection(*_address(base), timeout=30)
        try:
            connection.request("POST", "/query", body="{not json")
            response = connection.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"]["code"] == "bad_request"
            assert response.getheader("Connection") is None
            sock = connection.sock
            connection.request("GET", "/healthz")
            assert connection.getresponse().status == 200
            assert connection.sock is sock  # no reconnect in between
        finally:
            connection.close()


# ---------------------------------------------------------------------------
# observability: tracing, PROFILE, slow-query log
# ---------------------------------------------------------------------------


def _span_names(tree):
    yield tree["name"]
    for child in tree["children"]:
        yield from _span_names(child)


class TestTracing:
    def test_query_returns_resolvable_trace_id(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _post_query(base, "MATCH (a:AS) RETURN count(a) AS n")
        assert status == 200
        trace_id = body["meta"]["trace_id"]
        status, trace = _get(f"{base}/debug/trace?id={trace_id}")
        assert status == 200
        assert trace["trace_id"] == trace_id
        names = set(_span_names(trace["spans"]))
        assert {"request", "admission", "parse", "execute"} <= names

    def test_cached_hit_still_traced(self, iyp_server):
        base, service, _ = iyp_server
        query = "MATCH (p:Prefix) RETURN count(p) AS n"
        _post_query(base, query)
        status, body = _post_query(base, query)
        assert body["meta"]["cached"] is True
        _, trace = _get(f"{base}/debug/trace?id={body['meta']['trace_id']}")
        names = set(_span_names(trace["spans"]))
        assert "cache_lookup" in names
        assert "execute" not in names  # served from the cache

    def test_traces_listing(self, iyp_server):
        base, _, _ = iyp_server
        _, body = _post_query(base, "MATCH (a:AS) RETURN count(a)")
        status, listing = _get(f"{base}/debug/traces")
        assert status == 200
        assert listing["enabled"] is True
        assert body["meta"]["trace_id"] in listing["trace_ids"]

    def test_unknown_trace_is_404(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _get(f"{base}/debug/trace?id=0000000000000000")
        assert status == 404
        assert body["error"]["code"] == "unknown_trace"

    def test_tracing_disabled_omits_trace_id(self, small_iyp):
        service = QueryService(small_iyp.store, tracing=False)
        body = service.execute("MATCH (a:AS) RETURN count(a)")
        assert "trace_id" not in body["meta"]
        assert service.tracer.trace_ids() == []


class TestProfileEndpoint:
    @pytest.mark.parametrize(
        "listing", [LISTING_1, LISTING_2], ids=["listing1", "listing2"]
    )
    def test_profile_returns_operator_tree(self, iyp_server, listing):
        base, _, _ = iyp_server
        status, body = _request("POST", f"{base}/profile", {"query": listing})
        assert status == 200
        plan = body["profile"]["plan"]
        assert plan["operator"] == "Query"
        assert plan["rows"] == body["row_count"]
        operators = {child["operator"] for child in plan["children"]}
        assert "Match" in operators
        for child in plan["children"]:
            assert child["time_ms"] >= 0
        match = next(c for c in plan["children"] if c["operator"] == "Match")
        assert match["hits"]  # store hits recorded and attributed
        assert body["profile"]["render"][0].startswith("+Query")

    def test_profile_bypasses_cache(self, iyp_server):
        base, _, _ = iyp_server
        query = "MATCH (a:AS) RETURN count(a) AS n"
        _post_query(base, query)  # warm the result cache
        status, body = _request("POST", f"{base}/profile", {"query": query})
        assert status == 200
        assert body["meta"]["cached"] is False
        assert "profile" in body

    def test_plain_query_has_no_profile_section(self, iyp_server):
        base, _, _ = iyp_server
        _, body = _post_query(base, "MATCH (a:AS) RETURN count(a) AS n2")
        assert "profile" not in body


class TestSlowlogEndpoint:
    def test_slow_query_is_recorded_with_plan(self, small_iyp):
        service = QueryService(small_iyp.store, slow_query_seconds=0.0)
        body = service.execute("MATCH (a:AS) RETURN count(a)")
        snapshot = service.slowlog_snapshot()
        assert snapshot["threshold_seconds"] == 0.0
        entry = snapshot["entries"][-1]
        assert entry["query"] == "MATCH (a:AS) RETURN count(a)"
        assert entry["trace_id"] == body["meta"]["trace_id"]
        assert entry["plan"]["operator"] == "Query"
        assert service.metrics.counter_total("slow_queries_total") >= 1

    def test_fast_queries_not_recorded(self, iyp_server):
        base, service, _ = iyp_server
        before = service.slowlog.recorded_total
        _post_query(base, "MATCH (a:AS) RETURN count(a) AS n3")
        assert service.slowlog.recorded_total == before  # threshold is 1s

    def test_slowlog_endpoint_shape(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _get(f"{base}/debug/slowlog")
        assert status == 200
        assert set(body) == {
            "threshold_seconds", "capacity", "recorded_total", "entries",
        }


class TestObservabilityMetrics:
    def test_new_gauges_exposed(self, iyp_server):
        base, _, _ = iyp_server
        _post_query(base, "MATCH (a:AS) RETURN count(a)")
        text = urllib.request.urlopen(f"{base}/metrics", timeout=30).read().decode()
        for gauge in (
            "repro_parse_cache_hits_total",
            "repro_parse_cache_misses_total",
            "repro_result_cache_hits_total",
            "repro_result_cache_misses_total",
            "repro_result_cache_evictions_total",
            "repro_slowlog_entries",
            "repro_slowlog_recorded_total",
            "repro_traces_buffered",
        ):
            assert f"# TYPE {gauge} gauge" in text

    def test_stats_include_tracer_and_slowlog(self, iyp_server):
        base, _, _ = iyp_server
        _, body = _get(f"{base}/stats")
        assert body["tracer"]["enabled"] is True
        assert body["tracer"]["traces_buffered"] >= 1
        assert body["slowlog"]["threshold_seconds"] == 1.0


class TestLintEndpoint:
    def test_lint_reports_diagnostics(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _request(
            "POST", f"{base}/lint", {"query": "MATCH (a:ASN) RETURN a"}
        )
        assert status == 200
        assert body["ok"] is False and body["strict_ok"] is False
        (finding,) = body["diagnostics"]
        assert finding["code"] == "LNT001"
        assert finding["severity"] == "error"
        assert finding["line"] == 1 and finding["column"] == 10

    def test_lint_clean_query(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _request("POST", f"{base}/lint", {"query": LISTING_1})
        assert status == 200
        assert body["ok"] is True and body["strict_ok"] is True
        assert body["diagnostics"] == []

    def test_lint_never_executes(self, iyp_server):
        base, service, iyp = iyp_server
        before = iyp.store.node_count
        status, body = _request(
            "POST", f"{base}/lint",
            {"query": "CREATE (t:Tag {label: 'lint-side-effect'}) RETURN t"},
        )
        assert status == 200
        assert iyp.store.node_count == before

    def test_lint_empty_query_is_400(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _request("POST", f"{base}/lint", {"query": "  "})
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_lint_counts_metrics(self, iyp_server):
        base, service, _ = iyp_server
        _request("POST", f"{base}/lint", {"query": "MATCH (a:ASN) RETURN a"})
        text = service.metrics_text()
        assert 'repro_lint_diagnostics_total{severity="error"}' in text


class TestQueryWarnings:
    def test_meta_warnings_on_suspicious_query(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _post_query(
            base, "MATCH (a:AS) WHERE a.asn = '2497' RETURN a.asn"
        )
        assert status == 200
        warnings = body["meta"]["warnings"]
        assert any(w["code"] == "LNT009" for w in warnings)

    def test_no_warnings_key_on_clean_query(self, iyp_server):
        base, _, _ = iyp_server
        status, body = _post_query(base, LISTING_2)
        assert status == 200
        assert "warnings" not in body["meta"]

    def test_explain_carries_warnings(self, iyp_server):
        base, _, _ = iyp_server
        from urllib.parse import quote

        query = "MATCH (a:AS) RETURN b.asn"
        status, body = _get(f"{base}/explain?q={quote(query)}")
        assert status == 200
        assert isinstance(body["plan"], list) and body["plan"]
        assert any(w["code"] == "LNT007" for w in body["warnings"])

    def test_explain_clean_query_has_empty_warnings(self, iyp_server):
        base, _, _ = iyp_server
        from urllib.parse import quote

        status, body = _get(f"{base}/explain?q={quote(LISTING_1)}")
        assert status == 200
        assert body["warnings"] == []
