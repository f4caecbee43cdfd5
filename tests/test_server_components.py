"""Unit tests for the serving building blocks.

The LRU cache, the version-keyed result cache, the metrics registry,
admission control, the query guard, and the engine's bounded parse
cache — each exercised in isolation (the HTTP round-trip lives in
``test_server.py``).
"""

from __future__ import annotations

import time

import pytest

from repro.cypher import CypherEngine
from repro.cypher.errors import QueryTimeoutError, RowLimitError
from repro.cypher.guard import TICK_STRIDE, QueryGuard
from repro.cypher.lru import LRUCache
from repro.graphdb import GraphStore
from repro.server.admission import AdmissionController, ServerBusyError
from repro.server.cache import ResultCache, canonical_params
from repro.server.metrics import Metrics


class TestLRUCache:
    def test_bounded_eviction_order(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert len(cache) == 2
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")     # "a" is now most recent
        cache.put("c", 3)  # evicts "b", not "a"
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_hit_rate_accounting(self):
        cache = LRUCache(maxsize=4)
        cache.put("k", "v")
        cache.get("k")
        cache.get("missing")
        info = cache.info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["hit_rate"] == 0.5
        assert info["size"] == 1

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestResultCache:
    def test_version_in_key(self):
        cache = ResultCache(maxsize=8)
        cache.put("Q", {}, 1, {"rows": []})
        assert cache.get("Q", {}, 1) == {"rows": []}
        assert cache.get("Q", {}, 2) is None  # a write bumped the version

    def test_parameter_order_is_canonical(self):
        assert canonical_params({"a": 1, "b": 2}) == canonical_params({"b": 2, "a": 1})
        cache = ResultCache(maxsize=8)
        cache.put("Q", {"a": 1, "b": 2}, 1, "payload")
        assert cache.get("Q", {"b": 2, "a": 1}, 1) == "payload"

    def test_distinct_parameters_are_distinct_entries(self):
        cache = ResultCache(maxsize=8)
        cache.put("Q", {"asn": 1}, 1, "one")
        cache.put("Q", {"asn": 2}, 1, "two")
        assert cache.get("Q", {"asn": 1}, 1) == "one"
        assert cache.get("Q", {"asn": 2}, 1) == "two"


class TestMetrics:
    def test_counters_with_labels(self):
        metrics = Metrics()
        metrics.inc("requests_total", labels={"endpoint": "/query"})
        metrics.inc("requests_total", labels={"endpoint": "/query"})
        metrics.inc("requests_total", labels={"endpoint": "/healthz"})
        assert metrics.counter_value("requests_total", {"endpoint": "/query"}) == 2
        assert metrics.counter_total("requests_total") == 3

    def test_percentiles_over_reservoir(self):
        metrics = Metrics()
        for ms in range(1, 101):  # 1..100 ms
            metrics.observe("lat", ms / 1000)
        pct = metrics.percentiles("lat")
        assert pct["p50"] == pytest.approx(0.050, abs=0.002)
        assert pct["p95"] == pytest.approx(0.095, abs=0.002)
        assert pct["p99"] == pytest.approx(0.099, abs=0.002)

    def test_prometheus_rendering(self):
        metrics = Metrics()
        metrics.inc("queries_total", labels={"kind": "read"})
        metrics.observe("query_latency_seconds", 0.004)
        text = metrics.render(extra_gauges={"store_version": 7})
        assert '# TYPE repro_queries_total counter' in text
        assert 'repro_queries_total{kind="read"} 1' in text
        assert '# TYPE repro_query_latency_seconds histogram' in text
        assert 'repro_query_latency_seconds_bucket{le="0.005"} 1' in text
        assert 'repro_query_latency_seconds_bucket{le="+Inf"} 1' in text
        assert 'repro_query_latency_seconds_count 1' in text
        assert '# TYPE repro_store_version gauge' in text
        assert 'repro_store_version 7' in text

    def test_empty_percentiles_are_zero(self):
        assert Metrics().percentiles("nothing")["p50"] == 0.0


class TestAdmissionController:
    def test_slot_capacity(self):
        controller = AdmissionController(max_concurrent=2)
        with controller.slot():
            with controller.slot():
                assert controller.active == 2
                with pytest.raises(ServerBusyError):
                    with controller.slot():
                        pass
        assert controller.active == 0
        assert controller.rejected == 1
        assert controller.peak_active == 2
        assert controller.admitted == 2

    def test_guard_tightens_but_never_exceeds_defaults(self):
        controller = AdmissionController(
            max_concurrent=1, default_timeout=10.0, default_max_rows=100
        )
        assert controller.guard().timeout == 10.0
        assert controller.guard(timeout=2.0).timeout == 2.0
        assert controller.guard(timeout=60.0).timeout == 10.0  # clamped
        assert controller.guard(max_rows=5).max_rows == 5
        assert controller.guard(max_rows=10_000).max_rows == 100  # clamped

    def test_no_defaults_means_unbounded(self):
        controller = AdmissionController(
            max_concurrent=1, default_timeout=None, default_max_rows=None
        )
        guard = controller.guard()
        assert guard.timeout is None and guard.max_rows is None


class TestQueryGuard:
    def test_tick_raises_after_deadline(self):
        guard = QueryGuard(timeout=0.0001)
        time.sleep(0.01)
        with pytest.raises(QueryTimeoutError):
            for _ in range(TICK_STRIDE + 1):
                guard.tick()

    def test_check_rows(self):
        guard = QueryGuard(max_rows=10)
        guard.check_rows(10)  # at the limit: fine
        with pytest.raises(RowLimitError) as err:
            guard.check_rows(11)
        assert err.value.limit == 10 and err.value.produced == 11

    def test_unlimited_guard_never_raises(self):
        guard = QueryGuard()
        for _ in range(TICK_STRIDE * 2):
            guard.tick()
        guard.check_rows(10**9)
        guard.check_deadline()


class TestEngineParseCache:
    def _engine(self, size: int) -> CypherEngine:
        store = GraphStore()
        store.create_node({"N"}, {"i": 1})
        return CypherEngine(store, parse_cache_size=size)

    def test_cache_is_bounded(self):
        engine = self._engine(4)
        for i in range(10):
            engine.run(f"MATCH (n:N) RETURN n.i + {i}")
        info = engine.parse_cache_info()
        assert info["size"] <= 4
        assert info["misses"] >= 10

    def test_repeat_queries_hit(self):
        engine = self._engine(8)
        engine.run("MATCH (n:N) RETURN n.i")
        engine.run("MATCH (n:N) RETURN n.i")
        info = engine.parse_cache_info()
        assert info["hits"] >= 1
        assert info["hit_rate"] > 0

    def test_one_statement_per_query_text(self):
        engine = self._engine(8)
        query = "MATCH (n:N) RETURN n.i"
        statement = engine.statement(query)
        assert engine.statement(query) is statement
        assert not statement.is_write
        assert statement.identity == engine.fingerprint(query)
        assert engine.is_write_query(query) is False
        assert engine.run(statement).value() == engine.run(query).value() == 1
        info = engine.parse_cache_info()
        # Tree, read/write class and fingerprint all live on the one
        # entry; a resolved statement runs without another lookup.
        assert (info["size"], info["misses"], info["hits"]) == (1, 1, 4)

    def test_service_resolves_each_request_once(self):
        from repro.server import QueryService

        service = QueryService(self._engine(8).store)
        for _ in range(3):
            service.execute("MATCH (n:N) RETURN n.i")
        info = service.engine.parse_cache_info()
        assert info["misses"] + info["hits"] == 3

    def test_is_write_query_classification(self):
        engine = self._engine(8)
        assert not engine.is_write_query("MATCH (n) RETURN n")
        assert not engine.is_write_query("MATCH (n) RETURN n.i UNION MATCH (m) RETURN m.i")
        assert engine.is_write_query("CREATE (n:N {i: 2})")
        assert engine.is_write_query("MERGE (n:N {i: 2}) RETURN n")
        assert engine.is_write_query("MATCH (n:N) SET n.i = 3")
        assert engine.is_write_query("MATCH (n:N) DETACH DELETE n")
        assert engine.is_write_query("MATCH (n:N) REMOVE n.i")
