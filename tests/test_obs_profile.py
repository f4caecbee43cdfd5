"""PROFILE mode and the plumbing beneath it: store-access recording,
operator attribution, and the slow-query log."""

import pytest

from repro.cypher import CypherEngine
from repro.graphdb import GraphStore
from repro.obs import AccessCollector, collecting, current_collector, record_access
from repro.obs.slowlog import MAX_QUERY_CHARS, SlowQueryLog, params_hash


@pytest.fixture()
def store():
    """A tiny graph with an index on :AS(asn) and some edges."""
    store = GraphStore()
    store.create_index("AS", "asn")
    ases = [store.create_node({"AS"}, {"asn": 64500 + i}) for i in range(10)]
    prefixes = [
        store.create_node({"Prefix"}, {"prefix": f"10.{i}.0.0/16"}) for i in range(10)
    ]
    for a, p in zip(ases, prefixes, strict=True):
        store.create_relationship(a.id, "ORIGINATE", p.id)
    return store


@pytest.fixture()
def engine(store):
    return CypherEngine(store)


class TestAccessRecording:
    def test_no_collector_is_a_noop(self):
        assert current_collector() is None
        record_access("label_scan")  # must not raise

    def test_collecting_installs_and_restores(self):
        collector = AccessCollector()
        with collecting(collector):
            assert current_collector() is collector
            record_access("index_seek")
            record_access("index_seek", 2)
        assert current_collector() is None
        assert collector.hits == {"index_seek": 3}

    def test_collecting_nests(self):
        outer, inner = AccessCollector(), AccessCollector()
        with collecting(outer):
            with collecting(inner):
                record_access("expand")
            record_access("label_scan")
        assert inner.hits == {"expand": 1}
        assert outer.hits == {"label_scan": 1}

    def test_operator_bucket_attribution(self):
        collector = AccessCollector()
        bucket: dict[str, int] = {}
        with collecting(collector):
            record_access("full_scan")
            previous = collector.set_operator(bucket)
            record_access("index_seek")
            collector.set_operator(previous)
            record_access("expand")
        assert bucket == {"index_seek": 1}
        # Events outside the bucket stay with the collector; each event
        # lands in exactly one place.
        assert collector.hits == {"full_scan": 1, "expand": 1}

    def test_store_reports_access_kinds(self, store):
        collector = AccessCollector()
        with collecting(collector):
            store.find_nodes("AS", "asn", 64500)        # indexed
            store.find_nodes("Prefix", "prefix", "x")   # not indexed
            store.nodes_with_label("AS")
            list(store.iter_nodes())
            store.relationships_of(0)
        assert collector.hits["index_seek"] == 1
        assert collector.hits["label_scan"] == 2
        assert collector.hits["full_scan"] == 1
        assert collector.hits["expand"] == 1

    def test_store_reports_write_kinds(self):
        store = GraphStore()
        collector = AccessCollector()
        with collecting(collector):
            a = store.merge_node("AS", "asn", 1)    # created
            store.merge_node("AS", "asn", 1)        # merged
            b = store.create_node({"AS"}, {"asn": 2})
            store.merge_relationship(a.id, "PEERS_WITH", b.id)  # created
            store.merge_relationship(a.id, "PEERS_WITH", b.id)  # merged
        assert collector.hits["node_created"] >= 2
        assert collector.hits["node_merged"] == 1
        assert collector.hits["rel_created"] == 1
        assert collector.hits["rel_merged"] == 1


class TestEngineProfile:
    def test_profile_returns_result_and_tree(self, engine):
        result, plan = engine.profile("MATCH (a:AS) RETURN a.asn ORDER BY a.asn")
        assert len(result) == 10
        assert plan.operator == "Query"
        assert plan.rows == 10
        operators = [node.operator for node in plan.walk()]
        assert operators == ["Query", "Match", "Return"]

    def test_rows_per_operator(self, engine):
        _, plan = engine.profile("MATCH (a:AS) RETURN a.asn LIMIT 3")
        match, ret = plan.children
        assert match.rows == 10
        assert ret.rows == 3
        assert "LIMIT" in ret.detail

    def test_index_seek_attributed_to_match(self, engine):
        _, plan = engine.profile("MATCH (a:AS {asn: 64500}) RETURN a")
        (match, _) = plan.children
        assert "index seek" in match.detail
        assert match.hits.get("index_seek", 0) >= 1
        assert "label_scan" not in match.hits

    def test_label_scan_attributed_to_match(self, engine):
        _, plan = engine.profile("MATCH (p:Prefix) RETURN count(p)")
        (match, _) = plan.children
        assert "label scan" in match.detail
        assert match.hits.get("label_scan", 0) >= 1

    def test_expand_hits_on_traversal(self, engine):
        _, plan = engine.profile(
            "MATCH (a:AS)-[:ORIGINATE]->(p:Prefix) RETURN count(*)"
        )
        (match, _) = plan.children
        assert match.hits.get("expand", 0) >= 10

    def test_root_aggregates_hits_and_time(self, engine):
        _, plan = engine.profile("MATCH (a:AS)-[:ORIGINATE]->(p) RETURN count(*)")
        child_hits = sum(c.total_hits for c in plan.children)
        assert plan.total_hits == child_hits
        assert plan.seconds >= max(c.seconds for c in plan.children)

    def test_union_parts_profiled(self, engine):
        _, plan = engine.profile(
            "MATCH (a:AS) RETURN a.asn AS x UNION MATCH (p:Prefix) RETURN p.prefix AS x"
        )
        parts = [n for n in plan.walk() if n.operator == "UnionPart"]
        assert [p.detail for p in parts] == ["1/2", "2/2"]
        assert all(any(c.operator == "Match" for c in p.children) for p in parts)

    def test_render_shape(self, engine):
        _, plan = engine.profile("MATCH (a:AS {asn: 64501}) RETURN a.asn")
        text = plan.render()
        lines = text.splitlines()
        assert lines[0].startswith("+Query rows=1")
        assert any("Match" in line and "hits{" in line for line in lines)
        assert all("time=" in line for line in lines)

    def test_to_dict_round_trip(self, engine):
        _, plan = engine.profile("MATCH (a:AS) RETURN count(a)")
        data = plan.to_dict()
        assert data["operator"] == "Query"
        assert {c["operator"] for c in data["children"]} == {"Match", "Return"}
        for child in data["children"]:
            assert set(child) == {
                "operator", "detail", "rows", "time_ms", "hits", "children",
            }

    def test_match_is_planned_once_and_detail_is_the_executed_plan(
        self, engine, monkeypatch
    ):
        import repro.cypher.engine as engine_module

        bounds: list[frozenset] = []
        real_plan_match = engine_module.plan_match

        def counting_plan_match(patterns, where, store, bound=frozenset(), **kwargs):
            bounds.append(bound)
            return real_plan_match(patterns, where, store, bound, **kwargs)

        monkeypatch.setattr(engine_module, "plan_match", counting_plan_match)
        _, plan = engine.profile("MATCH (a:AS) MATCH (a)-[r]->(b) RETURN count(*)")
        # One plan per MATCH, the second with ``a`` bound — under PROFILE
        # exactly as without it.
        assert bounds == [frozenset(), frozenset({"a"})]
        bounds.clear()
        engine.run("MATCH (a:AS) MATCH (a)-[r]->(b) RETURN count(*)")
        assert bounds == []
        _, second, _ = plan.children
        assert "access=bound" in second.detail
        # With ``a`` bound the planner starts from the connected pattern
        # and ``a.asn = ...`` is a per-row prefilter, not a pushed seek.
        _, plan = engine.profile(
            "MATCH (a:AS) MATCH (p:Prefix), (a)-[r]->(b) "
            "WHERE a.asn = 64500 RETURN count(*)"
        )
        _, second, _ = plan.children
        assert "join_order=[1,0]" in second.detail
        assert "pushed=" not in second.detail

    def test_unprofiled_run_collects_nothing(self, engine):
        result = engine.run("MATCH (a:AS) RETURN count(a)")
        assert result.value() == 10  # no profiler, no error, no state leak
        assert current_collector() is None

    def test_profile_of_write_query(self, engine):
        result, plan = engine.profile("CREATE (t:Tag {label: 'x'}) RETURN t.label")
        assert result.stats.nodes_created == 1
        operators = [node.operator for node in plan.walk()]
        assert "Create" in operators
        assert plan.hits.get("node_created", 0) == 1


class TestSlowQueryLog:
    def test_threshold(self):
        log = SlowQueryLog(threshold_seconds=0.5)
        assert not log.should_record(0.4999)
        assert log.should_record(0.5)

    def test_record_entry_shape(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        entry = log.record(
            "MATCH (a) RETURN a", 1.5,
            parameters={"asn": 1}, trace_id="abc", plan={"operator": "Query"},
        )
        assert entry["elapsed_ms"] == 1500.0
        assert entry["trace_id"] == "abc"
        assert entry["params_hash"] == params_hash({"asn": 1})
        assert entry["plan"] == {"operator": "Query"}
        assert entry["error"] is None
        assert len(log) == 1

    def test_ring_bounded(self):
        log = SlowQueryLog(threshold_seconds=0.0, capacity=3)
        for i in range(5):
            log.record(f"q{i}", 0.1)
        snapshot = log.snapshot()
        assert [e["query"] for e in snapshot["entries"]] == ["q2", "q3", "q4"]
        assert snapshot["recorded_total"] == 5

    def test_query_text_truncated(self):
        log = SlowQueryLog()
        entry = log.record("x" * (MAX_QUERY_CHARS + 100), 2.0)
        assert len(entry["query"]) == MAX_QUERY_CHARS

    def test_params_hash_stable_and_order_free(self):
        assert params_hash({"a": 1, "b": 2}) == params_hash({"b": 2, "a": 1})
        assert params_hash({"a": 1}) != params_hash({"a": 2})
        assert params_hash(None) == params_hash({}) == "-"

    def test_format_text(self):
        log = SlowQueryLog(threshold_seconds=0.0)
        assert log.format_text() == ""
        log.record("MATCH (a)\nRETURN a", 1.0, trace_id="t1")
        log.record("RETURN 1", 0.2, error="timeout")
        text = log.format_text()
        assert "2 slow queries" in text
        assert "MATCH (a) RETURN a" in text  # newlines collapsed
        assert "[timeout]" in text
        assert "trace=t1" in text
