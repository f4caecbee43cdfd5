"""The build pipeline and the refinement pass over the small world."""

import pytest

from repro.core import IYP
from repro.lint import GraphValidator
from repro.pipeline import build_iyp, run_postprocessing
from repro.pipeline.postprocess import (
    add_address_families,
    complete_country_codes,
    link_covering_prefixes,
    link_ips_to_prefixes,
    link_name_hierarchy,
    link_urls_to_hostnames,
)


class TestBuild:
    def test_report_is_clean(self, small_world):
        iyp, report = build_iyp(small_world)
        assert report.ok
        assert report.nodes > 1000
        assert report.relationships > report.nodes
        assert set(report.crawler_seconds) == {
            spec.name for spec in __import__(
                "repro.datasets.registry", fromlist=["DATASETS"]
            ).DATASETS
        }

    def test_subset_build(self, small_world):
        iyp, report = build_iyp(
            small_world, dataset_names=["bgpkit.pfx2as"], postprocess=False
        )
        assert set(report.crawler_seconds) == {"bgpkit.pfx2as"}
        assert iyp.store.relationship_type_counts().keys() == {"ORIGINATE"}

    def test_schema_valid(self, small_iyp):
        report = GraphValidator().validate(small_iyp.store)
        assert report.ok, [str(v) for v in report.violations[:10]]

    def test_no_duplicate_identity_nodes(self, small_iyp):
        from repro.ontology import ENTITIES

        for definition in ENTITIES.values():
            key = definition.key
            seen = set()
            for node in small_iyp.store.nodes_with_label(definition.label):
                value = node.properties.get(key)
                assert (definition.label, value) not in seen
                seen.add((definition.label, value))

    def test_build_errors_can_be_collected(self, small_world, monkeypatch):
        from repro.datasets.crawlers import tranco as tranco_module

        def boom(self):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(tranco_module.TrancoCrawler, "run", boom)
        iyp, report = build_iyp(
            small_world, dataset_names=["tranco.top1m"], raise_on_error=False
        )
        assert not report.ok
        assert "synthetic failure" in report.crawler_errors["tranco.top1m"]

    def test_build_errors_raise_by_default(self, small_world, monkeypatch):
        from repro.datasets.crawlers import tranco as tranco_module

        def boom(self):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(tranco_module.TrancoCrawler, "run", boom)
        with pytest.raises(RuntimeError):
            build_iyp(small_world, dataset_names=["tranco.top1m"])


class TestRefinementSteps:
    def test_af_properties(self):
        iyp = IYP()
        iyp.get_node("IP", ip="10.0.0.1")
        iyp.get_node("Prefix", prefix="2001:db8::/32")
        count = add_address_families(iyp)
        assert count == 2
        assert iyp.run("MATCH (i:IP) RETURN i.af").value() == 4
        assert iyp.run("MATCH (p:Prefix) RETURN p.af").value() == 6

    def test_ip_lpm_link(self):
        iyp = IYP()
        iyp.get_node("Prefix", prefix="10.0.0.0/8")
        iyp.get_node("Prefix", prefix="10.1.0.0/16")
        iyp.get_node("IP", ip="10.1.2.3")
        link_ips_to_prefixes(iyp)
        assert iyp.run(
            "MATCH (:IP {ip:'10.1.2.3'})-[:PART_OF]->(p:Prefix) RETURN p.prefix"
        ).value() == "10.1.0.0/16"

    def test_covering_prefix_link(self):
        iyp = IYP()
        iyp.get_node("Prefix", prefix="10.0.0.0/8")
        iyp.get_node("Prefix", prefix="10.1.0.0/16")
        link_covering_prefixes(iyp)
        assert iyp.run(
            "MATCH (:Prefix {prefix:'10.1.0.0/16'})-[:PART_OF]->(p:Prefix) "
            "RETURN p.prefix"
        ).value() == "10.0.0.0/8"

    def test_url_to_hostname(self):
        iyp = IYP()
        iyp.get_node("URL", url="https://www.example.com/page")
        link_urls_to_hostnames(iyp)
        assert iyp.run(
            "MATCH (:URL)-[:PART_OF]->(h:HostName) RETURN h.name"
        ).value() == "www.example.com"

    def test_name_hierarchy(self):
        iyp = IYP()
        iyp.get_node("HostName", name="a.b.example.com")
        link_name_hierarchy(iyp)
        assert iyp.run(
            "MATCH (:HostName)-[:PART_OF]->(d:DomainName) RETURN d.name"
        ).value() == "example.com"
        assert iyp.run(
            "MATCH (p:DomainName {name:'com'})-[:PARENT]->(d:DomainName) "
            "RETURN d.name"
        ).value() == "example.com"

    def test_country_completion(self):
        iyp = IYP()
        iyp.get_node("Country", country_code="NL")
        complete_country_codes(iyp)
        row = iyp.run(
            "MATCH (c:Country) RETURN c.alpha3 AS a3, c.name AS name"
        ).single()
        assert row == {"a3": "NLD", "name": "Netherlands"}

    def test_postprocess_idempotent(self):
        iyp = IYP()
        iyp.get_node("Prefix", prefix="10.0.0.0/8")
        iyp.get_node("IP", ip="10.1.2.3")
        run_postprocessing(iyp)
        rels = iyp.store.relationship_count
        run_postprocessing(iyp)
        assert iyp.store.relationship_count == rels

    def test_refinement_links_carry_provenance(self, small_iyp):
        refinement_links = [
            rel
            for rel in small_iyp.store.iter_relationships()
            if rel.properties.get("reference_name") == "iyp.refinement"
        ]
        assert refinement_links
        for rel in refinement_links[:20]:
            assert rel.properties["reference_org"] == "IYP"


class TestRefinedGraphInvariants:
    def test_every_ip_has_af_and_prefix(self, small_iyp):
        rows = small_iyp.run(
            "MATCH (i:IP) OPTIONAL MATCH (i)-[p:PART_OF]->(:Prefix) "
            "RETURN i.af AS af, count(p) AS links"
        ).records
        for row in rows:
            assert row["af"] in (4, 6)

    def test_sampled_lpm_correct(self, small_iyp, small_world):
        rows = small_iyp.run(
            "MATCH (i:IP)-[:PART_OF]->(p:Prefix) RETURN i.ip AS ip, p.prefix AS prefix "
            "LIMIT 100"
        ).records
        from repro.nettypes import ip_in_prefix

        assert rows
        for row in rows:
            assert ip_in_prefix(row["ip"], row["prefix"])

    def test_countries_complete(self, small_iyp):
        rows = small_iyp.run(
            "MATCH (c:Country) RETURN c.country_code AS cc, c.alpha3 AS a3, "
            "c.name AS name"
        ).records
        assert rows
        for row in rows:
            assert row["a3"] and row["name"]


class TestPipelineTelemetry:
    def test_crawler_runs_recorded(self, small_world):
        iyp, report = build_iyp(
            small_world, dataset_names=["bgpkit.pfx2as"], postprocess=False
        )
        (run,) = report.crawler_runs
        assert run.name == "bgpkit.pfx2as"
        assert run.error is None
        assert run.seconds >= 0
        assert run.nodes_created > 0
        assert run.relationships_created > 0
        created = run.nodes_created
        assert created <= iyp.store.node_count

    def test_second_import_merges_instead_of_creating(self, small_world):
        iyp, report = build_iyp(
            small_world,
            dataset_names=["bgpkit.pfx2as", "pch.routing_snapshot"],
            postprocess=False,
        )
        second = report.crawler_runs[1]
        # The second origin dataset re-imports overlapping entities: the
        # fusion layer must merge its nodes, not duplicate them.
        assert second.nodes_merged > 0
        assert second.nodes_created == 0

    def test_metrics_counters_accumulate(self, small_world):
        from repro.server.metrics import Metrics

        metrics = Metrics()
        _, report = build_iyp(
            small_world,
            dataset_names=["bgpkit.pfx2as", "tranco.top1m"],
            postprocess=False,
            metrics=metrics,
        )
        assert metrics.counter_total("crawler_runs_total") == 2
        assert metrics.counter_value(
            "crawler_runs_total", {"crawler": "bgpkit.pfx2as", "status": "ok"}
        ) == 1
        total_created = sum(r.nodes_created for r in report.crawler_runs)
        assert metrics.counter_total("crawler_nodes_created_total") == total_created
        assert metrics.counter_total("crawler_seconds_total") > 0

    def test_failed_crawler_reports_error_run(self, small_world, monkeypatch):
        from repro.datasets.crawlers import tranco as tranco_module
        from repro.server.metrics import Metrics

        def boom(self):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(tranco_module.TrancoCrawler, "run", boom)
        metrics = Metrics()
        _, report = build_iyp(
            small_world, dataset_names=["tranco.top1m"],
            raise_on_error=False, metrics=metrics,
        )
        (run,) = report.crawler_runs
        assert run.error is not None and "synthetic failure" in run.error
        assert metrics.counter_value(
            "crawler_runs_total", {"crawler": "tranco.top1m", "status": "error"}
        ) == 1

    def test_build_trace_spans(self, small_world):
        from repro.obs import Tracer

        tracer = Tracer()
        _, report = build_iyp(
            small_world, dataset_names=["bgpkit.pfx2as"], tracer=tracer
        )
        assert report.trace_id is not None
        spans = tracer.get_trace(report.trace_id)
        names = [span.name for span in spans]
        assert names.count("crawler") == 1
        assert "postprocess" in names
        assert names[-1] == "build"
        crawler_span = next(s for s in spans if s.name == "crawler")
        assert crawler_span.attributes["crawler"] == "bgpkit.pfx2as"

    def test_structured_log_line(self, small_world, caplog):
        import json as json_module
        import logging

        with caplog.at_level(logging.INFO, logger="repro.pipeline"):
            build_iyp(small_world, dataset_names=["bgpkit.pfx2as"], postprocess=False)
        records = [r for r in caplog.records if r.name == "repro.pipeline"]
        assert records
        payload = json_module.loads(records[0].message.split(" ", 1)[1])
        assert payload["name"] == "bgpkit.pfx2as"
        assert payload["error"] is None


class TestWritePath:
    """The bulk write path keeps the build's numbers and its bytes."""

    def test_counters_count_requested_datapoints(self, quarter_world):
        # A value repeated inside one column is a merge, not a no-op:
        # the three crawlers with the largest columns report what they
        # reported when every datapoint was a call of its own.
        _, report = build_iyp(quarter_world)
        runs = {run.name: run for run in report.crawler_runs}
        counters = {
            name: (
                runs[name].nodes_created, runs[name].nodes_merged,
                runs[name].relationships_created, runs[name].relationships_merged,
            )
            for name in ("openintel.ns", "openintel.dnsgraph", "openintel.tranco1m")
        }
        assert counters == {
            "openintel.ns": (626, 5672, 2173, 2352),
            "openintel.dnsgraph": (108, 5070, 2287, 2361),
            "openintel.tranco1m": (1518, 1026, 1346, 346),
        }
        created = sum(run.nodes_created for run in runs.values())
        merged = sum(run.nodes_merged for run in runs.values())
        assert (created, merged) == (3516, 18818)  # merge ratio 0.8426

    def test_dump_bytes_do_not_depend_on_the_hash_seed(self, quarter_world, tmp_path):
        # Column building invites set() iteration, which would make node
        # ids follow PYTHONHASHSEED while any single process (the
        # benchmark's round-to-round checksum gate) stays consistent.
        import hashlib
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        script = (
            "import sys\n"
            "from repro.archive import save_snapshot_v2\n"
            "from repro.pipeline import build_iyp\n"
            "from repro.simnet import WorldConfig, build_world\n"
            "seed, scale, n_domains, n_ases = sys.argv[2:]\n"
            "world = build_world(WorldConfig(seed=int(seed), scale=float(scale), "
            "n_domains=int(n_domains), n_ases=int(n_ases)))\n"
            "iyp, report = build_iyp(world)\n"
            "assert report.ok, report.crawler_errors\n"
            "save_snapshot_v2(iyp.store, sys.argv[1])\n"
        )
        config = quarter_world.config
        size = [config.seed, config.scale, config.n_domains, config.n_ases]
        digests = []
        for seed in ("1", "2"):
            dump = tmp_path / f"seed-{seed}.iyp2"
            subprocess.run(
                [sys.executable, "-c", script, str(dump), *map(str, size)],
                env={
                    **os.environ,
                    "PYTHONHASHSEED": seed,
                    "PYTHONPATH": str(Path(repro.__file__).parents[1]),
                },
                check=True, timeout=120,
            )
            digests.append(hashlib.sha256(dump.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


class TestSchemaValidation:
    def test_build_attaches_schema_report(self, small_world):
        _, report = build_iyp(small_world, dataset_names=["bgpkit.pfx2as"])
        assert report.schema_report is not None
        assert report.schema_report.ok
        assert report.schema_report.nodes_checked > 0
        assert report.schema_report.relationships_checked > 0

    def test_validate_can_be_disabled(self, small_world):
        _, report = build_iyp(
            small_world, dataset_names=["bgpkit.pfx2as"], validate=False
        )
        assert report.schema_report is None
        assert report.ok  # ok falls back to crawler errors only

    def test_schema_violations_counted_in_metrics(self, small_world, monkeypatch):
        from repro.datasets.crawlers import bgpkit as bgpkit_module
        from repro.server.metrics import Metrics

        original = bgpkit_module.PrefixToASNCrawler.run

        def sabotage(self):
            original(self)
            self.iyp.store.create_node({"Gremlin"}, {"id": 1})

        monkeypatch.setattr(bgpkit_module.PrefixToASNCrawler, "run", sabotage)
        metrics = Metrics()
        _, report = build_iyp(
            small_world, dataset_names=["bgpkit.pfx2as"],
            postprocess=False, metrics=metrics,
        )
        assert not report.ok
        assert report.schema_report.by_code() == {"SCH001": 1}
        assert metrics.counter_value(
            "schema_violations_total", {"code": "SCH001"}
        ) == 1
