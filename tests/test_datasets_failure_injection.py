"""Failure injection for the ETL layer: corrupted inputs must surface
as clean, attributable errors, never as silent partial imports."""

import json

import pytest

from repro.core import IYP
from repro.datasets.base import FetchError, StaticFetcher
from repro.datasets.crawlers import bgpkit, caida, ihr, nro, openintel, ripe, tranco
from repro.nettypes import InvalidAddressError, InvalidASNError
from repro.pipeline import build_iyp


@pytest.fixture()
def iyp():
    return IYP()


class TestCorruptJSON:
    def test_truncated_json_raises(self, iyp):
        fetcher = StaticFetcher({bgpkit.PFX2AS_URL: '[{"prefix": "10.0.0.0/8", '})
        with pytest.raises(json.JSONDecodeError):
            bgpkit.PrefixToASNCrawler(iyp, fetcher).run()

    def test_missing_field_raises_key_error(self, iyp):
        fetcher = StaticFetcher(
            {bgpkit.PFX2AS_URL: json.dumps([{"prefix": "10.0.0.0/8"}])}
        )
        with pytest.raises(KeyError):
            bgpkit.PrefixToASNCrawler(iyp, fetcher).run()

    def test_bad_prefix_value_raises_invalid_prefix(self, iyp):
        from repro.nettypes import InvalidPrefixError

        fetcher = StaticFetcher(
            {bgpkit.PFX2AS_URL: json.dumps([{"prefix": "not-a-prefix", "asn": 1}])}
        )
        with pytest.raises(InvalidPrefixError):
            bgpkit.PrefixToASNCrawler(iyp, fetcher).run()

    def test_bad_asn_raises_invalid_asn(self, iyp):
        from repro.nettypes import InvalidASNError

        fetcher = StaticFetcher(
            {ripe.RPKI_URL: json.dumps(
                {"roas": [{"asn": "ASX", "prefix": "10.0.0.0/8", "maxLength": 8}]}
            )}
        )
        with pytest.raises(InvalidASNError):
            ripe.RPKICrawler(iyp, fetcher).run()


class TestMalformedLinesSkipped:
    """Line-oriented formats tolerate junk rows (real feeds have them)."""

    def test_nro_skips_header_and_junk(self, iyp):
        content = "\n".join(
            [
                "2|nro|20240501|0|19840101|20240501|+0000",  # header
                "# a comment the format does not even allow",
                "arin|US|asn|7018|1|20000101|allocated|arin-att",
                "short|row",
            ]
        )
        nro.DelegatedStatsCrawler(iyp, StaticFetcher({nro.DELEGATED_URL: content})).run()
        assert iyp.run("MATCH (a:AS) RETURN count(a)").value() == 1

    def test_pch_skips_malformed_rows(self, iyp):
        from repro.datasets.crawlers import pch

        content = "10.0.0.0/8|1 2 3|pch-collector-1\ngarbage line\n|||||\n"
        pch.RoutingSnapshotCrawler(iyp, StaticFetcher({pch.PCH_URL: content})).run()
        assert iyp.run("MATCH (:AS)-[:ORIGINATE]->(p) RETURN count(p)").value() == 1

    def test_tranco_skips_short_rows(self, iyp):
        content = "1,example.com\nnot-a-row\n2,foo.org\n"
        tranco.TrancoCrawler(iyp, StaticFetcher({tranco.TRANCO_URL: content})).run()
        assert iyp.run(
            "MATCH (d:DomainName)-[:RANK]->() RETURN count(d)"
        ).value() == 2

    def test_openintel_skips_blank_lines(self, iyp):
        record = json.dumps(
            {"query_name": "a.com", "response_type": "A",
             "response_name": "a.com", "answer": "10.0.0.1"}
        )
        content = f"\n\n{record}\n\n"
        openintel.Tranco1MCrawler(
            iyp, StaticFetcher({openintel.TRANCO1M_URL: content})
        ).run()
        assert iyp.run("MATCH (h:HostName) RETURN count(h)").value() >= 1


class TestBuildReportAttribution:
    def test_failed_crawler_attributed_not_fatal(self, small_world, monkeypatch):
        from repro.datasets.crawlers import ihr as ihr_module

        def boom(self):
            raise ValueError("corrupted upstream data")

        monkeypatch.setattr(ihr_module.ROVCrawler, "run", boom)
        iyp, report = build_iyp(
            small_world,
            dataset_names=["bgpkit.pfx2as", "ihr.rov"],
            raise_on_error=False,
            postprocess=False,
        )
        assert set(report.crawler_errors) == {"ihr.rov"}
        assert "corrupted upstream data" in report.crawler_errors["ihr.rov"]
        # The healthy dataset still imported fully.
        assert iyp.run("MATCH ()-[r:ORIGINATE]->() RETURN count(r)").value() > 0

    def test_fetch_error_attributed(self, small_world):
        iyp, report = build_iyp(
            small_world, dataset_names=["ihr.rov"], raise_on_error=False,
            postprocess=False, iyp=None,
        )
        assert report.ok  # sanity: normal path works

    def test_unregistered_url_is_fetch_error(self, iyp, small_world):
        from repro.datasets.base import SimulatedFetcher

        fetcher = SimulatedFetcher(small_world)  # nothing registered
        crawler = ihr.ROVCrawler(iyp, fetcher)
        with pytest.raises(FetchError):
            crawler.run()


#: (crawler class, url, payload, expected exception): a valid first
#: record, then a corrupt one.
HALF_CORRUPT = {
    "bgpkit.pfx2as": (
        bgpkit.PrefixToASNCrawler, bgpkit.PFX2AS_URL,
        json.dumps([
            {"prefix": "10.0.0.0/8", "asn": 1, "count": 1},
            {"prefix": "10.1.0.0/16"},  # missing asn
        ]),
        KeyError,
    ),
    "ripe.rpki": (
        ripe.RPKICrawler, ripe.RPKI_URL,
        json.dumps({"roas": [
            {"asn": "AS1", "prefix": "10.0.0.0/8", "maxLength": 8},
            {"asn": "ASX", "prefix": "10.1.0.0/16", "maxLength": 16},
        ]}),
        InvalidASNError,
    ),
    "nro.delegated_stats": (
        nro.DelegatedStatsCrawler, nro.DELEGATED_URL,
        "arin|US|asn|7018|1|20000101|allocated|arin-att\n"
        "arin|US|ipv4|10.0.0.0|many|20000101|allocated|arin-att",
        ValueError,
    ),
    "caida.asrank": (
        caida.ASRankCrawler, caida.ASRANK_URL,
        json.dumps({"data": {"asns": {"edges": [
            {"node": {"asn": "1", "rank": 1, "asnName": "ONE"}},
            {"node": {"asn": "2", "rank": 2}},  # missing asnName
        ]}}}),
        KeyError,
    ),
    "openintel.ns": (
        openintel.NSCrawler, openintel.NS_URL,
        "\n".join(json.dumps(record) for record in [
            {"domain": "a.com", "ns": "ns1.a.com", "glue": True,
             "in_zone": True, "ips": ["10.0.0.1"]},
            {"domain": "b.com", "ns": "ns1.b.com", "glue": True,
             "in_zone": True, "ips": ["not-an-ip"]},
        ]),
        InvalidAddressError,
    ),
    "tranco.top1m": (
        tranco.TrancoCrawler, tranco.TRANCO_URL,
        "1,example.com\nsecond,foo.org\n",
        ValueError,
    ),
}


class TestPartialImportVisibility:
    @pytest.mark.parametrize("dataset", sorted(HALF_CORRUPT))
    def test_corrupt_row_fails_before_any_write(self, iyp, dataset):
        """A crawler only states datapoints while it parses; the graph
        is written once the whole file parsed.  So a corrupt row anywhere
        in the file aborts the import before the graph is touched — no
        half-imported dataset, whichever crawler."""
        crawler_cls, url, payload, error = HALF_CORRUPT[dataset]
        with pytest.raises(error):
            crawler_cls(iyp, StaticFetcher({url: payload})).run()
        assert iyp.store.node_count == 0
        assert iyp.store.relationship_count == 0

    def test_failed_run_leaves_nothing_for_the_next(self, iyp):
        """What a failed parse stated is dropped, not loaded by the
        crawler's next run."""
        crawler_cls, url, payload, error = HALF_CORRUPT["tranco.top1m"]
        crawler = crawler_cls(iyp, StaticFetcher({url: payload}))
        with pytest.raises(error):
            crawler.run()
        crawler.fetcher = StaticFetcher({url: "1,other.org\n"})
        crawler.run()
        assert [
            node.properties["name"]
            for node in iyp.store.nodes_with_label("DomainName")
        ] == ["other.org"]
