"""Per-crawler tests: native-format parsing and correct graph loading.

Each test feeds a crawler a small hand-written file in the source's
native format (via StaticFetcher) and checks the nodes/links it creates
— this is independent of the synthetic world, so it pins down the
parsers themselves.
"""

import json

import pytest

from repro.core import IYP
from repro.datasets.base import FetchError, StaticFetcher
from repro.datasets.crawlers import (
    apnic,
    bgpkit,
    bgptools,
    caida,
    cisco,
    citizenlab,
    cloudflare,
    emileaben,
    ihr,
    inetintel,
    nro,
    openintel,
    pch,
    peeringdb,
    ripe,
    rovista,
    simulamet,
    stanford,
    tranco,
    worldbank,
)


@pytest.fixture()
def iyp():
    return IYP()


def run_crawler(crawler_cls, iyp, url, content, *args):
    fetcher = StaticFetcher({url: content})
    crawler = crawler_cls(iyp, fetcher, *args)
    crawler.run()
    return crawler


class TestBGPKit:
    def test_pfx2as(self, iyp):
        content = json.dumps(
            [
                {"prefix": "10.0.0.0/8", "asn": 1, "count": 4},
                {"prefix": "2001:DB8::/32", "asn": 2, "count": 1},
            ]
        )
        run_crawler(bgpkit.PrefixToASNCrawler, iyp, bgpkit.PFX2AS_URL, content)
        assert iyp.run("MATCH (:AS)-[:ORIGINATE]->(:Prefix) RETURN count(*)").value() == 2
        # Canonicalization applied on load.
        assert iyp.run(
            "MATCH (p:Prefix {prefix:'2001:db8::/32'}) RETURN count(p)"
        ).value() == 1

    def test_pfx2as_link_has_provenance(self, iyp):
        content = json.dumps([{"prefix": "10.0.0.0/8", "asn": 1, "count": 4}])
        run_crawler(bgpkit.PrefixToASNCrawler, iyp, bgpkit.PFX2AS_URL, content)
        rel = next(iyp.store.iter_relationships())
        assert rel.properties["reference_name"] == "bgpkit.pfx2as"
        assert rel.properties["reference_org"] == "BGPKIT"
        assert rel.properties["count"] == 4

    def test_as2rel(self, iyp):
        content = json.dumps([{"asn1": 1, "asn2": 2, "rel": 0}])
        run_crawler(bgpkit.ASRelCrawler, iyp, bgpkit.AS2REL_URL, content)
        row = iyp.run("MATCH (:AS)-[r:PEERS_WITH]->(:AS) RETURN r.rel").value()
        assert row == 0

    def test_peer_stats(self, iyp):
        content = json.dumps([{"collector": "rrc00", "asn": 7018}])
        run_crawler(bgpkit.PeerStatsCrawler, iyp, bgpkit.PEER_STATS_URL, content)
        assert iyp.run(
            "MATCH (:AS {asn:7018})-[:PEERS_WITH]->(c:BGPCollector) RETURN c.name"
        ).value() == "rrc00"


class TestCAIDA:
    def test_asrank(self, iyp):
        content = json.dumps(
            {
                "data": {
                    "asns": {
                        "edges": [
                            {
                                "node": {
                                    "asn": "2914",
                                    "asnName": "NTT",
                                    "rank": 5,
                                    "organization": {"orgName": "NTT Ltd"},
                                    "country": {"iso": "JP"},
                                    "cone": {"numberAsns": 100},
                                }
                            }
                        ]
                    }
                }
            }
        )
        run_crawler(caida.ASRankCrawler, iyp, caida.ASRANK_URL, content)
        row = iyp.run(
            "MATCH (a:AS {asn:2914})-[r:RANK]->(k:Ranking) RETURN r.rank, k.name"
        ).single()
        assert row["r.rank"] == 5 and row["k.name"] == "CAIDA ASRank"
        assert iyp.run(
            "MATCH (:AS {asn:2914})-[:COUNTRY]->(c:Country) RETURN c.country_code"
        ).value() == "JP"

    def test_ixs(self, iyp):
        content = json.dumps(
            {"ix_id": 1000, "name": "AMS-IX", "country": "NL", "pdb_id": 26}
        )
        run_crawler(caida.IXsCrawler, iyp, caida.IXS_URL, content)
        assert iyp.run(
            "MATCH (:IXP {name:'AMS-IX'})-[:EXTERNAL_ID]->(i:CaidaIXID) RETURN i.id"
        ).value() == 1000


class TestIHR:
    def test_rov_tags_and_origins(self, iyp):
        content = (
            "prefix,origin,rpki_status,irr_status\n"
            "10.0.0.0/8,1,Valid,Valid\n"
            "10.1.0.0/16,2,\"Invalid,more-specific\",NotFound\n"
        )
        run_crawler(ihr.ROVCrawler, iyp, ihr.ROV_URL, content)
        assert iyp.run(
            "MATCH (:Prefix {prefix:'10.0.0.0/8'})-[:CATEGORIZED]->(t:Tag) "
            "RETURN collect(t.label)"
        ).value() == ["RPKI Valid", "IRR Valid"]
        assert iyp.run(
            "MATCH (p:Prefix)-[:CATEGORIZED]->(t:Tag) "
            "WHERE t.label STARTS WITH 'RPKI Invalid' RETURN p.prefix"
        ).value() == "10.1.0.0/16"

    def test_hegemony(self, iyp):
        content = "timebin,originasn,asn,hege\n2024-05-01,1,2914,0.8\n"
        run_crawler(ihr.HegemonyCrawler, iyp, ihr.HEGEMONY_URL, content)
        assert iyp.run(
            "MATCH (:AS {asn:1})-[d:DEPENDS_ON]->(:AS {asn:2914}) RETURN d.hege"
        ).value() == 0.8

    def test_country_dependency(self, iyp):
        content = "country,asn,hege\nNL,2914,0.5\n"
        run_crawler(ihr.CountryDependencyCrawler, iyp, ihr.COUNTRY_DEP_URL, content)
        assert iyp.run(
            "MATCH (:Country {country_code:'NL'})-[:DEPENDS_ON]->(a:AS) RETURN a.asn"
        ).value() == 2914


class TestRIPE:
    def test_as_names(self, iyp):
        content = "2914 NTT-COMMUNICATIONS, JP\n7018 ATT-INTERNET4, US\n"
        run_crawler(ripe.ASNamesCrawler, iyp, ripe.ASNAMES_URL, content)
        assert iyp.run(
            "MATCH (:AS {asn:2914})-[:NAME]->(n:Name) RETURN n.name"
        ).value() == "NTT-COMMUNICATIONS"
        assert iyp.run(
            "MATCH (:AS {asn:7018})-[:COUNTRY]->(c) RETURN c.country_code"
        ).value() == "US"

    def test_rpki_roas(self, iyp):
        content = json.dumps(
            {"roas": [{"asn": "AS2914", "prefix": "10.0.0.0/8", "maxLength": 10, "ta": "apnic"}]}
        )
        run_crawler(ripe.RPKICrawler, iyp, ripe.RPKI_URL, content)
        row = iyp.run(
            "MATCH (a:AS)-[r:ROUTE_ORIGIN_AUTHORIZATION]->(p:Prefix) "
            "RETURN a.asn, r.maxLength, p.prefix"
        ).single()
        assert row == {"a.asn": 2914, "r.maxLength": 10, "p.prefix": "10.0.0.0/8"}

    def test_atlas_probes(self, iyp):
        content = json.dumps(
            {
                "count": 1,
                "results": [
                    {
                        "id": 42,
                        "asn_v4": 2914,
                        "address_v4": "10.0.0.9",
                        "country_code": "JP",
                        "status": {"name": "Connected"},
                        "tags": [{"slug": "home"}],
                    }
                ],
            }
        )
        run_crawler(ripe.AtlasProbesCrawler, iyp, ripe.ATLAS_PROBES_URL, content)
        row = iyp.run(
            "MATCH (p:AtlasProbe {id:42})-[:ASSIGNED]->(i:IP) RETURN i.ip, p.status"
        ).single()
        assert row["i.ip"] == "10.0.0.9" and row["p.status"] == "Connected"

    def test_atlas_measurements(self, iyp):
        content = json.dumps(
            {
                "count": 1,
                "results": [
                    {
                        "id": 10000001,
                        "type": "ping",
                        "target": "example.com",
                        "target_is_ip": False,
                        "af": 4,
                        "probes": [{"id": 42}],
                    }
                ],
            }
        )
        run_crawler(
            ripe.AtlasMeasurementsCrawler, iyp, ripe.ATLAS_MEASUREMENTS_URL, content
        )
        assert iyp.run(
            "MATCH (m:AtlasMeasurement)-[:TARGET]->(h:HostName) RETURN h.name"
        ).value() == "example.com"
        assert iyp.run(
            "MATCH (:AtlasProbe {id:42})-[:PART_OF]->(m:AtlasMeasurement) RETURN m.id"
        ).value() == 10000001


class TestNRO:
    CONTENT = "\n".join(
        [
            "2|nro|20240501|0|19840101|20240501|+0000",
            "arin|US|asn|7018|1|20000101|allocated|arin-att",
            "ripencc|NL|ipv4|193.0.0.0|65536|20000101|allocated|ripencc-ncc",
            "apnic|JP|ipv6|2001:db8::|32|20000101|allocated|apnic-x",
            "arin|ZZ|ipv4|10.0.0.0|16777216|20000101|reserved|iana-private",
        ]
    )

    def test_delegations(self, iyp):
        run_crawler(nro.DelegatedStatsCrawler, iyp, nro.DELEGATED_URL, self.CONTENT)
        assert iyp.run(
            "MATCH (:AS {asn:7018})-[:ASSIGNED]->(o:OpaqueID) RETURN o.id"
        ).value() == "arin-att"
        # 65536 addresses -> /16
        assert iyp.run(
            "MATCH (p:Prefix {prefix:'193.0.0.0/16'})-[:COUNTRY]->(c) "
            "RETURN c.country_code"
        ).value() == "NL"
        assert iyp.run(
            "MATCH (p:Prefix {prefix:'2001:db8::/32'})-[:ASSIGNED]->(o) RETURN o.id"
        ).value() == "apnic-x"
        # Reserved space gets RESERVED, and ZZ country is skipped.
        assert iyp.run(
            "MATCH (p:Prefix {prefix:'10.0.0.0/8'})-[:RESERVED]->(o) RETURN o.id"
        ).value() == "iana-private"


class TestOpenINTEL:
    def test_tranco1m_resolutions(self, iyp):
        lines = [
            json.dumps({"query_name": "example.com", "response_type": "A",
                        "response_name": "example.com", "answer": "10.0.0.1"}),
            json.dumps({"query_name": "cdn.example.org", "response_type": "CNAME",
                        "response_name": "cdn.example.org", "answer": "edge.cdnco.net"}),
            json.dumps({"query_name": "cdn.example.org", "response_type": "A",
                        "response_name": "edge.cdnco.net", "answer": "10.0.0.2"}),
        ]
        run_crawler(
            openintel.Tranco1MCrawler, iyp, openintel.TRANCO1M_URL, "\n".join(lines)
        )
        assert iyp.run(
            "MATCH (h:HostName {name:'example.com'})-[:RESOLVES_TO]->(i:IP) RETURN i.ip"
        ).value() == "10.0.0.1"
        assert iyp.run(
            "MATCH (:HostName {name:'cdn.example.org'})-[:ALIAS_OF]->(t:HostName) "
            "RETURN t.name"
        ).value() == "edge.cdnco.net"
        # PART_OF the registrable domain.
        assert iyp.run(
            "MATCH (:HostName {name:'example.com'})-[:PART_OF]->(d:DomainName) "
            "RETURN d.name"
        ).value() == "example.com"

    def test_ns_dataset(self, iyp):
        lines = [
            json.dumps({"domain": "example.com", "ns": "ns1.dns.net",
                        "glue": True, "in_zone": True, "ips": ["10.0.0.53"]}),
        ]
        run_crawler(openintel.NSCrawler, iyp, openintel.NS_URL, "\n".join(lines))
        row = iyp.run(
            "MATCH (d:DomainName)-[m:MANAGED_BY]->(ns:AuthoritativeNameServer) "
            "RETURN d.name, ns.name, m.glue, m.in_zone"
        ).single()
        assert row["m.glue"] is True and row["m.in_zone"] is True
        # The nameserver is also a HostName (dual label).
        assert iyp.run(
            "MATCH (n:AuthoritativeNameServer:HostName) RETURN count(n)"
        ).value() == 1

    def test_dnsgraph(self, iyp):
        lines = [
            json.dumps({"zone": "com", "nameservers": [
                {"ns": "a.nic.com", "ips": ["10.9.0.1"]}]}),
        ]
        run_crawler(openintel.DNSGraphCrawler, iyp, openintel.DNSGRAPH_URL, "\n".join(lines))
        assert iyp.run(
            "MATCH (z:DomainName {name:'com'})-[:MANAGED_BY]->(ns) RETURN ns.name"
        ).value() == "a.nic.com"


class TestRankings:
    def test_tranco(self, iyp):
        run_crawler(tranco.TrancoCrawler, iyp, tranco.TRANCO_URL, "1,example.com\r\n2,foo.org\r\n")
        rows = iyp.run(
            "MATCH (d:DomainName)-[r:RANK]->(:Ranking {name:'Tranco top 1M'}) "
            "RETURN d.name AS d, r.rank AS r ORDER BY r"
        ).to_rows()
        assert rows == [("example.com", 1), ("foo.org", 2)]

    def test_umbrella(self, iyp):
        run_crawler(cisco.UmbrellaCrawler, iyp, cisco.UMBRELLA_URL, "1,example.com\n")
        assert iyp.run(
            "MATCH (:DomainName)-[r:RANK]->(k:Ranking) RETURN k.name"
        ).value() == "Cisco Umbrella Top 1M"

    def test_cloudflare_ranking(self, iyp):
        content = json.dumps(
            {"success": True, "result": {"top_0": [{"domain": "example.com"}]}}
        )
        run_crawler(cloudflare.RankingCrawler, iyp, cloudflare.RANKING_URL, content)
        assert iyp.run(
            "MATCH (d:DomainName)-[:RANK]->(:Ranking {name:'Cloudflare top 100 domains'}) "
            "RETURN d.name"
        ).value() == "example.com"

    def test_cloudflare_top_ases(self, iyp):
        content = json.dumps(
            {"success": True,
             "result": {"example.com": [{"clientASN": 7018, "value": 42.0}]}}
        )
        run_crawler(cloudflare.TopASesCrawler, iyp, cloudflare.TOP_ASES_URL, content)
        assert iyp.run(
            "MATCH (:DomainName {name:'example.com'})-[q:QUERIED_FROM]->(a:AS) "
            "RETURN a.asn, q.value"
        ).single() == {"a.asn": 7018, "q.value": 42.0}

    def test_cloudflare_top_locations(self, iyp):
        content = json.dumps(
            {"success": True,
             "result": {"example.com": [{"clientCountryAlpha2": "US", "value": 20.0}]}}
        )
        run_crawler(
            cloudflare.TopLocationsCrawler, iyp, cloudflare.TOP_LOCATIONS_URL, content
        )
        assert iyp.run(
            "MATCH (:DomainName)-[:QUERIED_FROM]->(c:Country) RETURN c.country_code"
        ).value() == "US"


class TestBGPTools:
    def test_names_tags_anycast(self, iyp):
        run_crawler(bgptools.ASNamesCrawler, iyp, bgptools.ASNAMES_URL,
                    "asn,name\nAS2914,NTT\n")
        run_crawler(bgptools.ASTagsCrawler, iyp, bgptools.TAGS_URL,
                    "asn,tag\nAS2914,Tier1\nAS2914,Eyeball\n")
        run_crawler(bgptools.AnycastCrawler, iyp, bgptools.ANYCAST_URL,
                    "192.0.2.0/24\n")
        assert iyp.run(
            "MATCH (:AS {asn:2914})-[:CATEGORIZED]->(t:Tag) "
            "RETURN collect(t.label)"
        ).value() == ["Tier1", "Eyeball"]
        assert iyp.run(
            "MATCH (p:Prefix)-[:CATEGORIZED]->(:Tag {label:'Anycast'}) RETURN p.prefix"
        ).value() == "192.0.2.0/24"


class TestOthers:
    def test_stanford_asdb(self, iyp):
        content = "asn,category1,category2\n2914,Computer and Information Technology,ISP\n"
        run_crawler(stanford.ASdbCrawler, iyp, stanford.ASDB_URL, content)
        assert iyp.run(
            "MATCH (:AS {asn:2914})-[:CATEGORIZED]->(t:Tag) RETURN count(t)"
        ).value() == 2

    def test_apnic_population(self, iyp):
        content = json.dumps(
            {"data": [{"cc": "JP", "asn": 2914, "percent": 12.5, "users": 1000}]}
        )
        run_crawler(apnic.ASPopulationCrawler, iyp, apnic.ASPOP_URL, content)
        assert iyp.run(
            "MATCH (:AS)-[p:POPULATION]->(:Country {country_code:'JP'}) RETURN p.percent"
        ).value() == 12.5

    def test_worldbank(self, iyp):
        content = json.dumps(
            [{"page": 1}, [{"country": {"id": "JPN"}, "countryiso3code": "JPN",
                            "date": "2023", "value": 125000000}]]
        )
        run_crawler(worldbank.WorldBankPopulationCrawler, iyp,
                    worldbank.POPULATION_URL, content)
        assert iyp.run(
            "MATCH (c:Country {country_code:'JP'})-[p:POPULATION]->(:Estimate) "
            "RETURN p.value"
        ).value() == 125000000

    def test_citizenlab(self, iyp):
        content = "url,category_code\nhttp://example.com/,NEWS\n"
        run_crawler(citizenlab.URLTestingListCrawler, iyp, citizenlab.URL_LIST, content)
        assert iyp.run(
            "MATCH (u:URL)-[:CATEGORIZED]->(t:Tag {label:'NEWS'}) RETURN u.url"
        ).value() == "http://example.com/"

    def test_emileaben(self, iyp):
        run_crawler(emileaben.ASNamesCrawler, iyp, emileaben.ASNAMES_URL, "2914|NTT\n")
        assert iyp.run(
            "MATCH (:AS {asn:2914})-[:NAME]->(n:Name) RETURN n.name"
        ).value() == "NTT"

    def test_inetintel_siblings(self, iyp):
        content = json.dumps({"org_name": "MegaCorp", "country": "US", "asns": [1, 2, 3]})
        run_crawler(inetintel.AS2OrgCrawler, iyp, inetintel.AS2ORG_URL, content)
        assert iyp.run(
            "MATCH (:AS)-[:MANAGED_BY]->(o:Organization {name:'MegaCorp'}) "
            "RETURN count(*)"
        ).value() == 3
        assert iyp.run(
            "MATCH (:AS {asn:1})-[:SIBLING_OF]-(b:AS) RETURN b.asn"
        ).value() == 2

    def test_pch(self, iyp):
        content = "10.0.0.0/8|2914|pch-collector-1\n"
        run_crawler(pch.RoutingSnapshotCrawler, iyp, pch.PCH_URL, content)
        rel = next(iyp.store.iter_relationships())
        assert rel.properties["reference_name"] == "pch.routing_snapshot"

    def test_simulamet_rdns(self, iyp):
        content = "prefix,nameserver\n193.0.0.0/16,ns1.dns.net\n"
        run_crawler(simulamet.RDNSCrawler, iyp, simulamet.RDNS_URL, content)
        assert iyp.run(
            "MATCH (:Prefix)-[:MANAGED_BY]->(n:AuthoritativeNameServer) RETURN n.name"
        ).value() == "ns1.dns.net"

    def test_rovista(self, iyp):
        content = "asn,ratio\n1,0.9\n2,0.1\n"
        run_crawler(rovista.RoVistaCrawler, iyp, rovista.ROVISTA_URL, content)
        assert iyp.run(
            "MATCH (:AS {asn:1})-[:CATEGORIZED]->(t:Tag) RETURN t.label"
        ).value() == "Validating RPKI ROV"
        assert iyp.run(
            "MATCH (:AS {asn:2})-[:CATEGORIZED]->(t:Tag) RETURN t.label"
        ).value() == "Not Validating RPKI ROV"


class TestPeeringDB:
    def test_org_ix_membership_chain(self, iyp):
        fetcher = StaticFetcher(
            {
                peeringdb.ORG_URL: json.dumps(
                    {"data": [{"id": 1, "name": "AMS-IX Org", "country": "NL",
                               "website": "https://ams-ix.example"}]}
                ),
                peeringdb.IX_URL: json.dumps(
                    {"data": [{"id": 26, "name": "AMS-IX", "country": "NL",
                               "website": "", "fac": "DataDock AMS 1"}]}
                ),
                peeringdb.IXLAN_URL: json.dumps(
                    {"data": [{"id": 1, "ix_id": 26, "asn": 2914,
                               "speed": 10000, "policy": "Open"}]}
                ),
                peeringdb.FAC_URL: json.dumps(
                    {"data": [{"id": 7, "name": "DataDock AMS 1", "country": "NL"}]}
                ),
                peeringdb.NETFAC_URL: json.dumps(
                    {"data": [{"id": 1, "fac": "DataDock AMS 1", "asn": 2914}]}
                ),
            }
        )
        peeringdb.OrgCrawler(iyp, fetcher).run()
        peeringdb.FacCrawler(iyp, fetcher).run()
        peeringdb.IXCrawler(iyp, fetcher).run()
        peeringdb.NetIXLanCrawler(iyp, fetcher).run()
        peeringdb.NetFacCrawler(iyp, fetcher).run()
        row = iyp.run(
            "MATCH (a:AS {asn:2914})-[m:MEMBER_OF]->(x:IXP) RETURN x.name, m.policy"
        ).single()
        assert row == {"x.name": "AMS-IX", "m.policy": "Open"}
        assert iyp.run(
            "MATCH (:AS {asn:2914})-[:LOCATED_IN]->(f:Facility) RETURN f.name"
        ).value() == "DataDock AMS 1"


class TestFetchErrors:
    def test_missing_url_raises(self, iyp):
        fetcher = StaticFetcher({})
        crawler = tranco.TrancoCrawler(iyp, fetcher)
        with pytest.raises(FetchError):
            crawler.run()


class TestOneWayToWriteADataset:
    """A crawler states datapoints through ``Crawler.node`` / ``link``;
    only the loader in ``datasets/base.py`` talks to the facade's write
    methods.  These two guards keep the next dataset on that path."""

    WRITE_METHODS = {"get_node", "add_link", "batch_get_nodes", "add_links"}

    def test_no_crawler_module_calls_the_facade_write_methods(self):
        import ast
        from pathlib import Path

        from repro.datasets import crawlers

        offenders = []
        modules = sorted(Path(crawlers.__file__).parent.glob("*.py"))
        assert len(modules) > 20
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text())):
                # self.iyp.<write method>; reads such as
                # self.iyp.store.find_nodes(...) stay allowed.
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in self.WRITE_METHODS
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "iyp"
                ):
                    offenders.append(f"{path.name}:{node.lineno} .iyp.{node.attr}")
                if isinstance(node, ast.FunctionDef) and node.name == "run":
                    offenders.append(f"{path.name}:{node.lineno} defines run()")
        assert offenders == []

    def test_crawl_lock_scopes_are_bounded_by_columns(self, quarter_world, monkeypatch):
        import threading

        from repro.graphdb.rwlock import RWLock
        from repro.pipeline import build_iyp

        outermost = 0
        acquire_write = RWLock.acquire_write

        def counting(lock):
            nonlocal outermost
            if lock._writer != threading.get_ident():
                outermost += 1
            acquire_write(lock)

        monkeypatch.setattr(RWLock, "acquire_write", counting)
        _, report = build_iyp(
            quarter_world, postprocess=False, validate=False, analytics=False
        )
        assert report.ok
        # One scope per label column and one per link list, for each of
        # the 46 crawlers — not one per datapoint (22,334 node requests).
        assert 46 < outermost <= 1000
