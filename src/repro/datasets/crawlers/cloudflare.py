"""Cloudflare Radar API datasets: top domains ranking, and the top
ASes / top locations querying each popular domain (1.1.1.1 resolver
view) — the QUERIED_FROM relationships of Figure 4.
"""

from __future__ import annotations

import json

from repro.datasets.base import Crawler
from repro.simnet.world import World

RANKING_URL = "https://api.cloudflare.com/client/v4/radar/ranking/top"
TOP_ASES_URL = "https://api.cloudflare.com/client/v4/radar/dns/top/ases"
TOP_LOCATIONS_URL = "https://api.cloudflare.com/client/v4/radar/dns/top/locations"
DATASETS_URL = "https://api.cloudflare.com/client/v4/radar/datasets"


def generate_ranking(world: World) -> str:
    """Radar top-domains ranking (rank-less bucket, like the real API)."""
    n_top = max(1, int(len(world.tranco) * world.config.cloudflare_top_fraction))
    top = [{"domain": name} for name in world.tranco[:n_top]]
    return json.dumps({"success": True, "result": {"top_0": top}})


def generate_top_ases(world: World) -> str:
    """Per-domain top querying ASes."""
    result = {}
    for domain_name in world.tranco:
        domain = world.domains[domain_name]
        if not domain.queried_from_asns:
            continue
        result[domain_name] = [
            {"clientASN": asn, "value": round(100.0 / (position + 1), 2)}
            for position, asn in enumerate(domain.queried_from_asns)
        ]
    return json.dumps({"success": True, "result": result})


def generate_top_locations(world: World) -> str:
    """Per-domain top querying countries (derived from the AS view)."""
    result = {}
    for domain_name in world.tranco:
        domain = world.domains[domain_name]
        if not domain.queried_from_asns:
            continue
        countries = []
        seen = set()
        for asn in domain.queried_from_asns:
            country = world.ases[asn].country
            if country not in seen:
                seen.add(country)
                countries.append(country)
        result[domain_name] = [
            {"clientCountryAlpha2": country, "value": round(100.0 / (i + 1), 2)}
            for i, country in enumerate(countries)
        ]
    return json.dumps({"success": True, "result": result})


def generate_datasets(world: World) -> str:
    """Radar dataset catalogue (metadata only)."""
    return json.dumps(
        {
            "success": True,
            "result": {
                "datasets": [
                    {"id": 1, "title": "Cloudflare Radar Top Domains"},
                    {"id": 2, "title": "Cloudflare Radar DNS Top ASes"},
                ]
            },
        }
    )


class RankingCrawler(Crawler):
    """Loads the Radar top-domains bucket as a Ranking."""

    organization = "Cloudflare"
    name = "cloudflare.ranking_top"
    url_data = RANKING_URL
    url_info = "https://radar.cloudflare.com"

    def parse(self) -> None:
        payload = json.loads(self.fetch())
        ranking = self.node("Ranking", name="Cloudflare top 100 domains")
        for entry in payload["result"]["top_0"]:
            domain = self.node("DomainName", name=entry["domain"])
            self.link(domain, "RANK", ranking)


class TopASesCrawler(Crawler):
    """Loads (:DomainName)-[:QUERIED_FROM {value}]->(:AS)."""

    organization = "Cloudflare"
    name = "cloudflare.dns_top_ases"
    url_data = TOP_ASES_URL
    url_info = "https://radar.cloudflare.com"

    def parse(self) -> None:
        payload = json.loads(self.fetch())
        for domain_name, entries in payload["result"].items():
            domain = self.node("DomainName", name=domain_name)
            for entry in entries:
                as_node = self.node("AS", asn=entry["clientASN"])
                self.link(domain, "QUERIED_FROM", as_node, {"value": entry["value"]})


class TopLocationsCrawler(Crawler):
    """Loads (:DomainName)-[:QUERIED_FROM {value}]->(:Country)."""

    organization = "Cloudflare"
    name = "cloudflare.dns_top_locations"
    url_data = TOP_LOCATIONS_URL
    url_info = "https://radar.cloudflare.com"

    def parse(self) -> None:
        payload = json.loads(self.fetch())
        for domain_name, entries in payload["result"].items():
            domain = self.node("DomainName", name=domain_name)
            for entry in entries:
                code = entry["clientCountryAlpha2"]
                country = self.node("Country", country_code=code)
                self.link(domain, "QUERIED_FROM", country, {"value": entry["value"]})
