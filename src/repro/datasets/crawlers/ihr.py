"""IHR datasets: AS hegemony, country dependency, and ROV.

The ROV dataset both tags prefixes with their RPKI/IRR validation state
(the 'RPKI Valid' / 'RPKI Invalid...' Tag nodes central to the RiPKI
reproduction) and provides a second, independent prefix-to-origin
mapping — which is exactly what lets the Section 6.1 comparison catch
the injected BGPKIT IPv6 bug.
"""

from __future__ import annotations

import csv
import io
from functools import cache

from repro.datasets.base import Crawler
from repro.simnet.world import World

HEGEMONY_URL = "https://ihr-archive.iijlab.net/ihr/hegemony/global/latest.csv"
COUNTRY_DEP_URL = "https://ihr-archive.iijlab.net/ihr/hegemony/countries/latest.csv"
ROV_URL = "https://ihr-archive.iijlab.net/ihr/rov/latest.csv"


def generate_hegemony(world: World) -> str:
    """CSV: timebin,originasn,asn,hege — AS-level dependencies.

    When the route-propagation simulator has run, hegemony is computed
    the way the real dataset is: the fraction of ASes whose best path
    toward the origin traverses the transit AS.  Falls back to the
    topology-based approximation otherwise.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["timebin", "originasn", "asn", "hege"])
    if world.routing is not None:
        for origin in sorted(world.routing.hegemony):
            scores = world.routing.hegemony[origin]
            for transit in sorted(scores):
                if scores[transit] >= 0.01:
                    writer.writerow(
                        ["2024-05-01 00:00:00", origin, transit, scores[transit]]
                    )
        return buffer.getvalue()
    for asn in sorted(world.ases):
        info = world.ases[asn]
        for provider in info.providers:
            hege = max(0.01, round(world.ases[provider].hegemony, 4))
            writer.writerow(["2024-05-01 00:00:00", asn, provider, hege])
    return buffer.getvalue()


def generate_country_dependency(world: World) -> str:
    """CSV: country,asn,hege — per-country transit dependencies."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["country", "asn", "hege"])
    by_country: dict[str, list[int]] = {}
    for asn, info in world.ases.items():
        by_country.setdefault(info.country, []).append(asn)
    for country in sorted(by_country):
        providers: dict[int, int] = {}
        for asn in by_country[country]:
            for provider in world.ases[asn].providers:
                providers[provider] = providers.get(provider, 0) + 1
        total = sum(providers.values()) or 1
        for provider, count in sorted(providers.items()):
            writer.writerow([country, provider, round(count / total, 4)])
    return buffer.getvalue()


def generate_rov(world: World) -> str:
    """CSV: prefix,origin,rpki_status,irr_status — validation states."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["prefix", "origin", "rpki_status", "irr_status"])
    for prefix in sorted(world.prefixes):
        info = world.prefixes[prefix]
        for origin in info.origins:
            writer.writerow(
                [info.prefix, origin, info.rov_status, info.irr_status or "NotFound"]
            )
    return buffer.getvalue()


class HegemonyCrawler(Crawler):
    """Loads (:AS)-[:DEPENDS_ON {hege}]->(:AS)."""

    organization = "IHR"
    name = "ihr.hegemony"
    url_data = HEGEMONY_URL
    url_info = "https://ihr.iijlab.net"

    def parse(self) -> None:
        for row in csv.DictReader(io.StringIO(self.fetch())):
            origin = self.node("AS", asn=int(row["originasn"]))
            upstream = self.node("AS", asn=int(row["asn"]))
            self.link(origin, "DEPENDS_ON", upstream, {"hege": float(row["hege"])})


class CountryDependencyCrawler(Crawler):
    """Loads (:Country)-[:DEPENDS_ON {hege}]->(:AS)."""

    organization = "IHR"
    name = "ihr.country_dependency"
    url_data = COUNTRY_DEP_URL
    url_info = "https://ihr.iijlab.net"

    def parse(self) -> None:
        for row in csv.DictReader(io.StringIO(self.fetch())):
            country = self.node("Country", country_code=row["country"])
            upstream = self.node("AS", asn=int(row["asn"]))
            self.link(country, "DEPENDS_ON", upstream, {"hege": float(row["hege"])})


class ROVCrawler(Crawler):
    """Loads prefix validation tags and IHR's independent origin view."""

    organization = "IHR"
    name = "ihr.rov"
    url_data = ROV_URL
    url_info = "https://ihr.iijlab.net/ihr/en-us/rov"

    def parse(self) -> None:
        # Each distinct tag is one datapoint, first seen first.
        tag = cache(lambda label: self.node("Tag", label=label))
        for row in csv.DictReader(io.StringIO(self.fetch())):
            prefix = self.node("Prefix", prefix=row["prefix"])
            origin = self.node("AS", asn=int(row["origin"]))
            self.link(origin, "ORIGINATE", prefix)
            self.link(prefix, "CATEGORIZED", tag(f"RPKI {row['rpki_status']}"))
            if row["irr_status"] and row["irr_status"] != "NotFound":
                self.link(prefix, "CATEGORIZED", tag(f"IRR {row['irr_status']}"))
