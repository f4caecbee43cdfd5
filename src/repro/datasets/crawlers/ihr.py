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

    def run(self) -> None:
        rows = list(csv.DictReader(io.StringIO(self.fetch())))
        # One AS column, origin and upstream of each row side by side.
        nodes = self.get_nodes(
            "AS", "asn",
            [int(row[field]) for row in rows for field in ("originasn", "asn")],
        )
        self.iyp.add_links(
            [
                (origin, "DEPENDS_ON", upstream, {"hege": float(row["hege"])})
                for row, origin, upstream in zip(rows, nodes[0::2], nodes[1::2])
            ],
            self.reference(),
        )


class CountryDependencyCrawler(Crawler):
    """Loads (:Country)-[:DEPENDS_ON {hege}]->(:AS)."""

    organization = "IHR"
    name = "ihr.country_dependency"
    url_data = COUNTRY_DEP_URL
    url_info = "https://ihr.iijlab.net"

    def run(self) -> None:
        reference = self.reference()
        reader = csv.DictReader(io.StringIO(self.fetch()))
        for row in reader:
            country = self.iyp.get_node("Country", country_code=row["country"])
            upstream = self.iyp.get_node("AS", asn=int(row["asn"]))
            self.iyp.add_link(
                country, "DEPENDS_ON", upstream, {"hege": float(row["hege"])}, reference
            )


class ROVCrawler(Crawler):
    """Loads prefix validation tags and IHR's independent origin view."""

    organization = "IHR"
    name = "ihr.rov"
    url_data = ROV_URL
    url_info = "https://ihr.iijlab.net/ihr/en-us/rov"

    def run(self) -> None:
        rows = list(csv.DictReader(io.StringIO(self.fetch())))
        prefixes = self.get_nodes("Prefix", "prefix", [row["prefix"] for row in rows])
        origins = self.get_nodes("AS", "asn", [int(row["origin"]) for row in rows])
        row_tags = [
            [f"RPKI {row['rpki_status']}"]
            + (
                [f"IRR {row['irr_status']}"]
                if row["irr_status"] and row["irr_status"] != "NotFound"
                else []
            )
            for row in rows
        ]
        # Each distinct tag is one datapoint, first seen first.
        labels = list(dict.fromkeys(label for tags in row_tags for label in tags))
        tag = dict(zip(labels, self.get_nodes("Tag", "label", labels)))
        links: list = []
        for prefix, origin, tags in zip(prefixes, origins, row_tags):
            links.append((origin, "ORIGINATE", prefix, None))
            links.extend((prefix, "CATEGORIZED", tag[label], None) for label in tags)
        self.iyp.add_links(links, self.reference())
