"""BGPKIT datasets: pfx2as, as2rel, peer-stats.

pfx2as is IYP's only prefix-to-origin source (the paper's Originality
rule: it uses all RIS and RouteViews collectors and is updated daily).
The generator injects the IPv6 origin error of Section 6.1 so the
dataset-comparison study has something real to find.
"""

from __future__ import annotations

import json
from functools import cache

from repro.datasets.base import Crawler
from repro.simnet.world import World

PFX2AS_URL = "https://data.bgpkit.com/pfx2as/pfx2as-latest.json"
AS2REL_URL = "https://data.bgpkit.com/as2rel/as2rel-latest.json"
PEER_STATS_URL = "https://data.bgpkit.com/peer-stats/peer-stats-latest.json"


def generate_pfx2as(world: World) -> str:
    """Render the pfx2as file: a JSON array of {prefix, asn, count}.

    A small fraction of IPv6 entries carries a wrong origin ASN — the
    injected data error that the Section 6.1 comparison must detect.
    """
    error_every = (
        int(1 / world.config.bgpkit_ipv6_error_fraction)
        if world.config.bgpkit_ipv6_error_fraction > 0
        else 0
    )
    wrong_origin = min(world.ases)
    records = []
    v6_index = 0
    for prefix in sorted(world.prefixes):
        info = world.prefixes[prefix]
        for origin in info.origins:
            reported = origin
            if info.af == 6:
                v6_index += 1
                if error_every and v6_index % error_every == 0 and origin != wrong_origin:
                    reported = wrong_origin
            records.append({"prefix": info.prefix, "asn": reported, "count": 12})
    return json.dumps(records)


def generate_as2rel(world: World) -> str:
    """AS relationships: rel 0 = peer-to-peer, 1 = provider-to-customer."""
    records = []
    for asn in sorted(world.ases):
        info = world.ases[asn]
        for peer in info.peers:
            if asn < peer:
                records.append({"asn1": asn, "asn2": peer, "rel": 0})
        for customer in info.customers:
            records.append({"asn1": asn, "asn2": customer, "rel": 1})
    return json.dumps(records)


def generate_peer_stats(world: World) -> str:
    """Collector peering: one record per (collector, peer ASN)."""
    records = [
        {"collector": collector, "asn": asn}
        for collector, peers in sorted(world.collector_peers.items())
        for asn in peers
    ]
    return json.dumps(records)


class PrefixToASNCrawler(Crawler):
    """Loads (:AS)-[:ORIGINATE]->(:Prefix) from BGPKIT pfx2as."""

    organization = "BGPKIT"
    name = "bgpkit.pfx2as"
    url_data = PFX2AS_URL
    url_info = "https://data.bgpkit.com/pfx2as"

    def parse(self) -> None:
        # A record is one ORIGINATE datapoint, not a new sighting of its
        # AS and prefix: each distinct identifier is requested once.
        as_node = cache(lambda asn: self.node("AS", asn=asn))
        prefix_node = cache(lambda prefix: self.node("Prefix", prefix=prefix))
        for record in json.loads(self.fetch()):
            self.link(
                as_node(record["asn"]),
                "ORIGINATE",
                prefix_node(record["prefix"]),
                {"count": record.get("count", 1)},
            )


class ASRelCrawler(Crawler):
    """Loads (:AS)-[:PEERS_WITH {rel}]->(:AS) from BGPKIT as2rel."""

    organization = "BGPKIT"
    name = "bgpkit.as2rel"
    url_data = AS2REL_URL

    def parse(self) -> None:
        as_node = cache(lambda asn: self.node("AS", asn=asn))
        for record in json.loads(self.fetch()):
            self.link(
                as_node(record["asn1"]),
                "PEERS_WITH",
                as_node(record["asn2"]),
                {"rel": record["rel"]},
            )


class PeerStatsCrawler(Crawler):
    """Loads (:AS)-[:PEERS_WITH]->(:BGPCollector) from peer-stats."""

    organization = "BGPKIT"
    name = "bgpkit.peerstats"
    url_data = PEER_STATS_URL

    def parse(self) -> None:
        as_node = cache(lambda asn: self.node("AS", asn=asn))
        collector = cache(lambda name: self.node("BGPCollector", name=name))
        for record in json.loads(self.fetch()):
            peer = as_node(record["asn"])
            self.link(peer, "PEERS_WITH", collector(record["collector"]))
