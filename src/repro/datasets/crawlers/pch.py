"""Packet Clearing House daily routing snapshots.

A second, independent BGP view: pipe-separated ``prefix|origin|collector``
records derived from PCH's route collectors.  In the graph these become
additional ORIGINATE links (parallel to BGPKIT's, distinguished by
``reference_name``), exactly the redundancy Section 2.3 embraces.
"""

from __future__ import annotations

from repro.datasets.base import Crawler
from repro.simnet.world import World

PCH_URL = "https://www.pch.net/resources/Routing_Data/latest.txt"


def generate_routing_snapshot(world: World) -> str:
    """Render a RIB-dump-style snapshot: ``prefix|as_path|collector``.

    AS paths come from the Gao-Rexford propagation simulator: for each
    prefix, the path selected by one of the first collector's peers.
    PCH sees a large subset of the table (its collectors sit at IXPs).
    """
    lines = []
    routing = world.routing
    first_collector = world.collectors[0] if world.collectors else None
    peers = world.collector_peers.get(first_collector, []) if first_collector else []
    for index, prefix in enumerate(sorted(world.prefixes)):
        if index % 10 == 0:  # ~90% visibility
            continue
        info = world.prefixes[prefix]
        for origin in info.origins:
            path = None
            if routing is not None:
                for peer in peers:
                    path = routing.collector_paths.get((peer, origin))
                    if path is not None:
                        break
            if path is None:
                path = (origin,)
            path_text = " ".join(str(asn) for asn in path)
            lines.append(f"{info.prefix}|{path_text}|pch-collector-1")
    return "\n".join(lines)


class RoutingSnapshotCrawler(Crawler):
    """Parses RIB-style rows; the path's last hop is the origin AS."""

    organization = "PCH"
    name = "pch.routing_snapshot"
    url_data = PCH_URL
    url_info = "https://www.pch.net/resources/Routing_Data"

    def parse(self) -> None:
        for line in self.fetch().splitlines():
            fields = line.strip().split("|")
            if len(fields) != 3:
                continue
            prefix_text, path_text, _collector = fields
            hops = path_text.split()
            if not hops:
                continue
            prefix = self.node("Prefix", prefix=prefix_text)
            origin = self.node("AS", asn=int(hops[-1]))
            self.link(origin, "ORIGINATE", prefix, {"as_path": path_text})
