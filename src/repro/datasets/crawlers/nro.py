"""NRO delegated extended statistics.

The pipe-separated format of the real files is preserved:
``registry|cc|type|start|value|date|status|opaque-id``.  Loaded as
OpaqueID nodes with ASSIGNED links from the delegated ASes and
prefixes, plus COUNTRY links — the registration countries the SPoF
study aggregates by.
"""

from __future__ import annotations

import ipaddress

from repro.datasets.base import Crawler
from repro.simnet.world import World

DELEGATED_URL = "https://ftp.ripe.net/pub/stats/ripencc/nro-stats/latest/nro-delegated-stats"


def generate_delegated(world: World) -> str:
    """Render the NRO delegated-extended file."""
    lines = ["2|nro|20240501|0|19840101|20240501|+0000"]
    for asn in sorted(world.ases):
        info = world.ases[asn]
        lines.append(
            f"{info.rir}|{info.country}|asn|{asn}|1|20150101|allocated|{info.opaque_id}"
        )
    for block, opaque_id, rir, country in sorted(world.allocations):
        network = ipaddress.ip_network(block)
        if network.version == 4:
            lines.append(
                f"{rir}|{country}|ipv4|{network.network_address}|"
                f"{network.num_addresses}|20150101|allocated|{opaque_id}"
            )
        else:
            lines.append(
                f"{rir}|{country}|ipv6|{network.network_address}|"
                f"{network.prefixlen}|20150101|allocated|{opaque_id}"
            )
    return "\n".join(lines)


class DelegatedStatsCrawler(Crawler):
    """Loads delegated ASes and address blocks with registration data."""

    organization = "NRO"
    name = "nro.delegated_stats"
    url_data = DELEGATED_URL
    url_info = "https://www.nro.net/about/rirs/statistics"

    def parse(self) -> None:
        for line in self.fetch().splitlines():
            fields = line.strip().split("|")
            if len(fields) < 8 or fields[2] not in ("asn", "ipv4", "ipv6"):
                continue
            rir, country_code, kind, start, value, _date, status, opaque = fields[:8]
            if status not in ("allocated", "assigned", "available", "reserved"):
                continue
            opaque_node = self.node("OpaqueID", id=opaque)
            if kind == "asn":
                resource = self.node("AS", asn=int(start))
            elif kind == "ipv4":
                length = 32 - (int(value) - 1).bit_length()
                resource = self.node("Prefix", prefix=f"{start}/{length}")
            else:
                resource = self.node("Prefix", prefix=f"{start}/{value}")
            rel_type = {
                "allocated": "ASSIGNED",
                "assigned": "ASSIGNED",
                "available": "AVAILABLE",
                "reserved": "RESERVED",
            }[status]
            self.link(resource, rel_type, opaque_node, {"registry": rir})
            if country_code and country_code != "ZZ":
                country = self.node("Country", country_code=country_code)
                self.link(resource, "COUNTRY", country)
