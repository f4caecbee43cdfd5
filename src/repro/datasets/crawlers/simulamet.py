"""SimulaMet rir-data.org reverse-DNS delegations.

Maps RIR address blocks to the nameservers their reverse zones are
delegated to: (:Prefix)-[:MANAGED_BY]->(:AuthoritativeNameServer).
"""

from __future__ import annotations

import csv
import io

from repro.datasets.base import Crawler
from repro.simnet.world import World

RDNS_URL = "https://rir-data.org/rdns/latest.csv"


def generate_rdns(world: World) -> str:
    """CSV: prefix,nameserver — reverse-zone delegation per block."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["prefix", "nameserver"])
    providers = sorted(world.dns_providers)
    if not providers:
        return buffer.getvalue()
    for index, (block, _opaque, _rir, _country) in enumerate(sorted(world.allocations)):
        provider = world.dns_providers[providers[index % len(providers)]]
        for ns_name in provider.ns_pool[:2]:
            writer.writerow([block, ns_name])
    return buffer.getvalue()


class RDNSCrawler(Crawler):
    organization = "SimulaMet"
    name = "simulamet.rdns"
    url_data = RDNS_URL
    url_info = "https://rir-data.org"

    def parse(self) -> None:
        reader = csv.DictReader(io.StringIO(self.fetch()))
        for row in reader:
            prefix = self.node("Prefix", prefix=row["prefix"])
            nameserver = self.node("AuthoritativeNameServer", name=row["nameserver"])
            self.link(prefix, "MANAGED_BY", nameserver)
