"""Georgia Tech Internet Intelligence Lab: AS-to-Organization mapping.

Sibling ASes (several ASNs run by one organization) become SIBLING_OF
links, plus MANAGED_BY links to the shared Organization node.
"""

from __future__ import annotations

import json

from repro.datasets.base import Crawler
from repro.simnet.world import World

AS2ORG_URL = (
    "https://raw.githubusercontent.com/InetIntel/"
    "Dataset-AS-to-Organization-Mapping/main/latest.jsonl"
)


def generate_as2org(world: World) -> str:
    """JSONL: one record per organization with its ASN list."""
    lines = []
    for org in world.orgs.values():
        lines.append(
            json.dumps(
                {"org_name": org.name, "country": org.country, "asns": sorted(org.asns)}
            )
        )
    return "\n".join(lines)


class AS2OrgCrawler(Crawler):
    organization = "Internet Intelligence Lab"
    name = "inetintel.as2org"
    url_data = AS2ORG_URL
    url_info = (
        "https://github.com/InetIntel/Dataset-AS-to-Organization-Mapping"
    )

    def parse(self) -> None:
        for line in self.fetch().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            org = self.node("Organization", name=record["org_name"])
            as_nodes = [self.node("AS", asn=asn) for asn in record["asns"]]
            for as_node in as_nodes:
                self.link(as_node, "MANAGED_BY", org)
            for first, second in zip(as_nodes, as_nodes[1:], strict=False):
                self.link(first, "SIBLING_OF", second)
