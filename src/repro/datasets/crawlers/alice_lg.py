"""Alice-LG route-server looking glasses.

The paper imports seven IXP looking glasses (AMS-IX, BCIX, DE-CIX,
IX.br, LINX, Megaport, Netnod) through one Alice-LG crawler
parameterized by the route server's URL.  Each yields MEMBER_OF links
between the neighbours seen on the route server and the IXP.
"""

from __future__ import annotations

import json

from repro.datasets.base import Crawler
from repro.simnet.world import World

# (dataset key, public looking-glass URL, index of the backing IXP)
LOOKING_GLASSES = [
    ("amsix", "https://lg.ams-ix.net/api/v1/neighbours", 1),
    ("bcix", "https://lg.bcix.de/api/v1/neighbours", 2),
    ("decix", "https://lg.de-cix.net/api/v1/neighbours", 3),
    ("ixbr", "https://lg.ix.br/api/v1/neighbours", 4),
    ("linx", "https://alice-rs.linx.net/api/v1/neighbours", 5),
    ("megaport", "https://lg.megaport.com/api/v1/neighbours", 6),
    ("netnod", "https://lg.netnod.se/api/v1/neighbours", 7),
]


def make_generator(ix_index: int):
    """Build the content generator for one looking glass."""

    def generate(world: World) -> str:
        ix = world.ixps.get(ix_index)
        if ix is None:  # small worlds may have fewer IXPs
            return json.dumps({"neighbours": [], "ix_name": ""})
        neighbours = [
            {"asn": asn, "state": "up", "description": world.ases[asn].name}
            for asn in ix.members
        ]
        return json.dumps({"ix_name": ix.name, "neighbours": neighbours})

    return generate


class AliceLGCrawler(Crawler):
    """Loads route-server neighbours as IXP members."""

    organization = "Alice-LG"

    def __init__(self, iyp, fetcher, dataset_key: str, url: str):
        super().__init__(iyp, fetcher)
        self.name = f"alice-lg.{dataset_key}"
        self.url_data = url
        self.url_info = "https://github.com/alice-lg/alice-lg"

    def parse(self) -> None:
        payload = json.loads(self.fetch())
        if not payload.get("ix_name"):
            return
        ixp = self.node("IXP", name=payload["ix_name"])
        for neighbour in payload["neighbours"]:
            if neighbour.get("state") != "up":
                continue
            as_node = self.node("AS", asn=neighbour["asn"])
            self.link(as_node, "MEMBER_OF", ixp)
