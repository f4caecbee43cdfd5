"""The Cisco Umbrella popularity list."""

from __future__ import annotations

import csv
import io

from repro.datasets.base import Crawler
from repro.simnet.world import World

UMBRELLA_URL = (
    "https://s3-us-west-1.amazonaws.com/umbrella-static/top-1m.csv"
)


def generate_umbrella(world: World) -> str:
    """CSV: rank,domain."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for rank, domain in enumerate(world.umbrella, start=1):
        writer.writerow([rank, domain])
    return buffer.getvalue()


class UmbrellaCrawler(Crawler):
    """Loads (:DomainName)-[:RANK]->(:Ranking 'Cisco Umbrella Top 1M')."""

    organization = "Cisco"
    name = "cisco.umbrella_top1m"
    url_data = UMBRELLA_URL
    url_info = "https://umbrella-static.s3-us-west-1.amazonaws.com/index.html"

    def parse(self) -> None:
        ranking = self.node("Ranking", name="Cisco Umbrella Top 1M")
        for row in csv.reader(io.StringIO(self.fetch())):
            if len(row) != 2:
                continue
            rank, domain_name = int(row[0]), row[1]
            domain = self.node("DomainName", name=domain_name)
            self.link(domain, "RANK", ranking, {"rank": rank})
