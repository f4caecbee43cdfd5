"""The Tranco top-sites list."""

from __future__ import annotations

import csv
import io

from repro.datasets.base import Crawler
from repro.simnet.world import World

TRANCO_URL = "https://tranco-list.eu/top-1m.csv"


def generate_tranco(world: World) -> str:
    """CSV: rank,domain — exactly the real list's shape."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    for rank, domain in enumerate(world.tranco, start=1):
        writer.writerow([rank, domain])
    return buffer.getvalue()


class TrancoCrawler(Crawler):
    """Loads (:DomainName)-[:RANK {rank}]->(:Ranking 'Tranco top 1M')."""

    organization = "Tranco"
    name = "tranco.top1m"
    url_data = TRANCO_URL
    url_info = "https://tranco-list.eu"

    def parse(self) -> None:
        ranking = self.node("Ranking", name="Tranco top 1M")
        for row in csv.reader(io.StringIO(self.fetch())):
            if len(row) != 2:
                continue
            rank, domain_name = int(row[0]), row[1]
            domain = self.node("DomainName", name=domain_name)
            self.link(domain, "RANK", ranking, {"rank": rank})
