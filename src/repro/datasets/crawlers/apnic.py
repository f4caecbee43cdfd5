"""APNIC AS population estimates.

Per-country market shares of eyeball ASes — the POPULATION
relationships.  Not peer-reviewed, but commonly used by independent
research groups, which is the paper's Recognition criterion for it.
"""

from __future__ import annotations

import json

from repro.datasets.base import Crawler
from repro.simnet.world import World

ASPOP_URL = "https://stats.labs.apnic.net/aspop/latest.json"


def generate_aspop(world: World) -> str:
    """JSON: list of {cc, asn, percent, users}."""
    records = []
    for (country, asn), percent in sorted(world.as_population.items()):
        users = int(world.country_population.get(country, 0) * percent / 100.0)
        records.append(
            {"cc": country, "asn": asn, "percent": percent, "users": users}
        )
    return json.dumps({"copyright": "APNIC", "data": records})


class ASPopulationCrawler(Crawler):
    """Loads (:AS)-[:POPULATION {percent, users}]->(:Country)."""

    organization = "APNIC"
    name = "apnic.as_population"
    url_data = ASPOP_URL
    url_info = "https://stats.labs.apnic.net/aspop"

    def parse(self) -> None:
        for record in json.loads(self.fetch())["data"]:
            as_node = self.node("AS", asn=record["asn"])
            country = self.node("Country", country_code=record["cc"])
            self.link(
                as_node,
                "POPULATION",
                country,
                {"percent": record["percent"], "users": record["users"]},
            )
