"""World Bank country population estimates."""

from __future__ import annotations

import json

from repro.datasets.base import Crawler
from repro.nettypes.countries import alpha2_to_alpha3, alpha3_to_alpha2
from repro.simnet.world import World

POPULATION_URL = (
    "https://api.worldbank.org/v2/country/all/indicator/SP.POP.TOTL?format=json"
)


def generate_population(world: World) -> str:
    """World Bank API format: [metadata, [records]]."""
    records = []
    for country, population in sorted(world.country_population.items()):
        records.append(
            {
                "country": {"id": alpha2_to_alpha3(country), "value": country},
                "countryiso3code": alpha2_to_alpha3(country),
                "date": "2023",
                "value": population,
            }
        )
    return json.dumps([{"page": 1, "pages": 1}, records])


class WorldBankPopulationCrawler(Crawler):
    """Loads (:Country)-[:POPULATION {value}]->(:Estimate)."""

    organization = "World Bank"
    name = "worldbank.country_pop"
    url_data = POPULATION_URL
    url_info = "https://www.worldbank.org"

    def parse(self) -> None:
        _metadata, records = json.loads(self.fetch())
        estimate = self.node("Estimate", name="World Bank Population Estimate")
        for record in records:
            if record.get("value") is None:
                continue
            try:
                alpha2 = alpha3_to_alpha2(record["countryiso3code"])
            except KeyError:
                continue
            country = self.node("Country", country_code=alpha2)
            self.link(country, "POPULATION", estimate, {"value": record["value"]})
