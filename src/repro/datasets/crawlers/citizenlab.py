"""Citizen Lab URL testing lists: categorized URLs."""

from __future__ import annotations

import csv
import io
from functools import cache

from repro.datasets.base import Crawler
from repro.simnet.world import World

URL_LIST = "https://raw.githubusercontent.com/citizenlab/test-lists/global.csv"

_CATEGORIES = ["NEWS", "COMT", "SRCH", "CULTR", "ECON", "GOVT", "POLR"]


def generate_url_list(world: World) -> str:
    """CSV: url,category_code — URLs derived from popular domains."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["url", "category_code"])
    for index, domain in enumerate(world.tranco[: max(10, len(world.tranco) // 10)]):
        writer.writerow(
            [f"http://{domain}/", _CATEGORIES[index % len(_CATEGORIES)]]
        )
    return buffer.getvalue()


class URLTestingListCrawler(Crawler):
    """Loads (:URL)-[:CATEGORIZED]->(:Tag) for test-list URLs."""

    organization = "Citizen Lab"
    name = "citizenlab.urls"
    url_data = URL_LIST
    url_info = "https://github.com/citizenlab/test-lists"

    def parse(self) -> None:
        reader = csv.DictReader(io.StringIO(self.fetch()))
        tag = cache(lambda label: self.node("Tag", label=label))
        for row in reader:
            url = self.node("URL", url=row["url"])
            self.link(url, "CATEGORIZED", tag(row["category_code"]))
