"""Stanford's ASdb: AS classification by business type.

The paper's Freshness discussion singles this dataset out: updated only
every six months, but AS business types change slowly enough that it is
worth importing anyway.
"""

from __future__ import annotations

import csv
import io
from functools import cache

from repro.datasets.base import Crawler
from repro.simnet.world import World

ASDB_URL = "https://asdb.stanford.edu/data/latest.csv"


def generate_asdb(world: World) -> str:
    """CSV: asn,category1,category2 (empty second category allowed)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["asn", "category1", "category2"])
    for asn in sorted(world.ases):
        categories = world.ases[asn].asdb_categories
        first = categories[0] if categories else ""
        second = categories[1] if len(categories) > 1 else ""
        writer.writerow([asn, first, second])
    return buffer.getvalue()


class ASdbCrawler(Crawler):
    """Loads ASdb categories as CATEGORIZED Tag links."""

    organization = "Stanford"
    name = "stanford.asdb"
    url_data = ASDB_URL
    url_info = "https://asdb.stanford.edu"

    def parse(self) -> None:
        reader = csv.DictReader(io.StringIO(self.fetch()))
        tag = cache(lambda label: self.node("Tag", label=label))
        for row in reader:
            as_node = self.node("AS", asn=int(row["asn"]))
            for key in ("category1", "category2"):
                label = row.get(key, "").strip()
                if label:
                    self.link(as_node, "CATEGORIZED", tag(label))
