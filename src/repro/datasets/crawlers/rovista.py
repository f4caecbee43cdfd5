"""Virginia Tech RoVista: which ASes filter RPKI-invalid routes."""

from __future__ import annotations

import csv
import io

from repro.datasets.base import Crawler
from repro.simnet.world import World

ROVISTA_URL = "https://rovista.netsecurelab.org/api/latest.csv"


def generate_rovista(world: World) -> str:
    """CSV: asn,ratio — fraction of invalid routes the AS filters.

    Networks that register ROAs tend to also validate, so the filtering
    ratio is correlated with the AS's RPKI propensity.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["asn", "ratio"])
    for asn in sorted(world.ases):
        info = world.ases[asn]
        ratio = round(min(1.0, info.rpki_propensity * 0.9 + (asn % 7) * 0.01), 2)
        writer.writerow([asn, ratio])
    return buffer.getvalue()


class RoVistaCrawler(Crawler):
    """Tags ASes as 'Validating RPKI ROV' / 'Not Validating RPKI ROV'."""

    organization = "Virginia Tech"
    name = "rovista.rov"
    url_data = ROVISTA_URL
    url_info = "https://rovista.netsecurelab.org"

    def parse(self) -> None:
        validating = self.node("Tag", label="Validating RPKI ROV")
        not_validating = self.node("Tag", label="Not Validating RPKI ROV")
        reader = csv.DictReader(io.StringIO(self.fetch()))
        for row in reader:
            as_node = self.node("AS", asn=int(row["asn"]))
            ratio = float(row["ratio"])
            tag = validating if ratio > 0.5 else not_validating
            self.link(as_node, "CATEGORIZED", tag, {"ratio": ratio})
