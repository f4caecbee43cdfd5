"""BGP.Tools datasets: AS names, AS tags, anycast prefix tags.

The AS tags dataset provides the 'Content Delivery Network', 'Academic',
'Government', 'DDoS Mitigation'... Tag nodes that the RiPKI extension
(Section 4.1.4) slices RPKI deployment by.
"""

from __future__ import annotations

import csv
import io
from functools import cache

from repro.datasets.base import Crawler
from repro.simnet.world import World

ASNAMES_URL = "https://bgp.tools/asns.csv"
TAGS_URL = "https://bgp.tools/tags.csv"
ANYCAST_URL = "https://raw.githubusercontent.com/bgptools/anycast-prefixes/anycatch.csv"


def generate_asnames(world: World) -> str:
    """CSV: asn,name (ASN in the 'AS123' spelling used by bgp.tools)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["asn", "name"])
    for asn in sorted(world.ases):
        writer.writerow([f"AS{asn}", world.ases[asn].name])
    return buffer.getvalue()


def generate_tags(world: World) -> str:
    """CSV: asn,tag — one row per (AS, classification tag)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["asn", "tag"])
    for asn in sorted(world.ases):
        for tag in world.ases[asn].tags:
            writer.writerow([f"AS{asn}", tag])
    return buffer.getvalue()


def generate_anycast(world: World) -> str:
    """One anycast prefix per line."""
    return "\n".join(
        sorted(info.prefix for info in world.prefixes.values() if info.anycast)
    )


class ASNamesCrawler(Crawler):
    organization = "BGP.Tools"
    name = "bgptools.as_names"
    url_data = ASNAMES_URL
    url_info = "https://bgp.tools/kb/api"

    def parse(self) -> None:
        reader = csv.DictReader(io.StringIO(self.fetch()))
        for row in reader:
            as_node = self.node("AS", asn=row["asn"])
            name_node = self.node("Name", name=row["name"])
            self.link(as_node, "NAME", name_node)


class ASTagsCrawler(Crawler):
    organization = "BGP.Tools"
    name = "bgptools.tags"
    url_data = TAGS_URL
    url_info = "https://bgp.tools/kb/api"

    def parse(self) -> None:
        reader = csv.DictReader(io.StringIO(self.fetch()))
        tag = cache(lambda label: self.node("Tag", label=label))
        for row in reader:
            self.link(self.node("AS", asn=row["asn"]), "CATEGORIZED", tag(row["tag"]))


class AnycastCrawler(Crawler):
    organization = "BGP.Tools"
    name = "bgptools.anycast_prefixes"
    url_data = ANYCAST_URL
    url_info = "https://github.com/bgptools/anycast-prefixes"

    def parse(self) -> None:
        tag = self.node("Tag", label="Anycast")
        for line in self.fetch().splitlines():
            line = line.strip()
            if not line:
                continue
            prefix = self.node("Prefix", prefix=line)
            self.link(prefix, "CATEGORIZED", tag)
