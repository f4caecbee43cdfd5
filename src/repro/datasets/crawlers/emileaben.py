"""Community-maintained short AS names (github.com/emileaben/asnames)."""

from __future__ import annotations

from repro.datasets.base import Crawler
from repro.simnet.world import World

ASNAMES_URL = "https://raw.githubusercontent.com/emileaben/asnames/main/asnames.csv"


def generate_asnames(world: World) -> str:
    """Pipe format: ``asn|name`` — short display names."""
    lines = []
    for asn in sorted(world.ases):
        short = world.ases[asn].name.split("-")[0].title()
        lines.append(f"{asn}|{short}")
    return "\n".join(lines)


class ASNamesCrawler(Crawler):
    organization = "Emile Aben"
    name = "emileaben.as_names"
    url_data = ASNAMES_URL
    url_info = "https://github.com/emileaben/asnames"

    def parse(self) -> None:
        for line in self.fetch().splitlines():
            if "|" not in line:
                continue
            asn_text, _, name_text = line.partition("|")
            as_node = self.node("AS", asn=int(asn_text))
            name_node = self.node("Name", name=name_text)
            self.link(as_node, "NAME", name_node)
