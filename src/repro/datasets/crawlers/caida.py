"""CAIDA datasets: AS Rank and the IXPs dataset."""

from __future__ import annotations

import json

from repro.datasets.base import Crawler
from repro.simnet.world import World

ASRANK_URL = "https://api.asrank.caida.org/v2/restful/asns"
IXS_URL = "https://publicdata.caida.org/datasets/ixps/ixs-latest.jsonl"


def generate_asrank(world: World) -> str:
    """AS Rank API dump: one JSON object per AS."""
    records = []
    for asn in sorted(world.ases):
        info = world.ases[asn]
        records.append(
            {
                "asn": str(asn),
                "asnName": info.name,
                "rank": info.rank,
                "organization": {"orgName": info.org_name},
                "country": {"iso": info.country},
                "cone": {"numberAsns": info.cone_size},
            }
        )
    return json.dumps({"data": {"asns": {"edges": [{"node": r} for r in records]}}})


def generate_ixs(world: World) -> str:
    """CAIDA IXP dataset: JSONL, one IXP per line."""
    lines = []
    for ix in world.ixps.values():
        lines.append(
            json.dumps(
                {
                    "ix_id": ix.caida_ix_id,
                    "name": ix.name,
                    "country": ix.country,
                    "pdb_id": ix.peeringdb_ix_id,
                }
            )
        )
    return "\n".join(lines)


class ASRankCrawler(Crawler):
    """Loads ASRank: RANK links to the 'CAIDA ASRank' Ranking node, plus
    AS names, organizations, and registration countries."""

    organization = "CAIDA"
    name = "caida.asrank"
    url_data = ASRANK_URL
    url_info = "https://doi.org/10.21986/CAIDA.DATA.AS-RANK"

    def parse(self) -> None:
        payload = json.loads(self.fetch())
        ranking = self.node("Ranking", name="CAIDA ASRank")
        for edge in payload["data"]["asns"]["edges"]:
            record = edge["node"]
            as_node = self.node("AS", asn=record["asn"])
            self.link(as_node, "RANK", ranking, {"rank": record["rank"]})
            name_node = self.node("Name", name=record["asnName"])
            self.link(as_node, "NAME", name_node)
            org_name = record.get("organization", {}).get("orgName")
            if org_name:
                org_node = self.node("Organization", name=org_name)
                self.link(as_node, "MANAGED_BY", org_node)
            country = record.get("country", {}).get("iso")
            if country:
                country_node = self.node("Country", country_code=country)
                self.link(as_node, "COUNTRY", country_node)


class IXsCrawler(Crawler):
    """Loads CAIDA IXP identifiers and countries."""

    organization = "CAIDA"
    name = "caida.ixs"
    url_data = IXS_URL
    url_info = "https://www.caida.org/catalog/datasets/ixps"

    def parse(self) -> None:
        for line in self.fetch().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            ixp = self.node("IXP", name=record["name"])
            caida_id = self.node("CaidaIXID", id=record["ix_id"])
            self.link(ixp, "EXTERNAL_ID", caida_id)
            country = self.node("Country", country_code=record["country"])
            self.link(ixp, "COUNTRY", country)
            if record.get("pdb_id"):
                pdb_id = self.node("PeeringdbIXID", id=record["pdb_id"])
                self.link(ixp, "EXTERNAL_ID", pdb_id)
