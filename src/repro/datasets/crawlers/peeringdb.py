"""PeeringDB API endpoints: org, fac, ix, ixlan/netixlan, netfac.

PeeringDB is the canonical example in the paper of circumstantial
details becoming relationship properties: IXP membership is one
MEMBER_OF link, with peering policy and traffic levels as properties.
"""

from __future__ import annotations

import json

from repro.datasets.base import Crawler
from repro.simnet.world import World

ORG_URL = "https://www.peeringdb.com/api/org"
FAC_URL = "https://www.peeringdb.com/api/fac"
IX_URL = "https://www.peeringdb.com/api/ix"
IXLAN_URL = "https://www.peeringdb.com/api/netixlan"
NETFAC_URL = "https://www.peeringdb.com/api/netfac"


def generate_org(world: World) -> str:
    data = [
        {"id": org.peeringdb_org_id, "name": org.name, "country": org.country,
         "website": org.website or ""}
        for org in world.orgs.values()
        if org.peeringdb_org_id is not None
    ]
    return json.dumps({"data": sorted(data, key=lambda o: o["id"])})


def generate_fac(world: World) -> str:
    data = [
        {"id": index + 1, "name": name, "country": country}
        for index, (name, country) in enumerate(world.facilities)
    ]
    return json.dumps({"data": data})


def generate_ix(world: World) -> str:
    data = [
        {
            "id": ix.peeringdb_ix_id,
            "name": ix.name,
            "country": ix.country,
            "website": ix.website or "",
            "fac": ix.facility,
        }
        for ix in world.ixps.values()
    ]
    return json.dumps({"data": data})


def generate_netixlan(world: World) -> str:
    data = []
    counter = 1
    for ix in world.ixps.values():
        for asn in ix.members:
            data.append(
                {
                    "id": counter,
                    "ix_id": ix.peeringdb_ix_id,
                    "asn": asn,
                    "speed": 10000,
                    "policy": "Open" if asn % 3 else "Selective",
                }
            )
            counter += 1
    return json.dumps({"data": data})


def generate_netfac(world: World) -> str:
    data = []
    counter = 1
    for index, (name, _country) in enumerate(world.facilities):
        for ix in world.ixps.values():
            if ix.facility == name:
                for asn in ix.members[:8]:
                    data.append({"id": counter, "fac": name, "asn": asn})
                    counter += 1
    return json.dumps({"data": data})


class OrgCrawler(Crawler):
    organization = "PeeringDB"
    name = "peeringdb.org"
    url_data = ORG_URL
    url_info = "https://www.peeringdb.com"

    def parse(self) -> None:
        for record in json.loads(self.fetch())["data"]:
            org = self.node("Organization", name=record["name"])
            org_id = self.node("PeeringdbOrgID", id=record["id"])
            self.link(org, "EXTERNAL_ID", org_id)
            if record.get("country"):
                country = self.node("Country", country_code=record["country"])
                self.link(org, "COUNTRY", country)
            if record.get("website"):
                url = self.node("URL", url=record["website"])
                self.link(url, "WEBSITE", org)


class FacCrawler(Crawler):
    organization = "PeeringDB"
    name = "peeringdb.fac"
    url_data = FAC_URL
    url_info = "https://www.peeringdb.com"

    def parse(self) -> None:
        for record in json.loads(self.fetch())["data"]:
            facility = self.node("Facility", name=record["name"])
            fac_id = self.node("PeeringdbFacID", id=record["id"])
            self.link(facility, "EXTERNAL_ID", fac_id)
            country = self.node("Country", country_code=record["country"])
            self.link(facility, "COUNTRY", country)


class IXCrawler(Crawler):
    organization = "PeeringDB"
    name = "peeringdb.ix"
    url_data = IX_URL
    url_info = "https://www.peeringdb.com"

    def parse(self) -> None:
        for record in json.loads(self.fetch())["data"]:
            ixp = self.node("IXP", name=record["name"])
            ix_id = self.node("PeeringdbIXID", id=record["id"])
            self.link(ixp, "EXTERNAL_ID", ix_id)
            country = self.node("Country", country_code=record["country"])
            self.link(ixp, "COUNTRY", country)
            if record.get("fac"):
                facility = self.node("Facility", name=record["fac"])
                self.link(ixp, "LOCATED_IN", facility)
            if record.get("website"):
                url = self.node("URL", url=record["website"])
                self.link(url, "WEBSITE", ixp)


class NetIXLanCrawler(Crawler):
    """IXP memberships with peering-policy details as link properties."""

    organization = "PeeringDB"
    name = "peeringdb.netixlan"
    url_data = IXLAN_URL
    url_info = "https://www.peeringdb.com"

    def parse(self) -> None:
        ix_by_id: dict[int, object] = {}
        for record in json.loads(self.fetch())["data"]:
            ix_id = record["ix_id"]
            if ix_id not in ix_by_id:
                id_nodes = self.iyp.store.find_nodes("PeeringdbIXID", "id", ix_id)
                if not id_nodes:
                    continue
                ixps = [
                    self.iyp.store.get_node(rel.other_end(id_nodes[0].id))
                    for rel in self.iyp.store.relationships_of(
                        id_nodes[0].id, rel_type="EXTERNAL_ID"
                    )
                ]
                if not ixps:
                    continue
                ix_by_id[ix_id] = ixps[0]
            as_node = self.node("AS", asn=record["asn"])
            self.link(
                as_node,
                "MEMBER_OF",
                ix_by_id[ix_id],
                {"speed": record.get("speed"), "policy": record.get("policy")},
            )


class NetFacCrawler(Crawler):
    organization = "PeeringDB"
    name = "peeringdb.netfac"
    url_data = NETFAC_URL
    url_info = "https://www.peeringdb.com"

    def parse(self) -> None:
        for record in json.loads(self.fetch())["data"]:
            as_node = self.node("AS", asn=record["asn"])
            facility = self.node("Facility", name=record["fac"])
            self.link(as_node, "LOCATED_IN", facility)
