"""RIPE NCC datasets: AS names, RPKI ROAs, Atlas probes & measurements."""

from __future__ import annotations

import json

from repro.datasets.base import Crawler
from repro.simnet.world import World

ASNAMES_URL = "https://ftp.ripe.net/ripe/asnames/asn.txt"
RPKI_URL = "https://ftp.ripe.net/rpki/roas-latest.json"
ATLAS_PROBES_URL = "https://atlas.ripe.net/api/v2/probes/"
ATLAS_MEASUREMENTS_URL = "https://atlas.ripe.net/api/v2/measurements/"


def generate_asnames(world: World) -> str:
    """RIPE asn.txt format: ``<asn> <name>, <country>`` per line."""
    lines = []
    for asn in sorted(world.ases):
        info = world.ases[asn]
        lines.append(f"{asn} {info.name}, {info.country}")
    return "\n".join(lines)


def generate_rpki(world: World) -> str:
    """ROAs in the RIPE JSON dump format."""
    roas = []
    for prefix in sorted(world.prefixes):
        for roa in world.prefixes[prefix].roas:
            roas.append(
                {
                    "asn": f"AS{roa.asn}",
                    "prefix": roa.prefix,
                    "maxLength": roa.max_length,
                    "ta": world.prefixes[prefix].rir,
                }
            )
    return json.dumps({"roas": roas})


def generate_atlas_probes(world: World) -> str:
    """Atlas API v2 probe listing."""
    results = []
    for probe in world.atlas_probes.values():
        results.append(
            {
                "id": probe.probe_id,
                "asn_v4": probe.asn,
                "address_v4": probe.ip,
                "country_code": probe.country,
                "status": {"name": probe.status},
                "tags": [{"slug": tag} for tag in probe.tags],
            }
        )
    return json.dumps({"count": len(results), "results": results})


def generate_atlas_measurements(world: World) -> str:
    """Atlas API v2 measurement listing."""
    results = []
    for measurement in world.atlas_measurements.values():
        results.append(
            {
                "id": measurement.measurement_id,
                "type": measurement.kind,
                "target": measurement.target,
                "target_is_ip": measurement.target_is_ip,
                "af": measurement.af,
                "probes": [{"id": pid} for pid in measurement.probe_ids],
            }
        )
    return json.dumps({"count": len(results), "results": results})


class ASNamesCrawler(Crawler):
    """Loads authoritative AS names and registration countries."""

    organization = "RIPE NCC"
    name = "ripe.as_names"
    url_data = ASNAMES_URL

    def parse(self) -> None:
        for line in self.fetch().splitlines():
            line = line.strip()
            if not line:
                continue
            asn_text, _, rest = line.partition(" ")
            name_text, _, country_code = rest.rpartition(", ")
            as_node = self.node("AS", asn=int(asn_text))
            name_node = self.node("Name", name=name_text)
            self.link(as_node, "NAME", name_node)
            if len(country_code) == 2:
                country = self.node("Country", country_code=country_code)
                self.link(as_node, "COUNTRY", country)


class RPKICrawler(Crawler):
    """Loads (:AS)-[:ROUTE_ORIGIN_AUTHORIZATION {maxLength}]->(:Prefix)."""

    organization = "RIPE NCC"
    name = "ripe.rpki"
    url_data = RPKI_URL
    url_info = "https://ftp.ripe.net/rpki"

    def parse(self) -> None:
        payload = json.loads(self.fetch())
        for roa in payload["roas"]:
            as_node = self.node("AS", asn=roa["asn"])
            prefix_node = self.node("Prefix", prefix=roa["prefix"])
            self.link(
                as_node,
                "ROUTE_ORIGIN_AUTHORIZATION",
                prefix_node,
                {"maxLength": roa["maxLength"], "ta": roa.get("ta", "")},
            )


class AtlasProbesCrawler(Crawler):
    """Loads Atlas probes: ASSIGNED IP, LOCATED_IN AS, COUNTRY."""

    organization = "RIPE NCC"
    name = "ripe.atlas_probes"
    url_data = ATLAS_PROBES_URL

    def parse(self) -> None:
        payload = json.loads(self.fetch())
        for record in payload["results"]:
            probe = self.node(
                "AtlasProbe",
                properties={
                    "status": record["status"]["name"],
                    "tags": [tag["slug"] for tag in record["tags"]],
                },
                id=record["id"],
            )
            if record.get("address_v4"):
                ip_node = self.node("IP", ip=record["address_v4"])
                self.link(probe, "ASSIGNED", ip_node)
            if record.get("asn_v4"):
                as_node = self.node("AS", asn=record["asn_v4"])
                self.link(probe, "LOCATED_IN", as_node)
            if record.get("country_code"):
                country = self.node("Country", country_code=record["country_code"])
                self.link(probe, "COUNTRY", country)


class AtlasMeasurementsCrawler(Crawler):
    """Loads Atlas measurements: TARGET links plus participating probes."""

    organization = "RIPE NCC"
    name = "ripe.atlas_measurements"
    url_data = ATLAS_MEASUREMENTS_URL

    def parse(self) -> None:
        payload = json.loads(self.fetch())
        for record in payload["results"]:
            measurement = self.node(
                "AtlasMeasurement",
                properties={"type": record["type"], "af": record["af"]},
                id=record["id"],
            )
            if record["target_is_ip"]:
                target = self.node("IP", ip=record["target"])
            else:
                target = self.node("HostName", name=record["target"])
            self.link(measurement, "TARGET", target)
            for probe_record in record["probes"]:
                probe = self.node("AtlasProbe", id=probe_record["id"])
                self.link(probe, "PART_OF", measurement)
