"""OpenINTEL datasets: tranco1m / umbrella1m resolutions, the ns
(authoritative nameserver) dataset, and the DNS Dependency Graph.

These four datasets carry the DNS half of the paper's evaluation: the
RiPKI reproduction walks tranco1m RESOLVES_TO links, the DNS Robustness
reproduction reads the ns dataset (with its glue annotations), and the
SPoF analysis walks the dependency graph.
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.datasets.base import Crawler
from repro.nettypes.dns import registered_domain
from repro.simnet.dns import zone_nameservers
from repro.simnet.world import World

TRANCO1M_URL = "https://data.openintel.nl/data/tranco1m/latest.jsonl"
UMBRELLA1M_URL = "https://data.openintel.nl/data/umbrella1m/latest.jsonl"
NS_URL = "https://data.openintel.nl/data/ns/latest.jsonl"
DNSGRAPH_URL = "https://dnsgraph.dacs.utwente.nl/latest.jsonl"


def _resolution_records(world: World, names: list[str]) -> list[dict]:
    records = []
    for domain_name in names:
        domain = world.domains[domain_name]
        qname = domain.hostname
        if domain.cname_target:
            records.append(
                {
                    "query_name": qname,
                    "response_type": "CNAME",
                    "response_name": qname,
                    "answer": domain.cname_target,
                }
            )
            qname = domain.cname_target
        for ip in domain.ips:
            records.append(
                {
                    "query_name": domain.hostname,
                    "response_type": "AAAA" if ":" in ip else "A",
                    "response_name": qname,
                    "answer": ip,
                }
            )
    return records


def generate_tranco1m(world: World) -> str:
    """DNS resolutions for the Tranco list (JSONL)."""
    records = _resolution_records(world, world.tranco)
    return "\n".join(json.dumps(record) for record in records)


def generate_umbrella1m(world: World) -> str:
    """DNS resolutions for the Umbrella list (JSONL)."""
    records = _resolution_records(world, world.umbrella)
    return "\n".join(json.dumps(record) for record in records)


def generate_ns(world: World) -> str:
    """The ns dataset: per-domain NS records with glue annotations."""
    records = []
    for domain_name in world.tranco:
        domain = world.domains[domain_name]
        for ns_name in domain.nameservers:
            ns_info = world.nameservers.get(ns_name)
            records.append(
                {
                    "domain": domain.name,
                    "ns": ns_name,
                    "glue": domain.has_glue,
                    "in_zone": domain.in_zone_glue,
                    "ips": ns_info.ips if ns_info else [],
                }
            )
    return "\n".join(json.dumps(record) for record in records)


def generate_dnsgraph(world: World) -> str:
    """The DNS Dependency Graph: every zone's NS set (JSONL)."""
    zones = zone_nameservers(world)
    lines = []
    for zone in sorted(zones):
        entries = []
        for ns_name in zones[zone]:
            ns_info = world.nameservers.get(ns_name)
            entries.append(
                {"ns": ns_name, "ips": ns_info.ips if ns_info else []}
            )
        lines.append(json.dumps({"zone": zone, "nameservers": entries}))
    return "\n".join(lines)


def _records(payload: str) -> Iterator[dict]:
    return (json.loads(line) for line in payload.splitlines() if line.strip())


class _ResolutionCrawler(Crawler):
    """Shared loader for the tranco1m / umbrella1m resolution datasets."""

    def parse(self) -> None:
        for record in _records(self.fetch()):
            host = self.node("HostName", name=record["response_name"])
            if record["response_type"] == "CNAME":
                target = self.node("HostName", name=record["answer"])
                self.link(host, "ALIAS_OF", target)
                self._part_of(target, record["answer"])
                continue
            self.link(host, "RESOLVES_TO", self.node("IP", ip=record["answer"]))
            if record["response_name"] != record["query_name"]:
                query_host = self.node("HostName", name=record["query_name"])
                self._part_of(query_host, record["query_name"])
            self._part_of(host, record["response_name"])

    def _part_of(self, host: int, name: str) -> None:
        """Link a HostName to its registrable DomainName."""
        registrable = registered_domain(name)
        if registrable is not None:
            self.link(host, "PART_OF", self.node("DomainName", name=registrable))


class Tranco1MCrawler(_ResolutionCrawler):
    organization = "OpenINTEL"
    name = "openintel.tranco1m"
    url_data = TRANCO1M_URL
    url_info = "https://openintel.nl/"


class Umbrella1MCrawler(_ResolutionCrawler):
    organization = "OpenINTEL"
    name = "openintel.umbrella1m"
    url_data = UMBRELLA1M_URL
    url_info = "https://openintel.nl/"


class NSCrawler(Crawler):
    """Loads (:DomainName)-[:MANAGED_BY {glue, in_zone}]->
    (:AuthoritativeNameServer) plus nameserver glue resolutions."""

    organization = "OpenINTEL"
    name = "openintel.ns"
    url_data = NS_URL
    url_info = "https://openintel.nl/"

    def parse(self) -> None:
        for record in _records(self.fetch()):
            domain = self.node("DomainName", name=record["domain"])
            nameserver = self.node("AuthoritativeNameServer", name=record["ns"])
            # The same node also is a HostName: a resolvable FQDN.
            self.label(nameserver, "HostName")
            self.link(
                domain,
                "MANAGED_BY",
                nameserver,
                {"glue": record["glue"], "in_zone": record["in_zone"]},
            )
            for ip in record.get("ips", ()):
                self.link(nameserver, "RESOLVES_TO", self.node("IP", ip=ip))


class DNSGraphCrawler(Crawler):
    """Loads the zone -> NS dependency graph used by the SPoF study."""

    organization = "OpenINTEL"
    name = "openintel.dnsgraph"
    url_data = DNSGRAPH_URL
    url_info = "https://dnsgraph.dacs.utwente.nl"

    def parse(self) -> None:
        for record in _records(self.fetch()):
            zone = self.node("DomainName", name=record["zone"])
            for entry in record["nameservers"]:
                nameserver = self.node("AuthoritativeNameServer", name=entry["ns"])
                self.label(nameserver, "HostName")
                self.link(zone, "MANAGED_BY", nameserver)
                for ip in entry.get("ips", ()):
                    self.link(nameserver, "RESOLVES_TO", self.node("IP", ip=ip))
