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


def _records(payload: str) -> list[dict]:
    return [json.loads(line) for line in payload.splitlines() if line.strip()]


class _ResolutionCrawler(Crawler):
    """Shared loader for the tranco1m / umbrella1m resolution datasets."""

    def run(self) -> None:
        records = _records(self.fetch())
        # One entry per hostname a record names, in record order.
        names = []
        for record in records:
            names.append(record["response_name"])
            if record["response_type"] == "CNAME":
                names.append(record["answer"])
            elif record["response_name"] != record["query_name"]:
                names.append(record["query_name"])
        hosts = iter(self.get_nodes("HostName", "name", names))
        ips = iter(self.get_nodes(
            "IP", "ip",
            [r["answer"] for r in records if r["response_type"] != "CNAME"],
        ))
        links: list = []
        # (position in links, host, registrable domain): PART_OF rows,
        # filled in once the DomainName column exists.
        members = []

        def part_of(host) -> None:
            registrable = registered_domain(host.properties["name"])
            if registrable is not None:
                members.append((len(links), host, registrable))
                links.append(None)

        for record in records:
            host = next(hosts)
            if record["response_type"] == "CNAME":
                target = next(hosts)
                links.append((host, "ALIAS_OF", target, None))
                part_of(target)
                continue
            links.append((host, "RESOLVES_TO", next(ips), None))
            if record["response_name"] != record["query_name"]:
                part_of(next(hosts))
            part_of(host)
        domains = self.get_nodes(
            "DomainName", "name", [name for _, _, name in members]
        )
        for (position, host, _), domain in zip(members, domains):
            links[position] = (host, "PART_OF", domain, None)
        self.iyp.add_links(links, self.reference())


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


class _NameServerCrawler(Crawler):
    """Shared by the two datasets that load nameservers with their IPs."""

    def nameservers(self, entries: list[dict]) -> tuple[list, Iterator]:
        """The AuthoritativeNameServer node of each ``{ns, ips}`` entry,
        and an iterator over the IP nodes of all their ``ips`` in order."""
        servers = self.get_nodes(
            "AuthoritativeNameServer", "name", [entry["ns"] for entry in entries]
        )
        # The same node also is a HostName: a resolvable FQDN.
        for server in dict.fromkeys(servers):
            self.iyp.store.add_label(server.id, "HostName")
        ips = self.get_nodes(
            "IP", "ip", [ip for entry in entries for ip in entry.get("ips", ())]
        )
        return servers, iter(ips)


class NSCrawler(_NameServerCrawler):
    """Loads (:DomainName)-[:MANAGED_BY {glue, in_zone}]->
    (:AuthoritativeNameServer) plus nameserver glue resolutions."""

    organization = "OpenINTEL"
    name = "openintel.ns"
    url_data = NS_URL
    url_info = "https://openintel.nl/"

    def run(self) -> None:
        records = _records(self.fetch())
        domains = self.get_nodes(
            "DomainName", "name", [record["domain"] for record in records]
        )
        servers, ips = self.nameservers(records)
        links: list = []
        for record, domain, server in zip(records, domains, servers):
            links.append((
                domain,
                "MANAGED_BY",
                server,
                {"glue": record["glue"], "in_zone": record["in_zone"]},
            ))
            links.extend(
                (server, "RESOLVES_TO", next(ips), None)
                for _ in record.get("ips", ())
            )
        self.iyp.add_links(links, self.reference())


class DNSGraphCrawler(_NameServerCrawler):
    """Loads the zone -> NS dependency graph used by the SPoF study."""

    organization = "OpenINTEL"
    name = "openintel.dnsgraph"
    url_data = DNSGRAPH_URL
    url_info = "https://dnsgraph.dacs.utwente.nl"

    def run(self) -> None:
        records = _records(self.fetch())
        zones = self.get_nodes(
            "DomainName", "name", [record["zone"] for record in records]
        )
        entries = [entry for record in records for entry in record["nameservers"]]
        servers, ips = self.nameservers(entries)
        server_of = iter(servers)
        links: list = []
        for record, zone in zip(records, zones):
            for entry in record["nameservers"]:
                server = next(server_of)
                links.append((zone, "MANAGED_BY", server, None))
                links.extend(
                    (server, "RESOLVES_TO", next(ips), None)
                    for _ in entry.get("ips", ())
                )
        self.iyp.add_links(links, self.reference())
