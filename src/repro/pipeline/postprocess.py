"""The refinement pass (paper Section 2.3, "Fusion & Refinement").

After all datasets are imported, common knowledge that is implicit in
the data is made explicit:

1. every IP and Prefix node gets an ``af`` (address family) property;
2. every IP is linked (PART_OF) to its longest matching prefix;
3. every prefix is linked (PART_OF) to its covering prefix;
4. URL nodes are linked (PART_OF) to their HostName;
5. HostNames are linked (PART_OF) to their registrable DomainName, and
   DomainNames to their parent zones (PARENT), up to the TLD;
6. every Country node gets its three-letter code and common name.
"""

from __future__ import annotations

from repro.core import IYP, Reference
from repro.datasets.base import Crawler
from repro.graphdb import Node
from repro.nettypes import (
    InvalidAddressError,
    InvalidPrefixError,
    InvalidURLError,
    PrefixTrie,
    address_family,
    hostname_of_url,
    prefix_af,
    registered_domain,
)
from repro.nettypes.countries import UnknownCountryError, lookup
from repro.nettypes.dns import parent_zones, public_suffix
from repro.ontology import DATASET_PROPERTY

REFINEMENT_REFERENCE = Reference(
    organization="IYP",
    dataset_name="iyp.refinement",
    url_info="https://github.com/InternetHealthReport/internet-yellow-pages",
)


class Refinement(Crawler):
    """The refinement pass: a crawler whose input is the graph.  A step
    counts what it states (links, nodes with properties); nothing loads
    before all have run, so one reads what an earlier step named."""

    name = REFINEMENT_REFERENCE.dataset_name

    def reference(self) -> Reference:
        return REFINEMENT_REFERENCE

    def parse(self) -> None:
        self.prefixes = PrefixTrie()  # both prefix steps look up in it
        for node in self.iyp.store.nodes_with_label("Prefix"):
            try:
                self.prefixes.insert(node.properties["prefix"], node)
            except InvalidPrefixError:
                continue
        self.hostnames: dict[str, int] = {}  # URL-step names the graph lacks
        self.stated: set[tuple[Node | int, str, Node | int]] = set()
        self.counts = {}
        for name, step, _labels, _props in STEPS:
            before = len(self.stated) + len(self._described)
            step(self)
            self.counts[name] = len(self.stated) + len(self._described) - before

    def link(self, start, rel_type, end, properties=None) -> None:
        """State a link unless this run did, or another dataset provides
        it either way: a re-run re-states all it derives."""
        between = self.iyp.store.relationships_between
        if (start, rel_type, end) in self.stated or (
            isinstance(start, Node) and isinstance(end, Node) and any(
                rel.properties.get(DATASET_PROPERTY) != self.name
                for rel in between(start.id, end.id, rel_type)
                + between(end.id, start.id, rel_type)
            )
        ):
            return
        self.stated.add((start, rel_type, end))
        super().link(start, rel_type, end, properties)


def add_address_families(refinement: Refinement) -> None:
    """Set the ``af`` property on every IP and Prefix node."""
    for label, key, family in (("IP", "ip", address_family),
                               ("Prefix", "prefix", prefix_af)):
        for node in refinement.iyp.store.nodes_with_label(label):
            try:
                af = family(node.properties[key])
            except (InvalidAddressError, InvalidPrefixError):
                continue
            refinement.node(label, {"af": af}, **{key: node.properties[key]})


def link_ips_to_prefixes(refinement: Refinement) -> None:
    """Link every IP node to the Prefix node of its longest match."""
    for node in refinement.iyp.store.nodes_with_label("IP"):
        try:
            match = refinement.prefixes.longest_match_ip(node.properties["ip"])
        except ValueError:
            continue
        if match is not None:
            refinement.link(node, "PART_OF", match[1])


def link_covering_prefixes(refinement: Refinement) -> None:
    """Link every Prefix node to its closest covering Prefix node."""
    for node in refinement.iyp.store.nodes_with_label("Prefix"):
        try:
            match = refinement.prefixes.covering_prefix(node.properties["prefix"])
        except InvalidPrefixError:
            continue
        if match is not None and match[1].id != node.id:
            refinement.link(node, "PART_OF", match[1])


def link_urls_to_hostnames(refinement: Refinement) -> None:
    """Link every URL node to the HostName it embeds."""
    store = refinement.iyp.store
    for node in store.nodes_with_label("URL"):
        try:
            name = hostname_of_url(node.properties["url"])
        except InvalidURLError:
            continue
        host = refinement.node("HostName", name=name)
        if not store.find_nodes("HostName", "name", name):
            refinement.hostnames.setdefault(name, host)
        refinement.link(node, "PART_OF", host)


def link_name_hierarchy(refinement: Refinement) -> None:
    """HostName -> registrable DomainName (PART_OF) and zone cuts (PARENT)
    up to the TLD.  Crawlers already create most HostName PART_OF links;
    this fills the gaps (e.g. hostnames named by the URL step)."""
    store = refinement.iyp.store
    hosts, zones = (
        [(node.properties.get("name"), node) for node in store.nodes_with_label(label)]
        for label in ("HostName", "DomainName")
    )
    # name -> the graph's DomainName (the first, as merges find), or a handle
    domains: dict[str | None, Node | int] = dict(reversed(zones))

    def domain(name: str) -> Node | int:
        if name not in domains:
            domains[name] = refinement.node("DomainName", name=name)
        return domains[name]

    for name, host in [*hosts, *refinement.hostnames.items()]:
        registrable = registered_domain(name) if name else None
        if registrable is not None:
            refinement.link(host, "PART_OF", domain(registrable))
    # Zone cuts of the graph's DomainNames and the new registrable ones.
    named = [(name, end) for name, end in domains.items() if isinstance(end, int)]
    for name, child in zones + named:
        if not name or name == (suffix := public_suffix(name)):
            continue
        for zone in parent_zones(name):
            if len(zone) < len(suffix):
                break
            parent = domain(zone)
            refinement.link(parent, "PARENT", child)
            child = parent


def complete_country_codes(refinement: Refinement) -> None:
    """Give every Country node alpha-3 code and common name properties."""
    for node in refinement.iyp.store.nodes_with_label("Country"):
        code = node.properties.get("country_code", "")
        try:
            info = lookup(code)
        except UnknownCountryError:
            continue
        refinement.node("Country", {"alpha3": info.alpha3, "name": info.name},
                        country_code=code)


#: Every refinement step, in order: (count name, function, the node
#: labels whose structure it reads, the properties it reads on them).
#: A step added here joins the incremental build's skip rule with it.
STEPS = (
    ("af_properties", add_address_families, {"IP", "Prefix"}, {"ip", "prefix", "af"}),
    ("ip_part_of_prefix", link_ips_to_prefixes, {"IP", "Prefix"}, {"ip", "prefix"}),
    ("prefix_part_of_prefix", link_covering_prefixes, {"Prefix"}, {"prefix"}),
    ("url_part_of_hostname", link_urls_to_hostnames, {"URL"}, {"url"}),
    ("hostname_hierarchy", link_name_hierarchy, {"HostName", "DomainName"}, {"name"}),
    ("country_codes", complete_country_codes,
     {"Country"}, {"country_code", "alpha3", "name"}),
)

#: Node labels whose structure the refinement pass reads.  Structural
#: churn confined to other labels (AS renames, peering changes, ...)
#: cannot change any refinement output, so incremental builds skip the
#: pass entirely in that case.
READ_LABELS = frozenset().union(*(labels for _, _, labels, _ in STEPS))

#: Properties the refinement pass reads (on the labels above).
READ_PROPERTIES = frozenset().union(*(props for _, _, _, props in STEPS))


def run_postprocessing(iyp: IYP) -> dict[str, int]:
    """Run every refinement step; returns per-step link/property counts.
    A step that raises leaves the store untouched."""
    refinement = Refinement(iyp, None)  # its input is the graph, not a URL
    refinement.run()
    return refinement.counts
