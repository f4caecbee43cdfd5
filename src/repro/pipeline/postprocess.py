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

All links added here carry the ``iyp.refinement`` provenance so they
can be told apart from imported data.
"""

from __future__ import annotations

from repro.core import IYP, Reference
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
from repro.nettypes.dns import normalize_name, parent_zones, public_suffix

REFINEMENT_REFERENCE = Reference(
    organization="IYP",
    dataset_name="iyp.refinement",
    url_info="https://github.com/InternetHealthReport/internet-yellow-pages",
)


def add_address_families(iyp: IYP) -> int:
    """Set the ``af`` property on every IP and Prefix node."""
    count = 0
    for node in iyp.store.nodes_with_label("IP"):
        if "af" in node.properties:
            continue
        try:
            iyp.store.update_node(node.id, {"af": address_family(node.properties["ip"])})
            count += 1
        except InvalidAddressError:
            continue
    for node in iyp.store.nodes_with_label("Prefix"):
        if "af" in node.properties:
            continue
        try:
            iyp.store.update_node(node.id, {"af": prefix_af(node.properties["prefix"])})
            count += 1
        except InvalidPrefixError:
            continue
    return count


def _prefix_trie(iyp: IYP) -> PrefixTrie:
    trie = PrefixTrie()
    for node in iyp.store.nodes_with_label("Prefix"):
        try:
            trie.insert(node.properties["prefix"], node)
        except InvalidPrefixError:
            continue
    return trie


def link_ips_to_prefixes(iyp: IYP) -> int:
    """Link every IP node to the Prefix node of its longest match."""
    trie = _prefix_trie(iyp)
    links = []
    for node in iyp.store.nodes_with_label("IP"):
        try:
            match = trie.longest_match_ip(node.properties["ip"])
        except (InvalidAddressError, ValueError):
            continue
        if match is not None:
            links.append((node, "PART_OF", match[1], None))
    return iyp.add_links(links, REFINEMENT_REFERENCE)


def link_covering_prefixes(iyp: IYP) -> int:
    """Link every Prefix node to its closest covering Prefix node."""
    trie = _prefix_trie(iyp)
    links = []
    for node in iyp.store.nodes_with_label("Prefix"):
        try:
            match = trie.covering_prefix(node.properties["prefix"])
        except InvalidPrefixError:
            continue
        if match is not None and match[1].id != node.id:
            links.append((node, "PART_OF", match[1], None))
    return iyp.add_links(links, REFINEMENT_REFERENCE)


def link_urls_to_hostnames(iyp: IYP) -> int:
    """Link every URL node to the HostName it embeds."""
    count = 0
    for node in iyp.store.nodes_with_label("URL"):
        try:
            hostname = hostname_of_url(node.properties["url"])
        except InvalidURLError:
            continue
        host_node = iyp.get_node("HostName", name=hostname)
        iyp.add_link(node, "PART_OF", host_node, None, REFINEMENT_REFERENCE)
        count += 1
    return count


def link_name_hierarchy(iyp: IYP) -> int:
    """HostName -> registrable DomainName (PART_OF) and zone cuts (PARENT).

    Crawlers already create most HostName PART_OF links; this pass fills
    gaps (e.g. hostnames created by the URL step) and builds the
    DomainName PARENT chain up to the TLD.
    """
    count = 0
    for node in iyp.store.nodes_with_label("HostName"):
        name = node.properties.get("name")
        if not name:
            continue
        registrable = registered_domain(name)
        if registrable is None:
            continue
        existing = [
            rel
            for rel in iyp.store.relationships_of(node.id, rel_type="PART_OF")
        ]
        domain_node = iyp.get_node("DomainName", name=registrable)
        if not any(
            rel.other_end(node.id) == domain_node.id for rel in existing
        ):
            iyp.add_link(node, "PART_OF", domain_node, None, REFINEMENT_REFERENCE)
            count += 1
    # Zone cuts: registrable domain -> public suffix zones.
    for node in list(iyp.store.nodes_with_label("DomainName")):
        name = node.properties.get("name")
        if not name or "." not in name:
            continue
        suffix = public_suffix(normalize_name(name))
        if name == suffix:
            continue
        chain = [zone for zone in parent_zones(name) if len(zone) >= len(suffix)]
        child = node
        for zone in chain:
            parent_node = iyp.get_node("DomainName", name=zone)
            existing = iyp.store.relationships_between(
                parent_node.id, child.id, "PARENT"
            )
            if not existing:
                iyp.add_link(parent_node, "PARENT", child, None, REFINEMENT_REFERENCE)
                count += 1
            child = parent_node
    return count


def complete_country_codes(iyp: IYP) -> int:
    """Give every Country node alpha-3 code and common name properties."""
    count = 0
    for node in iyp.store.nodes_with_label("Country"):
        code = node.properties.get("country_code", "")
        if "alpha3" in node.properties and "name" in node.properties:
            continue
        try:
            info = lookup(code)
        except UnknownCountryError:
            continue
        iyp.store.update_node(node.id, {"alpha3": info.alpha3, "name": info.name})
        count += 1
    return count


#: Every refinement step, in order: (count name, function, the node
#: labels whose structure it reads, the properties it reads on them).
#: A step added here joins the incremental build's skip rule with it.
STEPS = (
    ("af_properties", add_address_families,
     {"IP", "Prefix"}, {"ip", "prefix", "af"}),
    ("ip_part_of_prefix", link_ips_to_prefixes, {"IP", "Prefix"}, {"ip", "prefix"}),
    ("prefix_part_of_prefix", link_covering_prefixes, {"Prefix"}, {"prefix"}),
    ("url_part_of_hostname", link_urls_to_hostnames, {"URL"}, {"url"}),
    ("hostname_hierarchy", link_name_hierarchy,
     {"HostName", "DomainName"}, {"name"}),
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
    """Run every refinement step; returns per-step link/property counts."""
    return {name: step(iyp) for name, step, _labels, _props in STEPS}
