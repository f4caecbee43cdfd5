"""Entity (node type) definitions — Table 6 of the paper.

One :class:`EntityDef` row says everything the rest of the code needs to
know about a node type: the property that identifies it, that
property's value kind and canonical form (Section 2.3), and the other
properties crawlers and the refinement pass write with their kinds.
Entities flagged ``loose`` (Facility, IXP, Organization) are identified
by name only loosely; exact identification goes through EXTERNAL_ID
relationships to ID nodes, exactly as in IYP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.nettypes import (
    canonical_country_code,
    canonical_ip,
    canonical_prefix,
    normalize_name,
    normalize_url,
    parse_asn,
)


def _as_is(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class EntityDef:
    """One node type of the ontology."""

    label: str
    key: str  # the identifying property
    description: str
    kind: str = "str"  # value kind of the key (see repro.ontology.properties)
    canonical: Callable[[Any], Any] = _as_is  # canonical form of a key value
    extras: Mapping[str, str] = field(default_factory=dict)  # other property -> kind
    loose: bool = False  # identity is approximate (see EXTERNAL_ID)

    @property
    def properties(self) -> dict[str, str]:
        """Every property written on this label -> its kind."""
        return {self.key: self.kind, **self.extras}


ENTITIES: dict[str, EntityDef] = {
    e.label: e
    for e in [
        EntityDef(
            "AS", "asn",
            "Autonomous System, identified by its ASN.",
            kind="int", canonical=parse_asn,
        ),
        EntityDef(
            "AtlasMeasurement", "id",
            "RIPE Atlas measurement, identified by id.",
            kind="int", extras={"type": "str", "af": "int"},
        ),
        EntityDef(
            "AtlasProbe", "id",
            "RIPE Atlas probe, identified by id.",
            kind="int", extras={"status": "str", "tags": "list"},
        ),
        EntityDef(
            "AuthoritativeNameServer", "name",
            "Authoritative DNS nameserver for a set of domain names.",
            canonical=normalize_name,
        ),
        EntityDef(
            "BGPCollector", "name",
            "A RIPE RIS or RouteViews BGP collector, identified by name.",
        ),
        EntityDef(
            "CaidaIXID", "id",
            "Unique IXP identifier from CAIDA's IXP dataset.",
            kind="int",
        ),
        EntityDef(
            "Country", "country_code",
            "An economy, identified by its two-letter (country_code) or three-letter "
            "(alpha3) code.",
            canonical=canonical_country_code, extras={"alpha3": "str", "name": "str"},
        ),
        EntityDef(
            "DomainName", "name",
            "A DNS zone / domain name that is not necessarily a resolvable FQDN (see "
            "HostName).",
            canonical=normalize_name,
        ),
        EntityDef(
            "Estimate", "name",
            "A report approximating a quantity, e.g. the World Bank population "
            "estimate.",
        ),
        EntityDef(
            "Facility", "name",
            "Co-location facility for IXPs and ASes.",
            loose=True,
        ),
        EntityDef(
            "HostName", "name",
            "A fully qualified domain name.",
            canonical=normalize_name,
        ),
        EntityDef(
            "IP", "ip",
            "An IPv4 or IPv6 address; the af property gives the address family.",
            canonical=canonical_ip, extras={"af": "int"},
        ),
        EntityDef(
            "IXP", "name",
            "An Internet Exchange Point, loosely identified by name (see "
            "EXTERNAL_ID).",
            loose=True,
        ),
        EntityDef(
            "Name", "name",
            "A name that can be associated to a network resource.",
        ),
        EntityDef(
            "OpaqueID", "id",
            "Opaque-id from RIR delegated files; resources sharing one are registered "
            "to the same holder.",
        ),
        EntityDef(
            "Organization", "name",
            "An organization, loosely identified by name.",
            loose=True,
        ),
        EntityDef(
            "PeeringdbFacID", "id",
            "Facility identifier assigned by PeeringDB.",
            kind="int",
        ),
        EntityDef(
            "PeeringdbIXID", "id",
            "IXP identifier assigned by PeeringDB.",
            kind="int",
        ),
        EntityDef(
            "PeeringdbNetID", "id",
            "AS identifier assigned by PeeringDB.",
            kind="int",
        ),
        EntityDef(
            "PeeringdbOrgID", "id",
            "Organization identifier assigned by PeeringDB.",
            kind="int",
        ),
        EntityDef(
            "Prefix", "prefix",
            "An IPv4 or IPv6 prefix; the af property gives the address family.",
            canonical=canonical_prefix, extras={"af": "int"},
        ),
        EntityDef(
            "Ranking", "name",
            "A ranking of Internet resources (e.g. Tranco); rank values live on RANK "
            "relationships.",
        ),
        EntityDef(
            "Tag", "label",
            "The output of a manual or automated classification.",
        ),
        EntityDef(
            "URL", "url",
            "The full URL of an Internet resource.",
            canonical=normalize_url,
        ),
    ]
}


def entity(label: str) -> EntityDef:
    """Return the entity definition for a label; raises KeyError."""
    return ENTITIES[label]


def node_identity(
    labels: Iterable[str], properties: Mapping[str, Any]
) -> tuple[str, Any] | None:
    """The ``(label, key value)`` identity of a node: the first sorted
    ontology label whose key property is present; None if there is none."""
    for label in sorted(labels):
        definition = ENTITIES.get(label)
        if definition is not None:
            value = properties.get(definition.key)
            if value is not None:
                return (label, value)
    return None
