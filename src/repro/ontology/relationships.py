"""Relationship type definitions — Table 7 of the paper.

One :class:`RelationshipDef` row carries a type's permitted (start
label, end label) pairs — ``"*"`` on a side means unconstrained — and
its type-specific properties with their kinds.  Directions follow IYP's
modeling: e.g. ``(:AS)-[:ORIGINATE]->(:Prefix)`` and
``(:DomainName)-[:MANAGED_BY]->(:AuthoritativeNameServer)``.

Every relationship additionally carries the provenance properties of
Section 2.2, defined here once (:data:`PROVENANCE`); the dataset name
among them is part of a relationship's identity, so the same link
imported from two datasets stays two relationships.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Mapping

#: The provenance property naming the dataset a link was imported from.
DATASET_PROPERTY = "reference_name"


#: The provenance stamped on every imported link (paper Section 2.2), one
#: row per property: (name, the repro.core.Reference field it carries,
#: required).  Required properties are stamped even when empty and their
#: absence is a schema violation; the others only when the dataset has them.
PROVENANCE: tuple[tuple[str, str, bool], ...] = (
    ("reference_org", "organization", True),
    (DATASET_PROPERTY, "dataset_name", True),
    ("reference_url_info", "url_info", False),
    ("reference_url_data", "url_data", False),
    ("reference_time_modification", "time_modification", False),
    ("reference_time_fetch", "time_fetch", False),
)

REFERENCE_PROPERTIES: tuple[str, ...] = tuple(name for name, _, _ in PROVENANCE)


@dataclass(frozen=True)
class RelationshipDef:
    """One relationship type of the ontology."""

    type: str
    endpoints: tuple[tuple[str, str], ...]
    description: str
    extras: Mapping[str, str] = field(default_factory=dict)  # property -> kind

    @property
    def properties(self) -> dict[str, str]:
        """Every property written on this type -> its kind."""
        return {**dict.fromkeys(REFERENCE_PROPERTIES, "str"), **self.extras}

    def permits(
        self, start_labels: Collection[str], end_labels: Collection[str]
    ) -> bool:
        """Is ``(start)-[:type]->(end)`` a permitted combination?

        Directed: stores hold links in one orientation but queries read
        them in either, so callers that accept both ask twice.
        """
        for start, end in self.endpoints:
            if (start == "*" or start in start_labels) and (
                end == "*" or end in end_labels
            ):
                return True
        return False


RELATIONSHIPS: dict[str, RelationshipDef] = {
    r.type: r
    for r in [
        RelationshipDef(
            "ALIAS_OF",
            (("HostName", "HostName"),),
            "Equivalent to a DNS CNAME record; relates two HostNames.",
        ),
        RelationshipDef(
            "ASSIGNED",
            (("AS", "OpaqueID"), ("Prefix", "OpaqueID"), ("AtlasProbe", "IP")),
            "RIR allocation of a resource to a holder, or the IP assigned to an Atlas "
            "probe.",
            {"registry": "str"},
        ),
        RelationshipDef(
            "AVAILABLE",
            (("AS", "OpaqueID"), ("Prefix", "OpaqueID")),
            "Resource is unallocated and available at the related RIR.",
        ),
        RelationshipDef(
            "CATEGORIZED",
            (("AS", "Tag"), ("Prefix", "Tag"), ("URL", "Tag")),
            "Resource classified according to the Tag.",
            {"ratio": "float"},
        ),
        RelationshipDef(
            "COUNTRY",
            (("*", "Country"),),
            "Relates any node to a country (geo-location or registration).",
        ),
        RelationshipDef(
            "DEPENDS_ON",
            (("AS", "AS"), ("Prefix", "AS"), ("Country", "AS")),
            "Reachability of the AS/Prefix (or a country's networks as a whole) "
            "depends on a certain AS.",
            {"hege": "float"},
        ),
        RelationshipDef(
            "EXTERNAL_ID",
            (
                ("AS", "PeeringdbNetID"), ("IXP", "PeeringdbIXID"),
                ("IXP", "CaidaIXID"), ("Facility", "PeeringdbFacID"),
                ("Organization", "PeeringdbOrgID"),
            ),
            "Relates a node to an identifier used by an organization.",
        ),
        RelationshipDef(
            "LOCATED_IN",
            (
                ("IXP", "Facility"), ("AS", "Facility"), ("AtlasProbe", "AS"),
                ("IP", "Facility"),
            ),
            "Geographical or topological location of a resource.",
        ),
        RelationshipDef(
            "MANAGED_BY",
            (
                ("AS", "Organization"), ("DomainName", "AuthoritativeNameServer"),
                ("IXP", "Organization"), ("Prefix", "Organization"),
                ("Prefix", "AuthoritativeNameServer"),
            ),
            "Entity in charge of a network resource (an AS by its organization, a "
            "DomainName or a reverse zone by its authoritative nameserver).",
            {"glue": "bool", "in_zone": "bool"},
        ),
        RelationshipDef(
            "MEMBER_OF",
            (("AS", "IXP"), ("AS", "Organization")),
            "Membership of an organization, e.g. an AS is member of an IXP.",
            {"speed": "int", "policy": "str"},
        ),
        RelationshipDef(
            "NAME",
            (("*", "Name"),),
            "Relates an entity to its usual or registered name.",
        ),
        RelationshipDef(
            "ORIGINATE",
            (("AS", "Prefix"),),
            "The prefix is seen originated by that AS in BGP.",
            {"count": "int", "as_path": "str"},
        ),
        RelationshipDef(
            "PARENT",
            (("DomainName", "DomainName"),),
            "Zone cut between a parent zone and a more specific zone.",
        ),
        RelationshipDef(
            "PART_OF",
            (
                ("IP", "Prefix"), ("Prefix", "Prefix"), ("HostName", "DomainName"),
                ("DomainName", "DomainName"), ("AtlasProbe", "AtlasMeasurement"),
                ("URL", "HostName"),
            ),
            "One entity is a part of another (IP in Prefix, HostName in DomainName, "
            "covered Prefix in covering Prefix, participating probe in Atlas "
            "measurement).",
        ),
        RelationshipDef(
            "PEERS_WITH",
            (("AS", "AS"), ("AS", "BGPCollector")),
            "BGP connection between two ASes, or an AS and a collector.",
            {"rel": "int"},
        ),
        RelationshipDef(
            "POPULATION",
            (("AS", "Country"), ("Country", "Estimate"), ("AS", "Estimate")),
            "Fraction of a country's Internet population hosted by an AS, or a "
            "country's estimated population.",
            {"percent": "float", "users": "int", "value": "int"},
        ),
        RelationshipDef(
            "QUERIED_FROM",
            (("DomainName", "AS"), ("DomainName", "Country")),
            "The AS/Country is among the top querying the DomainName (Cloudflare "
            "Radar).",
            {"value": "float"},
        ),
        RelationshipDef(
            "RANK",
            (("*", "Ranking"),),
            "The resource appears in the Ranking; the rank property gives the "
            "position.",
            {"rank": "int"},
        ),
        RelationshipDef(
            "RESERVED",
            (("AS", "OpaqueID"), ("Prefix", "OpaqueID")),
            "Resource reserved for a certain purpose by RIRs or IANA.",
        ),
        RelationshipDef(
            "RESOLVES_TO",
            (("HostName", "IP"), ("AuthoritativeNameServer", "IP")),
            "A DNS resolution of the HostName yielded this IP address.",
        ),
        RelationshipDef(
            "ROUTE_ORIGIN_AUTHORIZATION",
            (("AS", "Prefix"),),
            "The AS is authorized by RPKI to originate the Prefix.",
            {"maxLength": "int", "ta": "str"},
        ),
        RelationshipDef(
            "SIBLING_OF",
            (("AS", "AS"), ("Organization", "Organization")),
            "The two resources represent the same entity.",
        ),
        RelationshipDef(
            "TARGET",
            (
                ("AtlasMeasurement", "IP"), ("AtlasMeasurement", "HostName"),
                ("AtlasMeasurement", "AS"),
            ),
            "An Atlas measurement probes that resource.",
        ),
        RelationshipDef(
            "WEBSITE",
            (
                ("URL", "Organization"), ("URL", "Facility"), ("URL", "IXP"),
                ("URL", "AS"),
            ),
            "A common website for the resource.",
        ),
    ]
}


def relationship(rel_type: str) -> RelationshipDef:
    """Return the relationship definition for a type; raises KeyError."""
    return RELATIONSHIPS[rel_type]


def rel_identity(
    start: Any, rel_type: str, end: Any, properties: Mapping[str, Any]
) -> tuple[Any, str, Any, str]:
    """The identity of a relationship between two identified endpoints:
    ``(start, type, end, dataset name)``."""
    return (start, rel_type, end, str(properties.get(DATASET_PROPERTY, "")))
