"""Networking primitives shared across the IYP reproduction.

This package implements the low-level vocabulary of the knowledge graph:
canonical IP addresses and prefixes (the paper's canonical-form
deduplication rule, Section 2.3), longest-prefix-match lookups, autonomous
system numbers, ISO-3166 country codes, and DNS naming (hostnames, domain
names, zones, and public-suffix handling).
"""

from repro.nettypes.asn import (
    ASN_MAX,
    InvalidASNError,
    is_documentation_asn,
    is_private_asn,
    parse_asn,
)
from repro.nettypes.countries import (
    CountryInfo,
    UnknownCountryError,
    alpha2_to_alpha3,
    alpha3_to_alpha2,
    canonical_country_code,
    country_name,
    is_valid_alpha2,
    iter_countries,
)
from repro.nettypes.dns import (
    InvalidNameError,
    is_valid_hostname,
    normalize_name,
    parent_zones,
    public_suffix,
    registered_domain,
    tld,
)
from repro.nettypes.ip import (
    InvalidAddressError,
    InvalidPrefixError,
    address_family,
    canonical_ip,
    canonical_prefix,
    ip_in_prefix,
    prefix_af,
    prefix_contains,
    slash24_of,
)
from repro.nettypes.prefixtrie import PrefixTrie
from repro.nettypes.url import InvalidURLError, hostname_of_url, normalize_url

__all__ = [
    "ASN_MAX",
    "CountryInfo",
    "InvalidASNError",
    "InvalidAddressError",
    "InvalidNameError",
    "InvalidPrefixError",
    "InvalidURLError",
    "PrefixTrie",
    "UnknownCountryError",
    "address_family",
    "alpha2_to_alpha3",
    "alpha3_to_alpha2",
    "canonical_country_code",
    "canonical_ip",
    "canonical_prefix",
    "country_name",
    "hostname_of_url",
    "ip_in_prefix",
    "is_documentation_asn",
    "is_private_asn",
    "is_valid_alpha2",
    "is_valid_hostname",
    "iter_countries",
    "normalize_name",
    "normalize_url",
    "parent_zones",
    "parse_asn",
    "prefix_af",
    "prefix_contains",
    "public_suffix",
    "registered_domain",
    "slash24_of",
    "tld",
]
