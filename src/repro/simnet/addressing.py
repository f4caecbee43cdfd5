"""Address allocation: RIR blocks, announced prefixes, delegated files.

Every AS receives one IPv4 allocation block (a /16 out of a synthetic
global pool) and, with some probability, an IPv6 /32.  Announced
prefixes are subnets of the allocations, so the refinement pass's
covering-prefix links have real structure to find.  Allocation records
carry opaque IDs, RIR, and country — the NRO delegated files the SPoF
study reads country codes from.
"""

from __future__ import annotations

import ipaddress
import random

from repro.simnet.world import PrefixInfo, World

RIR_BY_REGION = {
    "Americas": "arin",
    "Europe": "ripencc",
    "Asia": "apnic",
    "Oceania": "apnic",
    "Africa": "afrinic",
}
_LACNIC_COUNTRIES = {"BR", "AR", "CL", "CO", "MX"}


def rir_of(country: str) -> str:
    """Map a country to its RIR (approximation adequate for the study)."""
    from repro.nettypes.countries import lookup

    if country in _LACNIC_COUNTRIES:
        return "lacnic"
    try:
        region = lookup(country).region
    except KeyError:
        return "ripencc"
    return RIR_BY_REGION.get(region, "ripencc")


def build_addressing(world: World, rng: random.Random) -> None:
    """Allocate blocks and announced prefixes for every AS."""
    config = world.config
    v4_block = 0  # index over sequential /16s starting at 1.0.0.0
    v6_block = 0  # index over sequential /32s under 2a00::/12-ish pool
    for asn, info in sorted(world.ases.items()):
        info.rir = rir_of(info.country)
        info.opaque_id = f"{info.rir}-{info.org_name.lower().replace(' ', '-')[:24]}"
        # IPv4 allocation: one /16 per AS.
        base = ipaddress.ip_address("1.0.0.0") + v4_block * 65536
        v4_block += 1
        allocation4 = f"{base}/16"
        world.allocations.append((allocation4, info.opaque_id, info.rir, info.country))
        n_prefixes = max(1, int(rng.expovariate(1.0 / config.mean_prefixes_per_as)))
        n_prefixes = min(n_prefixes, 12)
        # Infrastructure networks announce many prefixes; this also keeps
        # their aggregate RPKI coverage close to the per-AS propensity
        # instead of hanging on a single Bernoulli roll.
        if info.category in ("Content Delivery Network", "Cloud", "DNS Provider",
                             "DDoS Mitigation", "Tier1", "Hosting"):
            n_prefixes = max(n_prefixes, 6)
        n_v6 = sum(1 for _ in range(n_prefixes) if rng.random() < config.ipv6_prefix_fraction)
        n_v4 = max(1, n_prefixes - n_v6)
        used_subnets: set[str] = set()
        for _ in range(n_v4):
            length = rng.choice([20, 22, 24, 24])
            subnet_index = rng.randrange(2 ** (length - 16))
            offset = subnet_index * 2 ** (32 - length)
            prefix = f"{base + offset}/{length}"
            if prefix in used_subnets or prefix in world.prefixes:
                continue
            used_subnets.add(prefix)
            world.prefixes[prefix] = PrefixInfo(
                prefix=prefix,
                af=4,
                origins=[asn],
                allocated_block=allocation4,
                opaque_id=info.opaque_id,
                rir=info.rir,
                country=info.country,
            )
        if n_v6:
            base6 = ipaddress.ip_address("2a00::") + (v6_block << 96)
            v6_block += 1
            allocation6 = f"{base6}/32"
            world.allocations.append(
                (allocation6, info.opaque_id, info.rir, info.country)
            )
            for _ in range(n_v6):
                length = rng.choice([32, 40, 48, 48])
                if length == 32:
                    prefix = allocation6
                else:
                    subnet_index = rng.randrange(2 ** (length - 32))
                    offset = subnet_index * 2 ** (128 - length)
                    prefix = f"{base6 + offset}/{length}"
                if prefix in used_subnets or prefix in world.prefixes:
                    continue
                used_subnets.add(prefix)
                world.prefixes[prefix] = PrefixInfo(
                    prefix=prefix,
                    af=6,
                    origins=[asn],
                    allocated_block=allocation6,
                    opaque_id=info.opaque_id,
                    rir=info.rir,
                    country=info.country,
                )


#: A parsed prefix.
Network = ipaddress.IPv4Network | ipaddress.IPv6Network
#: Parsed prefixes by (first origin AS, address family).
Networks = dict[tuple[int, int], list[Network]]


def networks_by_origin(world: World) -> Networks:
    """Every prefix parsed once, keyed by (first origin AS, address
    family), in world order: the order callers draw from."""
    networks: Networks = {}
    for info in world.prefixes.values():
        networks.setdefault((info.origins[0], info.af), []).append(
            ipaddress.ip_network(info.prefix)
        )
    return networks


def host_ip(rng: random.Random, network: Network, index: int | None = None) -> str:
    """Return one host address inside a prefix.

    With ``index`` the choice is deterministic (used for nameserver IPs
    that several datasets must agree on); otherwise random.
    """
    size = network.num_addresses
    offset = (index if index is not None else rng.randrange(1, max(2, min(size - 1, 4096))))
    offset = 1 + (offset % max(1, min(size - 2, 65000)))
    return str(network.network_address + offset)
