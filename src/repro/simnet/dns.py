"""DNS and web hosting: domains, rankings, nameservers, consolidation.

This module encodes the phenomena the paper's evaluation measures:

- a ranked domain list (Tranco-like) with ~49% of names being
  .com/.net/.org SLDs (Table 3 "Coverage");
- rank-dependent hosting: the top of the list is CDN-heavy, the middle
  long-tailed, the bottom dominated by shared hosting (drives the
  Table 2 RPKI cohort ordering);
- managed-DNS consolidation: a Zipf market over providers, where
  "shared_set" providers give all customers the same NS set (large
  exact-set groups) and "per_customer" providers hand out pairs from a
  big pool concentrated in a couple of /24s (small exact groups, huge
  /24 groups — the Table 4 contrast);
- provider outsourcing chains ending at US-registered infrastructure
  operators, and ccTLD registries operated from their own countries
  (the Figure 5/6 SPoF shapes).
"""

from __future__ import annotations

import random

from repro.simnet.addressing import Networks, host_ip, networks_by_origin
from repro.simnet.topology import COUNTRY_WEIGHTS, weighted_choice
from repro.simnet.world import DNSProvider, DomainInfo, NameServerInfo, TLDInfo, World

GTLDS = [
    ("com", 0.78), ("net", 0.12), ("org", 0.10),
]
OTHER_TLDS = [
    ("ru", 0.14), ("cn", 0.09), ("uk", 0.09), ("de", 0.08), ("io", 0.07),
    ("jp", 0.06), ("br", 0.05), ("fr", 0.05), ("nl", 0.04), ("in", 0.04),
    ("info", 0.04), ("xyz", 0.04), ("online", 0.03), ("dev", 0.03),
    ("app", 0.03), ("pl", 0.03), ("it", 0.02), ("es", 0.02), ("au", 0.02),
    ("ca", 0.02), ("us", 0.01),
]
_CC_OPERATOR_COUNTRY = {
    "uk": "GB", "ru": "RU", "cn": "CN", "de": "DE", "jp": "JP", "br": "BR",
    "fr": "FR", "nl": "NL", "in": "IN", "pl": "PL", "it": "IT", "es": "ES",
    "au": "AU", "ca": "CA", "us": "US",
}

_WORDS = [
    "alpha", "breeze", "crest", "dawn", "ember", "flux", "grove", "haven",
    "iris", "jade", "krait", "lumen", "mango", "noble", "onyx", "pique",
    "quill", "ridge", "sable", "tidal", "umber", "vivid", "willow", "xenon",
    "yonder", "zephyr", "acorn", "bolt", "cedar", "drift",
]


def build_dns(world: World, rng: random.Random) -> None:
    """Populate TLDs, providers, nameservers, domains, and rankings."""
    networks = networks_by_origin(world)
    _build_tlds(world, networks, rng)
    _build_providers(world, networks, rng)
    _build_domains(world, networks, rng)
    _build_umbrella(world, rng)
    _build_cloudflare_queries(world, rng)


# ---------------------------------------------------------------------------
# TLD registries (hierarchical SPoF)
# ---------------------------------------------------------------------------


def _ases_by_category(world: World, *categories: str) -> list[int]:
    return sorted(
        asn for asn, info in world.ases.items() if info.category in categories
    )


def _ases_by_country_pref(world: World, pool: list[int], country: str,
                          rng: random.Random) -> int:
    """Prefer an AS from ``pool`` in ``country``; fall back to any AS in
    that country (a ccTLD registry is in its country even when no
    dedicated DNS-provider AS exists there), then to the pool."""
    local = [asn for asn in pool if world.ases[asn].country == country]
    if local:
        return rng.choice(local)
    anywhere = sorted(
        asn for asn, info in world.ases.items() if info.country == country
    )
    return rng.choice(anywhere) if anywhere else rng.choice(pool)


def _ns_for_zone(
    world: World,
    networks: Networks,
    rng: random.Random,
    zone: str,
    asn: int,
    count: int,
    provider: str,
) -> list[str]:
    """Create ``count`` nameserver hostnames for a zone, hosted in ``asn``."""
    names = []
    v4_prefixes = networks.get((asn, 4), [])
    for index in range(count):
        name = f"ns{index + 1}.{zone}"
        if name not in world.nameservers:
            prefix = v4_prefixes[index % len(v4_prefixes)] if v4_prefixes else None
            ips = [host_ip(rng, prefix, index=index + 7)] if prefix else []
            world.nameservers[name] = NameServerInfo(
                name=name, ips=ips, asn=asn, provider=provider
            )
        names.append(name)
    return names


def _build_tlds(world: World, networks: Networks, rng: random.Random) -> None:
    dns_pool = _ases_by_category(world, "DNS Provider", "Cloud", "Tier1")
    if not dns_pool:
        dns_pool = sorted(world.ases)
    # gTLD registries are US-operated (the .com/.net/.org monoculture).
    gtld_asn = _ases_by_country_pref(world, dns_pool, "US", rng)
    for tld, _ in GTLDS + [(t, w) for t, w in OTHER_TLDS if t not in _CC_OPERATOR_COUNTRY]:
        operator = world.ases[gtld_asn]
        zone_ns = _ns_for_zone(
            world, networks, rng, f"nic.{tld}", gtld_asn, 2, "registry"
        )
        world.tlds[tld] = TLDInfo(
            tld=tld,
            operator_org=operator.org_name,
            country=operator.country,
            nameservers=zone_ns,
        )
    # ccTLD registries are operated from their own country.
    for tld, country in _CC_OPERATOR_COUNTRY.items():
        asn = _ases_by_country_pref(world, dns_pool, country, rng)
        operator = world.ases[asn]
        zone_ns = _ns_for_zone(world, networks, rng, f"nic.{tld}", asn, 2, "registry")
        world.tlds[tld] = TLDInfo(
            tld=tld,
            operator_org=operator.org_name,
            country=operator.country,
            nameservers=zone_ns,
        )


# ---------------------------------------------------------------------------
# Managed-DNS providers
# ---------------------------------------------------------------------------


def _build_providers(world: World, networks: Networks, rng: random.Random) -> None:
    config = world.config
    n_providers = max(6, config.scaled(config.n_dns_providers))
    provider_pool = _ases_by_category(
        world, "DNS Provider", "Cloud", "Content Delivery Network", "Hosting"
    )
    if len(provider_pool) < n_providers:
        provider_pool = provider_pool + sorted(world.ases)[: n_providers * 2]
    chosen = rng.sample(provider_pool, min(n_providers, len(provider_pool)))
    # The DNS market leaders and the backbone operators (last two) are
    # largely US companies, as in the real market -- this anchors the
    # Figure 5 finding that both direct and third-party dependency
    # concentrate on the US while ccTLD countries stay hierarchical.
    us_pool = [
        asn
        for asn in provider_pool
        if world.ases[asn].country == "US" and asn not in chosen
    ]
    biased = list(range(min(6, len(chosen)))) + [len(chosen) - 2, len(chosen) - 1]
    for position in biased:
        if world.ases[chosen[position]].country != "US" and us_pool:
            chosen[position] = us_pool.pop()
    # The last two providers are "infrastructure backbones": almost no
    # direct customers but the outsourcing target of everyone else
    # (the Akamai-shaped third-party column of Figure 6).
    keys: list[str] = []
    for index, asn in enumerate(chosen):
        word = _WORDS[index % len(_WORDS)]
        key = f"dns-{word}{index}"
        # Roughly a quarter of the provider *market share* sits outside
        # .com/.net/.org so the aggregate in-zone-glue fraction lands
        # near the Table 3 value (76%).  Deterministic by index: the
        # 2nd, 6th, 10th... providers use non-in-zone TLDs.
        if index % 4 == 1:
            tld = rng.choice(["io", "cloud", "dev"])
        else:
            tld = "com" if rng.random() < 0.85 else "net"
        domain = f"{word}dns{index}.{tld}"
        backbone = index >= len(chosen) - 2
        mode = "per_customer" if (index % 3 == 0 and not backbone) else "shared_set"
        provider = DNSProvider(
            name=key, domain=domain, asn=asn, mode=mode,
        )
        pool_size = 48 if mode == "per_customer" else rng.randint(4, 8)
        provider.ns_pool = _make_provider_pool(
            world, networks, rng, provider, pool_size
        )
        keys.append(key)
        world.dns_providers[key] = provider
    # Outsourcing DAG: most providers host their own domain on another,
    # bigger provider or on a backbone; backbones self-host.
    backbone_keys = keys[-2:]
    for index, key in enumerate(keys):
        provider = world.dns_providers[key]
        if key in backbone_keys:
            provider.outsourced_to = None
            continue
        roll = rng.random()
        if index == 0 or roll >= 0.80:
            # The market leader (and a fifth of the rest) outsources to
            # a backbone -- the strongest third-party concentration.
            provider.outsourced_to = rng.choice(backbone_keys)
        elif roll < 0.25:
            provider.outsourced_to = None  # self-hosted control plane
        elif index > 0 and rng.random() < 0.4:
            provider.outsourced_to = keys[rng.randrange(0, index)]
        else:
            provider.outsourced_to = rng.choice(backbone_keys)
    # Every provider's own domain needs NS records for the SPoF chain.
    for key in keys:
        provider = world.dns_providers[key]
        if provider.outsourced_to is None:
            _ns_for_zone(world, networks, rng, provider.domain, provider.asn, 2, key)


def _make_provider_pool(
    world: World,
    networks: Networks,
    rng: random.Random,
    provider: DNSProvider,
    pool_size: int,
) -> list[str]:
    """Provider nameserver hostnames, concentrated in a couple of /24s."""
    config = world.config
    v4_prefixes = networks.get((provider.asn, 4), [])
    if not v4_prefixes:
        raise RuntimeError(f"provider AS {provider.asn} has no IPv4 prefix")
    n_slash24 = max(1, config.n_nameserver_slash24s_per_provider)
    v6_prefixes = networks.get((provider.asn, 6), [])
    pool = []
    for index in range(pool_size):
        name = f"ns{index + 1:02d}.{provider.domain}"
        prefix = v4_prefixes[index % min(n_slash24, len(v4_prefixes))]
        # Deterministic host offsets keep all pool IPs in the same /24
        # of their prefix: offset < 200 stays inside the first /24.
        ips = [host_ip(rng, prefix, index=10 + index % 180)]
        # Dual-stack glue for a good share of provider nameservers, so
        # the af:4 filter in the paper's Listing 5 actually filters.
        if v6_prefixes and index % 3 != 0:
            ips.append(host_ip(rng, v6_prefixes[index % len(v6_prefixes)],
                               index=10 + index))
        world.nameservers[name] = NameServerInfo(
            name=name, ips=ips, asn=provider.asn, provider=provider.name
        )
        pool.append(name)
    return pool


# ---------------------------------------------------------------------------
# The ranked domain list
# ---------------------------------------------------------------------------


def _zipf_pick(rng: random.Random, items: list, exponent: float = 1.1):
    """Heavy-tailed choice: item 0 is the most likely."""
    weights = [1.0 / (index + 1) ** exponent for index in range(len(items))]
    total = sum(weights)
    point = rng.random() * total
    for item, weight in zip(items, weights, strict=True):
        point -= weight
        if point <= 0:
            return item
    return items[-1]


def _build_domains(world: World, networks: Networks, rng: random.Random) -> None:
    config = world.config
    n_domains = config.n_domains
    cdn_ases = _ases_by_category(world, "Content Delivery Network")
    hosting_ases = _ases_by_category(world, "Hosting")
    cloud_ases = _ases_by_category(world, "Cloud")
    enterprise_ases = _ases_by_category(world, "Enterprise", "Academic", "Government")
    isp_ases = _ases_by_category(world, "ISP")
    provider_keys = list(world.dns_providers)
    # Direct-market provider order excludes the two backbones (tiny
    # direct share) -- they are appended last so Zipf barely picks them.
    direct_order = provider_keys[:-2] + provider_keys[-2:]

    top_band = int(n_domains * config.top100k_equivalent)
    bottom_band = n_domains - top_band
    used_names: set[str] = set()

    for rank in range(1, n_domains + 1):
        name = _domain_name(rng, used_names)
        if rng.random() < config.com_net_org_fraction:
            tld = weighted_choice(rng, GTLDS)
        else:
            tld = weighted_choice(rng, OTHER_TLDS)
        domain_name = f"{name}.{tld}"
        # Hosting cohort by rank band.
        if rank <= top_band:
            # Big brands self-host on enterprise/academic infrastructure
            # when not on a CDN -- the low-RPKI tail that makes the top
            # band's *prefix-level* coverage lag the bottom band's.
            cdn_probability = config.cdn_hosted_top
            pool_mix = [(enterprise_ases, 0.65), (cloud_ases, 0.2), (hosting_ases, 0.15)]
        elif rank > bottom_band:
            cdn_probability = config.cdn_hosted_bottom
            pool_mix = [(hosting_ases, 0.75), (cloud_ases, 0.15), (isp_ases, 0.1)]
        else:
            cdn_probability = config.cdn_hosted_middle
            pool_mix = [
                (hosting_ases, 0.35), (isp_ases, 0.25), (enterprise_ases, 0.25),
                (cloud_ases, 0.15),
            ]
        cdn_hosted = bool(cdn_ases) and rng.random() < cdn_probability
        if cdn_hosted:
            hosting_asn = _zipf_pick(rng, cdn_ases)
        else:
            pool = _pick_pool(rng, pool_mix)
            hosting_asn = _zipf_pick(rng, pool, exponent=0.9)
        ips = _host_ips(networks, rng, hosting_asn, rank)
        nameservers, provider_key, self_hosted = _assign_nameservers(
            world, networks, rng, domain_name, hosting_asn, direct_order
        )
        has_glue = rng.random() >= config.discarded_fraction
        in_zone_glue = _in_zone_glue(world, nameservers, self_hosted, tld)
        registered_country = _registration_country(rng, tld)
        cname_target = None
        if cdn_hosted and rng.random() < config.cname_fraction:
            cdn_provider = world.ases[hosting_asn]
            cname_target = (
                f"{name}.edge.{cdn_provider.name.lower().replace('-', '')}.com"
            )
        world.domains[domain_name] = DomainInfo(
            name=domain_name,
            tld=tld,
            rank=rank,
            umbrella_rank=None,
            hostname=domain_name,
            ips=ips,
            hosting_asn=hosting_asn,
            cdn_hosted=cdn_hosted,
            nameservers=nameservers,
            ns_provider=provider_key,
            has_glue=has_glue,
            in_zone_glue=in_zone_glue,
            cname_target=cname_target,
            registered_country=registered_country,
        )
        world.tranco.append(domain_name)


def _domain_name(rng: random.Random, used: set[str]) -> str:
    while True:
        name = rng.choice(_WORDS) + rng.choice(_WORDS)
        if rng.random() < 0.5:
            name += str(rng.randrange(100))
        if name not in used:
            used.add(name)
            return name


def _pick_pool(rng: random.Random, mix: list[tuple[list[int], float]]) -> list[int]:
    pools = [(pool, weight) for pool, weight in mix if pool]
    point = rng.random() * sum(weight for _, weight in pools)
    for pool, weight in pools:
        point -= weight
        if point <= 0:
            return pool
    return pools[-1][0]


def _host_ips(networks: Networks, rng: random.Random, asn: int, rank: int) -> list[str]:
    v4, v6 = networks.get((asn, 4), []), networks.get((asn, 6), [])
    ips = [host_ip(rng, rng.choice(v4))] if v4 else []
    if rank <= 1000 and v4 and rng.random() < 0.4:
        ips.append(host_ip(rng, rng.choice(v4)))
    if v6 and rng.random() < 0.35:
        ips.append(host_ip(rng, rng.choice(v6)))
    return ips


def _assign_nameservers(
    world: World,
    networks: Networks,
    rng: random.Random,
    domain_name: str,
    hosting_asn: int,
    direct_order: list[str],
) -> tuple[list[str], str, bool]:
    config = world.config
    count = _ns_count(rng, config)
    if rng.random() < config.self_hosted_dns_fraction:
        names = _ns_for_zone(
            world, networks, rng, domain_name, hosting_asn, count,
            f"self:{domain_name}",
        )
        return names, f"self:{domain_name}", True
    provider = world.dns_providers[_zipf_pick(rng, direct_order, exponent=1.05)]
    if provider.mode == "shared_set":
        names = provider.ns_pool[: min(count, len(provider.ns_pool))]
    else:
        names = rng.sample(provider.ns_pool, min(count, len(provider.ns_pool)))
    return list(names), provider.name, False


def _ns_count(rng: random.Random, config) -> int:
    roll = rng.random()
    if roll < config.ns_not_meet:
        return 1
    if roll < config.ns_not_meet + config.ns_meet:
        return 2
    return rng.choice([3, 3, 4, 4, 5, 6])


def _in_zone_glue(
    world: World, nameservers: list[str], self_hosted: bool, tld: str
) -> bool:
    """Glue is in-zone when the NS names live under .com/.net/.org."""
    in_zone_tlds = {"com", "net", "org"}
    if self_hosted:
        return tld in in_zone_tlds
    return all(ns.rsplit(".", 1)[-1] in in_zone_tlds for ns in nameservers)


def _registration_country(rng: random.Random, tld: str) -> str:
    cc = _CC_OPERATOR_COUNTRY.get(tld)
    if cc is not None and rng.random() < 0.6:
        return cc
    return weighted_choice(rng, COUNTRY_WEIGHTS)


# ---------------------------------------------------------------------------
# Other rankings and query data
# ---------------------------------------------------------------------------


def _build_umbrella(world: World, rng: random.Random) -> None:
    config = world.config
    n_overlap = int(len(world.tranco) * config.umbrella_overlap)
    sample = rng.sample(world.tranco, n_overlap)
    rng.shuffle(sample)
    world.umbrella = sample
    for position, domain in enumerate(sample, start=1):
        world.domains[domain].umbrella_rank = position


def _build_cloudflare_queries(world: World, rng: random.Random) -> None:
    config = world.config
    eyeballs = [
        asn
        for asn, info in world.ases.items()
        if "Eyeball" in info.extra_tags or info.category == "ISP"
    ]
    if not eyeballs:
        return
    eyeballs.sort()
    n_top = int(len(world.tranco) * config.cloudflare_top_fraction)
    for domain_name in world.tranco[:n_top]:
        count = rng.randint(3, 6)
        world.domains[domain_name].queried_from_asns = [
            _zipf_pick(rng, eyeballs, exponent=0.8) for _ in range(count)
        ]


# ---------------------------------------------------------------------------
# The DNS dependency graph (zone -> NS), consumed by the SPoF study
# ---------------------------------------------------------------------------


def zone_nameservers(world: World) -> dict[str, list[str]]:
    """Return every zone's NS set: ranked domains, provider control
    domains, and TLDs.  This is the synthetic equivalent of the
    OpenINTEL DNS Dependency Graph dataset."""
    zones: dict[str, list[str]] = {}
    for domain in world.domains.values():
        zones[domain.name] = list(domain.nameservers)
    for provider in world.dns_providers.values():
        if provider.domain in zones:
            continue
        if provider.outsourced_to is None:
            # Self-hosted: _build_providers created ns1/ns2.<domain>.
            own = [
                name
                for name in (f"ns1.{provider.domain}", f"ns2.{provider.domain}")
                if name in world.nameservers
            ]
            zones[provider.domain] = own or provider.ns_pool[:2]
        else:
            target = world.dns_providers[provider.outsourced_to]
            zones[provider.domain] = target.ns_pool[:2]
    for tld_info in world.tlds.values():
        zones[tld_info.tld] = list(tld_info.nameservers)
    return zones
