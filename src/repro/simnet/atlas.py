"""RIPE Atlas probes and measurements.

Probes sit in eyeball ASes with an assigned IP inside one of the AS's
announced prefixes; measurements target the hostnames and addresses of
popular domains — the TARGET relationships of the Figure 4 sneak peek.
"""

from __future__ import annotations

import random

from repro.simnet.addressing import host_ip, networks_by_origin
from repro.simnet.world import AtlasMeasurementInfo, AtlasProbeInfo, World

_PROBE_TAGS = ["system-ipv4-works", "home", "datacentre", "dual-stack", "nat"]


def build_atlas(world: World, rng: random.Random) -> None:
    """Create probes and measurements."""
    config = world.config
    n_probes = config.scaled(config.n_atlas_probes)
    n_measurements = config.scaled(config.n_atlas_measurements)
    asns = sorted(world.ases)
    probe_asns = [
        asn for asn in asns if world.ases[asn].category in ("ISP", "Hosting", "Academic")
    ] or asns
    networks = networks_by_origin(world)
    for probe_id in range(1, n_probes + 1):
        asn = rng.choice(probe_asns)
        v4 = networks.get((asn, 4), [])
        if not v4:
            continue
        world.atlas_probes[probe_id] = AtlasProbeInfo(
            probe_id=probe_id,
            asn=asn,
            country=world.ases[asn].country,
            ip=host_ip(rng, rng.choice(v4)),
            status="Connected" if rng.random() < 0.85 else "Disconnected",
            tags=rng.sample(_PROBE_TAGS, rng.randint(1, 3)),
        )
    probe_ids = sorted(world.atlas_probes)
    if not probe_ids:
        return
    top = world.tranco[: max(10, len(world.tranco) // 20)]
    for measurement_id in range(1, n_measurements + 1):
        domain = world.domains[rng.choice(top)]
        target_is_ip = rng.random() < 0.4 and bool(domain.ips)
        target = rng.choice(domain.ips) if target_is_ip else domain.hostname
        world.atlas_measurements[10_000_000 + measurement_id] = AtlasMeasurementInfo(
            measurement_id=10_000_000 + measurement_id,
            kind=rng.choice(["ping", "ping", "traceroute"]),
            target=target,
            target_is_ip=target_is_ip,
            af=4,
            probe_ids=sorted(
                rng.sample(probe_ids, min(len(probe_ids), rng.randint(3, 15)))
            ),
        )
