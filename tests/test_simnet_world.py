"""Structural invariants of the synthetic Internet."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.nettypes import ip_in_prefix, prefix_contains
from repro.simnet import WorldConfig, build_world
from repro.simnet.dns import zone_nameservers


class TestDeterminism:
    def test_same_seed_same_world(self):
        config = WorldConfig.small(seed=123)
        first = build_world(config)
        second = build_world(WorldConfig.small(seed=123))
        assert list(first.ases) == list(second.ases)
        assert list(first.prefixes) == list(second.prefixes)
        assert first.tranco == second.tranco

    def test_different_seed_differs(self):
        first = build_world(WorldConfig.small(seed=1))
        second = build_world(WorldConfig.small(seed=2))
        assert first.tranco != second.tranco


#: sha256 of :func:`world_digest` per configuration, written before the
#: DNS build indexed prefixes by origin: a faster build must draw the
#: same world.
WORLD_DIGESTS = json.loads(
    (Path(__file__).parent / "golden" / "world_digests.json").read_text()
)
WORLD_CONFIGS = {
    # The lifecycle benchmark's world (benchmarks/lifecycle/metrics.py).
    "benchmark": lambda: WorldConfig(seed=7, scale=0.025, n_domains=500, n_ases=62),
    "small": WorldConfig.small,
    "year2015": WorldConfig.year2015,
}


def _canonical(value):
    """``value`` as nested lists of ``repr`` strings: dict and list order
    kept, sets sorted, private attributes (caches) left out."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [type(value).__name__] + [
            [item.name, _canonical(getattr(value, item.name))]
            for item in dataclasses.fields(value)
        ]
    if isinstance(value, dict):
        return [[_canonical(key), _canonical(item)] for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if value is None or isinstance(value, (str, int, float, bool)):
        return repr(value)
    raise TypeError(f"no canonical form for {type(value).__name__}")


def world_digest(world) -> str:
    """A digest of everything a world holds, the same under any hash seed."""
    return hashlib.sha256(json.dumps(_canonical(world)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORLD_CONFIGS))
def test_world_is_unchanged(name):
    assert world_digest(build_world(WORLD_CONFIGS[name]())) == WORLD_DIGESTS[name]


class TestTopology(object):
    def test_counts_match_config(self, small_world):
        assert len(small_world.ases) == small_world.config.n_ases
        assert len(small_world.domains) == small_world.config.n_domains

    def test_tier1_clique(self, small_world):
        tier1 = [a for a in small_world.ases.values() if a.category == "Tier1"]
        assert len(tier1) == small_world.config.n_tier1
        for info in tier1:
            others = {a.asn for a in tier1 if a.asn != info.asn}
            assert others <= set(info.peers)

    def test_every_non_tier1_has_provider(self, small_world):
        for info in small_world.ases.values():
            if info.category != "Tier1":
                assert info.providers

    def test_provider_customer_symmetry(self, small_world):
        for info in small_world.ases.values():
            for provider in info.providers:
                assert info.asn in small_world.ases[provider].customers

    def test_ranks_are_a_permutation(self, small_world):
        ranks = sorted(info.rank for info in small_world.ases.values())
        assert ranks == list(range(1, len(small_world.ases) + 1))

    def test_rank_ordered_by_cone(self, small_world):
        by_rank = sorted(small_world.ases.values(), key=lambda a: a.rank)
        cones = [a.cone_size for a in by_rank]
        assert cones == sorted(cones, reverse=True)

    def test_orgs_reference_their_ases(self, small_world):
        for org in small_world.orgs.values():
            for asn in org.asns:
                assert small_world.ases[asn].org_name == org.name

    def test_some_sibling_orgs_exist(self, small_world):
        assert any(len(org.asns) > 1 for org in small_world.orgs.values())


class TestAddressing:
    def test_prefixes_inside_allocation(self, small_world):
        for info in small_world.prefixes.values():
            assert prefix_contains(info.allocated_block, info.prefix)

    def test_af_consistent(self, small_world):
        for info in small_world.prefixes.values():
            assert info.af == (6 if ":" in info.prefix else 4)

    def test_no_duplicate_prefixes(self, small_world):
        assert len(small_world.prefixes) == len(set(small_world.prefixes))

    def test_every_as_has_v4_prefix(self, small_world):
        owners = {p.origins[0] for p in small_world.prefixes.values() if p.af == 4}
        assert owners == set(small_world.ases)

    def test_trie_lookup_agrees(self, small_world):
        for info in list(small_world.prefixes.values())[:50]:
            base = info.prefix.split("/")[0]
            found = small_world.prefix_of_ip(base)
            assert found is not None
            assert ip_in_prefix(base, found)


class TestRPKI:
    def test_statuses_valid(self, small_world):
        allowed = {"Valid", "Invalid", "Invalid,more-specific", "NotFound"}
        for info in small_world.prefixes.values():
            assert info.rov_status in allowed

    def test_valid_iff_roa_matches(self, small_world):
        for info in small_world.prefixes.values():
            if info.rov_status == "Valid":
                roa = info.roas[0]
                assert roa.asn == info.origins[0]
                assert roa.max_length >= int(info.prefix.split("/")[1])
            elif info.rov_status == "Invalid,more-specific":
                roa = info.roas[0]
                assert roa.max_length < int(info.prefix.split("/")[1])
            elif info.rov_status == "Invalid":
                assert info.roas[0].asn != info.origins[0]
            else:
                assert not info.roas

    def test_moas_fraction_small(self, small_world):
        moas = sum(1 for p in small_world.prefixes.values() if len(p.origins) > 1)
        assert 0 < moas < len(small_world.prefixes) * 0.05


class TestDNS:
    def test_tranco_is_permutation_of_domains(self, small_world):
        assert sorted(small_world.tranco) == sorted(small_world.domains)

    def test_ranks_sequential(self, small_world):
        for rank, name in enumerate(small_world.tranco, start=1):
            assert small_world.domains[name].rank == rank

    def test_umbrella_subset_with_ranks(self, small_world):
        assert set(small_world.umbrella) <= set(small_world.tranco)
        for position, name in enumerate(small_world.umbrella, start=1):
            assert small_world.domains[name].umbrella_rank == position

    def test_domain_ips_inside_hosting_as(self, small_world):
        for domain in list(small_world.domains.values())[:200]:
            for ip in domain.ips:
                assert small_world.as_of_ip(ip) == domain.hosting_asn

    def test_nameservers_resolve(self, small_world):
        for domain in list(small_world.domains.values())[:200]:
            assert domain.nameservers
            for ns in domain.nameservers:
                info = small_world.nameservers[ns]
                assert info.ips

    def test_cdn_hosted_domains_on_cdn_as(self, small_world):
        for domain in small_world.domains.values():
            if domain.cdn_hosted:
                category = small_world.ases[domain.hosting_asn].category
                assert category == "Content Delivery Network"

    def test_zone_nameservers_covers_providers_and_tlds(self, small_world):
        zones = zone_nameservers(small_world)
        for provider in small_world.dns_providers.values():
            assert provider.domain in zones
        for tld in small_world.tlds:
            assert tld in zones

    def test_provider_outsourcing_is_acyclic(self, small_world):
        for key, provider in small_world.dns_providers.items():
            seen = {key}
            current = provider.outsourced_to
            while current is not None:
                assert current not in seen, "outsourcing cycle"
                seen.add(current)
                current = small_world.dns_providers[current].outsourced_to

    def test_cctld_operator_in_country(self, small_world):
        # ccTLD registries must be operated from their own economy
        # whenever any AS exists there (the Figure 5 hierarchical shape).
        from repro.simnet.dns import _CC_OPERATOR_COUNTRY

        countries_with_ases = {a.country for a in small_world.ases.values()}
        for tld, country in _CC_OPERATOR_COUNTRY.items():
            if country in countries_with_ases:
                assert small_world.tlds[tld].country == country


class TestPopulation:
    def test_population_positive(self, small_world):
        assert all(v > 0 for v in small_world.country_population.values())

    def test_as_population_shares_bounded(self, small_world):
        by_country = {}
        for (country, _asn), share in small_world.as_population.items():
            assert 0 < share <= 100
            by_country[country] = by_country.get(country, 0) + share
        for total in by_country.values():
            assert total <= 101  # rounding slack


class TestAtlas:
    def test_probe_ips_in_probe_as(self, small_world):
        for probe in small_world.atlas_probes.values():
            assert small_world.as_of_ip(probe.ip) == probe.asn

    def test_measurement_probes_exist(self, small_world):
        for measurement in small_world.atlas_measurements.values():
            for probe_id in measurement.probe_ids:
                assert probe_id in small_world.atlas_probes
