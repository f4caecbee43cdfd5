"""The dataset registry — the machine-readable Table 8.

Every dataset IYP imports is described here: providing organization,
dataset name (the ``reference_name`` on links), update frequency,
license, the crawler class, and the simulated-content generator.  A
crawler class states its own organization, name and URL, and its row
takes them from it.  The pipeline iterates this table; tests assert
its size matches the paper (46 datasets from ~23 organizations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core import IYP
from repro.datasets.base import Crawler, Fetcher, SimulatedFetcher
from repro.datasets.crawlers import (
    alice_lg,
    apnic,
    bgpkit,
    bgptools,
    caida,
    cisco,
    citizenlab,
    cloudflare,
    emileaben,
    ihr,
    inetintel,
    nro,
    openintel,
    pch,
    peeringdb,
    ripe,
    rovista,
    simulamet,
    stanford,
    tranco,
    worldbank,
)


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 8."""

    organization: str
    name: str
    description: str
    frequency: str
    license: str
    url: str
    generator: Callable
    crawler_factory: Callable[[IYP, Fetcher], Crawler]


def _spec(crawler, description, frequency, license_, generator):
    """The row of a dataset whose crawler class states its own
    organization, name and URL."""
    return DatasetSpec(
        crawler.organization, crawler.name, description, frequency, license_,
        crawler.url_data, generator, crawler,
    )


DATASETS: list[DatasetSpec] = [
    # --- Alice-LG looking glasses (7 datasets) -------------------------
    *[
        DatasetSpec(
            "Alice-LG",
            f"alice-lg.{key}",
            f"IXP route-server looking glass snapshot ({key}).",
            "Daily",
            "None",
            url,
            alice_lg.make_generator(ix_index),
            (lambda key=key, url=url: lambda iyp, fetcher: alice_lg.AliceLGCrawler(
                iyp, fetcher, key, url
            ))(),
        )
        for key, url, ix_index in alice_lg.LOOKING_GLASSES
    ],
    # --- APNIC -------------------------------------------------------------
    _spec(apnic.ASPopulationCrawler, "AS population estimate.",
          "Daily", "CC BY 4.0", apnic.generate_aspop),
    # --- BGPKIT ------------------------------------------------------------
    _spec(bgpkit.PrefixToASNCrawler,
          "Originating AS per prefix seen in all RIS and RouteViews collectors.",
          "Daily", "BGPKIT AUA", bgpkit.generate_pfx2as),
    _spec(bgpkit.ASRelCrawler, "AS-level relationships inferred from BGP.",
          "Daily", "BGPKIT AUA", bgpkit.generate_as2rel),
    _spec(bgpkit.PeerStatsCrawler, "Collector peering statistics.",
          "Daily", "BGPKIT AUA", bgpkit.generate_peer_stats),
    # --- BGP.Tools ---------------------------------------------------------
    _spec(bgptools.ASNamesCrawler, "AS names.",
          "Daily", "ODbL", bgptools.generate_asnames),
    _spec(bgptools.ASTagsCrawler, "AS classification tags.",
          "Daily", "ODbL", bgptools.generate_tags),
    _spec(bgptools.AnycastCrawler, "Anycast prefix tags.",
          "Daily", "MIT", bgptools.generate_anycast),
    # --- CAIDA -------------------------------------------------------------
    _spec(caida.ASRankCrawler, "Ranking of ASes based on customer cone.",
          "Monthly", "CAIDA AUA", caida.generate_asrank),
    _spec(caida.IXsCrawler, "IXP identifiers and locations.",
          "Monthly", "CAIDA AUA", caida.generate_ixs),
    # --- Cisco -------------------------------------------------------------
    _spec(cisco.UmbrellaCrawler, "Umbrella popularity list.",
          "Daily", "Cisco ToS", cisco.generate_umbrella),
    # --- Citizen Lab -------------------------------------------------------
    _spec(citizenlab.URLTestingListCrawler, "URL testing lists.",
          "Weekly", "CC BY-NC-SA 4.0", citizenlab.generate_url_list),
    # --- Cloudflare --------------------------------------------------------
    _spec(cloudflare.RankingCrawler, "Radar top domains.",
          "Daily", "CC BY-NC 4.0", cloudflare.generate_ranking),
    _spec(cloudflare.TopASesCrawler,
          "ASes that queried a domain name the most (1.1.1.1 data).",
          "Daily", "CC BY-NC 4.0", cloudflare.generate_top_ases),
    _spec(cloudflare.TopLocationsCrawler,
          "Countries that queried a domain name the most.",
          "Daily", "CC BY-NC 4.0", cloudflare.generate_top_locations),
    # --- Emile Aben --------------------------------------------------------
    _spec(emileaben.ASNamesCrawler, "Community short AS names.",
          "Weekly", "MIT", emileaben.generate_asnames),
    # --- IHR ---------------------------------------------------------------
    _spec(ihr.HegemonyCrawler, "Inter-dependence of ASes based on BGP data.",
          "Daily", "CC BY-NC 4.0", ihr.generate_hegemony),
    _spec(ihr.CountryDependencyCrawler, "Country-level AS dependency.",
          "Daily", "CC BY-NC 4.0", ihr.generate_country_dependency),
    _spec(ihr.ROVCrawler, "Route origin validation state per prefix.",
          "Daily", "CC BY-NC 4.0", ihr.generate_rov),
    # --- Internet Intelligence Lab -----------------------------------------
    _spec(inetintel.AS2OrgCrawler, "AS to Organization mapping.",
          "Quarterly", "CC BY-NC-SA 4.0", inetintel.generate_as2org),
    # --- NRO ---------------------------------------------------------------
    _spec(nro.DelegatedStatsCrawler, "Extended allocation and assignment reports.",
          "Daily", "NRO ToU", nro.generate_delegated),
    # --- OpenINTEL ---------------------------------------------------------
    _spec(openintel.Tranco1MCrawler, "DNS resolution for Tranco Top 1M domain names.",
          "Daily", "CC BY-NC 4.0", openintel.generate_tranco1m),
    _spec(openintel.Umbrella1MCrawler,
          "DNS resolution for Umbrella Top 1M domain names.",
          "Daily", "CC BY-NC 4.0", openintel.generate_umbrella1m),
    _spec(openintel.NSCrawler, "Authoritative nameservers with glue annotations.",
          "Daily", "CC BY-NC 4.0", openintel.generate_ns),
    _spec(openintel.DNSGraphCrawler, "DNS Dependency Graph.",
          "Weekly", "CC BY-NC 4.0", openintel.generate_dnsgraph),
    # --- PCH ---------------------------------------------------------------
    _spec(pch.RoutingSnapshotCrawler, "BGP data collected from PCH.",
          "Daily", "CC BY-NC-SA 3.0", pch.generate_routing_snapshot),
    # --- PeeringDB ---------------------------------------------------------
    _spec(peeringdb.OrgCrawler, "Organizations registered in PeeringDB.",
          "Daily", "PeeringDB AUA", peeringdb.generate_org),
    _spec(peeringdb.FacCrawler, "Co-location facilities.",
          "Daily", "PeeringDB AUA", peeringdb.generate_fac),
    _spec(peeringdb.IXCrawler, "Information related to IXPs.",
          "Daily", "PeeringDB AUA", peeringdb.generate_ix),
    _spec(peeringdb.NetIXLanCrawler, "IXP membership of networks.",
          "Daily", "PeeringDB AUA", peeringdb.generate_netixlan),
    _spec(peeringdb.NetFacCrawler, "Facility presence of networks.",
          "Daily", "PeeringDB AUA", peeringdb.generate_netfac),
    # --- RIPE NCC ----------------------------------------------------------
    _spec(ripe.ASNamesCrawler, "Registered AS names and countries.",
          "Daily", "RIPE ToU", ripe.generate_asnames),
    _spec(ripe.RPKICrawler, "RPKI route origin authorizations.",
          "Daily", "RIPE ToU", ripe.generate_rpki),
    _spec(ripe.AtlasProbesCrawler, "RIPE Atlas probe metadata.",
          "Daily", "RIPE ToU", ripe.generate_atlas_probes),
    _spec(ripe.AtlasMeasurementsCrawler, "RIPE Atlas measurement information.",
          "Daily", "RIPE ToU", ripe.generate_atlas_measurements),
    # --- SimulaMet ---------------------------------------------------------
    _spec(simulamet.RDNSCrawler, "Reverse-DNS delegations (rir-data).",
          "Weekly", "CC BY 4.0", simulamet.generate_rdns),
    # --- Stanford ----------------------------------------------------------
    _spec(stanford.ASdbCrawler, "Classification of ASes by business type.",
          "6-month", "None", stanford.generate_asdb),
    # --- Tranco ------------------------------------------------------------
    _spec(tranco.TrancoCrawler, "Research-oriented top-sites ranking.",
          "Daily", "MIT", tranco.generate_tranco),
    # --- Virginia Tech -----------------------------------------------------
    _spec(rovista.RoVistaCrawler, "RoVista: ROV filtering per AS.",
          "Daily", "None", rovista.generate_rovista),
    # --- World Bank --------------------------------------------------------
    _spec(worldbank.WorldBankPopulationCrawler, "Country population estimate.",
          "Yearly", "CC BY 4.0", worldbank.generate_population),
]


def dataset_names() -> list[str]:
    """All dataset reference names in registry order."""
    return [spec.name for spec in DATASETS]


def organizations() -> list[str]:
    """Distinct providing organizations."""
    return sorted({spec.organization for spec in DATASETS})


def make_fetcher(world) -> SimulatedFetcher:
    """A fetcher serving every registered dataset from a world."""
    fetcher = SimulatedFetcher(world)
    for spec in DATASETS:
        fetcher.register(spec.url, spec.generator)
    return fetcher


def crawlers_for(
    iyp: IYP, fetcher: Fetcher, names: list[str] | None = None
) -> list[Crawler]:
    """Instantiate crawlers (all by default, or a named subset)."""
    selected = []
    wanted = set(names) if names is not None else None
    for spec in DATASETS:
        if wanted is not None and spec.name not in wanted:
            continue
        selected.append(spec.crawler_factory(iyp, fetcher))
    if wanted is not None:
        missing = wanted - {spec.name for spec in DATASETS}
        if missing:
            raise KeyError(f"unknown dataset names: {sorted(missing)}")
    return selected
