"""The registry (Table 8): inventory size and wiring."""

from repro.core import IYP
from repro.datasets import DATASETS, crawlers_for, dataset_names
from repro.datasets.registry import make_fetcher, organizations


class TestInventory:
    def test_46_datasets_as_in_paper(self):
        assert len(DATASETS) == 46

    def test_organization_count_near_paper(self):
        # Paper: "46 datasets from 23 organizations".
        assert 20 <= len(organizations()) <= 24

    def test_dataset_names_unique(self):
        names = dataset_names()
        assert len(names) == len(set(names))

    def test_urls_unique(self):
        urls = [spec.url for spec in DATASETS]
        assert len(urls) == len(set(urls))

    def test_every_spec_complete(self):
        for spec in DATASETS:
            assert spec.organization and spec.name and spec.description
            assert spec.frequency and spec.url
            assert callable(spec.generator) and callable(spec.crawler_factory)

    def test_paper_table1_examples_present(self):
        # The example rows of Table 1 must all exist.
        names = set(dataset_names())
        for expected in (
            "bgpkit.pfx2as", "caida.asrank", "cloudflare.dns_top_ases",
            "ihr.hegemony", "openintel.tranco1m", "pch.routing_snapshot",
            "peeringdb.ix", "stanford.asdb",
        ):
            assert expected in names

    def test_alice_lg_has_seven_looking_glasses(self):
        lg = [spec for spec in DATASETS if spec.organization == "Alice-LG"]
        assert len(lg) == 7


class TestWiring:
    def test_crawlers_for_all(self):
        iyp = IYP()

        class _NullFetcher:
            def fetch(self, url):
                raise NotImplementedError

        crawlers = crawlers_for(iyp, _NullFetcher())
        assert len(crawlers) == len(DATASETS)
        assert {crawler.name for crawler in crawlers} == set(dataset_names())

    def test_crawlers_carry_their_spec_row(self):
        # Provenance is stamped from the crawler's class attributes;
        # the registry row is what Table 8 and the docs page publish.
        crawlers = crawlers_for(IYP(), None)
        assert len(crawlers) == 46
        for spec, crawler in zip(DATASETS, crawlers, strict=True):
            assert (crawler.organization, crawler.name, crawler.url_data) == (
                spec.organization, spec.name, spec.url
            ), spec.name

    def test_crawlers_for_subset(self):
        iyp = IYP()
        crawlers = crawlers_for(iyp, None, ["tranco.top1m", "bgpkit.pfx2as"])
        assert {crawler.name for crawler in crawlers} == {
            "tranco.top1m", "bgpkit.pfx2as",
        }

    def test_unknown_subset_name_raises(self):
        import pytest

        with pytest.raises(KeyError):
            crawlers_for(IYP(), None, ["nope.dataset"])

    def test_fetcher_serves_every_url(self, small_world):
        fetcher = make_fetcher(small_world)
        for spec in DATASETS:
            content = fetcher.fetch(spec.url)
            assert isinstance(content, str)

    def test_fetch_counts_tracked(self, small_world):
        fetcher = make_fetcher(small_world)
        url = DATASETS[0].url
        fetcher.fetch(url)
        fetcher.fetch(url)
        assert fetcher.fetch_counts[url] == 2

    def test_generated_content_deterministic(self, small_world):
        for spec in DATASETS[:10]:
            assert spec.generator(small_world) == spec.generator(small_world)
