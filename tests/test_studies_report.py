"""The weekly report generator."""

import pytest

from repro.studies.report import generate_report


@pytest.fixture(scope="module")
def report(small_iyp):
    return generate_report(small_iyp, snapshot_label="2024-05-01")


class TestReport:
    def test_contains_every_section(self, report):
        for heading in (
            "# IYP weekly report",
            "## RPKI status of popular-domain prefixes",
            "## DNS best practices",
            "## Shared DNS infrastructure",
            "## RPKI and the DNS infrastructure",
            "## Single points of failure",
            "## Dataset consistency",
        ):
            assert heading in report.markdown

    def test_snapshot_label_rendered(self, report):
        assert "2024-05-01" in report.markdown

    def test_raw_results_attached(self, report):
        assert report.ripki.total_prefixes > 0
        assert report.spof.domains_analyzed > 0
        assert report.comparison.prefixes_compared > 0

    def test_markdown_tables_well_formed(self, report):
        rows = [
            line for line in report.markdown.splitlines() if line.startswith("|")
        ]
        assert rows
        # Within each table (a block of consecutive '|' lines), every
        # row must have the same number of columns.
        block: list[str] = []
        for line in report.markdown.splitlines() + [""]:
            if line.startswith("|"):
                block.append(line)
                continue
            if block:
                counts = {row.count("|") for row in block}
                assert len(counts) == 1, block[:3]
                block = []

    def test_refreshes_with_new_data(self, private_iyp):
        # The on-demand reproducibility property: adding data changes
        # the regenerated report.
        before = generate_report(private_iyp)
        private_iyp.run("CREATE (:Prefix {prefix: '203.0.113.0/24', af: 4})")
        refreshed = generate_report(private_iyp)
        assert refreshed.markdown != before.markdown
