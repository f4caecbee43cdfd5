"""The documentation generator (never drifts from code)."""

from pathlib import Path

from repro.datasets import DATASETS
from repro.docs import (
    render_data_sources,
    render_node_types,
    render_relationship_types,
    write_docs,
)
from repro.ontology import ENTITIES, RELATIONSHIPS


class TestRendering:
    def test_data_sources_lists_every_dataset(self):
        page = render_data_sources()
        for spec in DATASETS:
            assert f"`{spec.name}`" in page

    def test_node_types_lists_every_entity(self):
        page = render_node_types()
        for label in ENTITIES:
            assert f"`:{label}`" in page

    def test_relationship_types_lists_every_type(self):
        page = render_relationship_types()
        for rel_type in RELATIONSHIPS:
            assert f"`:{rel_type}`" in page

    def test_loose_entities_flagged(self):
        page = render_node_types()
        assert "loosely identified" in page

    def test_markdown_tables_well_formed(self):
        for page in (
            render_data_sources(),
            render_node_types(),
            render_relationship_types(),
        ):
            rows = [line for line in page.splitlines() if line.startswith("|")]
            widths = {row.count("|") for row in rows}
            assert len(widths) == 1, "ragged markdown table"


    def test_committed_pages_are_current(self):
        # `python -m repro docs` regenerates them.
        documentation = Path(__file__).resolve().parent.parent / "documentation"
        for name, render in (
            ("data-sources.md", render_data_sources),
            ("node_types.md", render_node_types),
            ("relationship_types.md", render_relationship_types),
        ):
            assert (documentation / name).read_text(encoding="utf-8") == render(), name


class TestWriting:
    def test_write_docs(self, tmp_path):
        written = write_docs(tmp_path / "documentation")
        assert len(written) == 3
        for path in written:
            assert path.exists()
            assert path.read_text().startswith("#")

    def test_cli_docs_command(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["docs", "--output", str(tmp_path / "d")]) == 0
        assert "data-sources.md" in capsys.readouterr().out
