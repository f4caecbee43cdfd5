"""Documentation generator — the IYP project's documentation pages.

The real project maintains ``documentation/data-sources.md``,
``node_types.md``, and ``relationship_types.md`` by hand; here they are
generated from the registry and the ontology, so they can never drift
from the code.  ``python -m repro docs`` (or :func:`write_docs`) writes
them under ``documentation/``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.datasets.registry import DATASETS, organizations
from repro.ontology import ENTITIES, RELATIONSHIPS


def _property_cell(properties: Mapping[str, str]) -> str:
    cells = [f"`{name}` ({kind})" for name, kind in sorted(properties.items())]
    return ", ".join(cells) if cells else "—"


def render_data_sources() -> str:
    """The Table 8 page: every dataset with its metadata."""
    lines = [
        "# Data sources",
        "",
        f"{len(DATASETS)} datasets from {len(organizations())} organizations.",
        "",
        "| Organization | Dataset | Description | Frequency | License |",
        "|---|---|---|---|---|",
    ]
    for spec in DATASETS:
        lines.append(
            f"| {spec.organization} | `{spec.name}` | {spec.description} "
            f"| {spec.frequency} | {spec.license} |"
        )
    lines.append("")
    return "\n".join(lines)


def render_node_types() -> str:
    """The Table 6 page: entities and their identifying properties."""
    lines = [
        "# Node types (entities)",
        "",
        f"{len(ENTITIES)} entity types.",
        "",
        "| Entity | Key properties | Other properties | Description |",
        "|---|---|---|---|",
    ]
    for definition in ENTITIES.values():
        loose = " *(loosely identified)*" if definition.loose else ""
        lines.append(
            f"| `:{definition.label}` | `{definition.key}` "
            f"| {_property_cell(definition.extras)} "
            f"| {definition.description}{loose} |"
        )
    lines.append("")
    return "\n".join(lines)


def render_relationship_types() -> str:
    """The Table 7 page: relationships and permitted endpoints."""
    lines = [
        "# Relationship types",
        "",
        f"{len(RELATIONSHIPS)} relationship types.",
        "",
        "All relationships additionally carry the `reference_*` provenance "
        "properties; the table lists only type-specific ones.",
        "",
        "| Relationship | Endpoints | Properties | Description |",
        "|---|---|---|---|",
    ]
    for definition in RELATIONSHIPS.values():
        endpoints = "; ".join(
            f"`{start}` → `{end}`" for start, end in definition.endpoints
        )
        lines.append(
            f"| `:{definition.type}` | {endpoints} "
            f"| {_property_cell(definition.extras)} | {definition.description} |"
        )
    lines.append("")
    return "\n".join(lines)


def write_docs(directory: str | Path = "documentation") -> list[Path]:
    """Write all documentation pages; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pages = {
        "data-sources.md": render_data_sources(),
        "node_types.md": render_node_types(),
        "relationship_types.md": render_relationship_types(),
    }
    written = []
    for name, content in pages.items():
        path = directory / name
        path.write_text(content, encoding="utf-8")
        written.append(path)
    return written
