"""Store-level schema validation — the "data sanitizer".

The one store validator: it sweeps a loaded graph against the ontology
rows (:mod:`repro.ontology`) and reports *coded* violations grouped per
crawler (via each relationship's ``reference_name`` provenance), so the
pipeline can attach the outcome to
:class:`~repro.pipeline.build.BuildReport` and the metrics registry can
count violations by code:

``SCH001``  node carries no ontology label
``SCH002``  node is missing an identifying (uniqueness-key) property
``SCH003``  relationship type is not defined by the ontology
``SCH004``  relationship endpoints violate the ontology (either
            orientation is accepted: IYP stores links directed but
            queries them undirected)
``SCH005``  relationship lacks provenance (no ``reference_name``)
``SCH006``  dangling Reference metadata: provenance present but
            incomplete (a required property such as ``reference_org``
            missing) or carrying ``reference_*`` properties the
            ontology does not define

Every check is local to one node, or to one relationship plus the label
sets of its two endpoints.  That is what makes the report incremental:
:meth:`GraphValidator.revalidate` turns the previous report into the
current one by re-checking only what a changelog touched
(:func:`touched_entities`), and :meth:`GraphValidator.validate` — the
full sweep — stays the definition the two are tested equal against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.graphdb.errors import NoSuchRelationshipError
from repro.ontology import (
    DATASET_PROPERTY,
    ENTITIES,
    PROVENANCE,
    REFERENCE_PROPERTIES,
    RELATIONSHIPS,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphdb.model import Node, Relationship
    from repro.graphdb.store import ChangeEvent, GraphStore

#: Crawler bucket for node-level violations (nodes carry no provenance).
GRAPH_BUCKET = "(graph)"
#: Crawler bucket for relationships without a usable reference_name.
UNKNOWN_BUCKET = "(unknown)"

#: Provenance every imported link must carry (the sweep runs per link).
_REQUIRED = tuple(name for name, _, required in PROVENANCE if required)

SCHEMA_CODES: dict[str, str] = {
    "SCH001": "non-ontology node label",
    "SCH002": "missing uniqueness-key property",
    "SCH003": "unknown relationship type",
    "SCH004": "endpoint labels violate the ontology",
    "SCH005": f"missing provenance ({DATASET_PROPERTY})",
    "SCH006": "dangling Reference metadata",
}


@dataclass(frozen=True)
class SchemaViolation:
    """One coded violation, attributed to the crawler that produced it."""

    code: str
    kind: str  # 'node' | 'relationship'
    element_id: int
    crawler: str
    message: str

    def __str__(self) -> str:
        return (
            f"{self.code} [{self.crawler}] {self.kind} "
            f"{self.element_id}: {self.message}"
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass
class GraphValidationReport:
    """Aggregated sweep outcome, with per-crawler and per-code views."""

    violations: list[SchemaViolation] = field(default_factory=list)
    nodes_checked: int = 0
    relationships_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, kind: str, element_id: int, crawler: str,
            message: str) -> None:
        self.violations.append(
            SchemaViolation(code, kind, element_id, crawler, message)
        )

    def by_crawler(self) -> dict[str, list[SchemaViolation]]:
        grouped: dict[str, list[SchemaViolation]] = {}
        for violation in self.violations:
            grouped.setdefault(violation.crawler, []).append(violation)
        return dict(sorted(grouped.items()))

    def by_code(self) -> dict[str, int]:
        return dict(sorted(Counter(v.code for v in self.violations).items()))

    def to_dict(self, limit: int = 20) -> dict[str, Any]:
        """JSON-friendly summary; detail is capped at ``limit`` entries."""
        return {
            "ok": self.ok,
            "nodes_checked": self.nodes_checked,
            "relationships_checked": self.relationships_checked,
            "violation_count": len(self.violations),
            "by_code": self.by_code(),
            "by_crawler": {
                crawler: len(items) for crawler, items in self.by_crawler().items()
            },
            "violations": [v.to_dict() for v in self.violations[:limit]],
        }


def touched_entities(
    store: "GraphStore", events: Iterable["ChangeEvent"]
) -> tuple[set[int], set[int]]:
    """``(node ids, relationship ids)`` whose violations ``events`` may
    have changed, deleted entities included.

    A node's checks read its labels and properties, a relationship's its
    own type and properties plus its endpoints' labels: so every
    created, updated or deleted entity is touched, and a node gaining a
    label also touches the relationships incident to it.  ``rel_merged``
    changes nothing.
    """
    nodes: set[int] = set()
    relationships: set[int] = set()
    for event in events:
        kind = event.kind
        if kind == "rel_merged":
            continue
        if kind.startswith("rel_"):
            relationships.add(event.entity_id)
            continue
        nodes.add(event.entity_id)
        if kind == "label_added" and store.has_node(event.entity_id):
            relationships.update(
                rel.id for rel in store.relationships_of(event.entity_id)
            )
    return nodes, relationships


class GraphValidator:
    """Sweeps a :class:`GraphStore` for coded ontology violations."""

    def validate(self, store: "GraphStore") -> GraphValidationReport:
        """The from-scratch sweep: every node, then every relationship."""
        report = GraphValidationReport()
        for node in store.iter_nodes():
            self._check_node(node, report)
        for rel in store.iter_relationships():
            self._check_relationship(store, rel, report)
        return self._finish(store, report)

    def revalidate(
        self,
        store: "GraphStore",
        previous: GraphValidationReport,
        nodes: Iterable[int],
        relationships: Iterable[int],
    ) -> GraphValidationReport:
        """The report :meth:`validate` would return, in O(touched).

        ``previous`` is the report of the same store before a change;
        ``nodes`` / ``relationships`` are the ids the change touched
        (:func:`touched_entities`).  Their old violations are dropped,
        the ones that still exist are re-checked, and everything else is
        carried over.
        """
        touched = {"node": set(nodes), "relationship": set(relationships)}
        report = GraphValidationReport(
            violations=[
                violation
                for violation in previous.violations
                if violation.element_id not in touched[violation.kind]
            ]
        )
        for node_id in touched["node"]:
            if store.has_node(node_id):
                self._check_node(store.get_node(node_id), report)
        for rel_id in touched["relationship"]:
            try:
                rel = store.get_relationship(rel_id)
            except NoSuchRelationshipError:
                continue
            self._check_relationship(store, rel, report)
        return self._finish(store, report)

    @staticmethod
    def _finish(
        store: "GraphStore", report: GraphValidationReport
    ) -> GraphValidationReport:
        """Order the violations — nodes before relationships, each by
        ascending id (stable, so one entity's stay in check order) — the
        order of a sweep over a store filled in id order."""
        report.violations.sort(key=lambda v: (v.kind != "node", v.element_id))
        report.nodes_checked = store.node_count
        report.relationships_checked = store.relationship_count
        return report

    def _check_node(self, node: "Node", report: GraphValidationReport) -> None:
        known = [ENTITIES[label] for label in node.labels if label in ENTITIES]
        if not known:
            report.add("SCH001", "node", node.id, GRAPH_BUCKET,
                       f"no ontology label among {sorted(node.labels)}")
        for definition in known:
            if definition.key not in node.properties:
                report.add("SCH002", "node", node.id, GRAPH_BUCKET,
                           f":{definition.label} missing identifying properties "
                           f"{[definition.key]}")

    def _check_relationship(
        self, store: "GraphStore", rel: "Relationship", report: GraphValidationReport
    ) -> None:
        props = rel.properties
        crawler = props.get(DATASET_PROPERTY) or UNKNOWN_BUCKET
        definition = RELATIONSHIPS.get(rel.type)
        if definition is None:
            report.add("SCH003", "relationship", rel.id, crawler,
                       f"unknown relationship type :{rel.type}")
            return
        start = store.get_node(rel.start_id).labels
        end = store.get_node(rel.end_id).labels
        # Links are stored directed but queried undirected: either
        # orientation of a permitted pair is accepted.
        if not (definition.permits(start, end) or definition.permits(end, start)):
            report.add("SCH004", "relationship", rel.id, crawler,
                       f":{rel.type} between {sorted(start)} and {sorted(end)} "
                       "violates the ontology")
        if DATASET_PROPERTY not in props:
            report.add("SCH005", "relationship", rel.id, crawler,
                       f":{rel.type} lacks provenance ({DATASET_PROPERTY})")
            return
        problems = [f"{name} missing" for name in _REQUIRED if name not in props]
        stray = sorted(
            key
            for key in props
            if key.startswith("reference_") and key not in REFERENCE_PROPERTIES
        )
        if stray:
            problems.append(f"undefined reference properties {stray}")
        if problems:
            report.add("SCH006", "relationship", rel.id, crawler,
                       f":{rel.type} has dangling Reference metadata: "
                       + "; ".join(problems))
