"""The IYP facade: canonicalizing loader + query interface.

Dataset crawlers never touch the graph store directly; they call
:meth:`IYP.get_node` / :meth:`IYP.add_link`.  ``get_node`` translates
identifiers to canonical form before node creation, which is what
guarantees that ``2001:DB8::/32`` from one dataset and ``2001:0db8::/32``
from another land on the same Prefix node.  ``add_link`` stamps every
relationship with the provenance ("reference") properties of Section 2.2
so any datapoint in the graph can be traced to its original dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.cypher import CypherEngine, QueryResult
from repro.graphdb import GraphStore, Node
from repro.ontology import DATASET_PROPERTY, ENTITIES, PROVENANCE


@dataclass(frozen=True)
class Reference:
    """Provenance of an imported datapoint (paper Section 2.2)."""

    organization: str
    dataset_name: str
    url_info: str = ""
    url_data: str = ""
    time_modification: str = ""
    time_fetch: str = ""

    def properties(self) -> dict[str, str]:
        """Relationship properties carrying this provenance."""
        props = {}
        for name, field, required in PROVENANCE:
            value = getattr(self, field)
            if value or required:
                props[name] = value
        return props


class IYP:
    """The Internet Yellow Pages knowledge graph.

    >>> iyp = IYP()
    >>> asn = iyp.get_node('AS', asn='AS2914')     # canonicalized to 2914
    >>> pfx = iyp.get_node('Prefix', prefix='10.0.0.0/8')
    >>> ref = Reference('BGPKIT', 'bgpkit.pfx2as')
    >>> _ = iyp.add_link(asn, 'ORIGINATE', pfx, reference=ref)
    >>> iyp.run('MATCH (a:AS)-[:ORIGINATE]-(:Prefix) RETURN a.asn').value()
    2914
    """

    def __init__(self, store: GraphStore | None = None):
        self.store = store or GraphStore()
        self.engine = CypherEngine(self.store)
        self._ensure_indexes()

    def _ensure_indexes(self) -> None:
        # Loose entities are identified via EXTERNAL_ID; a plain index
        # still accelerates their name lookups.
        for definition in ENTITIES.values():
            self.store.create_index(definition.label, definition.key)

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------

    def get_node(self, label: str, /, properties: Mapping[str, Any] | None = None,
                 **key_props: Any) -> Node:
        """Get-or-create a node by its identifying property.

        The identifying property is taken from the ontology definition of
        ``label``; its value is translated to canonical form first.
        ``properties`` carries non-identifying extras to merge in.
        """
        definition = ENTITIES.get(label)
        if definition is None:
            raise KeyError(f"unknown entity label {label!r}")
        key_prop = definition.key
        if key_prop not in key_props:
            raise TypeError(
                f":{label} requires its identifying property {key_prop!r}"
            )
        value = definition.canonical(key_props[key_prop])
        extras = dict(properties or {})
        for prop, extra_value in key_props.items():
            if prop != key_prop:
                extras[prop] = extra_value
        return self.store.merge_node(label, key_prop, value, extras)

    def batch_get_nodes(
        self, label: str, key_prop: str, values: list[Any]
    ) -> dict[Any, Node]:
        """Get-or-create many nodes; returns canonical value -> node."""
        result: dict[Any, Node] = {}
        for value in values:
            canonical = self.canonicalize(label, key_prop, value)
            if canonical in result:
                continue
            result[canonical] = self.store.merge_node(label, key_prop, canonical)
        return result

    @staticmethod
    def canonicalize(label: str, key_prop: str, value: Any) -> Any:
        """Translate an identifier to canonical form (Section 2.3)."""
        definition = ENTITIES.get(label)
        if definition is None or key_prop != definition.key:
            return value
        return definition.canonical(value)

    # ------------------------------------------------------------------
    # Link creation
    # ------------------------------------------------------------------

    def add_link(
        self,
        start: Node,
        rel_type: str,
        end: Node,
        properties: Mapping[str, Any] | None = None,
        reference: Reference | None = None,
    ):
        """Create one relationship, stamped with its provenance.

        The same semantic link imported from two datasets stays two
        distinct relationships (distinguished by ``reference_name``), so
        datasets can be selected, discarded, or compared after the fact.
        """
        props = dict(properties or {})
        if reference is None:
            return self.store.merge_relationship(
                start.id, rel_type, end.id, properties=props
            )
        props.update(reference.properties())
        return self.store.merge_relationship(
            start.id, rel_type, end.id, properties=props,
            match_props={DATASET_PROPERTY: reference.dataset_name},
        )

    def add_links(
        self,
        links: list[tuple[Node, str, Node, Mapping[str, Any] | None]],
        reference: Reference | None = None,
    ) -> int:
        """Create many relationships with shared provenance."""
        for start, rel_type, end, properties in links:
            self.add_link(start, rel_type, end, properties, reference)
        return len(links)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def run(self, query: str, parameters: dict[str, Any] | None = None) -> QueryResult:
        """Execute a Cypher query against the knowledge graph."""
        return self.engine.run(query, parameters)

    def literal_search(self, needle: str, limit: int = 100) -> list[Node]:
        """Literal keyword search: every node with the string anywhere in
        its properties.

        This is the approach Figure 3 contrasts semantic search against:
        searching for ``'7018'`` literally hits AS 7018 but also any IP,
        prefix, or hostname containing those characters.  Provided so
        users can see the difference on their own data.
        """
        needle = needle.lower()
        matches: list[Node] = []
        for node in self.store.iter_nodes():
            for value in node.properties.values():
                if needle in str(value).lower():
                    matches.append(node)
                    break
            if len(matches) >= limit:
                break
        return matches

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Graph size and composition, for reports and sanity checks."""
        return {
            "nodes": self.store.node_count,
            "relationships": self.store.relationship_count,
            "labels": dict(sorted(self.store.label_counts().items())),
            "relationship_types": dict(
                sorted(self.store.relationship_type_counts().items())
            ),
        }
