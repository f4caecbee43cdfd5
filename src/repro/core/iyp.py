"""The IYP facade: canonicalizing loader + query interface.

Dataset crawlers never touch the graph store directly; what they state
reaches the facade as whole columns (:meth:`repro.datasets.base.Crawler.run`)
— :meth:`IYP.batch_get_nodes` (one label, the key value of every
requested node) and :meth:`IYP.add_links` (every link of the dataset, one
shared :class:`Reference`) — and each call is one store call under one
lock scope.  :meth:`IYP.get_node` / :meth:`IYP.add_link` are the same
operations for a single datapoint.  Node access translates
identifiers to canonical form before node creation (through a
per-instance memo, since a dataset repeats its identifiers), which is
what guarantees that ``2001:DB8::/32`` from one dataset and
``2001:0db8::/32`` from another land on the same Prefix node.  Link
creation stamps every relationship with the provenance ("reference")
properties of Section 2.2, computed once per call, so any datapoint in
the graph can be traced to its original dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Container, Iterable, Mapping

from repro.cypher import CypherEngine, QueryResult
from repro.graphdb import GraphStore, Node, Relationship
from repro.ontology import DATASET_PROPERTY, ENTITIES, PROVENANCE, EntityDef


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


def _definition(label: str, given: Container[str]) -> EntityDef:
    """The ontology row of ``label``; its identifying property must be
    among the ``given`` property names."""
    definition = ENTITIES.get(label)
    if definition is None:
        raise KeyError(f"unknown entity label {label!r}")
    if definition.key not in given:
        raise TypeError(
            f":{label} requires its identifying property {definition.key!r}"
        )
    return definition


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
        # label -> (type(raw), raw) -> canonical key value.  The type is
        # part of the key because 1 == True == 1.0 share a dict slot and
        # do not canonicalize alike (parse_asn(True) raises).
        self._canonical: dict[str, dict[tuple[type, Any], Any]] = {
            label: {} for label in ENTITIES
        }
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
        definition = _definition(label, key_props)
        key_prop = definition.key
        extras = dict(properties or {})
        for prop, extra_value in key_props.items():
            if prop != key_prop:
                extras[prop] = extra_value
        value = self._canonical_form(definition, key_props[key_prop])
        return self.store.merge_nodes(label, key_prop, (value,), extras)[0]

    def batch_get_nodes(
        self, label: str, key_prop: str, values: list[Any]
    ) -> dict[Any, Node]:
        """Get-or-create one node per value of a column, in one store
        call; returns canonical value -> node.

        Every value is a requested datapoint: one repeated inside the
        column (under any spelling) is merged, exactly as a second
        :meth:`get_node` would.  ``key_prop`` must be the identifying
        property of ``label``.
        """
        definition = _definition(label, (key_prop,))
        canonical = [self._canonical_form(definition, value) for value in values]
        return dict(zip(canonical, self.store.merge_nodes(label, key_prop, canonical)))

    def _canonical_form(self, definition: EntityDef, value: Any) -> Any:
        """``definition.canonical(value)`` through the per-instance memo.

        Unhashable input bypasses the memo and a spelling that does not
        parse raises without leaving an entry.
        """
        memo = self._canonical[definition.label]
        try:
            return memo[type(value), value]
        except KeyError:
            canonical = memo[type(value), value] = definition.canonical(value)
            return canonical
        except TypeError:
            return definition.canonical(value)

    def canonicalize(self, label: str, key_prop: str, value: Any) -> Any:
        """Translate an identifier to canonical form (Section 2.3)."""
        definition = ENTITIES.get(label)
        if definition is None or key_prop != definition.key:
            return value
        return self._canonical_form(definition, value)

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
    ) -> Relationship:
        """Create one relationship, stamped with its provenance.

        The same semantic link imported from two datasets stays two
        distinct relationships (distinguished by ``reference_name``), so
        datasets can be selected, discarded, or compared after the fact.
        """
        return self._merge_links(((start, rel_type, end, properties),), reference)[0]

    def add_links(
        self,
        links: list[tuple[Node, str, Node, Mapping[str, Any] | None]],
        reference: Reference | None = None,
    ) -> int:
        """Create many relationships with shared provenance, in one
        store call and in list order."""
        return len(self._merge_links(links, reference))

    def _merge_links(
        self,
        links: Iterable[tuple[Node, str, Node, Mapping[str, Any] | None]],
        reference: Reference | None,
    ) -> list[Relationship]:
        # Computed once per call; rows without properties of their own
        # share the mapping (the store copies what it keeps).
        stamp = reference.properties() if reference is not None else {}
        return self.store.merge_relationships(
            [(start.id, rel_type, end.id,
              {**properties, **stamp} if properties else stamp)
             for start, rel_type, end, properties in links],
            match_props=(
                {DATASET_PROPERTY: reference.dataset_name}
                if reference is not None else None
            ),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def run(self, query: str, parameters: dict[str, Any] | None = None) -> QueryResult:
        """Execute a Cypher query against the knowledge graph."""
        return self.engine.run(query, parameters)

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
