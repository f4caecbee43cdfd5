"""Vectorized graph measures over the store's typed adjacency.

Every measure in this module reads the store through the bulk accessors
of the :class:`repro.graphdb.interface.GraphReadStore` contract
(``node_ids``, ``label_ids``, ``iter_edges``, ``typed_degrees``,
``expand_ids``) instead of issuing one Cypher match per node, which is
what the legacy study code did.  Because only the contract is touched,
every measure runs unchanged against the dict backend and the columnar
backend (:mod:`repro.columnar`).  The semantics are pinned by equivalence tests against naive
pure-Python references (``tests/test_analytics_equivalence.py``), and
two of the helpers deliberately replicate pre-existing code paths
bit-for-bit:

* :func:`pagerank` reproduces the float-accumulation order of the
  Cypher-driven reference PageRank in the equivalence tests, so scores
  are identical, not merely close.
* :func:`transitive_closure` reproduces the memoized cycle-tolerant DFS
  the synthetic-world builder uses for customer cones.

Degree counting goes through :func:`repro.graphdb.directional_count`,
the same helper backing ``GraphStore.degree``/``degree_by_type``, so
``Direction.BOTH`` self-loop handling cannot diverge between the store
and these histograms.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Mapping
from typing import Any

from repro.graphdb.interface import GraphReadStore
from repro.graphdb.model import Direction
from repro.graphdb.store import directional_count

#: Relationship types forming the directed AS-to-AS graph used by the
#: paper's centrality analyses (BGPKIT peering plus IHR dependency).
AS_EDGE_TYPES = ("PEERS_WITH", "DEPENDS_ON")

#: On ``(:AS)-[:PEERS_WITH {rel}]->(:AS)`` edges from BGPKIT as2rel,
#: ``rel == 1`` marks a provider-to-customer link (start = provider).
PROVIDER_REL_VALUE = 1

#: The direction names of the statistics' keys and of ``algo.*`` arguments.
DIRECTION_NAMES = (
    ("out", Direction.OUT),
    ("in", Direction.IN),
    ("both", Direction.BOTH),
)


def parse_direction(value: Any) -> Direction:
    """Coerce a user-facing direction argument into :class:`Direction`."""
    if isinstance(value, Direction):
        return value
    if isinstance(value, str):
        for name, direction in DIRECTION_NAMES:
            if value.lower() == name:
                return direction
    raise ValueError(f"invalid direction {value!r}; expected out, in or both")


# ----------------------------------------------------------------------
# Generic reachability helpers (the SPoF walks and customer cones are
# both instances of these)
# ----------------------------------------------------------------------


def transitive_closure(
    adjacency: Mapping[Hashable, Iterable[Hashable]],
    keys: Iterable[Hashable] | None = None,
) -> dict[Hashable, set[Hashable]]:
    """Reflexive-transitive closure of a successor relation.

    One memoized depth-first walk per key; a key re-entered while still
    on the DFS stack contributes only itself, matching the cycle
    handling of the synthetic-topology cone computation it replaces.
    Returns ``{key: set of reachable keys including key}`` for each of
    ``keys`` (default: every key in ``adjacency``).
    """
    cache: dict[Hashable, set[Hashable]] = {}

    def closure(key: Hashable, visiting: set[Hashable]) -> set[Hashable]:
        if key in cache:
            return cache[key]
        if key in visiting:
            return {key}
        visiting.add(key)
        members = {key}
        for successor in adjacency.get(key, ()):
            members |= closure(successor, visiting)
        visiting.discard(key)
        cache[key] = members
        return members

    targets = list(keys) if keys is not None else list(adjacency)
    for key in targets:
        closure(key, set())
    return {key: cache[key] for key in targets}


def bounded_reach(
    frontier: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable] | None],
    *,
    max_depth: int,
    visited: Iterable[Hashable] = (),
) -> list[Hashable]:
    """Breadth-first reachability bounded to ``max_depth`` expansions.

    ``successors(key)`` returns the keys reachable in one step, or
    ``None`` when the key is unknown — an unknown key is skipped
    *without* being marked visited, so it stays expandable should a
    later frontier learn about it.  This replicates the zone-walk
    semantics of the SPoF study.  Returns the keys actually expanded,
    in expansion order.
    """
    seen = set(visited)
    reached: list[Hashable] = []
    current = set(frontier)
    depth = 0
    while current and depth < max_depth:
        next_frontier: set[Hashable] = set()
        for key in current:
            if key in seen:
                continue
            links = successors(key)
            if links is None:
                continue
            seen.add(key)
            reached.append(key)
            for successor in links:
                if successor not in seen:
                    next_frontier.add(successor)
        current = next_frontier
        depth += 1
    return reached


# ----------------------------------------------------------------------
# Components
# ----------------------------------------------------------------------


def weakly_connected_components(
    store: GraphReadStore, rel_type: str | None = None
) -> list[list[int]]:
    """Weakly-connected components via union-find over the edge list.

    Edge direction is ignored; isolated nodes form singleton
    components.  Components come back as sorted member lists, largest
    first (ties broken by smallest member id), and because unions always
    keep the smaller id as root, each component's canonical id is its
    smallest member.
    """
    parent = {node_id: node_id for node_id in store.node_ids()}

    def find(node_id: int) -> int:
        root = node_id
        while parent[root] != root:
            root = parent[root]
        while parent[node_id] != root:
            parent[node_id], node_id = root, parent[node_id]
        return root

    for _, start, end in store.iter_edges(rel_type):
        a, b = find(start), find(end)
        if a != b:
            if a > b:
                a, b = b, a
            parent[b] = a

    members: dict[int, list[int]] = {}
    for node_id in parent:
        members.setdefault(find(node_id), []).append(node_id)
    components = [sorted(ids) for ids in members.values()]
    components.sort(key=lambda ids: (-len(ids), ids[0]))
    return components


# ----------------------------------------------------------------------
# Degree distributions
# ----------------------------------------------------------------------


def degree_histogram(
    store: GraphReadStore,
    rel_type: str | None = None,
    direction: Direction = Direction.BOTH,
    label: str | None = None,
) -> dict[int, int]:
    """``{degree: node count}`` over one (label, type, direction) slice."""
    if label is not None:
        node_ids: Iterable[int] = store.label_ids(label)
    else:
        node_ids = store.node_ids()
    histogram: Counter[int] = Counter()
    for node_id in node_ids:
        degrees = store.typed_degrees(node_id)
        if rel_type is None:
            out = sum(entry[0] for entry in degrees.values())
            inbound = sum(entry[1] for entry in degrees.values())
            loops = sum(entry[2] for entry in degrees.values())
        else:
            out, inbound, loops = degrees.get(rel_type, (0, 0, 0))
        histogram[directional_count(out, inbound, loops, direction)] += 1
    return dict(histogram)


def degree_centrality(
    store: GraphReadStore,
    label: str | None = None,
    rel_type: str | None = None,
    direction: Direction = Direction.BOTH,
) -> list[tuple[int, int, float]]:
    """``(node_id, degree, degree / (n - 1))`` sorted by degree desc.

    ``n`` is the number of candidate nodes (the label population when a
    label is given); ties are broken by ascending node id.
    """
    if label is not None:
        node_ids = sorted(store.label_ids(label))
    else:
        node_ids = sorted(store.node_ids())
    n = len(node_ids)
    rows: list[tuple[int, int, float]] = []
    for node_id in node_ids:
        degrees = store.typed_degrees(node_id)
        if rel_type is None:
            out = sum(entry[0] for entry in degrees.values())
            inbound = sum(entry[1] for entry in degrees.values())
            loops = sum(entry[2] for entry in degrees.values())
        else:
            out, inbound, loops = degrees.get(rel_type, (0, 0, 0))
        degree = directional_count(out, inbound, loops, direction)
        rows.append((node_id, degree, degree / (n - 1) if n > 1 else 0.0))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


# ----------------------------------------------------------------------
# Centrality
# ----------------------------------------------------------------------


def pagerank(
    store: GraphReadStore,
    damping: float = 0.85,
    iterations: int = 40,
    rel_types: Iterable[str] = AS_EDGE_TYPES,
    label: str = "AS",
    key: str = "asn",
) -> dict[Any, float]:
    """PageRank over the directed AS-to-AS subgraph, keyed by ``key``.

    Ranks are summed per ascending source index with identical per-edge
    shares, so the returned floats are bit-identical to the
    Cypher-driven reference in ``tests/test_analytics_equivalence.py``,
    independent of edge-list construction order.
    Dangling mass is redistributed uniformly each iteration.
    """
    key_of: dict[int, Any] = {}
    for node_id in store.label_ids(label):
        value = store.node_property(node_id, key)
        if value is not None:
            key_of[node_id] = value

    edges: list[tuple[Any, Any]] = []
    for rel_type in rel_types:
        for _, start_id, end_id in store.iter_edges(rel_type):
            src = key_of.get(start_id)
            dst = key_of.get(end_id)
            if src is not None and dst is not None:
                edges.append((src, dst))
    keys = sorted({src for src, _ in edges} | {dst for _, dst in edges})
    if not keys:
        return {}
    index = {value: i for i, value in enumerate(keys)}
    out_links: list[list[int]] = [[] for _ in keys]
    for src, dst in edges:
        out_links[index[src]].append(index[dst])

    n = len(keys)
    rank = [1.0 / n] * n
    for _ in range(iterations):
        incoming = [0.0] * n
        dangling = 0.0
        for i, targets in enumerate(out_links):
            if not targets:
                dangling += rank[i]
                continue
            share = rank[i] / len(targets)
            for j in targets:
                incoming[j] += share
        base = (1.0 - damping) / n + damping * dangling / n
        rank = [base + damping * incoming[i] for i in range(n)]
    return {value: rank[index[value]] for value in keys}


def betweenness_centrality(
    store: GraphReadStore,
    label: str = "AS",
    rel_types: Iterable[str] = AS_EDGE_TYPES,
    key: str = "asn",
) -> dict[Any, float]:
    """Brandes betweenness over the undirected AS subgraph.

    Parallel edges are collapsed and self-loops dropped (shortest paths
    see a simple graph).  Scores are halved once at the end, the
    undirected-graph convention.  Neighbor iteration is sorted so float
    accumulation is deterministic across runs.
    """
    key_of: dict[int, Any] = {}
    for node_id in store.label_ids(label):
        value = store.node_property(node_id, key)
        if value is not None:
            key_of[node_id] = value

    adjacency: dict[int, set[int]] = {node_id: set() for node_id in key_of}
    for rel_type in rel_types:
        for _, start_id, end_id in store.iter_edges(rel_type):
            if (
                start_id in adjacency
                and end_id in adjacency
                and start_id != end_id
            ):
                adjacency[start_id].add(end_id)
                adjacency[end_id].add(start_id)

    ordered = sorted(adjacency)
    neighbors = {node_id: sorted(adjacency[node_id]) for node_id in ordered}
    centrality = {node_id: 0.0 for node_id in ordered}
    for source in ordered:
        stack: list[int] = []
        predecessors: dict[int, list[int]] = {v: [] for v in ordered}
        sigma = dict.fromkeys(ordered, 0)
        sigma[source] = 1
        distance = {source: 0}
        queue = [source]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            stack.append(v)
            for w in neighbors[v]:
                if w not in distance:
                    distance[w] = distance[v] + 1
                    queue.append(w)
                if distance[w] == distance[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta = dict.fromkeys(ordered, 0.0)
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                centrality[w] += delta[w]
    return {key_of[node_id]: centrality[node_id] / 2.0 for node_id in ordered}


# ----------------------------------------------------------------------
# Reachability measures
# ----------------------------------------------------------------------


def k_reach(
    store: GraphReadStore,
    node_id: int,
    k: int,
    rel_type: str | None = None,
    direction: Direction = Direction.BOTH,
) -> dict[int, int]:
    """Minimum hop count to every node within ``k`` hops of ``node_id``.

    The source itself is excluded.  Returns ``{node_id: depth}`` with
    depths in ``1..k``.
    """
    if k <= 0 or not store.has_node(node_id):
        return {}
    depths: dict[int, int] = {}
    seen = {node_id}
    frontier = [node_id]
    for depth in range(1, k + 1):
        next_frontier: list[int] = []
        for current in frontier:
            for _, neighbor in store.expand_ids(current, direction, rel_type):
                if neighbor not in seen:
                    seen.add(neighbor)
                    depths[neighbor] = depth
                    next_frontier.append(neighbor)
        if not next_frontier:
            break
        frontier = next_frontier
    return depths


def customer_cones(store: GraphReadStore) -> dict[Any, set[Any]]:
    """AS customer cones from BGPKIT provider-to-customer links.

    Provider links are ``(:AS)-[:PEERS_WITH {rel: 1}]->(:AS)`` with the
    provider at the start.  Every AS carrying an ``asn`` gets a cone;
    a stub AS's cone is just itself.  Cycle handling matches the
    synthetic-world builder (see :func:`transitive_closure`).
    """
    asn_of: dict[int, Any] = {}
    for node_id in store.label_ids("AS"):
        asn = store.node_property(node_id, "asn")
        if asn is not None:
            asn_of[node_id] = asn
    customers: dict[Any, list[Any]] = {}
    for rel in store.relationships_with_type("PEERS_WITH"):
        if rel.properties.get("rel") != PROVIDER_REL_VALUE:
            continue
        provider = asn_of.get(rel.start_id)
        customer = asn_of.get(rel.end_id)
        if provider is None or customer is None:
            continue
        customers.setdefault(provider, []).append(customer)
    return transitive_closure(customers, keys=sorted(asn_of.values()))
