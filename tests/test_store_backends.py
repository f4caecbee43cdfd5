"""Backend conformance: dict vs columnar against one store contract.

Two layers of assurance that the backends are interchangeable:

1. A backend-parametrized conformance suite exercising the whole
   :class:`repro.graphdb.interface.GraphReadStore` surface (counts,
   lookups, typed adjacency with self-loops and parallel edges, index
   seeks with Python's cross-type numeric key equality, bulk accessors,
   loader validation).
2. An optimizer-equivalence-style replay: the paper listings, the
   EXPERIMENTS.md fences, and seeded randomized queries all run through
   the Cypher engine against both backends and must return identical
   multisets — including through a live worker-pool hot swap over real
   sockets.
"""

from __future__ import annotations

import json
import threading
import urllib.request
from collections import Counter
from multiprocessing import shared_memory

import pytest

from repro.columnar import ColumnarGraphStore, attach_manifest, pack_store
from repro.columnar.pool import WorkerPool
from repro.columnar.shm import segment_registry
from repro.cypher.engine import CypherEngine
from repro.graphdb import (
    ConstraintViolationError,
    DanglingEndpointError,
    Direction,
    GraphReadStore,
    GraphStore,
    GraphWriteStore,
    NoSuchNodeError,
    ReadOnlyStoreError,
)
from tests.conftest import KEEPALIVE_KINDS, fastest_keepalive_ms
from tests.test_optimizer_equivalence import (
    EXPERIMENTS,
    PAPER_LISTINGS,
    QueryGenerator,
    result_multiset,
)

# ---------------------------------------------------------------------------
# A small graph with every awkward shape: multi-label nodes, parallel
# edges, a self-loop, sparse ids, list/bool/float properties.
# ---------------------------------------------------------------------------

NODES = [
    (1, ["AS"], {"asn": 2497, "name": "IIJ"}),
    (2, ["AS"], {"asn": 7922}),
    (5, ["Prefix", "BGPPrefix"], {"prefix": "8.8.8.0/24", "af": 4}),
    (7, ["Name"], {"name": "IIJ", "flag": True, "score": 1.0, "tags": ["a", "b"]}),
    (9, ["AS"], {"asn": 15169}),
    (12, ["Organization"], {"name": "Example Org"}),
]
RELS = [
    (10, "ORIGINATE", 1, 5, {"ref": "bgpkit"}),
    (11, "PEERS_WITH", 1, 2, {"rel": 1}),
    (13, "PEERS_WITH", 2, 9, {}),
    (14, "NAME", 1, 7, {}),
    (15, "DEPENDS_ON", 1, 1, {}),  # self-loop
    (16, "PEERS_WITH", 1, 2, {"rel": 0}),  # parallel edge
    (17, "MANAGED_BY", 1, 12, {}),
]
INDEXES = [("AS", "asn"), ("Name", "name")]
CONSTRAINTS = [("AS", "asn")]

BACKENDS = ("dict", "columnar")


def make_store(backend: str):
    cls = GraphStore if backend == "dict" else ColumnarGraphStore
    return cls.from_records(
        [(i, list(ls), dict(ps)) for i, ls, ps in NODES],
        [(i, t, s, e, dict(ps)) for i, t, s, e, ps in RELS],
        INDEXES,
        CONSTRAINTS,
    )


@pytest.fixture(params=BACKENDS)
def store(request):
    return make_store(request.param)


@pytest.fixture()
def both():
    return make_store("dict"), make_store("columnar")


# ---------------------------------------------------------------------------
# Contract + conformance
# ---------------------------------------------------------------------------


def test_backends_satisfy_protocols(both):
    dict_store, columnar = both
    assert isinstance(dict_store, GraphReadStore)
    assert isinstance(dict_store, GraphWriteStore)
    assert isinstance(columnar, GraphReadStore)
    assert dict_store.backend_name == "dict"
    assert columnar.backend_name == "columnar"


def test_counts_and_cardinalities(store):
    assert store.node_count == len(NODES)
    assert store.relationship_count == len(RELS)
    assert store.label_counts() == {
        "AS": 3,
        "BGPPrefix": 1,
        "Name": 1,
        "Organization": 1,
        "Prefix": 1,
    }
    assert store.label_count("AS") == 3
    assert store.label_count("Nope") == 0
    assert store.relationship_type_counts() == {
        "DEPENDS_ON": 1,
        "MANAGED_BY": 1,
        "NAME": 1,
        "ORIGINATE": 1,
        "PEERS_WITH": 3,
    }


def test_node_access(store):
    node = store.get_node(7)
    assert node.labels == frozenset({"Name"})
    assert node.properties == {
        "name": "IIJ",
        "flag": True,
        "score": 1.0,
        "tags": ["a", "b"],
    }
    assert store.has_node(5) and not store.has_node(4)
    with pytest.raises(NoSuchNodeError):
        store.get_node(404)
    assert [n.id for n in store.nodes_with_label("AS")] == [1, 2, 9]
    assert sorted(n.id for n in store.iter_nodes()) == [1, 2, 5, 7, 9, 12]


def test_index_seek_and_scan(store):
    assert [n.id for n in store.find_nodes("AS", "asn", 2497)] == [1]
    # Python index equality folds bool/int/float: 2497.0 hits the same
    # key, and a float query must not invent rows elsewhere.
    assert [n.id for n in store.find_nodes("AS", "asn", 2497.0)] == [1]
    assert store.find_nodes("AS", "asn", 2497.5) == []
    assert store.find_nodes("AS", "asn", "2497") == []
    # Unindexed property: filtering label scan, same numeric folding.
    assert [n.id for n in store.find_nodes("Name", "flag", 1)] == [7]
    assert [n.id for n in store.find_nodes("Prefix", "af", 4)] == [5]
    assert store.has_index("AS", "asn")
    assert not store.has_index("Prefix", "prefix")
    assert sorted(map(tuple, store.indexes())) == sorted(INDEXES)
    assert sorted(map(tuple, store.constraints())) == sorted(CONSTRAINTS)


def test_adjacency_parity(both):
    dict_store, columnar = both
    for node_id, _, _ in NODES:
        assert dict_store.typed_degrees(node_id) == columnar.typed_degrees(node_id)
        for direction in Direction:
            assert dict_store.degree(node_id, direction) == columnar.degree(
                node_id, direction
            ), (node_id, direction)
            for rel_type in ("PEERS_WITH", "DEPENDS_ON", "ABSENT"):
                assert dict_store.degree_by_type(
                    node_id, rel_type, direction
                ) == columnar.degree_by_type(node_id, rel_type, direction)
                assert Counter(
                    r.id for r in dict_store.relationships_of(
                        node_id, direction, rel_type
                    )
                ) == Counter(
                    r.id
                    for r in columnar.relationships_of(node_id, direction, rel_type)
                )
            for rel_type in (*sorted({rel[1] for rel in RELS}), "ABSENT", None):
                for backend in both:
                    assert backend.expand_ids(node_id, direction, rel_type) == [
                        (r.id, r.other_end(node_id))
                        for r in backend.relationships_of(
                            node_id, direction, rel_type
                        )
                    ], (backend.backend_name, node_id, direction, rel_type)
                assert Counter(
                    dict_store.expand_ids(node_id, direction, rel_type)
                ) == Counter(columnar.expand_ids(node_id, direction, rel_type))


def test_self_loop_semantics(store):
    # BOTH must return the loop once but count it once in degree.
    rels = store.relationships_of(1, Direction.BOTH, "DEPENDS_ON")
    assert [r.id for r in rels] == [15]
    assert store.degree_by_type(1, "DEPENDS_ON", Direction.BOTH) == 1
    assert store.degree_by_type(1, "DEPENDS_ON", Direction.OUT) == 1
    assert store.degree_by_type(1, "DEPENDS_ON", Direction.IN) == 1
    # The id-level primitive sees the loop once too, with the node
    # itself as the neighbour, and parallel edges once each.
    assert store.expand_ids(1, Direction.BOTH, "DEPENDS_ON") == [(15, 1)]
    assert store.expand_ids(1, Direction.OUT, "PEERS_WITH") == [(11, 2), (16, 2)]


def test_relationship_access(store):
    rel = store.get_relationship(11)
    assert (rel.type, rel.start_id, rel.end_id) == ("PEERS_WITH", 1, 2)
    assert rel.properties == {"rel": 1}
    assert sorted(r.id for r in store.iter_relationships()) == sorted(
        r[0] for r in RELS
    )
    assert sorted(r.id for r in store.relationships_with_type("PEERS_WITH")) == [
        11,
        13,
        16,
    ]
    assert sorted(r.id for r in store.relationships_between(1, 2)) == [11, 16]
    assert sorted(
        r.id for r in store.relationships_between(1, 2, "PEERS_WITH")
    ) == [11, 16]
    assert store.relationships_between(2, 1) == []


def test_bulk_accessors_parity(both):
    dict_store, columnar = both
    assert sorted(dict_store.node_ids()) == sorted(columnar.node_ids())
    assert sorted(dict_store.label_ids("AS")) == sorted(columnar.label_ids("AS"))
    assert dict_store.node_labels(5) == columnar.node_labels(5)
    assert dict_store.node_property(7, "tags") == columnar.node_property(7, "tags")
    assert dict_store.node_property(7, "absent") is None
    assert columnar.node_property(7, "absent") is None
    assert Counter(dict_store.iter_edges()) == Counter(columnar.iter_edges())
    assert Counter(dict_store.iter_edges("PEERS_WITH")) == Counter(
        columnar.iter_edges("PEERS_WITH")
    )
    assert list(columnar.iter_edges("ABSENT")) == []


def test_memory_info_shape(store):
    info = store.memory_info()
    assert set(info) == {
        "nodes_bytes",
        "relationships_bytes",
        "adjacency_bytes",
        "indexes_bytes",
        "total_bytes",
    }
    assert info["total_bytes"] > 0


def test_columnar_rejects_writes():
    columnar = make_store("columnar")
    with pytest.raises(ReadOnlyStoreError):
        columnar.create_node(["X"], {})
    with pytest.raises(ReadOnlyStoreError):
        columnar.update_node(1, {"x": 1})
    with pytest.raises(ReadOnlyStoreError):
        columnar.create_relationship(1, "X", 2)
    with pytest.raises(ReadOnlyStoreError):
        columnar.delete_node(1)
    with pytest.raises(ReadOnlyStoreError):
        columnar.create_index("AS", "name")
    with pytest.raises(ReadOnlyStoreError):
        columnar.merge_nodes("AS", "asn", [2497])
    with pytest.raises(ReadOnlyStoreError):
        columnar.merge_relationships([(1, "X", 2, None)])
    # ReadOnlyStoreError is a GraphError: the server maps it to a 400
    # query error instead of a 500.
    engine = CypherEngine(columnar)
    with pytest.raises(ReadOnlyStoreError):
        engine.run("CREATE (x:Test {p: 1}) RETURN x")


# ---------------------------------------------------------------------------
# Loader validation (satellite: positioned GraphError for dangling ids)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_from_records_rejects_dangling_endpoints(backend):
    cls = GraphStore if backend == "dict" else ColumnarGraphStore
    nodes = [(1, ["AS"], {}), (2, ["AS"], {})]
    with pytest.raises(DanglingEndpointError) as excinfo:
        cls.from_records(
            nodes, [(7, "PEERS_WITH", 1, 2, {}), (8, "PEERS_WITH", 1, 404, {})]
        )
    error = excinfo.value
    assert error.position == 1
    assert error.rel_id == 8
    assert error.endpoint == "end"
    assert error.node_id == 404
    assert "record #1" in str(error)
    with pytest.raises(DanglingEndpointError) as excinfo:
        cls.from_records(nodes, [(9, "PEERS_WITH", 404, 1, {})])
    assert excinfo.value.endpoint == "start"
    assert excinfo.value.position == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_from_records_rechecks_constraints(backend):
    cls = GraphStore if backend == "dict" else ColumnarGraphStore
    with pytest.raises(ConstraintViolationError):
        cls.from_records(
            [(1, ["AS"], {"asn": 1}), (2, ["AS"], {"asn": 1})],
            [],
            constraints=[("AS", "asn")],
        )


# ---------------------------------------------------------------------------
# Shared-memory round trip
# ---------------------------------------------------------------------------


def test_shared_memory_round_trip():
    columnar = make_store("columnar")
    manifest = pack_store(columnar)
    try:
        attached = attach_manifest(manifest)
        assert attached.node_count == columnar.node_count
        assert attached.get_node(7).properties == columnar.get_node(7).properties
        assert Counter(attached.iter_edges()) == Counter(columnar.iter_edges())
        assert [n.id for n in attached.find_nodes("AS", "asn", 7922)] == [2]
        attached.close()
    finally:
        assert segment_registry().unlink(manifest.name)
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=manifest.name)


def test_pack_store_accepts_dict_backend():
    manifest = pack_store(make_store("dict"))
    try:
        attached = attach_manifest(manifest)
        assert attached.backend_name == "columnar"
        assert attached.node_count == len(NODES)
        attached.close()
    finally:
        segment_registry().unlink(manifest.name)


# ---------------------------------------------------------------------------
# Engine replay: identical multisets on both backends
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def columnar_iyp(small_iyp):
    """The session graph converted to the columnar backend once."""
    return ColumnarGraphStore.from_store(small_iyp.store)


def assert_same_results(dict_store, columnar_store, query, parameters=None):
    expected = CypherEngine(dict_store).run(query, parameters)
    actual = CypherEngine(columnar_store).run(query, parameters)
    assert expected.columns == actual.columns, query
    assert result_multiset(expected) == result_multiset(actual), query
    return len(expected.records)


@pytest.mark.parametrize("name", sorted(PAPER_LISTINGS))
def test_paper_listing_same_on_both_backends(small_iyp, columnar_iyp, name):
    query = PAPER_LISTINGS[name]
    parameters = None
    if "$org_name" in query:
        orgs = small_iyp.engine.run(
            "MATCH (o:Organization) RETURN o.name AS name ORDER BY name"
        )
        parameters = {"org_name": orgs.records[0]["name"]}
    assert_same_results(small_iyp.store, columnar_iyp, query, parameters)


def test_experiments_fences_same_on_both_backends(small_iyp, columnar_iyp):
    from repro.lint.extract import extract_queries

    fences = extract_queries(EXPERIMENTS)
    assert fences, "EXPERIMENTS.md lost its cypher fences"
    for name, query in fences:
        rows = assert_same_results(small_iyp.store, columnar_iyp, query)
        assert rows > 0, f"{name} returned nothing on the built graph"


def test_randomized_queries_same_on_both_backends(small_iyp, columnar_iyp):
    generator = QueryGenerator(small_iyp.store, seed=20240809)
    nonempty = 0
    for _ in range(30):
        query = generator.query()
        nonempty += bool(
            assert_same_results(small_iyp.store, columnar_iyp, query)
        )
    assert nonempty >= 8, f"only {nonempty}/30 random queries returned rows"


# ---------------------------------------------------------------------------
# Worker pool: conformance over real sockets, including mid-query swap
# ---------------------------------------------------------------------------


def _post(host, port, query):
    request = urllib.request.Request(
        f"http://{host}:{port}/query",
        data=json.dumps({"query": query}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def test_worker_pool_serves_and_hot_swaps_mid_query(small_iyp):
    first = pack_store(small_iyp.store)

    # Second snapshot: same graph plus a marker node, packed from the
    # (still mutable) dict store after the first segment was copied out.
    small_iyp.store.create_node(["SwapMarker"], {"name": "generation-2"})
    second = pack_store(small_iyp.store)

    pool = WorkerPool(first, workers=2, service_config={"max_concurrent": 4})
    try:
        pool.start()
        host, port = pool.address

        count_query = "MATCH (a:AS) RETURN count(a) AS n"
        expected = len(small_iyp.store.nodes_with_label("AS"))
        body = _post(host, port, count_query)
        assert body["rows"] == [[expected]]

        marker_query = "MATCH (m:SwapMarker) RETURN count(m) AS n"
        assert _post(host, port, marker_query)["rows"] == [[0]]

        errors: list[str] = []

        def hammer():
            for _ in range(20):
                try:
                    result = _post(host, port, count_query)
                    assert result["rows"] == [[expected]]
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    errors.append(repr(exc))

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        summary = pool.swap(second, label="second")
        for thread in threads:
            thread.join()

        assert not errors, errors[:3]
        assert summary["workers"] == 2
        assert summary["generations"] == [1, 1]
        assert summary["unlinked_segment"] == first.name
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=first.name)

        # Every worker now serves the new snapshot.
        for _ in range(8):
            assert _post(host, port, marker_query)["rows"] == [[1]]

        stats = json.loads(
            urllib.request.urlopen(
                f"http://{host}:{port}/stats", timeout=30
            ).read()
        )
        assert stats["graph"]["backend"] == "columnar"
        assert stats["graph"]["generation"] == 1
        assert stats["graph"]["snapshot"] == "second"
    finally:
        pool.stop()
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=second.name)


def test_watched_pool_survives_a_corrupt_entry_then_moves_on(
    tmp_path, caplog, monkeypatch
):
    """``repro serve --workers N --watch``: the archive watcher drives the
    pool.  A truncated newest dump is logged, its half-made segment is
    not leaked, every worker keeps answering on the old label; the next
    good entry (a delta — taken through the chain-aware load) goes live."""
    from repro.archive import ArchiveWatcher, SnapshotArchive
    from repro.delta import delta_from_diff

    archive = SnapshotArchive(tmp_path / "archive")
    base = GraphStore.from_records(NODES, RELS)
    archive.add(base, "gen-1")
    pool = WorkerPool(
        pack_store(base), workers=2, archive=archive,
        service_config={"snapshot_label": "gen-1"},
    )
    count_query = "MATCH (a:AS) RETURN count(a) AS n"

    def health():
        host, port = pool.address
        with urllib.request.urlopen(
            f"http://{host}:{port}/healthz", timeout=30
        ) as response:
            return json.loads(response.read())

    try:
        pool.start()
        watcher = ArchiveWatcher(pool, archive)
        assert watcher.check_once() is False  # already on the latest

        grown = GraphStore.from_records(NODES + [(20, ["AS"], {"asn": 64500})], RELS)
        broken = archive.path(archive.add(grown, "gen-2"))
        broken.write_bytes(broken.read_bytes()[:-10])
        segments = segment_registry().names()
        with caplog.at_level("WARNING", logger="repro.archive"):
            assert watcher.check_once() is False
        assert "swap to 'gen-2' failed" in caplog.text
        assert segment_registry().names() == segments
        assert pool.snapshot_label == "gen-1"
        for _ in range(4):
            assert health()["snapshot"] == "gen-1"
            assert _post(*pool.address, count_query)["rows"] == [[3]]

        archive.add_delta(
            grown, delta_from_diff(base, grown), "gen-3", base="gen-1"
        )

        def refuse(manifest, label=None):
            raise TimeoutError("worker did not acknowledge swap")

        with monkeypatch.context() as patch:
            patch.setattr(pool, "swap", refuse)
            assert watcher.check_once() is False
        # The segment packed for the refused swap was unlinked again,
        # and the failed poll is retried without a new manifest write.
        assert segment_registry().names() == segments
        assert watcher.check_once() is True
        assert (watcher.swaps, watcher.delta_applies) == (1, 0)
        assert pool.snapshot_label == "gen-3"
        for _ in range(4):
            assert health()["snapshot"] == "gen-3"
            assert _post(*pool.address, count_query)["rows"] == [[4]]
    finally:
        pool.stop()
    assert segment_registry().names() == []


def test_pool_worker_answers_keepalive_requests_in_one_send_each(socket_sends):
    """The transport of ``repro.server.http`` as a forked worker runs it:
    no request on a reused connection waits out a delayed ACK, because
    every reply is one send on a ``TCP_NODELAY`` socket."""
    pool = WorkerPool(pack_store(GraphStore.from_records(NODES, RELS)), workers=1)
    try:
        pool.start()
        for method, path, body in KEEPALIVE_KINDS:
            fastest = fastest_keepalive_ms(*pool.address, method, path, body)
            assert fastest < 20, f"fastest keep-alive {method} {path}: {fastest:.1f} ms"
    finally:
        pool.stop()
    sends = socket_sends()
    assert len(sends) == 8 * len(KEEPALIVE_KINDS)
    assert all(nodelay for _, nodelay in sends)
    assert sum(size > 64 * 1024 for size, _ in sends) == 8


def test_stats_reports_backend_field(small_iyp):
    from repro.server.app import QueryService

    dict_stats = QueryService(small_iyp.store).stats()
    assert dict_stats["graph"]["backend"] == "dict"
    columnar_stats = QueryService(
        ColumnarGraphStore.from_store(small_iyp.store)
    ).stats()
    assert columnar_stats["graph"]["backend"] == "columnar"
