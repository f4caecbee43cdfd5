"""Shared fixtures: one small synthetic world and one built knowledge
graph per test session (building is the expensive part)."""

from __future__ import annotations

import gzip
import http.client
import json
import socket
import time

import pytest

from repro.core import IYP
from repro.graphdb.snapshot import load_snapshot, save_snapshot, snapshot_dict
from repro.pipeline import build_iyp
from repro.simnet import WorldConfig, build_world


def write_v1_snapshot(store, path) -> None:
    """A pre-IYP2 dump: the gzip-JSON document ``save_snapshot`` used to
    write.  Only ``load_snapshot`` still knows the format; tests keep
    producing it to pin that read path."""
    payload = json.dumps(snapshot_dict(store), separators=(",", ":"), sort_keys=True)
    with open(path, "wb") as raw:
        with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as handle:
            handle.write(payload.encode("utf-8"))


@pytest.fixture(scope="session")
def small_world():
    """A small, deterministic synthetic Internet."""
    return build_world(WorldConfig.small())


@pytest.fixture(scope="session")
def small_iyp(small_world):
    """The knowledge graph built from the small world (all datasets)."""
    iyp, report = build_iyp(small_world)
    assert report.ok, report.crawler_errors
    return iyp


@pytest.fixture(scope="session")
def quarter_world():
    """The lifecycle benchmark's world, the one documentation/performance.md
    reads its numbers on: ``WorldConfig.small(7)`` with its three size
    knobs times 0.25 (``benchmarks/lifecycle/metrics.py``)."""
    return build_world(
        WorldConfig(seed=7, scale=0.025, n_domains=500, n_ases=62)
    )


@pytest.fixture()
def private_iyp(small_iyp, tmp_path):
    """A copy of the small graph that a test may write to."""
    save_snapshot(small_iyp.store, tmp_path / "private.iyp2")
    return IYP(load_snapshot(tmp_path / "private.iyp2"))


#: The session-scoped fixtures holding a built graph: every test that uses
#: one shares it, so none may write to it.
SESSION_GRAPHS = ("small_iyp",)


@pytest.fixture(autouse=True)
def session_graphs_unchanged(request):
    """Fail a test that writes to a session graph it requested: its
    store's mutation counter must be the same after the test."""
    stores = [
        request.getfixturevalue(name).store
        for name in SESSION_GRAPHS
        if name in request.fixturenames
    ]
    versions = [store.version for store in stores]
    yield
    assert [store.version for store in stores] == versions, (
        f"{request.node.nodeid} wrote to a session-scoped graph"
    )


@pytest.fixture()
def empty_iyp():
    """A fresh, empty IYP instance."""
    return IYP()


# ---------------------------------------------------------------------------
# HTTP transport probes, shared by the threaded-server tests
# (test_server.py) and the worker-pool leg (test_store_backends.py)
# ---------------------------------------------------------------------------

#: A seek, and a reply well above 64 KiB (~150 KB) on any store.
SEEK_QUERY = "MATCH (a:AS {asn: 64501}) RETURN a.asn"
LARGE_QUERY = "UNWIND range(1, 8000) AS i RETURN i, 'padpadpad' AS pad"

#: ``(method, path, body)`` of the three kinds of request the keep-alive
#: floor is checked on: two sub-MSS replies and one of many segments.
KEEPALIVE_KINDS = (
    ("GET", "/healthz", None),
    ("POST", "/query", json.dumps({"query": SEEK_QUERY})),
    ("POST", "/query", json.dumps({"query": LARGE_QUERY})),
)


def fastest_keepalive_ms(host, port, method, path, body=None, count=8) -> float:
    """Fastest of requests 2..``count`` sent back to back on one
    connection.  The first is left out (the kernel ACKs a new connection
    quickly, hiding a Nagle stall); a minimum cannot fail from host noise
    and cannot get under a 40 ms delayed-ACK timer."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    times = []
    try:
        for _ in range(count):
            started = time.perf_counter()
            connection.request(method, path, body=body)
            response = connection.getresponse()
            response.read()
            times.append(time.perf_counter() - started)
            assert response.status == 200
    finally:
        connection.close()
    return min(times[1:]) * 1000


class _RecordingSocket:
    """An accepted socket that appends ``<bytes> <TCP_NODELAY>`` to a
    file before every send — a file, so that the record also comes back
    from a forked pool worker."""

    def __init__(self, sock, log):
        self._sock, self._log = sock, log

    def __getattr__(self, name):
        return getattr(self._sock, name)

    def _record(self, data):
        nodelay = self._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        with open(self._log, "a") as handle:
            handle.write(f"{len(data)} {int(bool(nodelay))}\n")

    def send(self, data, *flags):
        self._record(data)
        return self._sock.send(data, *flags)

    def sendall(self, data, *flags):
        self._record(data)
        return self._sock.sendall(data, *flags)


@pytest.fixture()
def socket_sends(monkeypatch, tmp_path):
    """Record the sends of every connection accepted from here on, by
    the threaded server or by pool workers forked from here on.  Returns
    a callable giving the ``(bytes, nodelay)`` pairs recorded since it
    was last called."""
    from repro.server.http import IYPHTTPServer

    log = tmp_path / "sends.log"
    log.touch()
    finish_request = IYPHTTPServer.finish_request
    monkeypatch.setattr(
        IYPHTTPServer, "finish_request",
        lambda self, request, address: finish_request(
            self, _RecordingSocket(request, log), address
        ),
    )
    seen = 0

    def drain() -> list[tuple[int, bool]]:
        nonlocal seen
        lines = log.read_text().splitlines()
        fresh, seen = lines[seen:], len(lines)
        return [(int(size), flag == "1") for size, flag in map(str.split, fresh)]

    return drain
