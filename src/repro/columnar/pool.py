"""Pre-forked multi-process query serving over one shared segment.

The GIL caps the threaded server at roughly one core of Cypher
execution no matter how many clients connect.  :class:`WorkerPool`
escapes that by forking N query *processes* that all:

- attach the same packed graph segment read-only (zero copy — the
  kernel shares the physical pages), and
- ``accept()`` from the same listening socket (created by the parent
  before forking, inherited across ``fork``), so the kernel load-
  balances connections without a proxy in front.

Each worker runs an ordinary :class:`repro.server.app.QueryService`
with its own generation-keyed result cache, admission control, and
observability — the whole serving stack is reused unchanged; only the
store underneath is shared.

Hot swap is parent-driven: ``swap(manifest)`` broadcasts the new
segment over per-worker control pipes; every worker attaches it and
calls ``QueryService.swap_store`` (which drains in-flight queries under
the old store's write lock), then acknowledges.  Once every worker has
acknowledged, the parent unlinks the old segment — POSIX keeps the
pages alive for any worker still holding the old mapping in its
historical-store LRU, so time-travel queries are unaffected; only the
name disappears.
"""

from __future__ import annotations

import logging
import multiprocessing
import socket
import socketserver
import threading
from typing import Any

from repro.columnar.shm import (
    SegmentManifest,
    attach_manifest,
    pack_store,
    segment_registry,
)
from repro.concurrency import new_lock

log = logging.getLogger("repro.columnar.pool")

#: Control-channel message tags (parent -> worker, worker -> parent).
_MSG_READY = "ready"
_MSG_SWAP = "swap"
_MSG_SWAPPED = "swapped"
_MSG_STOP = "stop"


class _InheritedSocketServer:
    """Builds an ``IYPHTTPServer`` around an already-bound socket.

    The stdlib server wants to bind its own socket; pool workers must
    instead adopt the listener the parent created before forking.  The
    listener is non-blocking so that when several workers wake for the
    same connection the losers get ``BlockingIOError`` (swallowed by
    ``BaseServer._handle_request_noblock``) instead of blocking inside
    ``accept`` and going deaf to ``shutdown()``.
    """

    @staticmethod
    def build(sock: socket.socket, service: Any) -> Any:
        from repro.server.http import IYPRequestHandler, IYPHTTPServer

        class Server(IYPHTTPServer):
            def __init__(self) -> None:
                socketserver.BaseServer.__init__(
                    self, sock.getsockname(), IYPRequestHandler
                )
                self.socket = sock
                host, port = sock.getsockname()[:2]
                self.server_name = str(host)
                self.server_port = int(port)
                self.service = service

            def get_request(self) -> tuple[socket.socket, Any]:
                conn, addr = self.socket.accept()
                # The non-blocking flag state of an accepted socket is
                # platform-dependent; queries must read bodies blocking.
                conn.setblocking(True)
                return conn, addr

        return Server()


def _worker_main(
    listener: socket.socket,
    manifest: SegmentManifest,
    control: Any,
    service_config: dict[str, Any],
) -> None:
    """Entry point of one forked query worker."""
    import signal

    from repro.server.app import QueryService

    # A terminal Ctrl-C signals the whole foreground process group;
    # workers must ignore it and wait for the parent's stop message so
    # shutdown is coordinated (and traceback-free).
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    store = attach_manifest(manifest)
    service = QueryService(store, **service_config)
    server = _InheritedSocketServer.build(listener, service)

    def control_loop() -> None:
        while True:
            try:
                message = control.recv()
            except (EOFError, OSError):
                server.shutdown()
                return
            if message[0] == _MSG_SWAP:
                new_store = attach_manifest(message[1])
                summary = service.swap_store(new_store, label=message[2])
                control.send((_MSG_SWAPPED, summary["generation"]))
            elif message[0] == _MSG_STOP:
                server.shutdown()
                return

    controller = threading.Thread(target=control_loop, daemon=True)
    controller.start()
    control.send((_MSG_READY, multiprocessing.current_process().pid))
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()


class WorkerPool:
    """N forked query servers sharing one socket and one graph segment.

    Parent-side façade: ``start()`` forks the workers and waits for
    their ready handshakes, ``swap()`` publishes a new segment and
    unlinks the old one after every worker drains onto it, ``stop()``
    shuts the pool down and unlinks the current segment.
    """

    GUARDED_BY = {
        "_lock": "frozen",
        "_listener": "frozen",
        "_context": "frozen",
        "_service_config": "frozen",
        "archive": "frozen",
        "_workers": "_lock",
        "_pipes": "_lock",
        "_manifest": "_lock",
        "_label": "_lock",
        "_started": "_lock",
    }

    def __init__(
        self,
        manifest: SegmentManifest,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 4,
        service_config: dict[str, Any] | None = None,
        archive: Any | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._lock = new_lock("WorkerPool._lock")
        self._context = multiprocessing.get_context("fork")
        self._service_config = dict(service_config or {})
        #: Optional ``SnapshotArchive`` that :meth:`load_and_swap` loads from.
        self.archive = archive
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        with self._lock:
            self._manifest = manifest
            self._label: str | None = self._service_config.get("snapshot_label")
            self._workers: list[Any] = []
            self._pipes: list[Any] = []
            self._started = False
        self.worker_count = workers

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port 0 resolves at bind time."""
        addr = self._listener.getsockname()
        return str(addr[0]), int(addr[1])

    @property
    def manifest(self) -> SegmentManifest:
        with self._lock:
            return self._manifest

    @property
    def snapshot_label(self) -> str | None:
        """Label of the archive entry every worker serves."""
        with self._lock:
            return self._label

    def start(self, ready_timeout: float = 30.0) -> None:
        """Fork the workers and wait for every ready handshake."""
        with self._lock:
            if self._started:
                raise RuntimeError("pool already started")
            self._started = True
            manifest = self._manifest
        # Fork outside the lock: child processes must never be spawned
        # while holding it (the fork would copy a locked lock).
        spawned: list[Any] = []
        pipes: list[Any] = []
        for index in range(self.worker_count):
            parent_end, child_end = self._context.Pipe()
            process = self._context.Process(
                target=_worker_main,
                args=(
                    self._listener,
                    manifest,
                    child_end,
                    self._service_config,
                ),
                name=f"iyp-query-worker-{index}",
                daemon=True,
            )
            process.start()
            child_end.close()
            spawned.append(process)
            pipes.append(parent_end)
        with self._lock:
            self._workers.extend(spawned)
            self._pipes.extend(pipes)
        for pipe in pipes:
            if not pipe.poll(ready_timeout):
                self.stop()
                raise TimeoutError("worker did not become ready")
            message = pipe.recv()
            if message[0] != _MSG_READY:
                self.stop()
                raise RuntimeError(f"unexpected handshake {message!r}")
        log.info(
            "worker pool serving on %s:%d with %d processes",
            *self.address,
            self.worker_count,
        )

    def swap(
        self, manifest: SegmentManifest, label: str | None = None,
        ack_timeout: float = 60.0,
    ) -> dict[str, Any]:
        """Publish a new segment; unlink the old one once all workers
        acknowledge they swapped onto it.  Until then the pool keeps
        owning the old segment, so a failed swap leaves the new one to
        its publisher."""
        with self._lock:
            if not self._started:
                raise RuntimeError("pool not started")
            old = self._manifest
            pipes = list(self._pipes)
        generations = []
        for pipe in pipes:
            pipe.send((_MSG_SWAP, manifest, label))
        for pipe in pipes:
            if not pipe.poll(ack_timeout):
                raise TimeoutError("worker did not acknowledge swap")
            message = pipe.recv()
            if message[0] != _MSG_SWAPPED:
                raise RuntimeError(f"unexpected swap reply {message!r}")
            generations.append(message[1])
        with self._lock:
            self._manifest = manifest
            self._label = label
        unlinked = segment_registry().unlink(old.name)
        log.info(
            "swapped all %d workers to %s (generation %s); old segment "
            "%s %s",
            len(pipes),
            manifest.name,
            generations and generations[0],
            old.name,
            "unlinked" if unlinked else "left (not owned)",
        )
        return {
            "workers": len(pipes),
            "generations": generations,
            "unlinked_segment": old.name if unlinked else None,
        }

    def load_and_swap(self, selector: str = "latest") -> dict[str, Any]:
        """Move every worker to an archived entry (the ``--watch`` hook);
        deltas arrive through the archive's chain-aware ``load``.  The
        freshly packed segment is unlinked again if the swap fails."""
        if self.archive is None:
            raise RuntimeError("no snapshot archive attached")
        entry = self.archive.resolve(selector)
        manifest = pack_store(self.archive.load(entry))
        try:
            return self.swap(manifest, label=entry.label)
        except BaseException:
            segment_registry().unlink(manifest.name)
            raise

    def stop(self, join_timeout: float = 10.0) -> None:
        """Stop every worker, close the listener, unlink the segment."""
        with self._lock:
            workers = list(self._workers)
            pipes = list(self._pipes)
            self._workers.clear()
            self._pipes.clear()
            manifest = self._manifest
        for pipe in pipes:
            try:
                pipe.send((_MSG_STOP,))
            except (BrokenPipeError, OSError):
                pass
        for process in workers:
            process.join(join_timeout)
            if process.is_alive():
                process.terminate()
                process.join(5.0)
        for pipe in pipes:
            pipe.close()
        self._listener.close()
        segment_registry().unlink(manifest.name)
