"""Shared-memory packing for the columnar arrays.

One graph snapshot becomes ONE ``multiprocessing.shared_memory``
segment: every array from :func:`repro.columnar.store.build_columnar`
is copied in at an 8-byte-aligned offset, and a small picklable
:class:`SegmentManifest` (segment name + table of contents + the JSON
metadata) describes how to reconstruct the store.  Any process can then
:func:`attach_manifest` and get a working
:class:`~repro.columnar.store.ColumnarGraphStore` whose buffers are
zero-copy ``memoryview`` casts over the mapping.

Lifecycle (the swap/unlink protocol the worker pool relies on):

1. The publisher packs a segment (``pack_store``) and registers it with
   the process-local :class:`SegmentRegistry`.
2. Readers attach by name.  Attaching deliberately *unregisters* the
   mapping from Python's ``resource_tracker`` — only the publisher owns
   unlinking, and 3.11 has no ``track=False`` yet.
3. On swap, the publisher broadcasts the new manifest, waits for every
   reader to acknowledge it switched, then ``unlink()``\\ s the old
   segment.  POSIX keeps the backing pages alive until the last mapping
   closes, so readers that still hold historical stores over the old
   arrays keep working — the name just disappears.
4. An ``atexit`` hook unlinks anything the process still owns so a
   crashed publisher cannot leak ``/dev/shm`` segments.

The registry is module-level shared state mutated from server and
watcher threads, so all of it sits behind a lock (RACE005).
"""

from __future__ import annotations

import atexit
import os
import secrets
from array import array
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Mapping

from repro.concurrency import new_lock
from repro.columnar.store import ColumnarGraphStore

#: Alignment for every array inside the segment; int64 is the widest
#: element, and 8-byte alignment keeps ``memoryview.cast`` legal.
ALIGNMENT = 8


@dataclass(frozen=True)
class SegmentManifest:
    """Everything a process needs to attach a packed graph.

    Picklable by construction (plain strings/ints/lists) so it can
    travel over a ``multiprocessing`` pipe to pool workers.
    """

    #: ``shared_memory`` segment name (``/dev/shm/<name>`` on Linux).
    name: str
    #: Total segment size in bytes.
    size: int
    #: Columnar metadata (string table, shapes, index slots, ...).
    meta: dict[str, Any]
    #: ``(array_name, typecode, offset, nbytes)`` per array.
    toc: tuple[tuple[str, str, int, int], ...] = field(default_factory=tuple)

    @property
    def nodes(self) -> int:
        return int(self.meta["node_count"])

    @property
    def relationships(self) -> int:
        return int(self.meta["rel_count"])


class SegmentRegistry:
    """Tracks the shared-memory segments this process created.

    Publishers register on ``pack``, unlink on swap/shutdown, and the
    ``atexit`` sweep releases anything left over.  All state is behind
    ``_lock``: the serving path touches this from the main thread, the
    archive watcher thread, and test harnesses concurrently.
    """

    GUARDED_BY = {
        "_lock": "frozen",
        "_segments": "_lock",
    }

    def __init__(self) -> None:
        self._lock = new_lock("SegmentRegistry._lock")
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def register(self, shm: shared_memory.SharedMemory) -> None:
        with self._lock:
            self._segments[shm.name] = shm

    def owns(self, name: str) -> bool:
        with self._lock:
            return name in self._segments

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._segments)

    def unlink(self, name: str) -> bool:
        """Close and unlink a segment this process created.

        Returns False when the name is unknown (already unlinked, or
        created by another process).
        """
        with self._lock:
            shm = self._segments.pop(name, None)
        if shm is None:
            return False
        try:
            shm.close()
        except BufferError:
            # A live store still holds views over the mapping; the
            # caller keeps the mapping and we only drop the name.
            pass
        shm.unlink()
        return True

    def cleanup(self) -> None:
        """Unlink every remaining owned segment (atexit safety net)."""
        for name in self.names():
            try:
                self.unlink(name)
            except FileNotFoundError:
                pass


_REGISTRY = SegmentRegistry()
atexit.register(_REGISTRY.cleanup)


def segment_registry() -> SegmentRegistry:
    """The process-wide registry of owned segments."""
    return _REGISTRY


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def pack_arrays(
    meta: Mapping[str, Any],
    arrays: Mapping[str, "array[int]"],
    name_prefix: str = "repro-col",
) -> SegmentManifest:
    """Copy columnar arrays into one new shared-memory segment.

    The segment is registered with :func:`segment_registry`; the caller
    (the publisher) is responsible for eventually unlinking it.
    """
    toc: list[tuple[str, str, int, int]] = []
    offset = 0
    for name, arr in arrays.items():
        nbytes = len(arr) * arr.itemsize
        offset = _aligned(offset)
        toc.append((name, arr.typecode, offset, nbytes))
        offset += nbytes
    size = max(offset, ALIGNMENT)
    name = f"{name_prefix}-{os.getpid()}-{secrets.token_hex(4)}"
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    for (_, _, off, nbytes), arr in zip(toc, arrays.values(), strict=True):
        if nbytes:
            shm.buf[off : off + nbytes] = memoryview(arr).cast("B")
    _REGISTRY.register(shm)
    return SegmentManifest(
        name=shm.name, size=size, meta=dict(meta), toc=tuple(toc)
    )


def pack_store(
    store: Any, name_prefix: str = "repro-col"
) -> SegmentManifest:
    """Pack any GraphReadStore into a fresh shared segment.

    A :class:`ColumnarGraphStore` built locally (arrays in process
    memory) is re-packed as-is; any other backend is converted by
    :meth:`ColumnarGraphStore.from_store` first.
    """
    if not isinstance(store, ColumnarGraphStore):
        store = ColumnarGraphStore.from_store(store)
    return pack_arrays(store._meta, store._arrays, name_prefix)


_ATTACH_LOCK = new_lock("columnar.shm._ATTACH_LOCK")


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without resource-tracker registration.

    3.11 has no ``SharedMemory(track=False)``: attaching registers the
    name with the (fork-inherited, process-tree-wide) resource tracker,
    and a later ``unregister`` from a worker would erase the creator's
    own registration — so the tracker must simply never hear about
    attach-side mappings.  Only the publisher owns unlinking.
    """
    with _ATTACH_LOCK:
        original = resource_tracker.register
        resource_tracker.register = lambda *args: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def attach_manifest(manifest: SegmentManifest) -> ColumnarGraphStore:
    """Attach to a packed segment and reconstruct the store (zero-copy).

    Attaching never registers with the ``resource_tracker`` — the
    publisher owns the segment's lifetime; see :func:`_attach_untracked`.
    """
    shm = _attach_untracked(manifest.name)
    buffers: dict[str, Any] = {}
    for name, typecode, offset, nbytes in manifest.toc:
        buffers[name] = shm.buf[offset : offset + nbytes].cast(typecode)
    return ColumnarGraphStore(manifest.meta, buffers, shm=shm)
