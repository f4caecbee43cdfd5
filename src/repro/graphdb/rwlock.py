"""A reentrant readers-writer lock for the graph store.

Read queries dominate the serving workload, so the store lets any number
of readers proceed in parallel while writers get exclusive access.  The
lock is write-preferring (a waiting writer blocks new readers, so bulk
loads are not starved by a stream of queries) and reentrant in both
directions for a single thread:

- a thread holding the write lock may re-acquire it (a
  ``batch_mutation()`` scope calls the public mutators, ``delete_node``
  calls ``delete_relationship``) and may also take the read lock;
- a thread holding the read lock may re-acquire the read lock even while
  a writer is queued (refusing would deadlock the reader).

Lock upgrades (read -> write by the same thread) are not supported; the
query service classifies queries up front and takes the right lock for
the whole execution.

A scope costs one uncontended acquire and one release.  The store's
write path relies on that being the whole price: a merge — one datapoint
or a whole column — opens exactly one scope and reaches the creation and
update routines through ``_locked`` helpers, never by re-entering.

Debugging: :func:`new_rwlock` returns a :class:`DebugRWLock` when the
``REPRO_LOCK_DEBUG`` harness (:mod:`repro.concurrency.runtime`) is on.
The debug lock reports acquisitions to the global lock-order monitor and
turns the base class's no-op ``check_read_held``/``check_write_held``
contract assertions into real checks, so ``_locked`` methods fail loudly
when called without their lock instead of corrupting state quietly.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager
from typing import Callable

from repro.concurrency.runtime import (
    MONITOR,
    LockDisciplineError,
    lock_debug_enabled,
)


class _Scope(AbstractContextManager):
    """``with`` form of one acquire/release pair of an :class:`RWLock`."""

    __slots__ = ("_acquire", "_release")

    def __init__(self, acquire: Callable[[], None], release: Callable[[], None]):
        self._acquire = acquire
        self._release = release

    def __enter__(self) -> None:
        self._acquire()

    def __exit__(self, *exc_info: object) -> None:
        self._release()


class RWLock:
    """A write-preferring, per-thread-reentrant readers-writer lock."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers: dict[int, int] = {}  # thread ident -> hold count
        self._writer: int | None = None
        self._writer_holds = 0
        self._waiting_writers = 0
        # Every write datapoint opens one scope, so a scope must cost an
        # acquire and a release, not a generator on top.  The scopes hold
        # no state of their own: one of each serves every thread.
        self._read_scope = _Scope(self.acquire_read, self.release_read)
        self._write_scope = _Scope(self.acquire_write, self.release_write)

    # -- read side -------------------------------------------------------

    def acquire_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            # Reentrant cases never wait: the thread already owns access.
            if self._writer == me or self._readers.get(me):
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer is not None or self._waiting_writers:
                self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        me = threading.get_ident()
        with self._cond:
            count = self._readers.get(me, 0)
            if count <= 0:
                raise RuntimeError("release_read() without a matching acquire")
            if count == 1:
                del self._readers[me]
                self._cond.notify_all()
            else:
                self._readers[me] = count - 1

    # -- write side ------------------------------------------------------

    def acquire_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_holds += 1
                return
            if self._readers.get(me):
                raise RuntimeError("cannot upgrade a read lock to a write lock")
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._writer_holds = 1

    def release_write(self) -> None:
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError("release_write() by a thread not holding it")
            self._writer_holds -= 1
            if self._writer_holds == 0:
                self._writer = None
                self._cond.notify_all()

    # -- context managers ------------------------------------------------

    def read(self) -> AbstractContextManager[None]:
        """``with lock.read():`` — the shared hold."""
        return self._read_scope

    def write(self) -> AbstractContextManager[None]:
        """``with lock.write():`` — the exclusive hold."""
        return self._write_scope

    # -- introspection (for tests and metrics) ---------------------------

    @property
    def active_readers(self) -> int:
        """Number of distinct threads currently holding the read lock."""
        with self._cond:
            return len(self._readers)

    @property
    def write_locked(self) -> bool:
        """True when some thread holds the write lock."""
        with self._cond:
            return self._writer is not None

    # -- contract assertions (real only under DebugRWLock) ---------------

    def check_read_held(self) -> None:
        """Assert this thread holds the lock (shared or exclusive).

        No-op on the production lock; :class:`DebugRWLock` overrides.
        """

    def check_write_held(self) -> None:
        """Assert this thread holds the lock exclusively.

        No-op on the production lock; :class:`DebugRWLock` overrides.
        ``_locked`` methods call this on entry, so under the debug
        harness an unlocked call path fails at the method boundary.
        """


class DebugRWLock(RWLock):
    """An RWLock that enforces its contract and reports to the monitor.

    Used only under ``REPRO_LOCK_DEBUG`` (see :func:`new_rwlock`): the
    hot path gains a per-thread hold counter and a monitor call on the
    first acquisition / last release, which is far too slow for serving
    but exactly what the concurrency test suites need.
    """

    def __init__(self, name: str = "RWLock") -> None:
        super().__init__()
        self.name = name
        self._debug_tls = threading.local()

    # The lock is reentrant in both directions, so the monitor must see
    # one logical hold per thread regardless of nesting depth or mode.

    def _holds(self) -> int:
        return int(getattr(self._debug_tls, "holds", 0))

    def _entering(self) -> None:
        if self._holds() == 0:
            MONITOR.acquiring(self.name)

    def _entered(self) -> None:
        self._debug_tls.holds = self._holds() + 1

    def _exited(self) -> None:
        holds = self._holds() - 1
        self._debug_tls.holds = holds
        if holds == 0:
            MONITOR.released(self.name)

    def acquire_read(self) -> None:
        self._entering()
        try:
            super().acquire_read()
        except BaseException:
            if self._holds() == 0:
                MONITOR.abandoned(self.name)
            raise
        self._entered()

    def release_read(self) -> None:
        super().release_read()
        self._exited()

    def acquire_write(self) -> None:
        self._entering()
        try:
            super().acquire_write()
        except BaseException:
            if self._holds() == 0:
                MONITOR.abandoned(self.name)
            raise
        self._entered()

    def release_write(self) -> None:
        super().release_write()
        self._exited()

    def check_read_held(self) -> None:
        me = threading.get_ident()
        if self._writer != me and not self._readers.get(me):
            raise LockDisciplineError(
                f"{self.name}: read access without the lock held"
            )

    def check_write_held(self) -> None:
        if self._writer != threading.get_ident():
            raise LockDisciplineError(
                f"{self.name}: _locked method entered without the write lock"
            )


def new_rwlock(name: str) -> RWLock:
    """The store's lock factory: plain in production, checked in debug."""
    if lock_debug_enabled():
        return DebugRWLock(name)
    return RWLock()
