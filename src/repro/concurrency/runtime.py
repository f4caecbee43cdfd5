"""Runtime lock-discipline harness: env-gated, zero-cost when off.

With ``REPRO_LOCK_DEBUG=1`` in the environment (or after
:func:`set_lock_debug`), lock factories across the codebase
(:func:`repro.graphdb.rwlock.new_rwlock`, :func:`new_lock`) hand out
*instrumented* locks that

- record which thread holds them, so ``_locked`` methods can assert
  their contract (``check_write_held``) instead of trusting the caller;
- report every acquisition to the global :class:`LockOrderMonitor`,
  which maintains the runtime acquires-while-holding graph and raises
  :class:`LockOrderError` *before* blocking the first time two locks
  are ever taken in opposite orders — a potential deadlock becomes a
  deterministic, immediate test failure instead of a hung CI job.

When the flag is off (production serving), the factories return the
plain uninstrumented locks and the contract checks compile down to a
no-op method call, so the lifecycle benchmark's ``obs.overhead_pct``
and ``serve_refresh`` timings are taken with plain locks.
"""

from __future__ import annotations

import os
import threading
from types import TracebackType
from typing import Any, Protocol

from repro.concurrency.guards import guarded_by

_ENV_FLAG = "REPRO_LOCK_DEBUG"

_enabled = os.environ.get(_ENV_FLAG, "").strip().lower() not in ("", "0", "false", "off")


def lock_debug_enabled() -> bool:
    """True when lock factories should hand out instrumented locks."""
    return _enabled


def set_lock_debug(enabled: bool) -> None:
    """Flip the debug flag (tests); affects locks constructed *after*."""
    global _enabled
    _enabled = enabled


class LockDisciplineError(RuntimeError):
    """A lock contract was violated (mutation without the lock held)."""


class LockOrderError(LockDisciplineError):
    """Two locks were acquired in opposite orders (potential deadlock)."""


class LockLike(Protocol):
    """The subset of the lock interface the factories promise."""

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool: ...

    def release(self) -> None: ...

    def __enter__(self) -> bool: ...

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool | None: ...


class LockOrderMonitor:
    """The global runtime acquires-while-holding graph.

    Each thread keeps a stack of the instrumented locks it holds.
    :meth:`acquiring` is called *before* an acquisition blocks: it adds
    one edge per currently held lock and refuses (raises
    :class:`LockOrderError`) when the new edge would close a cycle —
    i.e. some earlier execution established the opposite order.  The
    graph is cumulative across the process, so a violation is caught
    even when the two conflicting acquisitions never overlap in time.
    """

    GUARDED_BY = {
        "_edges": "_lock",
        "acquisitions": "write:_lock",
        "violations": "write:_lock",
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: lock name -> set of lock names acquired while holding it.
        self._edges: dict[str, set[str]] = {}
        self._tls = threading.local()
        self.acquisitions = 0
        self.violations = 0

    # -- per-thread hold stack -------------------------------------------

    def _stack(self) -> list[str]:
        stack: list[str] | None = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def held(self) -> tuple[str, ...]:
        """Names of the instrumented locks this thread currently holds."""
        return tuple(self._stack())

    # -- recording -------------------------------------------------------

    def acquiring(self, name: str) -> None:
        """Record intent to acquire ``name``; raises on an order cycle.

        Called before the real acquisition blocks, so an inverted order
        fails fast instead of deadlocking the test run.
        """
        stack = self._stack()
        if stack:
            with self._lock:
                self.acquisitions += 1
                for held in stack:
                    if held == name:
                        continue
                    path = self._path(name, held)
                    if path is not None:
                        self.violations += 1
                        chain = " -> ".join([*path, name])
                        raise LockOrderError(
                            f"lock order violation: acquiring {name!r} while "
                            f"holding {held!r}, but the opposite order "
                            f"{chain} was previously established"
                        )
                    self._edges.setdefault(held, set()).add(name)
        else:
            with self._lock:
                self.acquisitions += 1
        stack.append(name)

    def abandoned(self, name: str) -> None:
        """Undo :meth:`acquiring` for an acquisition that failed."""
        self.released(name)

    def released(self, name: str) -> None:
        """Record that this thread released ``name``."""
        stack = self._stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                return

    @guarded_by("_lock")
    def _path(self, src: str, dst: str) -> list[str] | None:
        """A path ``src -> ... -> dst`` in the edge graph (caller locks)."""
        parents: dict[str, str] = {}
        frontier = [src]
        seen = {src}
        while frontier:
            node = frontier.pop()
            for succ in self._edges.get(node, ()):
                if succ in seen:
                    continue
                parents[succ] = node
                if succ == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                seen.add(succ)
                frontier.append(succ)
        return None

    # -- reading ---------------------------------------------------------

    def edges(self) -> dict[str, set[str]]:
        """A copy of the acquires-while-holding graph."""
        with self._lock:
            return {name: set(succs) for name, succs in self._edges.items()}

    def info(self) -> dict[str, Any]:
        """Summary counters (tests, debug endpoints)."""
        with self._lock:
            return {
                "locks": sorted(
                    set(self._edges) | {s for ss in self._edges.values() for s in ss}
                ),
                "edges": sum(len(succs) for succs in self._edges.values()),
                "acquisitions": self.acquisitions,
                "violations": self.violations,
            }

    def clear(self) -> None:
        """Reset the graph and counters (this thread's stack included)."""
        with self._lock:
            self._edges.clear()
            self.acquisitions = 0
            self.violations = 0
        self._tls.stack = []


#: Process-wide monitor every instrumented lock reports to.
MONITOR = LockOrderMonitor()


class TrackedLock:
    """A named, monitor-reporting wrapper around ``threading.Lock``.

    Non-reentrant like the lock it wraps — and because the monitor sees
    the hold, a re-acquisition by the owning thread raises
    :class:`LockDisciplineError` immediately instead of deadlocking.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: str) -> None:
        self.name = name
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if self.name in MONITOR.held():
            raise LockDisciplineError(
                f"self-deadlock: thread already holds {self.name!r}"
            )
        MONITOR.acquiring(self.name)
        acquired = self._inner.acquire(blocking, timeout)
        if not acquired:
            MONITOR.abandoned(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        MONITOR.released(self.name)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TrackedLock {self.name} locked={self._inner.locked()}>"


def new_lock(name: str) -> LockLike:
    """A mutex for ``name``: plain and free normally, tracked in debug."""
    if _enabled:
        return TrackedLock(name)
    return threading.Lock()
