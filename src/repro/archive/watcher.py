"""Directory watcher: keep the served graph current as the archive grows.

The paper's weekly cadence means a serving instance goes stale the
moment a new dump lands.  :class:`ArchiveWatcher` (``repro serve
--watch``) closes that gap with zero downtime: a daemon thread polls
the archive manifest and, when a new latest entry appears, brings the
running service up to date — in-flight queries finish against the old
state, new queries see the new one.

How each new entry is taken is decided from what the watcher can
observe, not by the operator: pending entries that form a verified
delta chain on top of the served label are applied in place when the
served store can ``apply_delta`` (the dict backend) — O(changes), no
reload, no swap; anything else (a full snapshot, a broken chain, a
failed apply, a frozen columnar store or a ``WorkerPool``) is loaded
chain-aware off to the side and swapped — always correct, O(world).

A failed load or swap is logged and the old store keeps serving.
Polling is cheap when nothing happens: the manifest's ``(mtime, size)``
signature is cached and unchanged manifests are never re-read or
re-parsed (``skipped_polls`` counts those fast exits).
"""

from __future__ import annotations

import logging
import threading

log = logging.getLogger("repro.archive")


class ArchiveWatcher:
    """Polls an archive and keeps the service on the latest entry."""

    def __init__(self, service, archive, interval: float = 5.0):
        """``service`` is anything with ``snapshot_label`` and
        ``load_and_swap(label)`` — a ``QueryService`` or a ``WorkerPool``."""
        self.service = service
        self.archive = archive
        self.interval = interval
        self.swaps = 0
        self.delta_applies = 0
        self.skipped_polls = 0
        self._manifest_signature: tuple[int, int] | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="archive-watcher", daemon=True
        )

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float | None = 5.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout)

    def _poll_entries(self):
        """Manifest entries, or None when unchanged/unreadable.

        The stat signature is recorded only after a successful parse, so
        a torn write (manifest mid-replace) is retried next poll.
        """
        try:
            stat = self.archive.manifest_path.stat()
        except OSError:
            return None
        signature = (stat.st_mtime_ns, stat.st_size)
        if signature == self._manifest_signature:
            self.skipped_polls += 1
            return None
        try:
            entries = self.archive.entries()
        except Exception:  # noqa: BLE001 - a torn manifest write mid-read
            return None
        self._manifest_signature = signature
        return entries

    def check_once(self) -> bool:
        """One poll; True when the service moved to a newer entry."""
        entries = self._poll_entries()
        if not entries:
            return False
        latest = entries[-1]
        current = self.service.snapshot_label
        if latest.label == current:
            return False
        if self._apply_pending_deltas(latest, current):
            return True
        try:
            self.service.load_and_swap(latest.label)
        except Exception as exc:  # noqa: BLE001 - keep serving the old store
            log.warning("archive watcher: swap to %r failed: %s",
                        latest.label, exc)
            self._manifest_signature = None  # retry even if nothing new lands
            return False
        self.swaps += 1
        log.info("archive watcher: swapped to %r", latest.label)
        return True

    def _apply_pending_deltas(self, latest, current: str | None) -> bool:
        """Try to walk from ``current`` to ``latest`` by applying deltas.

        Returns False (caller falls back to load-and-swap) whenever the
        pending entries are not a clean delta chain rooted at what we
        serve, the backend cannot apply in place, or an apply fails.
        """
        store = getattr(self.service, "store", None)
        if current is None or not hasattr(store, "apply_delta"):
            return False
        try:
            base, deltas = self.archive.delta_chain(latest)
            chain = [base, *deltas]
            labels = [entry.label for entry in chain]
            if current not in labels:
                return False  # a full snapshot landed since what we serve
            served = labels.index(current)
            pending = self.archive.verified_batches(
                chain[served], chain[served + 1:]
            )
            for entry, batch in pending:
                self.service.apply_delta(batch, label=entry.label)
                self.delta_applies += 1
        except Exception as exc:  # noqa: BLE001 - fall back to full swap
            log.warning(
                "archive watcher: applying deltas up to %r failed (%s); "
                "falling back to load-and-swap", latest.label, exc,
            )
            return False
        log.info("archive watcher: applied %d delta(s), now at %r",
                 len(pending), latest.label)
        return True

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.check_once()
