"""The snapshot archive: a managed directory of dated graph dumps.

The paper distributes IYP as weekly Neo4j dumps that users download and
run locally; its Limitations section calls longitudinal work across
those dumps a manual, multi-instance chore.  :class:`SnapshotArchive`
is the missing management layer: a directory of snapshots plus a JSON
manifest recording, per entry, the format version, a SHA-256 checksum,
node/relationship counts, build metadata from the pipeline's
``BuildReport``, and the identity-level delta against the previous
entry (computed with :mod:`repro.core.diff`).

Because snapshot bytes are deterministic, the archive deduplicates by
checksum: archiving a store whose bytes match an existing entry records
a new manifest entry pointing at the existing file instead of writing a
second copy.  ``prune`` respects that sharing — a file is only deleted
once no remaining entry references it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.archive.format import SnapshotFormatError, read_meta
from repro.core.diff import snapshot_diff
from repro.graphdb.snapshot import load_snapshot, save_snapshot
from repro.graphdb.store import GraphStore
from repro.obs import utc_timestamp

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class ArchiveEntry:
    """One archived snapshot, as recorded in the manifest."""

    label: str
    filename: str
    format: int
    checksum: str
    nodes: int
    relationships: int
    created_at: str = ""
    build: dict[str, Any] | None = None
    delta: dict[str, Any] | None = None
    #: Serialized :class:`repro.analytics.AnalyticsReport` computed at
    #: build time — statistics plus precomputed procedure rows.  Older
    #: manifests simply lack the key (loaded as None).
    analytics: dict[str, Any] | None = None
    #: ``"full"`` for a complete dump, ``"delta"`` for an IYPD delta file
    #: (format 3) applied on top of ``base``.  Older manifests lack the
    #: keys and load as full snapshots.
    kind: str = "full"
    #: For delta entries: the label of the entry this delta applies to
    #: (itself possibly a delta — chains resolve back to a full snapshot).
    base: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "filename": self.filename,
            "format": self.format,
            "checksum": self.checksum,
            "nodes": self.nodes,
            "relationships": self.relationships,
            "created_at": self.created_at,
            "build": self.build,
            "delta": self.delta,
            "analytics": self.analytics,
            "kind": self.kind,
            "base": self.base,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ArchiveEntry":
        return cls(
            label=data["label"],
            filename=data["filename"],
            format=int(data["format"]),
            checksum=data["checksum"],
            nodes=int(data["nodes"]),
            relationships=int(data["relationships"]),
            created_at=data.get("created_at", ""),
            build=data.get("build"),
            delta=data.get("delta"),
            analytics=data.get("analytics"),
            kind=data.get("kind", "full"),
            base=data.get("base", ""),
        )


@dataclass
class VerificationReport:
    """Outcome of :meth:`SnapshotArchive.verify`."""

    entries_checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _select(entries: list[ArchiveEntry], selector: str) -> ArchiveEntry:
    """The entry ``selector`` names among ``entries`` (see
    :meth:`SnapshotArchive.resolve`)."""
    if not entries:
        raise KeyError("archive is empty")
    if selector == "latest":
        return entries[-1]
    for entry in entries:
        if entry.label == selector:
            return entry
    candidates = [e for e in entries if e.label.startswith(selector)]
    if len(candidates) == 1:
        return candidates[0]
    if candidates:
        names = ", ".join(e.label for e in candidates)
        raise KeyError(f"ambiguous snapshot selector {selector!r}: {names}")
    raise KeyError(f"no archived snapshot matches {selector!r}")


class SnapshotArchive:
    """A directory of snapshots governed by a JSON manifest."""

    def __init__(self, root: str | Path, retention: int | None = None):
        """``retention`` keeps only the newest N entries after each add."""
        self.root = Path(root)
        self.retention = retention
        self.root.mkdir(parents=True, exist_ok=True)

    # -- manifest ---------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def entries(self) -> list[ArchiveEntry]:
        """All entries, oldest first (manifest order is chronological)."""
        if not self.manifest_path.exists():
            return []
        data = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        return [ArchiveEntry.from_dict(item) for item in data.get("snapshots", ())]

    def labels(self) -> list[str]:
        return [entry.label for entry in self.entries()]

    def _write_manifest(self, entries: list[ArchiveEntry]) -> None:
        """One compact, key-sorted JSON object per line inside the
        ``snapshots`` array: still one JSON document, ``grep``-able by
        label, and written by the C encoder (``indent`` would fall back
        to the pure-Python one, on every entry, at every add)."""
        lines = ",\n".join(
            json.dumps(entry.to_dict(), sort_keys=True, separators=(",", ":"))
            for entry in entries
        )
        tmp = self.manifest_path.with_suffix(".tmp")
        tmp.write_text(
            f'{{"manifest_version":{MANIFEST_VERSION},"snapshots":[\n{lines}\n]}}\n',
            encoding="utf-8",
        )
        tmp.replace(self.manifest_path)

    # -- adding -----------------------------------------------------------

    def add(
        self,
        store: GraphStore,
        label: str,
        *,
        build: Mapping[str, Any] | None = None,
        created_at: str = "",
        delta: bool = True,
        analytics: Mapping[str, Any] | None = None,
    ) -> ArchiveEntry:
        """Archive a store under ``label``; returns the manifest entry.

        The snapshot is written to a temporary file first; if its
        checksum matches an existing entry the new entry shares that
        file (checksum dedup).  With ``delta`` (the default) the
        identity-level diff summary against the current latest entry is
        computed and stored on the new entry.  ``analytics`` (a
        serialized :class:`repro.analytics.AnalyticsReport`) is stored
        verbatim on the manifest entry; snapshot bytes and checksums are
        unaffected.  ``created_at`` defaults to the current UTC time —
        the freshness signal data-quality telemetry reads back.
        """
        if not created_at:
            created_at = utc_timestamp()
        entries = self.entries()
        if any(entry.label == label for entry in entries):
            raise ValueError(f"archive already has a snapshot labelled {label!r}")
        tmp = self.root / f".{label}.iyp2.tmp"
        save_snapshot(store, tmp)
        checksum = _sha256(tmp)
        existing = next((e for e in entries if e.checksum == checksum), None)
        if existing is not None:
            tmp.unlink()
            filename = existing.filename
        else:
            filename = f"{label}.iyp2"
            tmp.replace(self.root / filename)
        delta_record = None
        if delta and entries:
            previous = entries[-1]
            if previous.checksum == checksum:
                delta_record = {"vs": previous.label, "identical": True}
            else:
                diff = snapshot_diff(self._load(previous, entries), store)
                delta_record = {
                    "vs": previous.label,
                    "identical": diff.unchanged,
                    **diff.summary(),
                }
        entry = ArchiveEntry(
            label=label,
            filename=filename,
            format=2,
            checksum=checksum,
            nodes=store.node_count,
            relationships=store.relationship_count,
            created_at=created_at,
            build=dict(build) if build is not None else None,
            delta=delta_record,
            analytics=dict(analytics) if analytics is not None else None,
        )
        entries.append(entry)
        self._write_manifest(entries)
        if self.retention is not None:
            self.prune(self.retention)
        return entry

    def add_delta(
        self,
        store: GraphStore,
        batch: Any,
        label: str,
        *,
        base: str = "latest",
        build: Mapping[str, Any] | None = None,
        created_at: str = "",
        analytics: Mapping[str, Any] | None = None,
    ) -> ArchiveEntry:
        """Archive a :class:`~repro.delta.records.DeltaBatch` under ``label``.

        ``store`` is the graph *after* the batch (its counts go in the
        manifest, like a full entry's); ``base`` selects the entry the
        batch was extracted against — the written IYPD file embeds that
        entry's checksum so chain loads and replica appliers can refuse
        a delta shipped against the wrong base.  Loading a delta entry
        resolves its base chain back to the nearest full snapshot and
        replays each batch in order (see :meth:`load`).
        """
        from repro.delta.format import save_delta

        if not created_at:
            created_at = utc_timestamp()
        entries = self.entries()
        if any(entry.label == label for entry in entries):
            raise ValueError(f"archive already has a snapshot labelled {label!r}")
        base_entry = _select(entries, base)
        tmp = self.root / f".{label}.iypd.tmp"
        save_delta(
            batch,
            tmp,
            base_label=base_entry.label,
            base_checksum=base_entry.checksum,
            nodes_after=store.node_count,
            relationships_after=store.relationship_count,
        )
        checksum = _sha256(tmp)
        existing = next((e for e in entries if e.checksum == checksum), None)
        if existing is not None:
            tmp.unlink()
            filename = existing.filename
        else:
            filename = f"{label}.iypd"
            tmp.replace(self.root / filename)
        entry = ArchiveEntry(
            label=label,
            filename=filename,
            format=3,
            checksum=checksum,
            nodes=store.node_count,
            relationships=store.relationship_count,
            created_at=created_at,
            build=dict(build) if build is not None else None,
            delta={"vs": base_entry.label, "identical": batch.empty,
                   **batch.counts()},
            analytics=dict(analytics) if analytics is not None else None,
            kind="delta",
            base=base_entry.label,
        )
        entries.append(entry)
        self._write_manifest(entries)
        if self.retention is not None:
            self.prune(self.retention)
        return entry

    # -- resolving and loading --------------------------------------------

    def resolve(self, selector: str) -> ArchiveEntry:
        """Resolve a selector to an entry.

        ``latest`` picks the newest entry; otherwise an exact label
        match wins, then a unique label prefix.  Raises ``KeyError``
        when nothing (or more than one prefix candidate) matches.
        """
        return _select(self.entries(), selector)

    def path(self, entry: ArchiveEntry) -> Path:
        return self.root / entry.filename

    def load(self, selector: str | ArchiveEntry) -> GraphStore:
        """Load an archived snapshot into a fresh store.

        Delta entries load their base chain: the nearest full snapshot
        is loaded and each delta batch replayed in order, verifying at
        every hop that the batch was extracted against the checksum the
        chain provides.
        """
        if isinstance(selector, ArchiveEntry):
            return self._load(selector, None)
        entries = self.entries()
        return self._load(_select(entries, selector), entries)

    def _load(
        self, entry: ArchiveEntry, entries: list[ArchiveEntry] | None
    ) -> GraphStore:
        """Load ``entry``; ``entries`` is the manifest when the caller
        has already read it (only a delta entry needs it at all)."""
        if entry.kind != "delta":
            return load_snapshot(self.path(entry))
        from repro.delta import apply_delta

        base, deltas = self._chain(
            entry, self.entries() if entries is None else entries
        )
        batches = self.verified_batches(base, deltas)
        store = load_snapshot(self.path(base))
        for _entry, batch in batches:
            apply_delta(store, batch)
        return store

    def delta_chain(
        self, entry: ArchiveEntry
    ) -> tuple[ArchiveEntry, list[ArchiveEntry]]:
        """``(full base entry, delta entries oldest-first)`` for ``entry``.

        For a full entry the delta list is empty.  Raises ``KeyError``
        when a base has been pruned away and
        :class:`SnapshotFormatError` on a base-pointer cycle.
        """
        return self._chain(entry, self.entries())

    @staticmethod
    def _chain(
        entry: ArchiveEntry, entries: list[ArchiveEntry]
    ) -> tuple[ArchiveEntry, list[ArchiveEntry]]:
        by_label = {e.label: e for e in entries}
        chain: list[ArchiveEntry] = []
        seen: set[str] = set()
        current = entry
        while current.kind == "delta":
            if current.label in seen:
                raise SnapshotFormatError(
                    f"delta base chain cycles at {current.label!r}"
                )
            seen.add(current.label)
            chain.append(current)
            base = by_label.get(current.base)
            if base is None:
                raise KeyError(
                    f"delta {current.label!r} references missing base "
                    f"{current.base!r}"
                )
            current = base
        return current, list(reversed(chain))

    def verified_batches(
        self, base: ArchiveEntry, deltas: list[ArchiveEntry]
    ) -> list[tuple[ArchiveEntry, Any]]:
        """``(entry, DeltaBatch)`` per delta, oldest first, to apply on
        top of ``base`` (a full entry, or the delta served so far).

        The one place the base-checksum rule lives (chain loads and the
        serving watcher share it): every file's embedded base checksum
        is checked against what the chain provides *before* anything is
        returned, so the head of a broken chain is never replayed.
        """
        from repro.delta.format import load_delta

        batches = []
        expected_checksum = base.checksum
        for entry in deltas:
            batch, meta = load_delta(self.path(entry))
            if meta.get("base_checksum") != expected_checksum:
                raise SnapshotFormatError(
                    f"{entry.label}: built against base checksum "
                    f"{str(meta.get('base_checksum'))[:12]}…, chain provides "
                    f"{expected_checksum[:12]}…"
                )
            batches.append((entry, batch))
            expected_checksum = entry.checksum
        return batches

    def info(self, selector: str) -> dict[str, Any]:
        """One entry's manifest record plus its on-disk size."""
        entry = self.resolve(selector)
        path = self.path(entry)
        record = entry.to_dict()
        record["bytes"] = path.stat().st_size if path.exists() else None
        return record

    # -- integrity ---------------------------------------------------------

    def verify(self, deep: bool = False) -> VerificationReport:
        """Check every entry: file present, checksum intact, counts sane.

        The shallow pass re-hashes each file and, for v2 snapshots,
        cross-checks the manifest counts against the file's META section.
        ``deep`` additionally loads every snapshot and re-counts the
        graph — catching decode regressions, not just bit rot.
        """
        report = VerificationReport()
        entries = self.entries()
        by_label = {entry.label: entry for entry in entries}
        for entry in entries:
            report.entries_checked += 1
            path = self.path(entry)
            if not path.exists():
                report.problems.append(f"{entry.label}: missing file {entry.filename}")
                continue
            checksum = _sha256(path)
            if checksum != entry.checksum:
                report.problems.append(
                    f"{entry.label}: checksum mismatch "
                    f"(manifest {entry.checksum[:12]}…, file {checksum[:12]}…)"
                )
                continue
            if entry.format == 3:
                from repro.delta.format import read_delta_meta

                try:
                    meta = read_delta_meta(path)
                except SnapshotFormatError as exc:
                    report.problems.append(f"{entry.label}: {exc}")
                    continue
                if (meta["nodes"], meta["relationships"]) != (
                    entry.nodes, entry.relationships
                ):
                    report.problems.append(
                        f"{entry.label}: META counts {meta['nodes']}/"
                        f"{meta['relationships']} disagree with manifest "
                        f"{entry.nodes}/{entry.relationships}"
                    )
                    continue
                base = by_label.get(entry.base)
                if base is None:
                    report.problems.append(
                        f"{entry.label}: base {entry.base!r} missing from manifest"
                    )
                    continue
                if meta.get("base_checksum") != base.checksum:
                    report.problems.append(
                        f"{entry.label}: file says base checksum "
                        f"{str(meta.get('base_checksum'))[:12]}…, manifest base "
                        f"{base.label!r} has {base.checksum[:12]}…"
                    )
                    continue
            if entry.format == 2:
                try:
                    meta = read_meta(path)
                except SnapshotFormatError as exc:
                    report.problems.append(f"{entry.label}: {exc}")
                    continue
                if (meta["nodes"], meta["relationships"]) != (
                    entry.nodes, entry.relationships
                ):
                    report.problems.append(
                        f"{entry.label}: META counts {meta['nodes']}/"
                        f"{meta['relationships']} disagree with manifest "
                        f"{entry.nodes}/{entry.relationships}"
                    )
                    continue
            if deep:
                try:
                    store = self._load(entry, entries)
                except Exception as exc:  # noqa: BLE001 - report, keep checking
                    report.problems.append(
                        f"{entry.label}: load failed: {type(exc).__name__}: {exc}"
                    )
                    continue
                if (store.node_count, store.relationship_count) != (
                    entry.nodes, entry.relationships
                ):
                    report.problems.append(
                        f"{entry.label}: loaded {store.node_count}/"
                        f"{store.relationship_count} entities, manifest says "
                        f"{entry.nodes}/{entry.relationships}"
                    )
        return report

    # -- retention ---------------------------------------------------------

    def prune(self, keep: int) -> list[ArchiveEntry]:
        """Drop all but the newest ``keep`` entries; returns the removed.

        Two kinds of sharing are respected: snapshot files are deleted
        only when no surviving entry still references them (checksum
        dedup), and the transitive base chain of every kept delta entry
        is retained even when it falls outside the newest ``keep`` — a
        delta without its base chain would be unloadable.
        """
        if keep < 1:
            raise ValueError("prune keeps at least one snapshot")
        entries = self.entries()
        if len(entries) <= keep:
            return []
        by_label = {entry.label: entry for entry in entries}
        retained_labels = {entry.label for entry in entries[-keep:]}
        for entry in entries[-keep:]:
            current = entry
            while current.kind == "delta":
                base = by_label.get(current.base)
                if base is None or base.label in retained_labels:
                    break
                retained_labels.add(base.label)
                current = base
        kept = [entry for entry in entries if entry.label in retained_labels]
        removed = [entry for entry in entries if entry.label not in retained_labels]
        if not removed:
            return []
        surviving_files = {entry.filename for entry in kept}
        for entry in removed:
            if entry.filename not in surviving_files:
                path = self.path(entry)
                if path.exists():
                    path.unlink()
        self._write_manifest(kept)
        return removed

    # -- diffing -----------------------------------------------------------

    def diff(self, old_selector: str, new_selector: str):
        """Identity-level :class:`~repro.core.diff.GraphDiff` of two entries."""
        old = self.load(old_selector)
        new = self.load(new_selector)
        return snapshot_diff(old, new)
