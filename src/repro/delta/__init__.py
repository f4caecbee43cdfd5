"""repro.delta — end-to-end incremental ingestion.

The delta pipeline replaces O(world) rebuild/dump/reload cycles with
O(changes) work at every stage:

- **extract** (:mod:`repro.delta.extract`): turn a snapshot diff or a
  tracked changelog into an ordered, identity-addressed
  :class:`DeltaBatch`;
- **apply** (:mod:`repro.delta.apply`): atomically replay a batch into
  a live :class:`~repro.graphdb.store.GraphStore` under one write-lock
  scope and one version bump;
- **statistics** (:mod:`repro.delta.statistics`): advance the planner's
  :class:`~repro.analytics.statistics.GraphStatistics` and the build's
  analytics report over the store's changelog without rescanning the
  graph;
- **format** (:mod:`repro.delta.format`): the IYPD framed binary file
  the archive records delta entries in.

The incremental build entry point is
``repro.pipeline.build.build_iyp(..., incremental=True)``; the serving
side is ``repro serve --watch`` (:mod:`repro.archive.watcher`).
"""

from repro.delta.apply import DeltaApplyError, DeltaApplyResult, apply_delta
from repro.delta.extract import delta_from_changelog, delta_from_diff
from repro.delta.format import (
    DELTA_MAGIC,
    delta_to_json,
    is_delta_file,
    load_delta,
    read_delta_meta,
    save_delta,
)
from repro.delta.records import DeltaBatch, DeltaError
from repro.delta.statistics import refresh_analytics, refresh_statistics

__all__ = [
    "DELTA_MAGIC",
    "DeltaApplyError",
    "DeltaApplyResult",
    "DeltaBatch",
    "DeltaError",
    "apply_delta",
    "delta_from_changelog",
    "delta_from_diff",
    "delta_to_json",
    "is_delta_file",
    "load_delta",
    "read_delta_meta",
    "refresh_analytics",
    "refresh_statistics",
    "save_delta",
]
