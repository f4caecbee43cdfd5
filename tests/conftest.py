"""Shared fixtures: one small synthetic world and one built knowledge
graph per test session (building is the expensive part)."""

from __future__ import annotations

import gzip
import json

import pytest

from repro.core import IYP
from repro.graphdb.snapshot import snapshot_dict
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


@pytest.fixture()
def empty_iyp():
    """A fresh, empty IYP instance."""
    return IYP()
