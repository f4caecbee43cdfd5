"""The delta record format: an ordered batch of graph changes.

A :class:`DeltaBatch` is the unit the incremental pipeline ships: a
JSON-safe list of create/update/delete records addressing entities by
*ontology identity* (the same key properties :mod:`repro.core.diff`
compares by), never by internal node id — so a batch extracted from one
store applies cleanly to any store holding the same logical graph.

Record shapes (``key`` is how the target entity is resolved):

- node key: ``{"label", "prop", "value"}`` — the entity's identifying
  label and key property.
- rel key: ``{"start": <node key>, "type", "end": <node key>,
  "dataset"}`` — ``dataset`` is the ``reference_name`` provenance
  property, so the same semantic link from two datasets stays distinct
  (mirroring ``RelKey`` in :mod:`repro.core.diff`).
- create records carry ``labels`` + ``properties`` (nodes) or
  ``properties`` (rels); update records carry ``changes`` mapping each
  property to ``[before, after]`` (``after`` null deletes the key) and,
  for nodes, an optional ``add_labels`` list; delete records carry the
  key only.

Records are ordered for safe application: rel deletes, node deletes,
node creates, node updates, rel creates, rel updates — so a batch that
deletes a node and re-creates the same identity replays correctly, and
created relationships always find their endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

#: Format tag embedded in the JSON representation (and the CLI output).
DELTA_FORMAT = "iyp-delta"
DELTA_RECORD_VERSION = 1

#: Canonical application order of the (op, entity) record groups.
GROUP_ORDER: tuple[tuple[str, str], ...] = (
    ("delete", "rel"),
    ("delete", "node"),
    ("create", "node"),
    ("update", "node"),
    ("create", "rel"),
    ("update", "rel"),
)

_SCALAR_TYPES = (str, int, float, bool)


class DeltaError(ValueError):
    """A delta could not be constructed or is malformed."""


def node_key(label: str, prop: str, value: Any) -> dict[str, Any]:
    """Build a node identity key; the value must be an indexable scalar."""
    if not isinstance(value, _SCALAR_TYPES):
        raise DeltaError(
            f"node key :{label}({prop}) must be a scalar, got {type(value).__name__}"
        )
    return {"label": label, "prop": prop, "value": value}


def rel_key(
    start: Mapping[str, Any], rel_type: str, end: Mapping[str, Any], dataset: str
) -> dict[str, Any]:
    """Build a relationship identity key from two node keys."""
    return {"start": dict(start), "type": rel_type, "end": dict(end),
            "dataset": dataset}


def node_token(key: Mapping[str, Any]) -> tuple[str, str, Any]:
    """A node key as a hashable tuple."""
    return (key["label"], key["prop"], key["value"])


def rel_token(key: Mapping[str, Any]) -> tuple[Any, str, Any, str]:
    """A relationship key as a hashable tuple."""
    return (node_token(key["start"]), key["type"], node_token(key["end"]),
            key["dataset"])


def record_order_key(record: Mapping[str, Any]) -> tuple[int, str]:
    """Sort key giving the canonical group order, then a stable key repr."""
    group = GROUP_ORDER.index((record["op"], record["entity"]))
    return (group, repr(sorted(record["key"].items(), key=repr)))


def _validate_node_key(key: Any, where: str) -> None:
    if (
        not isinstance(key, Mapping)
        or not isinstance(key.get("label"), str)
        or not isinstance(key.get("prop"), str)
        or not isinstance(key.get("value"), _SCALAR_TYPES)
    ):
        raise DeltaError(f"{where}: malformed node key {key!r}")


def validate_record(record: Mapping[str, Any]) -> None:
    """Check one record's shape; raises :class:`DeltaError` on problems."""
    op, entity = record.get("op"), record.get("entity")
    if (op, entity) not in GROUP_ORDER:
        raise DeltaError(f"unknown record kind op={op!r} entity={entity!r}")
    key = record.get("key")
    where = f"{op} {entity}"
    if entity == "node":
        _validate_node_key(key, where)
    else:
        if not isinstance(key, Mapping) or not isinstance(key.get("type"), str):
            raise DeltaError(f"{where}: malformed rel key {key!r}")
        _validate_node_key(key.get("start"), where)
        _validate_node_key(key.get("end"), where)
        if not isinstance(key.get("dataset"), str):
            raise DeltaError(f"{where}: rel key missing dataset: {key!r}")
    if op == "create" and not isinstance(record.get("properties", {}), Mapping):
        raise DeltaError(f"{where}: properties must be a map")
    if op == "update":
        changes = record.get("changes", {})
        if not isinstance(changes, Mapping) or not all(
            isinstance(pair, (list, tuple)) and len(pair) == 2
            for pair in changes.values()
        ):
            raise DeltaError(f"{where}: changes must map prop -> [before, after]")


@dataclass
class DeltaBatch:
    """An ordered list of delta records plus its base provenance.

    ``base_checksum``/``base_label`` identify the snapshot generation the
    batch was extracted against; appliers use them to refuse a batch on
    the wrong base before touching the store.
    """

    records: list[dict[str, Any]] = field(default_factory=list)
    base_label: str = ""
    base_checksum: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.records)

    @property
    def empty(self) -> bool:
        return not self.records

    def counts(self) -> dict[str, int]:
        """``{"node_creates": n, ...}`` per record group, zeros included."""
        counts = {f"{entity}_{op}s": 0 for op, entity in GROUP_ORDER}
        for record in self.records:
            counts[f"{record['entity']}_{record['op']}s"] += 1
        return counts

    def summary(self) -> dict[str, Any]:
        return {"records": len(self.records), **self.counts()}

    def validate(self) -> None:
        """Check every record's shape and the canonical group ordering."""
        last_group = 0
        for record in self.records:
            validate_record(record)
            group = GROUP_ORDER.index((record["op"], record["entity"]))
            if group < last_group:
                raise DeltaError(
                    f"records out of order: {record['op']} {record['entity']} "
                    f"after group {GROUP_ORDER[last_group]}"
                )
            last_group = group

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": DELTA_FORMAT,
            "version": DELTA_RECORD_VERSION,
            "base_label": self.base_label,
            "base_checksum": self.base_checksum,
            "summary": self.summary(),
            "records": self.records,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DeltaBatch":
        if payload.get("format") != DELTA_FORMAT:
            raise DeltaError(f"not a {DELTA_FORMAT} payload: {payload.get('format')!r}")
        if payload.get("version") != DELTA_RECORD_VERSION:
            raise DeltaError(f"unsupported delta version {payload.get('version')!r}")
        records = payload.get("records")
        if not isinstance(records, list):
            raise DeltaError("records must be a list")
        batch = cls(
            records=[dict(record) for record in records],
            base_label=str(payload.get("base_label", "")),
            base_checksum=str(payload.get("base_checksum", "")),
        )
        batch.validate()
        return batch
