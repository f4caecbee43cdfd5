"""Value semantics for the Cypher subset.

Implements Cypher's three-valued logic (true / false / null), its
comparison rules (comparing incompatible types yields null for ordering
and false for equality), orderability for ORDER BY (null sorts last,
ascending), and hashable grouping keys for DISTINCT / implicit GROUP BY.
"""

from __future__ import annotations

from typing import Any

from repro.cypher.errors import CypherRuntimeError
from repro.graphdb.model import Node, Relationship

_NUMERIC = (int, float)


class Path(list):
    """A path value: its nodes and relationships alternating, in pattern
    order, from the first node to the last.  Everything that takes a
    list takes it; ``length()`` counts its relationships and ``size()``
    its nodes."""


def is_truthy(value: Any) -> bool:
    """WHERE semantics: only boolean true passes; null and false do not."""
    return value is True


def logical_and(left: Any, right: Any) -> Any:
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return _as_bool(left) and _as_bool(right)


def logical_or(left: Any, right: Any) -> Any:
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return _as_bool(left) or _as_bool(right)


def logical_xor(left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    return _as_bool(left) != _as_bool(right)


def logical_not(value: Any) -> Any:
    if value is None:
        return None
    return not _as_bool(value)


def _as_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise CypherRuntimeError(f"expected a boolean, got {value!r}")


def equals(left: Any, right: Any) -> Any:
    """Cypher ``=``: null-propagating equality."""
    if left is None or right is None:
        return None
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC):
        return float(left) == float(right)
    if type(left) is not type(right) and not (
        isinstance(left, (list, tuple)) and isinstance(right, (list, tuple))
    ):
        return False
    if isinstance(left, (list, tuple)):
        if len(left) != len(right):
            return False
        for a, b in zip(left, right, strict=True):
            item = equals(a, b)
            if item is None:
                return None
            if not item:
                return False
        return True
    return left == right


def compare(left: Any, right: Any, op: str) -> Any:
    """Cypher ordering comparison; returns True/False/None."""
    if left is None or right is None:
        return None
    comparable = (
        (isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC)
         and not isinstance(left, bool) and not isinstance(right, bool))
        or (isinstance(left, str) and isinstance(right, str))
        or (isinstance(left, bool) and isinstance(right, bool))
    )
    if not comparable:
        return None
    if op == "lt":
        return left < right
    if op == "le":
        return left <= right
    if op == "gt":
        return left > right
    if op == "ge":
        return left >= right
    raise CypherRuntimeError(f"unknown comparison {op}")


def list_membership(item: Any, container: Any) -> Any:
    """Cypher ``IN`` over lists with null semantics."""
    if container is None:
        return None
    if not isinstance(container, (list, tuple)):
        raise CypherRuntimeError(f"IN requires a list, got {type(container).__name__}")
    saw_null = False
    for element in container:
        verdict = equals(item, element)
        if verdict is True:
            return True
        if verdict is None:
            saw_null = True
    return None if saw_null or item is None else False


_TYPE_ORDER = {
    "map": 0,
    "node": 1,
    "relationship": 2,
    "list": 3,
    "str": 4,
    "bool": 5,
    "number": 6,
    "null": 7,  # null sorts last ascending, per Cypher
}


def sort_key(value: Any) -> tuple:
    """A total order over heterogeneous values for ORDER BY."""
    if value is None:
        return (_TYPE_ORDER["null"], 0)
    if isinstance(value, bool):
        return (_TYPE_ORDER["bool"], value)
    if isinstance(value, _NUMERIC):
        return (_TYPE_ORDER["number"], float(value))
    if isinstance(value, str):
        return (_TYPE_ORDER["str"], value)
    if isinstance(value, (list, tuple)):
        return (_TYPE_ORDER["list"], tuple(sort_key(item) for item in value))
    if isinstance(value, Node):
        return (_TYPE_ORDER["node"], value.id)
    if isinstance(value, Relationship):
        return (_TYPE_ORDER["relationship"], value.id)
    if isinstance(value, dict):
        return (
            _TYPE_ORDER["map"],
            tuple(sorted((key, sort_key(item)) for key, item in value.items())),
        )
    raise CypherRuntimeError(f"unorderable value {value!r}")


def hash_key(value: Any) -> Any:
    """A hashable key identifying a value for DISTINCT / grouping."""
    if isinstance(value, Node):
        return ("__node__", value.id)
    if isinstance(value, Relationship):
        return ("__rel__", value.id)
    if isinstance(value, (list, tuple)):
        return ("__list__", tuple(hash_key(item) for item in value))
    if isinstance(value, dict):
        return (
            "__map__",
            frozenset((key, hash_key(item)) for key, item in value.items()),
        )
    if isinstance(value, float) and value.is_integer():
        return int(value)  # 1.0 and 1 group together, as = says they're equal
    return value
