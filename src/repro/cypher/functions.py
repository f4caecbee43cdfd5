"""Built-in scalar functions and aggregates of the Cypher subset.

Scalar functions receive already-evaluated arguments.  Aggregates are
identified by name (:data:`AGGREGATE_NAMES`) and computed by the engine
over each group; the callables here receive the full list of collected
(non-null) values.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.cypher.errors import CypherRuntimeError
from repro.cypher.values import Path, sort_key
from repro.graphdb.model import Node, Relationship

def _null_safe(func: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap a scalar function to return null when its first arg is null."""

    def wrapper(*args: Any) -> Any:
        if args and args[0] is None:
            return None
        return func(*args)

    return wrapper


def _size(value: Any) -> Any:
    if isinstance(value, Path):
        return len(value) // 2 + 1
    if isinstance(value, (list, tuple, str, dict)):
        return len(value)
    raise CypherRuntimeError(f"size() not defined for {type(value).__name__}")


def _labels(value: Any) -> list[str]:
    if not isinstance(value, Node):
        raise CypherRuntimeError("labels() requires a node")
    return sorted(value.labels)


def _type(value: Any) -> str:
    if not isinstance(value, Relationship):
        raise CypherRuntimeError("type() requires a relationship")
    return value.type


def _id(value: Any) -> int:
    if isinstance(value, (Node, Relationship)):
        return value.id
    raise CypherRuntimeError("id() requires a node or relationship")


def _keys(value: Any) -> list[str]:
    if isinstance(value, (Node, Relationship)):
        return sorted(value.properties)
    if isinstance(value, dict):
        return sorted(value)
    raise CypherRuntimeError("keys() requires a node, relationship, or map")


def _properties(value: Any) -> dict[str, Any]:
    if isinstance(value, (Node, Relationship)):
        return dict(value.properties)
    if isinstance(value, dict):
        return dict(value)
    raise CypherRuntimeError("properties() requires a node, relationship, or map")


def _to_integer(value: Any) -> Any:
    if isinstance(value, bool):
        return 1 if value else 0
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value)
    if isinstance(value, str):
        try:
            return int(float(value)) if "." in value else int(value, 10)
        except ValueError:
            return None
    raise CypherRuntimeError(f"toInteger() not defined for {type(value).__name__}")


def _to_float(value: Any) -> Any:
    if isinstance(value, bool):
        raise CypherRuntimeError("toFloat() not defined for booleans")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    raise CypherRuntimeError(f"toFloat() not defined for {type(value).__name__}")


def _to_string(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _head(value: Any) -> Any:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise CypherRuntimeError("head() requires a list")
    return value[0] if value else None


def _last(value: Any) -> Any:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise CypherRuntimeError("last() requires a list")
    return value[-1] if value else None


def _range(start: Any, end: Any, step: Any = 1) -> list[int]:
    if step == 0:
        raise CypherRuntimeError("range() step must not be zero")
    sign = 1 if step > 0 else -1
    return list(range(int(start), int(end) + sign, int(step)))


def _substring(value: str, start: int, length: int | None = None) -> str:
    if length is None:
        return value[start:]
    return value[start : start + length]


def _round(value: float, precision: int = 0) -> float:
    result = round(float(value) + 0.0, int(precision))
    return result if precision else float(result)


def _length(value: Any) -> Any:
    if isinstance(value, Path):
        return len(value) // 2
    return _size(value)


def _path_nodes(value: Any) -> list[Node]:
    if not isinstance(value, (list, tuple)):
        raise CypherRuntimeError("nodes() requires a path")
    return [item for item in value if isinstance(item, Node)]


def _path_relationships(value: Any) -> list[Relationship]:
    if not isinstance(value, (list, tuple)):
        raise CypherRuntimeError("relationships() requires a path")
    return [item for item in value if isinstance(item, Relationship)]


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "nodes": _null_safe(_path_nodes),
    "relationships": _null_safe(_path_relationships),
    "size": _null_safe(_size),
    "length": _null_safe(_length),
    "labels": _null_safe(_labels),
    "type": _null_safe(_type),
    "id": _null_safe(_id),
    "keys": _null_safe(_keys),
    "properties": _null_safe(_properties),
    "tointeger": _null_safe(_to_integer),
    "tofloat": _null_safe(_to_float),
    "tostring": _null_safe(_to_string),
    "toupper": _null_safe(lambda s: s.upper()),
    "tolower": _null_safe(lambda s: s.lower()),
    "trim": _null_safe(lambda s: s.strip()),
    "ltrim": _null_safe(lambda s: s.lstrip()),
    "rtrim": _null_safe(lambda s: s.rstrip()),
    "reverse": _null_safe(lambda s: s[::-1] if isinstance(s, str) else list(reversed(s))),
    "split": _null_safe(lambda s, sep: s.split(sep)),
    "replace": _null_safe(lambda s, old, new: s.replace(old, new)),
    "substring": _null_safe(_substring),
    "left": _null_safe(lambda s, n: s[:n]),
    "right": _null_safe(lambda s, n: s[len(s) - n:] if n < len(s) else s),
    "abs": _null_safe(abs),
    "sign": _null_safe(lambda x: (x > 0) - (x < 0)),
    "ceil": _null_safe(lambda x: float(math.ceil(x))),
    "floor": _null_safe(lambda x: float(math.floor(x))),
    "round": _null_safe(_round),
    "sqrt": _null_safe(lambda x: math.sqrt(x)),
    "log": _null_safe(lambda x: math.log(x)),
    "log10": _null_safe(lambda x: math.log10(x)),
    "exp": _null_safe(lambda x: math.exp(x)),
    "coalesce": _coalesce,
    "head": _head,
    "last": _last,
    "tail": _null_safe(lambda xs: list(xs[1:])),
    "range": _range,
    "exists": lambda value: value is not None,
}


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def agg_count(values: list[Any]) -> int:
    return len(values)


def agg_collect(values: list[Any]) -> list[Any]:
    return list(values)


def agg_sum(values: list[Any]) -> Any:
    return sum(values) if values else 0


def agg_avg(values: list[Any]) -> Any:
    return sum(values) / len(values) if values else None


def agg_min(values: list[Any]) -> Any:
    return min(values, key=sort_key) if values else None


def agg_max(values: list[Any]) -> Any:
    return max(values, key=sort_key) if values else None


def agg_stdev(values: list[Any]) -> Any:
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))


def agg_percentile_cont(values: list[Any], percentile: float) -> Any:
    """Linear-interpolation percentile, matching Neo4j's percentileCont."""
    if not values:
        return None
    if not 0.0 <= percentile <= 1.0:
        raise CypherRuntimeError("percentile must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = percentile * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return float(ordered[low])
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def agg_percentile_disc(values: list[Any], percentile: float) -> Any:
    """Nearest-rank percentile, matching Neo4j's percentileDisc."""
    if not values:
        return None
    if not 0.0 <= percentile <= 1.0:
        raise CypherRuntimeError("percentile must be in [0, 1]")
    ordered = sorted(values)
    rank = int(math.ceil(percentile * len(ordered)))
    return ordered[max(rank - 1, 0)]


#: Aggregates over the collected values alone, and those taking a second
#: (percentile) argument; together they are every name the engine treats
#: as an aggregate call.
AGGREGATES: dict[str, Callable[[list[Any]], Any]] = {
    "count": agg_count,
    "collect": agg_collect,
    "sum": agg_sum,
    "avg": agg_avg,
    "min": agg_min,
    "max": agg_max,
    "stdev": agg_stdev,
}
PERCENTILE_AGGREGATES: dict[str, Callable[[list[Any], float], Any]] = {
    "percentilecont": agg_percentile_cont,
    "percentiledisc": agg_percentile_disc,
}
AGGREGATE_NAMES = frozenset(AGGREGATES) | frozenset(PERCENTILE_AGGREGATES)
