"""A concurrent Cypher query service over HTTP.

The paper's public IYP instance is a Neo4j endpoint anyone can query
with Cypher; this package is the reproduction's equivalent, serving a
snapshot (or a freshly built simnet world) as JSON over HTTP::

    python -m repro serve --snapshot iyp.iyp2 --port 8734

    curl -s localhost:8734/healthz
    curl -s localhost:8734/query -d '{"query": "MATCH (a:AS) RETURN count(a)"}'

Layering:

- :mod:`repro.server.app` — transport-free service core (locking,
  caching, admission, structured errors);
- :mod:`repro.server.http` — the threaded stdlib HTTP transport;
- :mod:`repro.server.admission` — concurrency cap + per-query budgets;
- :mod:`repro.server.cache` — version-keyed LRU result cache;
- :mod:`repro.server.metrics` — counters, latency histograms,
  Prometheus text rendering.

See ``documentation/serving.md`` for the endpoint reference.
"""

from repro.server.admission import AdmissionController, ServerBusyError
from repro.server.app import (
    QueryService,
    ServiceError,
    ServingState,
    encode_result,
    encode_value,
)
from repro.server.cache import ResultCache
from repro.server.http import IYPHTTPServer, create_server
from repro.server.metrics import Metrics

__all__ = [
    "AdmissionController",
    "IYPHTTPServer",
    "Metrics",
    "QueryService",
    "ResultCache",
    "ServerBusyError",
    "ServiceError",
    "ServingState",
    "create_server",
    "encode_result",
    "encode_value",
]
