"""Threaded HTTP transport for the query service (stdlib only).

``ThreadingHTTPServer`` gives one thread per in-flight request; actual
query parallelism and backpressure are governed by the store's
readers-writer lock and the admission controller inside
:class:`~repro.server.app.QueryService`, so the transport stays dumb.

Endpoints::

    POST /query     {"query": "...", "parameters": {...},
                     "timeout": 5.0, "max_rows": 1000,
                     "snapshot": "<archive selector>"}   (time travel)
    POST /profile      (same body; bypasses the cache, returns the
                        executed operator tree alongside the rows)
    POST /lint      {"query": "..."}   (static diagnostics, no execution)
    POST /admin/swap   {"snapshot": "<selector>"}  (hot-swap the served
                        store to an archived snapshot, default latest)
    GET  /explain?q=<cypher>
    GET  /ontology
    GET  /archive      (the attached snapshot archive's manifest)
    GET  /archive/info?snapshot=<selector>
    GET  /stats
    GET  /healthz      (liveness: 200 while the process serves)
    GET  /readyz       (readiness: 503 while an archive load or hot
                        swap is in flight)
    GET  /metrics      (Prometheus text format)
    GET  /quality      (longitudinal data-quality report over the archive)
    GET  /debug/slowlog
    GET  /debug/statements?top=<n>&sort=<key>   (per-fingerprint stats)
    GET  /debug/traces
    GET  /debug/trace?id=<trace_id>
"""

from __future__ import annotations

import json
import logging
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import MappingProxyType
from typing import Any, Callable, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.server.app import QueryService, ServiceError, encode_json, service_error

log = logging.getLogger("repro.server")

MAX_BODY_BYTES = 4 * 1024 * 1024  # a 4 MiB query is a client bug

Params = dict[str, list[str]]


def _required(params: Params, name: str, hint: str) -> str:
    value = params.get(name, [""])[0]
    if not value:
        raise ServiceError(400, "bad_request", f"missing ?{name}=<{hint}>")
    return value


def _readyz(service: QueryService, params: Params) -> tuple[int, Any, None]:
    ready, body = service.ready()
    return (200 if ready else 503), body, None


def _statements(service: QueryService, params: Params) -> Any:
    top_raw = params.get("top", [""])[0]
    try:
        top = int(top_raw) if top_raw else None
    except ValueError:
        raise ServiceError(400, "bad_request", "top must be an integer") from None
    sort = params.get("sort", ["total_seconds"])[0]
    return service.statements_snapshot(top=top, sort=sort)


#: GET route -> handler.  A handler returns the body (a ``str`` leaves as
#: Prometheus text, anything else as JSON) or ``(status, body, trace id)``.
GET_ROUTES: Mapping[str, Callable[[QueryService, Params], Any]] = MappingProxyType({
    "/healthz": lambda service, params: service.health(),
    "/readyz": _readyz,
    "/quality": lambda service, params: service.quality_report(),
    "/stats": lambda service, params: service.stats(),
    "/ontology": lambda service, params: service.ontology(),
    "/metrics": lambda service, params: service.metrics_text(),
    "/explain": lambda service, params: service.explain(
        _required(params, "q", "query")
    ),
    "/archive": lambda service, params: service.archive_listing(),
    "/archive/info": lambda service, params: service.archive_info(
        _required(params, "snapshot", "selector")
    ),
    "/debug/slowlog": lambda service, params: service.slowlog_snapshot(),
    "/debug/statements": _statements,
    "/debug/traces": lambda service, params: service.traces(),
    "/debug/trace": lambda service, params: service.trace(
        _required(params, "id", "trace_id")
    ),
})


class IYPRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the owning server's QueryService."""

    server_version = "repro-iyp/1.0"
    protocol_version = "HTTP/1.1"
    #: Every response is one send, so Nagle has nothing to coalesce and
    #: could only hold a segment back for the client's delayed ACK.
    disable_nagle_algorithm = True

    @property
    def service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    # -- routing ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._respond(self._get)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        self._respond(self._post)

    def _get(self) -> Any:
        url = urlsplit(self.path)
        route = url.path.rstrip("/") or "/"
        handler = GET_ROUTES.get(route)
        if handler is None:
            raise ServiceError(404, "not_found", f"no route {route!r}")
        return handler(self.service, parse_qs(url.query))

    def _post(self) -> Any:
        route = urlsplit(self.path).path.rstrip("/")
        if route not in ("/query", "/profile", "/lint", "/admin/swap"):
            raise ServiceError(404, "not_found", f"no route {route!r}")
        try:
            request = self._read_json_body()
        except ServiceError as exc:
            self.service.metrics.inc("query_errors_total", labels={"code": exc.code})
            raise
        if route == "/lint":
            return self.service.lint(request.get("query", ""))
        if route == "/admin/swap":
            return self.service.load_and_swap(request.get("snapshot", "latest"))
        # Serialized inside the service, so the size is on the request
        # record with everything else the request did.
        payload, trace_id = self.service.execute(
            request.get("query", ""),
            parameters=request.get("parameters"),
            timeout=request.get("timeout"),
            max_rows=request.get("max_rows"),
            profile=(route == "/profile"),
            snapshot=request.get("snapshot"),
            wire=True,
        )
        return 200, payload, trace_id

    def _respond(self, produce: Callable[[], Any]) -> None:
        """The one writer: an answer, a :class:`ServiceError` and an
        unexpected exception all leave through here, as a response on a
        connection that stays usable — unless the request declared a
        body nobody read, whose bytes would pass for the next request."""
        self._body_unread = (
            self.headers.get("Content-Length", "0") != "0"
            or "Transfer-Encoding" in self.headers
        )
        try:
            result = produce()
            status, body, trace_id = (
                result if isinstance(result, tuple) else (200, result, None)
            )
        except Exception as exc:
            error = exc if isinstance(exc, ServiceError) else service_error(exc)
            status, body, trace_id = error.status, error.payload(), error.trace_id
        content_type = "application/json; charset=utf-8"
        if isinstance(body, str):
            body = body.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif not isinstance(body, bytes):
            body = encode_json(body)
        self._send_bytes(status, body, content_type, trace_id)

    # -- helpers ---------------------------------------------------------

    def _read_json_body(self) -> dict[str, Any]:
        declared = self.headers.get("Content-Length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise ServiceError(400, "bad_request", "malformed Content-Length")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise ServiceError(413, "body_too_large", "request body above 4 MiB")
        raw = self.rfile.read(length) if length else b""
        self._body_unread = "Transfer-Encoding" in self.headers  # never decoded
        if not raw:
            raise ServiceError(400, "bad_request", "missing JSON body")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                400, "bad_request", f"invalid JSON body: {exc}"
            ) from exc
        if not isinstance(body, dict):
            raise ServiceError(400, "bad_request", "JSON body must be an object")
        parameters = body.get("parameters")
        if parameters is not None and not isinstance(parameters, dict):
            raise ServiceError(400, "bad_request", "parameters must be an object")
        return body

    def _send_bytes(
        self, status: int, body: bytes, content_type: str, trace_id: str | None
    ) -> None:
        """One ``sendall`` per response: a second small write would wait
        in the kernel for the client's (delayed) ACK of the first."""
        self.log_request(status)
        head = [
            f"{self.protocol_version} {status} {self.responses[status][0]}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        if trace_id is not None:
            head.append(f"X-Trace-Id: {trace_id}")
        if self._body_unread:
            head.append("Connection: close")
            self.close_connection = True
        self.wfile.write("\r\n".join([*head, "", ""]).encode("latin-1") + body)

    def log_message(self, format: str, *args: Any) -> None:
        """Route access logs through ``logging`` instead of stderr."""
        if log.isEnabledFor(logging.DEBUG):
            log.debug("%s - %s", self.address_string(), format % args)


class IYPHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`QueryService`."""

    daemon_threads = True
    request_queue_size = 128  # the accept backlog WorkerPool listens with

    def __init__(self, address: tuple[str, int], service: QueryService):
        super().__init__(address, IYPRequestHandler)
        self.service = service


def create_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 8734
) -> IYPHTTPServer:
    """Bind (port 0 picks a free port) without starting the serve loop.

    Callers run ``server.serve_forever()`` (blocking) or hand it to a
    thread; the bound port is ``server.server_address[1]``.
    """
    return IYPHTTPServer((host, port), service)
