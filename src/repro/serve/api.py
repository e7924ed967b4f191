"""HTTP/1.1 JSON front door of the service tier, for both roles.

A ``repro serve`` shard and the ``repro cluster`` coordinator answer
through the same handler and the same daemon class; each role only
binds a backend (:class:`~repro.serve.server.SimulationService` or
:class:`~repro.cluster.coordinator.ClusterCoordinator`), its
``?format=`` metrics producers, and its own extra routes.  Request and
response bodies are JSON; errors are structured payloads
(``{"error": {"type", "message"}}``) with meaningful status codes —
simulation faults come back as ``FailedRun`` rows inside a 200 result,
never as 500s.  Routes (see docs/SERVICE.md for the full reference):

=========== ====== ============================ ==========================
role        method path                         answer
=========== ====== ============================ ==========================
both        POST   /v1/jobs                     submit ``{workload, config,
                                                seed}``
both        GET    /v1/jobs                     list known jobs
both        GET    /v1/jobs/<id>                job status
both        GET    /v1/jobs/<id>/result         terminal result (409 until
                                                terminal)
both        DELETE /v1/jobs/<id>                cancel a queued job
both        GET    /v1/healthz                  liveness + drain state
both        GET    /v1/metrics                  ``?format=json|prom``
                                                (shard also ``state``)
shard       GET    /v1/trace                    merged service Chrome trace
shard       POST   /v1/steal                    revoke queued jobs
coordinator POST   /v1/cluster/register         shard joins the ring
coordinator POST   /v1/cluster/heartbeat        shard queue depth
coordinator GET    /v1/cluster/shards           membership table
coordinator GET    /v1/cluster/ring?key=<k>     owner of one cache key
coordinator GET    /v1/cluster/metrics          ``?format=json|prom``,
                                                merged across shards
=========== ====== ============================ ==========================

The handler is deliberately thin: :func:`build_cell` validates a job
spec (workload name against the registry, config via
:meth:`SimulatorConfig.from_dict`), and every decision about
admission, coalescing, backpressure, routing and drain lives in the
backend.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from ..config import SimulatorConfig
from ..errors import (
    ConfigurationError,
    InvalidJobError,
    JobNotFoundError,
    JobStateError,
    NoShardAvailableError,
    QueueFullError,
    ReproError,
    ShardNotFoundError,
)
from ..sweep import SweepCell
from ..workloads.registry import WORKLOAD_REGISTRY

#: Largest accepted request body; a job spec is a few KB at most.
MAX_BODY_BYTES = 1 << 20
#: Seconds a client should wait before retrying a temporarily
#: unavailable server (draining shard, cluster without a live shard).
UNAVAILABLE_RETRY_AFTER = 5
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: A route answers ``(status, payload)``: a dict is sent as JSON, a
#: str as Prometheus text.  It gets the request and the ``{id}`` path
#: segment, when its pattern has one.
Route = Callable[..., tuple[int, "dict | str"]]


def build_cell(spec: object) -> SweepCell:
    """Validate one submitted job spec into an executable cell.

    ``spec`` must be ``{"workload": <name or dict>, "config": <dict,
    optional>, "seed": <int, optional>}``.  The workload name must be
    registered; the config dict round-trips through
    :meth:`SimulatorConfig.from_dict` (unknown fields and inconsistent
    values rejected there); a top-level ``seed`` overrides
    ``config["seed"]``.  Raises :class:`InvalidJobError` with a message
    safe to echo back to the client.
    """
    if not isinstance(spec, dict):
        raise InvalidJobError(
            f"job spec must be a JSON object, got {type(spec).__name__}"
        )
    unknown = sorted(set(spec) - {"workload", "config", "seed"})
    if unknown:
        raise InvalidJobError(
            f"unknown job-spec fields: {', '.join(unknown)}"
        )
    workload = spec.get("workload")
    if isinstance(workload, str):
        workload = {"name": workload}
    if not isinstance(workload, dict) or "name" not in workload:
        raise InvalidJobError(
            "workload must be a name or an object with a 'name' field"
        )
    if workload["name"] not in WORKLOAD_REGISTRY:
        known = ", ".join(sorted(WORKLOAD_REGISTRY))
        raise InvalidJobError(
            f"unknown workload {workload['name']!r}; known: {known}"
        )
    config_data = spec.get("config") or {}
    try:
        config = SimulatorConfig.from_dict(config_data)
        seed = spec.get("seed")
        if seed is not None:
            config = config.replace(seed=seed)
    except ConfigurationError as exc:
        raise InvalidJobError(f"invalid config: {exc}") from None
    return SweepCell(workload_spec=dict(workload), config=config)


def error_payload(exc: Exception) -> dict:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


# --- routes ------------------------------------------------------------------

def metrics_route(formats: dict[str, Callable[[], "dict | str"]]) -> Route:
    """The one ``?format=`` dispatch: ``formats`` maps each accepted
    name (the first is the default) to its producer."""
    names = list(formats)
    expected = " or ".join(names) if len(names) < 3 \
        else f"{', '.join(names[:-1])}, or {names[-1]}"

    def route(request: "JsonRequestHandler") -> tuple[int, dict | str]:
        fmt = request.query("format") or names[0]
        if fmt not in formats:
            raise InvalidJobError(
                f"unknown metrics format {fmt!r}; expected {expected}")
        return 200, formats[fmt]()

    return route


def job_routes(backend, metrics: dict) -> dict[tuple[str, str], Route]:
    """The job API both roles serve, bound to one backend.

    ``backend`` provides ``health()``, ``submit(spec)``, ``jobs()``,
    ``status(id)``, ``cancel(id)`` and ``result(id)``, each returning
    the response body; ``metrics`` is the role's ``?format=`` map for
    ``GET /v1/metrics``.
    """
    return {
        ("GET", "/v1/healthz"): lambda request: (200, backend.health()),
        ("GET", "/v1/metrics"): metrics_route(metrics),
        ("POST", "/v1/jobs"):
            lambda request: (202, backend.submit(request.read_json())),
        ("GET", "/v1/jobs"):
            lambda request: (200, {"jobs": backend.jobs()}),
        ("GET", "/v1/jobs/{id}"):
            lambda request, job_id: (200, backend.status(job_id)),
        ("DELETE", "/v1/jobs/{id}"):
            lambda request, job_id: (200, backend.cancel(job_id)),
        ("GET", "/v1/jobs/{id}/result"):
            lambda request, job_id: (200, backend.result(job_id)),
    }


# --- the handler -------------------------------------------------------------

class JsonRequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP plumbing shared by both roles.

    :func:`make_handler` binds a route table; this base matches the
    request against it and maps the library's error family onto status
    codes uniformly, so a shard and the coordinator never disagree on
    error shape.
    """

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    #: Bound per role by :func:`make_handler`:
    #: ``(method, path segments, route)``; ``{id}`` matches any segment.
    routes: tuple[tuple[str, tuple[str, ...], Route], ...] = ()
    verbose = False

    # --- plumbing ----------------------------------------------------
    def log_message(self, format: str, *args) -> None:
        if self.verbose:
            super().log_message(format, *args)

    def _send(self, code: int, payload: dict | str,
              headers: dict[str, str] | None = None) -> None:
        if isinstance(payload, str):
            body, content_type = payload.encode("utf-8"), PROM_CONTENT_TYPE
        else:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def read_json(self) -> object:
        """The request body, parsed (400 when absent or not JSON)."""
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise InvalidJobError(
                f"request body too large ({length} bytes)"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise InvalidJobError("request body must be JSON")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise InvalidJobError(
                f"request body is not valid JSON: {exc}"
            ) from None

    def query(self, name: str) -> str | None:
        """First non-blank value of one query parameter."""
        return (self._query.get(name) or [None])[0]

    # --- dispatch ----------------------------------------------------
    def _route(self, parts: list[str]) -> tuple[int, dict | str]:
        if parts[:1] != ["v1"]:
            raise JobNotFoundError(f"no such route: {self.path}")
        for method, pattern, route in self.routes:
            if method != self.command or len(pattern) != len(parts):
                continue
            pairs = list(zip(pattern, parts))
            if all(want in ("{id}", part) for want, part in pairs):
                return route(self, *[part for want, part in pairs
                                     if want == "{id}"])
        raise JobNotFoundError(
            f"no such route: {self.command} {self.path}"
        )

    def _dispatch(self) -> None:
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        self._query = parse_qs(split.query)
        unavailable = {"Retry-After": str(UNAVAILABLE_RETRY_AFTER)}
        try:
            self._send(*self._route(parts))
        except InvalidJobError as exc:
            self._send(400, error_payload(exc))
        except (JobNotFoundError, ShardNotFoundError) as exc:
            self._send(404, error_payload(exc))
        except QueueFullError as exc:
            self._send(
                429, {**error_payload(exc),
                      "retry_after": exc.retry_after},
                headers={"Retry-After":
                         str(max(1, int(exc.retry_after)))},
            )
        except JobStateError as exc:
            # A draining shard is temporarily unavailable, not in
            # conflict: tell the client to come back after restart.
            if exc.draining:
                self._send(503, error_payload(exc), headers=unavailable)
            else:
                self._send(409, error_payload(exc))
        except NoShardAvailableError as exc:
            # No live shard right now: come back once one (re)joins.
            self._send(503, error_payload(exc), headers=unavailable)
        except ReproError as exc:
            self._send(400, error_payload(exc))

    do_GET = _dispatch
    do_POST = _dispatch
    do_DELETE = _dispatch


def make_handler(routes: dict[tuple[str, str], Route],
                 verbose: bool = False) -> type[JsonRequestHandler]:
    """Bind a handler class to one route table, keyed by ``(method,
    path)`` with ``{id}`` standing for one path segment."""
    table = tuple(
        (method, tuple(part for part in path.split("/") if part), route)
        for (method, path), route in routes.items()
    )
    return type("ApiHandler", (JsonRequestHandler,),
                {"routes": table, "verbose": verbose})


# --- the daemon --------------------------------------------------------------

class ApiServer:
    """One HTTP daemon, for either role.

    The roles differ only in what the caller passes: ``on_stop`` runs
    before the listener stops (drain the service, or stop coordinator
    maintenance) and gets the shutdown timeout; ``log_prefix`` starts
    its stderr lines; ``signal_thread`` names the thread a
    SIGTERM/SIGINT starts the shutdown on.
    """

    def __init__(self, handler: type[JsonRequestHandler],
                 on_stop: Callable[[float | None], object],
                 log_prefix: str, signal_thread: str,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.httpd = ThreadingHTTPServer((host, port), handler)
        # A keep-alive connection parked in readline() must not block
        # interpreter exit after a shutdown.
        self.httpd.daemon_threads = True
        self.on_stop = on_stop
        self.log_prefix = log_prefix
        self.signal_thread = signal_thread
        self._serve_thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def start_background(self) -> None:
        """Serve from a daemon thread (the test/embedded mode)."""
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever, name="api-http",
            daemon=True)
        self._serve_thread.start()

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT run :meth:`shutdown` off the signal frame, so
        in-flight HTTP responses (and the handler itself) never
        block."""

        def _graceful(signum, frame) -> None:
            print(f"{self.log_prefix} caught signal {signum}; "
                  "shutting down", file=sys.stderr)
            threading.Thread(target=self.shutdown, daemon=True,
                             name=self.signal_thread).start()

        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)

    def shutdown(self, timeout: float | None = None) -> None:
        """Run ``on_stop``, then stop accepting connections."""
        self.on_stop(timeout)
        self.httpd.shutdown()

    def close(self) -> None:
        self.httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)

    def run(self, banner: str) -> None:
        """The foreground life of ``repro serve`` and ``repro cluster``:
        install the signal handlers, print ``banner`` (the ``listening
        on`` line), serve until a signal's shutdown returns, close."""
        self.install_signal_handlers()
        print(banner, file=sys.stderr)
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            self.shutdown()
        finally:
            self.close()
