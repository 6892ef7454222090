"""Stdlib-only HTTP frontend for the serving subsystem.

``python -m repro.serve --artifact model.npz`` starts a threaded HTTP
server over an in-process ``ModelStore``; with ``--shards N`` (N >= 2)
the same routes are served by a supervised ``FleetSupervisor`` shard
pool instead.  Both are a :class:`ServingBackend`, so every route below
is one code path:

* ``GET /healthz`` — liveness, draining state, aggregate queue depth,
  and which models are registered/loaded (and, under a fleet, the
  per-shard supervision snapshot);
* ``GET /models`` — full artifact metadata per registered model;
* ``GET /metrics`` — the live ``repro-metrics/v1`` snapshot (JSON by
  default; Prometheus text with ``?format=prom`` or ``Accept:
  text/plain``); under a fleet the supervisor merges every shard's
  snapshot, so the schema is identical to in-process serving;
* ``POST /predict`` — JSON ``{"inputs": [[...]], "model": "name"?}`` ->
  ``{"logits": [[...]], "dtype": ..., "shape": [...]}``, or with
  ``Content-Type: application/x-repro-array`` one packed array
  (``[u32 header length][{"dtype", "shape", "crc", "model"?}][raw
  bytes]``, the fleet frame without its outer length) answered the same
  way; the response follows the request's format, errors stay JSON;
* ``POST /models/{name}/load`` / ``POST /models/{name}/evict`` — warm
  or drop ``name``'s engine (every shard, under a fleet) without a
  restart;
* ``POST /models/{name}/ratelimit`` — install/clear a per-model
  admission rate limit (``{"rate_per_s": 50, "burst": 10}``; ``null``
  clears); a depleted bucket answers ``429`` + ``Retry-After``;
* ``POST /drain`` — begin the graceful drain an operator otherwise
  triggers with SIGTERM.

Handler threads only decode/encode bodies and block on the engine's
micro-batcher (or the fleet's routing table), so concurrent requests
coalesce into shared forward passes exactly like in-process traffic.
Responses carry the artifact's compute dtype and the logits' shape,
which lets a client reconstruct the numpy result byte-identically
(including zero-row responses).  Connections are HTTP/1.1 keep-alive,
with ``TCP_NODELAY`` so a reused connection never waits out the peer's
delayed ACK.

Every failure is a :class:`~repro.serve.errors.ServingError` whose code
maps to an HTTP status in one table, answered as ``{"error": ...,
"retryable": ...}``.  Overload is a first-class response, not an
accident: a saturated pool (or a full micro-batcher queue) answers
``503`` with a ``Retry-After`` header, which
:class:`~repro.serve.client.HTTPClient` honours in its retry loop.
SIGTERM/SIGINT drain instead of dropping connections:
the listener stops accepting, idle keep-alive connections close, every
in-flight request still gets its response, then the backend shuts down
and the process exits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import socket
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple
from urllib.parse import unquote, urlsplit

import numpy as np

from repro.obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.obs.registry import default_registry
from repro.serve.admin import RateLimit, RateLimiter
from repro.serve.engine import EngineConfig
from repro.serve.errors import RETRY_AFTER_S, ServingError, UnknownModelError, as_serving_error
from repro.serve.fleet.protocol import (
    ARRAY_CONTENT_TYPE,
    decode_array,
    encode_array,
    pack_frame,
    unpack_frame,
)
from repro.serve.fleet.supervisor import FleetConfig, FleetSupervisor
from repro.serve.store import ModelStore

__all__ = ["ServingBackend", "ServingHTTPServer", "build_parser", "create_server", "main"]

#: How long a drain waits for in-flight requests before giving up.
DRAIN_TIMEOUT_S = 30.0

#: The one failure -> HTTP status table, keyed by ``ServingError.code``.
_STATUS = {
    "bad-request": 400,
    "not-found": 404,
    "rate-limited": 429,
    "internal": 500,
    "saturated": 503,
    "draining": 503,
    "unavailable": 503,
    "timeout": 504,
}

_REGISTRY = default_registry()
_M_HTTP_REQUESTS = _REGISTRY.counter(
    "serve_http_requests_total",
    "HTTP responses sent by the frontend, by route and status.",
    labels=("route", "status"),
)
_M_RATE_LIMITED = _REGISTRY.counter(
    "serve_http_rate_limited_total",
    "Requests rejected at admission by a per-model rate limit.",
    labels=("model",),
)

#: A ``Content-Length`` value the frontend reads a body by.
_CONTENT_LENGTH = re.compile(r"[0-9]+")

#: Admin routes: ``POST /models/{name}/load|evict|ratelimit``.
_ADMIN_ROUTE = re.compile(r"^/models/([^/]+)/(load|evict|ratelimit)$")


def _retry_after_header(seconds: float) -> str:
    """RFC 9110 delta-seconds: an integer, never below 1."""
    return str(max(1, math.ceil(seconds)))


class ServingBackend(Protocol):
    """What the frontend serves through: a ``ModelStore`` or a ``FleetSupervisor``.

    Failures raise :class:`~repro.serve.errors.ServingError` (an
    unknown model is :class:`~repro.serve.errors.UnknownModelError`);
    invalid inputs may also surface as ``ValueError`` / ``TypeError``.
    """

    def predict(self, inputs, model: str) -> np.ndarray:
        """Logits for ``inputs`` from ``model``; an evicted model reloads."""

    def names(self) -> List[str]:
        """Registered model names, in registration order."""

    def describe(self) -> List[Dict[str, object]]:
        """Per-model artifact metadata plus its ``loaded`` flag."""

    def load(self, name: str) -> Dict[str, object]:
        """Warm ``name``; the reply body of ``POST /models/{name}/load``."""

    def evict(self, name: str) -> Dict[str, object]:
        """Drop ``name``'s engine(s); the reply of ``POST /models/{name}/evict``."""

    def queue_depth(self) -> int:
        """Requests admitted but not yet answered."""

    def metrics_snapshot(self) -> Dict[str, object]:
        """The ``repro-metrics/v1`` snapshot ``GET /metrics`` serves."""

    def health(self) -> Dict[str, object]:
        """``live`` (can anything serve?), ``loaded`` names, and backend details."""


class ServingHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one serving backend.

    The server counts in-flight requests (read, not yet answered) and
    tracks idle keep-alive connections, so :meth:`drain` can stop
    accepting, close the idle connections and wait for every accepted
    request to finish — the graceful half of SIGTERM handling.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        backend: ServingBackend,
        default_model: str,
        rate_limiter: Optional[RateLimiter] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.backend = backend
        self.default_model = default_model
        self.rate_limiter = rate_limiter if rate_limiter is not None else RateLimiter()
        #: Called once when an admin ``POST /drain`` lands; ``main``
        #: points it at its stop event so the full drain flow runs.
        self.on_drain: Optional[callable] = None
        self._drain_requested = threading.Event()
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        #: Keep-alive connections waiting for their next request.
        self._idle: Set[socket.socket] = set()
        self._draining = threading.Event()

    # ------------------------------------------------------------------
    # In-flight accounting / graceful drain
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def park(self, connection: socket.socket) -> bool:
        """Mark ``connection`` idle between requests; ``False`` once draining."""
        with self._inflight_cv:
            if self._draining.is_set():
                return False
            self._idle.add(connection)
            return True

    def begin_request(self, connection: socket.socket, parked: bool) -> bool:
        """Count a request whose line was just read; ``False`` means close instead.

        A request on a parked connection that the drain already closed
        is never answered: its client sees the connection close before
        any response byte and may safely resend it elsewhere.
        """
        with self._inflight_cv:
            if parked and connection not in self._idle:
                return False
            self._idle.discard(connection)
            self._inflight += 1
            return True

    def end_request(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    def unpark(self, connection: socket.socket) -> None:
        """Forget ``connection`` (it is closing)."""
        with self._inflight_cv:
            self._idle.discard(connection)

    def _begin_drain(self) -> None:
        """Mark the server draining and close every idle keep-alive connection."""
        with self._inflight_cv:
            self._draining.set()
            idle, self._idle = self._idle, set()
        for connection in idle:
            try:
                # Wakes the handler blocked reading the next request;
                # the handler thread closes the socket itself.
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> bool:
        """Stop accepting, close idle connections, wait for in-flight requests.

        Returns ``True`` when every request already read finished (its
        response flushed) within ``timeout``.  The backend is *not*
        closed here — the caller closes it after the drain so late
        responses still have an engine to come from.
        """
        # Stops ``serve_forever`` (must run on a different thread), so
        # no new connection is accepted while we wait.
        self.shutdown()
        self._begin_drain()
        deadline = time.monotonic() + timeout
        with self._inflight_cv:
            while self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._inflight_cv.wait(remaining)
        return True

    def request_drain(self) -> None:
        """Begin a graceful drain from an admin request (asynchronous).

        Marks the server draining immediately — ``/healthz`` reports
        it, idle keep-alive connections close and every response closes
        its connection — then hands off to ``on_drain`` (the CLI's stop
        event) when registered, or runs :meth:`drain` on a background
        thread otherwise.  The
        handler thread that received ``POST /drain`` must not run the
        drain itself: the drain waits for in-flight requests, which
        would include that very handler.
        """
        if self._drain_requested.is_set():
            return
        self._drain_requested.set()
        self._begin_drain()
        if self.on_drain is not None:
            self.on_drain()
        else:
            threading.Thread(target=self.drain, name="repro-serve-drain", daemon=True).start()


class _Handler(BaseHTTPRequestHandler):
    server: ServingHTTPServer

    # Keep-alive responses require accurate Content-Length, which
    # ``_send_body`` always sets.
    protocol_version = "HTTP/1.1"
    # Headers and body leave in two writes: with Nagle on, every
    # response on a reused connection would wait out the client's
    # delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    #: Normalised route label for the HTTP request counter (set by the
    #: route dispatchers; admin routes collapse the model name).
    _route = "other"
    #: Whether this connection sat idle waiting for its current request.
    _parked = False
    #: Whether the current request counts as in flight.
    _counted = False

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if os.environ.get("REPRO_SERVE_LOG"):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Keep-alive and in-flight accounting
    # ------------------------------------------------------------------
    def handle(self) -> None:
        """Answer requests until the connection closes or the server drains."""
        self.close_connection = True
        try:
            self.handle_one_request()
            while not self.close_connection and self.server.park(self.connection):
                self._parked = True
                self.handle_one_request()
        finally:
            self.server.unpark(self.connection)

    def handle_one_request(self) -> None:
        try:
            super().handle_one_request()
        finally:
            if self._counted:
                self._counted = False
                self.server.end_request()

    def parse_request(self) -> bool:
        # The request line has been read: from here it is in flight,
        # unless the drain closed this idle connection first.
        if not self.server.begin_request(self.connection, self._parked):
            self.close_connection = True
            return False
        self._counted = True
        return super().parse_request()

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = urlsplit(self.path).path
        self._route = path if path in ("/healthz", "/models", "/metrics") else "other"
        backend = self.server.backend
        if path == "/healthz":
            draining = self.server.draining
            health = backend.health()
            live = health.pop("live")
            self._send_json(
                200,
                {
                    "status": ("draining" if draining else "ok") if live else "degraded",
                    "draining": draining,
                    "queue_depth": backend.queue_depth(),
                    "default_model": self.server.default_model,
                    "models": backend.names(),
                    **health,
                },
            )
        elif path == "/models":
            self._send_json(200, {"models": backend.describe()})
        elif path == "/metrics":
            self._send_metrics()
        else:
            self._send_error(ServingError(f"unknown path {path!r}", code="not-found"))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        # Drain the body before routing: leaving unread bytes on a
        # keep-alive connection would desynchronise the next request.
        body = self._read_body()
        if body is None:
            self._route = "other"
            self._send_error(
                ServingError("unreadable request body", code="bad-request"), close=True
            )
            return
        path = urlsplit(self.path).path
        admin = _ADMIN_ROUTE.match(path)
        if admin is not None:
            name, action = unquote(admin.group(1)), admin.group(2)
            self._route = f"/models/{{name}}/{action}"
            self._handle_admin(name, action, body)
            return
        if path == "/drain":
            self._route = "/drain"
            # Respond before the drain starts waiting on in-flight
            # requests (this handler is one of them).
            self._send_json(202, {"status": "draining"})
            self.server.request_drain()
            return
        if path != "/predict":
            self._route = "other"
            self._send_error(ServingError(f"unknown path {path!r}", code="not-found"))
            return
        self._route = "/predict"
        if self.server.draining:
            # Drain semantics: finish what was admitted, admit nothing
            # new.  Retryable so a balancer/client fails over cleanly.
            self._send_error(
                ServingError(
                    "server is draining", code="draining", retryable=True, retry_after=RETRY_AFTER_S
                )
            )
            return
        binary = self.headers.get_content_type() == ARRAY_CONTENT_TYPE
        try:
            if binary:
                header, payload = unpack_frame(body)
                inputs, name = decode_array(header, payload), header.get("model")
            else:
                inputs, name = _read_json_body(body)
        except (ServingError, ValueError) as error:
            # A body that does not decode (``ProtocolError`` is a
            # ``ValueError``) is ``bad-request``, never ``internal``.
            self._send_error(as_serving_error(error))
            return
        name = name or self.server.default_model
        admitted, retry_after = self.server.rate_limiter.admit(name)
        if not admitted:
            _M_RATE_LIMITED.labelled(model=name).inc()
            self._send_error(
                ServingError(
                    f"rate limit exceeded for model {name!r}",
                    code="rate-limited",
                    retryable=True,
                    retry_after=retry_after,
                )
            )
            return
        try:
            logits = self.server.backend.predict(inputs, name)
        except Exception as error:  # noqa: BLE001 - report, don't drop the socket
            self._send_error(as_serving_error(error))
            return
        if binary:
            meta, payload = encode_array(logits)
            self._send_body(200, pack_frame({**meta, "model": name}, payload), ARRAY_CONTENT_TYPE)
            return
        self._send_json(
            200,
            {
                "model": name,
                "logits": logits.tolist(),
                "dtype": str(logits.dtype),
                "shape": list(logits.shape),
            },
        )

    # ------------------------------------------------------------------
    # Admin surface
    # ------------------------------------------------------------------
    def _handle_admin(self, name: str, action: str, body: bytes) -> None:
        """``POST /models/{name}/load|evict|ratelimit``.

        Load and evict reply with the backend's own report: the store's
        ``was_loaded``, the fleet's per-shard acknowledgements (``503``
        unless every live shard acknowledged).
        """
        if action == "ratelimit":
            self._handle_ratelimit(name, body)
            return
        backend = self.server.backend
        try:
            result = backend.load(name) if action == "load" else backend.evict(name)
        except Exception as error:  # noqa: BLE001 - report, don't drop the socket
            self._send_error(as_serving_error(error))
            return
        self._send_json(200 if result["ok"] else 503, {"action": action, **result})

    def _handle_ratelimit(self, name: str, body: bytes) -> None:
        if name not in self.server.backend.names():
            self._send_error(UnknownModelError(f"no model named {name!r} is registered"))
            return
        try:
            payload = json.loads(body.decode("utf-8")) if body.strip() else None
        except (ValueError, UnicodeDecodeError):
            self._send_error(
                ServingError("request body must be a JSON object or null", code="bad-request")
            )
            return
        try:
            if payload is None:
                applied = self.server.rate_limiter.set_limit(name, None)
            elif isinstance(payload, dict) and "rate_per_s" in payload:
                applied = self.server.rate_limiter.set_limit(
                    name, payload["rate_per_s"], payload.get("burst")
                )
            else:
                raise ValueError('body must be null or carry "rate_per_s" (null clears)')
        except (TypeError, ValueError) as error:
            self._send_error(as_serving_error(error))
            return
        self._send_json(200, {"model": name, "limit": applied})

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_body(self) -> Optional[bytes]:
        """The whole request body, or ``None`` when it cannot be read in full.

        Only a ``Content-Length`` of a non-negative integer delimits a
        body (absent means empty).  A chunked or otherwise encoded body
        and a malformed length are never read, so the caller answers
        and closes the connection rather than parse the leftover bytes
        as the next request, or block on ``read(-1)`` until the peer
        hangs up.
        """
        length = self.headers.get("Content-Length", "0").strip()
        if "Transfer-Encoding" in self.headers or not _CONTENT_LENGTH.fullmatch(length):
            return None
        try:
            return self.rfile.read(int(length))
        except OSError:
            return None

    def _send_metrics(self) -> None:
        """``GET /metrics``: JSON by default, Prometheus text on request."""
        try:
            snapshot = self.server.backend.metrics_snapshot()
        except Exception as error:  # noqa: BLE001 - report, don't drop the socket
            self._send_error(as_serving_error(error))
            return
        query = urlsplit(self.path).query
        accept = self.headers.get("Accept", "")
        as_prometheus = "format=prom" in query or (
            "text/plain" in accept and "application/json" not in accept
        )
        if as_prometheus:
            self._send_body(200, render_prometheus(snapshot).encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
        else:
            self._send_json(200, snapshot)

    def _send_error(self, error: ServingError, close: bool = False) -> None:
        """Answer ``error`` with its status from :data:`_STATUS`; ``close`` ends the connection."""
        headers = {}
        if error.retry_after is not None:
            headers["Retry-After"] = _retry_after_header(error.retry_after)
        if close:
            headers["Connection"] = "close"
        self._send_json(
            _STATUS.get(error.code, 500),
            {"error": str(error), "retryable": error.retryable},
            headers=headers,
        )

    def _send_json(
        self, status: int, payload: dict, headers: Optional[Dict[str, str]] = None
    ) -> None:
        self._send_body(
            status, json.dumps(payload).encode("utf-8"), "application/json", headers=headers
        )

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        _M_HTTP_REQUESTS.labelled(route=self._route, status=str(status)).inc()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        headers = dict(headers or {})
        if self.server.draining:
            # A draining server finishes the requests it accepted but
            # ends every connection after its current response.
            headers["Connection"] = "close"
        # ``send_header`` sets ``close_connection`` on ``Connection: close``.
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)


def _read_json_body(body: bytes) -> Tuple[object, Optional[str]]:
    """``(inputs, model)`` of a JSON ``/predict`` body."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        raise ServingError("request body must be a JSON object", code="bad-request") from None
    if not isinstance(payload, dict) or "inputs" not in payload:
        raise ServingError('request must carry an "inputs" field', code="bad-request")
    return payload["inputs"], payload.get("model")


def create_server(
    backend: ServingBackend,
    default_model: str,
    host: str = "127.0.0.1",
    port: int = 0,
    rate_limiter: Optional[RateLimiter] = None,
) -> ServingHTTPServer:
    """Bind (but do not start) a serving server; ``port=0`` picks a free one."""
    return ServingHTTPServer((host, port), backend, default_model, rate_limiter=rate_limiter)


def _artifact_name(spec: str) -> Tuple[str, str]:
    """Parse an ``--artifact`` value: ``NAME=PATH`` or bare ``PATH``."""
    if "=" in spec:
        name, _, path = spec.partition("=")
        if name and path:
            return name, path
    stem = os.path.basename(spec)
    for suffix in (".npz",):
        if stem.endswith(suffix):
            stem = stem[: -len(suffix)]
    return stem, spec


def _parse_rate_limits(specs, parser: argparse.ArgumentParser) -> RateLimiter:
    """Build the admission limiter from ``--rate-limit`` values."""
    default: Optional[RateLimit] = None
    named = {}
    for spec in specs:
        name, sep, rest = spec.rpartition("=")
        rate_part, _, burst_part = rest.partition(":")
        try:
            rate = float(rate_part)
            burst = int(burst_part) if burst_part else None
            limit = RateLimit(rate, burst)
        except ValueError as error:
            parser.error(f"bad --rate-limit {spec!r}: {error}")
        if sep:
            named[name] = limit
        else:
            default = limit
    limiter = RateLimiter(default=default)
    for name, limit in named.items():
        limiter.set_limit(name, limit.rate_per_s, limit.burst)
    return limiter


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve sealed repro-model/v1 artifacts over HTTP.",
    )
    parser.add_argument(
        "--artifact",
        action="append",
        required=True,
        metavar="[NAME=]PATH",
        help=(
            "sealed model artifact to serve; repeat to register several "
            "(the first one is the default model for /predict)"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8100, help="bind port (default: 8100)")
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes behind the frontend; 1 (default) serves "
            "in-process, >= 2 runs a supervised shard pool with "
            "zero-loss failover (chaos hooks via REPRO_CHAOS)"
        ),
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=4,
        metavar="N",
        help="resident engines before LRU eviction kicks in (default: 4; in-process only)",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="rows one micro-batch may coalesce (default: 64)",
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="longest a batch waits for the other requests in flight; a lone "
        "request does not wait (default: 2.0)",
    )
    parser.add_argument(
        "--rate-limit",
        action="append",
        default=[],
        metavar="[NAME=]RPS[:BURST]",
        help=(
            "per-model admission rate limit in requests/second (repeatable); "
            "a bare RPS applies to every model without its own limit; "
            "an optional :BURST caps the bucket (default: ceil(RPS)). "
            "Mutable at runtime via POST /models/{name}/ratelimit"
        ),
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=0,
        metavar="N",
        help=(
            "requests that may queue ahead of each scheduler before new "
            "ones are rejected with 503 + Retry-After (default: 0 = unbounded)"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Start the serving frontend; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    config = EngineConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
    )

    artifacts: Dict[str, str] = {}
    for spec in args.artifact:
        name, path = _artifact_name(spec)
        if name in artifacts:
            parser.error(
                f"two --artifact values resolve to the model name {name!r}; "
                "disambiguate with NAME=PATH"
            )
        artifacts[name] = path
    default_model = next(iter(artifacts))

    if args.shards >= 2:
        topology = f"{args.shards} shard processes"
        try:
            backend = FleetSupervisor(
                artifacts,
                FleetConfig(shards=args.shards, engine=config),
                default_model=default_model,
            )
        except (OSError, ValueError, RuntimeError) as error:
            parser.error(str(error))
    else:
        topology = "in-process engine"
        backend = ModelStore(capacity=args.capacity, config=config)
        for name, path in artifacts.items():
            try:
                backend.register(name, path)
            except (OSError, ValueError) as error:
                parser.error(str(error))
        # Load the default model eagerly: once /healthz answers,
        # /predict will not pay a cold model load.
        backend.load(default_model)

    try:
        server = create_server(
            backend,
            default_model,
            host=args.host,
            port=args.port,
            rate_limiter=_parse_rate_limits(args.rate_limit, parser),
        )
    except OSError as error:
        backend.close()
        parser.error(str(error))
    host, port = server.server_address[:2]
    print(
        f"serving {list(artifacts)} on http://{host}:{port} via {topology} "
        "(POST /predict, GET /healthz, GET /models, GET /metrics, "
        "POST /models/{name}/load|evict|ratelimit, POST /drain)",
        flush=True,
    )

    # SIGTERM/SIGINT request a drain: stop accepting, answer what was
    # accepted, then shut the backend down and exit 0.
    stop = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - stdlib signature
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
    except ValueError:
        pass  # embedded in a non-main thread: the caller owns signals
    # An admin ``POST /drain`` runs the same flow as SIGTERM.
    server.on_drain = stop.set

    serve_thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    serve_thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:
        pass
    print("draining in-flight requests ...", flush=True)
    drained = server.drain()
    server.server_close()
    backend.close()
    serve_thread.join(timeout=5.0)
    if not drained:
        print(f"drain timed out after {DRAIN_TIMEOUT_S}s; exiting anyway", file=sys.stderr)
        return 1
    print("drained; bye", flush=True)
    return 0
