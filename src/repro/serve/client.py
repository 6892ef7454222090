"""The stdlib HTTP client of the serving frontend.

:class:`HTTPClient` speaks the protocol of :mod:`repro.serve.http` over
a small thread-safe pool of ``http.client`` keep-alive connections, so
smoke tests and scripts need no third-party HTTP library.  ``predict``
sends and receives ``application/x-repro-array`` bodies (the fleet's
array codec: raw bytes plus dtype, shape and CRC32); every other route
is JSON.  ``close()`` (or leaving a ``with`` block) closes the pooled
connections.

It retries what is worth retrying: connection errors (the server is
restarting, a fleet shard pool is rebooting) and rejections the server
marks ``"retryable": true`` (a ``503`` without that flag counts as
retryable), with bounded attempts, exponential backoff, full jitter,
and the server's ``Retry-After`` hint as a floor.  Anything else — bad
input, unknown model, a genuine server bug, every breaker open —
surfaces immediately as a :class:`ServingError` with
``retryable=False``.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.error
from typing import Callable, List, Optional, Tuple
from urllib.parse import quote, urlsplit

import numpy as np

from repro.serve.errors import ServingError
from repro.serve.fleet.protocol import (
    ARRAY_CONTENT_TYPE,
    decode_array,
    encode_array,
    pack_frame,
    unpack_frame,
)

__all__ = ["HTTPClient", "RetryPolicy", "ServingError"]


def _model_route(model: str, action: str) -> str:
    """``/models/{model}/{action}``, the name percent-encoded as one path segment."""
    return f"/models/{quote(model, safe='')}/{action}"


class RetryPolicy:
    """Bounded exponential backoff with full jitter.

    ``attempts`` counts total tries (1 = no retry).  The delay before
    retry ``k`` (1-based) is uniformly drawn from
    ``[0, min(backoff_max_s, backoff_s * 2**(k-1))]`` — full jitter, so
    a thundering herd of clients decorrelates — and never below the
    server's ``Retry-After`` hint when one accompanied the rejection.
    """

    def __init__(
        self,
        attempts: int = 3,
        backoff_s: float = 0.1,
        backoff_max_s: float = 2.0,
        seed: Optional[int] = None,
    ) -> None:
        if attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {attempts}")
        if backoff_s < 0 or backoff_max_s < 0:
            raise ValueError("backoff_s and backoff_max_s must be >= 0")
        self.attempts = attempts
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self._rng = random.Random(seed)

    def delay(self, retry_index: int, retry_after: Optional[float] = None) -> float:
        """Seconds to sleep before 1-based retry ``retry_index``."""
        ceiling = min(self.backoff_max_s, self.backoff_s * (2 ** (retry_index - 1)))
        jittered = self._rng.uniform(0.0, ceiling)
        if retry_after is not None:
            return max(jittered, retry_after)
        return jittered


class HTTPClient:
    """Stdlib client for the ``repro.serve`` HTTP frontend with retries.

    ``retry`` configures the backoff loop (``RetryPolicy(attempts=1)``
    disables retrying entirely); ``sleep`` is injectable so tests can
    observe the chosen delays without waiting them out.

    One client may be shared by many threads: each request checks a
    keep-alive connection out of the pool (opening one when none is
    idle) and returns it afterwards.  A pooled connection the server
    closed while it sat idle is reopened once, outside the retry
    budget; every other transport failure raises
    ``urllib.error.URLError``.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        url = urlsplit(self.base_url)
        self._netloc = url.netloc
        self._prefix = url.path
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close every pooled connection (ones in use close when returned)."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "HTTPClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _checkout(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        return self._connection_class(self._netloc, timeout=self.timeout)

    def _checkin(self, connection: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(connection)
                return
        connection.close()

    def _exchange(
        self, path: str, body: Optional[bytes], content_type: str
    ) -> Tuple[http.client.HTTPResponse, bytes]:
        """GET ``path`` (or POST ``body``) on a pooled connection; the response and its body."""
        method, headers = ("GET", {}) if body is None else ("POST", {"Content-Type": content_type})
        connection = self._checkout()
        # ``http.client`` reopens a closed connection (sock is None) by
        # itself; only a connection that was already open can be stale.
        reopen = connection.sock is not None
        try:
            while True:
                try:
                    connection.request(method, self._prefix + path, body, headers)
                    response = connection.getresponse()
                    break
                except ConnectionError:
                    # Closed before any response byte: the server ended
                    # the idle connection (keep-alive timeout, a drain).
                    connection.close()
                    if not reopen:
                        raise
                    reopen = False
            return response, response.read()
        except (OSError, http.client.HTTPException) as error:
            connection.close()
            raise urllib.error.URLError(error) from error
        finally:
            self._checkin(connection)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _request_once(self, path: str, body: Optional[bytes], content_type: str) -> bytes:
        """One round trip: the body of a 2xx reply, else a :class:`ServingError`."""
        response, data = self._exchange(path, body, content_type)
        if 200 <= response.status < 300:
            return data
        try:
            payload = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            payload = {}
        message = payload.get("error", f"HTTP Error {response.status}: {response.reason}")
        retry_after: Optional[float] = None
        header = response.getheader("Retry-After")
        if header is not None:
            try:
                retry_after = float(header)
            except ValueError:
                retry_after = None
        # The body's explicit flag wins: a 503 may say it is final.
        retryable = payload.get("retryable", response.status == 503)
        raise ServingError(
            f"HTTP {response.status}: {message}",
            retryable=bool(retryable),
            retry_after=retry_after,
            status=response.status,
        )

    def _send(
        self, path: str, body: Optional[bytes] = None, content_type: str = "application/json"
    ) -> bytes:
        """One logical request: retries connection errors and retryable rejections."""
        for attempt in range(1, self.retry.attempts + 1):
            try:
                return self._request_once(path, body, content_type)
            except ServingError as error:
                if not error.retryable or attempt == self.retry.attempts:
                    raise
                self._sleep(self.retry.delay(attempt, error.retry_after))
            except urllib.error.URLError:
                # Refused, reset or timed out: the server (or its shard
                # pool) may be restarting.
                if attempt == self.retry.attempts:
                    raise
                self._sleep(self.retry.delay(attempt))
        raise AssertionError("unreachable: the retry loop returns or raises")

    def _request(self, path: str, payload: Optional[dict] = None) -> dict:
        """A JSON route: GET without ``payload``, else POST it as JSON."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        return json.loads(self._send(path, body).decode("utf-8"))

    def healthz(self) -> dict:
        return self._request("/healthz")

    def models(self) -> dict:
        return self._request("/models")

    def metrics(self) -> dict:
        """GET ``/metrics``: the ``repro-metrics/v1`` JSON snapshot."""
        return self._request("/metrics")

    def drain(self) -> dict:
        """POST ``/drain``: stop admission; in-flight work completes."""
        return self._request("/drain", {})

    def load(self, model: str) -> dict:
        """POST ``/models/{model}/load``: warm the engine(s) for ``model``."""
        return self._request(_model_route(model, "load"), {})

    def evict(self, model: str) -> dict:
        """POST ``/models/{model}/evict``: drop ``model``'s resident engine(s)."""
        return self._request(_model_route(model, "evict"), {})

    def set_rate_limit(
        self, model: str, rate_per_s: Optional[float], burst: Optional[int] = None
    ) -> dict:
        """POST ``/models/{model}/ratelimit``; ``rate_per_s=None`` clears it."""
        payload: dict = {"rate_per_s": rate_per_s}
        if burst is not None:
            payload["burst"] = burst
        return self._request(_model_route(model, "ratelimit"), payload)

    def predict(self, inputs, model: Optional[str] = None) -> np.ndarray:
        """POST ``/predict`` as an array body; logits in the server's dtype.

        Inputs and logits cross the wire as raw bytes with their dtype,
        shape and CRC32, so the result is byte-identical to what the
        engine computed (a zero-row result keeps its class dimension).
        """
        meta, payload = encode_array(np.asarray(inputs))
        if model is not None:
            meta["model"] = model
        body = self._send("/predict", pack_frame(meta, payload), ARRAY_CONTENT_TYPE)
        header, logits = unpack_frame(body)
        # ``frombuffer`` views are read-only; callers get their own array.
        return decode_array(header, logits).copy()
