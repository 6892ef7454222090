"""The stdlib HTTP client of the serving frontend.

:class:`HTTPClient` speaks the JSON protocol of :mod:`repro.serve.http`
over ``urllib`` so smoke tests and scripts need no third-party HTTP
library.

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

import json
import random
import time
import urllib.error
import urllib.request
from typing import Callable, Optional

import numpy as np

from repro.serve.errors import ServingError

__all__ = ["HTTPClient", "RetryPolicy", "ServingError"]


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

    def _request_once(self, path: str, payload: Optional[dict] = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            raw = b""
            try:
                raw = error.read()
            except OSError:
                pass
            try:
                body = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                body = {}
            message = body.get("error", str(error))
            retry_after: Optional[float] = None
            header = error.headers.get("Retry-After") if error.headers is not None else None
            if header is not None:
                try:
                    retry_after = float(header)
                except ValueError:
                    retry_after = None
            # The body's explicit flag wins: a 503 may say it is final.
            retryable = body.get("retryable", error.code == 503)
            raise ServingError(
                f"HTTP {error.code}: {message}",
                retryable=bool(retryable),
                retry_after=retry_after,
                status=error.code,
            ) from error

    def _request(self, path: str, payload: Optional[dict] = None) -> dict:
        """One logical request: retries connection errors and retryable rejections."""
        for attempt in range(1, self.retry.attempts + 1):
            try:
                return self._request_once(path, payload)
            except ServingError as error:
                if not error.retryable or attempt == self.retry.attempts:
                    raise
                self._sleep(self.retry.delay(attempt, error.retry_after))
            except urllib.error.URLError as error:
                # Connection refused/reset: the server (or its shard
                # pool) is restarting.  HTTPError is a URLError
                # subclass but was already converted above.
                if attempt == self.retry.attempts:
                    raise
                self._sleep(self.retry.delay(attempt))
        raise AssertionError("unreachable: the retry loop returns or raises")

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
        return self._request(f"/models/{model}/load", {})

    def evict(self, model: str) -> dict:
        """POST ``/models/{model}/evict``: drop ``model``'s resident engine(s)."""
        return self._request(f"/models/{model}/evict", {})

    def set_rate_limit(
        self, model: str, rate_per_s: Optional[float], burst: Optional[int] = None
    ) -> dict:
        """POST ``/models/{model}/ratelimit``; ``rate_per_s=None`` clears it."""
        payload: dict = {"rate_per_s": rate_per_s}
        if burst is not None:
            payload["burst"] = burst
        return self._request(f"/models/{model}/ratelimit", payload)

    def predict(self, inputs, model: Optional[str] = None) -> np.ndarray:
        """POST ``/predict`` and return logits in the server's dtype.

        The response carries the artifact's compute dtype, so casting
        the JSON floats back yields arrays byte-identical to what the
        engine computed.
        """
        payload: dict = {"inputs": np.asarray(inputs).tolist()}
        if model is not None:
            payload["model"] = model
        response = self._request("/predict", payload)
        logits = np.asarray(response["logits"], dtype=response["dtype"])
        # ``tolist`` flattens a zero-row result to ``[]``; the declared
        # shape restores the class dimension of the empty-input contract.
        return logits.reshape(response["shape"])
