"""One failure taxonomy for every serving path.

Every failure a serving backend reports for a request is a
:class:`ServingError` whose ``code`` comes from one fixed vocabulary:

* ``bad-request`` — malformed inputs (wrong shape, not numeric);
* ``not-found`` — no model (or route) of that name;
* ``rate-limited`` — a per-model admission limit is depleted;
* ``saturated`` — a bounded queue or the shard pool is full;
* ``draining`` — the server is shutting down gracefully;
* ``unavailable`` — nothing can serve the request without operator
  action (a failed artifact load, every crash-loop breaker open);
* ``timeout`` — the request's deadline expired;
* ``internal`` — anything else (a model bug).

The in-process store and the fleet raise the same classes, a fleet
shard sends the code over the wire, and the HTTP frontend maps the
code to a status in one table.  This module imports nothing from
:mod:`repro.serve`, so every layer can raise these errors.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["RETRY_AFTER_S", "ServingError", "UnknownModelError", "as_serving_error"]

#: Back-off hint (seconds) attached to a saturation rejection.
RETRY_AFTER_S = 1.0


class ServingError(RuntimeError):
    """A serving failure reported to a caller.

    ``code`` names the failure (subclasses fix it); ``retryable`` says
    whether another attempt could succeed, and ``retry_after`` carries
    the server's back-off hint in seconds when one applies —
    :class:`~repro.serve.client.HTTPClient` consumes both in its retry
    loop, and callers can too.  Errors the client raises for an HTTP
    error response also carry its ``status``.
    """

    code = "internal"
    retryable = False
    retry_after: Optional[float] = None

    def __init__(
        self,
        message: str,
        *,
        code: Optional[str] = None,
        retryable: Optional[bool] = None,
        retry_after: Optional[float] = None,
        status: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        if retryable is not None:
            self.retryable = retryable
        if retry_after is not None:
            self.retry_after = retry_after
        self.status = status


class UnknownModelError(ServingError, KeyError):
    """No model of that name is registered (also a ``KeyError``)."""

    code = "not-found"
    # ``KeyError`` would print the message quoted, like a dict key.
    __str__ = ServingError.__str__


def as_serving_error(error: Exception) -> ServingError:
    """``error`` in the serving taxonomy.

    Serving errors pass through unchanged; invalid inputs (``ValueError``
    / ``TypeError``) are ``bad-request``, an expired deadline is
    ``timeout``, and anything else is ``internal``.
    """
    if isinstance(error, ServingError):
        return error
    if isinstance(error, (ValueError, TypeError)):
        return ServingError(str(error), code="bad-request")
    if isinstance(error, TimeoutError):
        return ServingError(str(error), code="timeout")
    return ServingError(f"{type(error).__name__}: {error}")
