"""The fleet supervisor: an actor owning a pool of shard processes.

:class:`FleetSupervisor` scales :mod:`repro.serve` past one process.  It
spawns ``shards`` worker processes (each warm-loading every sealed
artifact), routes requests by consistent hash of the model name, and
supervises the pool the way an actor-system monitor would:

* **health checks** — periodic pings with a hard pong deadline; a shard
  that stops answering (wedged, not just dead) is killed and replaced;
* **crash detection** — a shard's socket closing, a send failing, or a
  reply failing its CRC all mark the shard down immediately;
* **restart** — dead shards respawn with exponential backoff; too many
  crashes inside a window trips a per-shard circuit breaker (state
  ``failed``) so a poisoned shard cannot crash-loop forever;
* **drain & re-route** — a dead shard's in-flight requests are re-sent
  to surviving shards (or parked until one restarts), so **no accepted
  request is ever dropped**: serving is pure, so re-execution is safe
  and each caller still gets exactly one reply;
* **backpressure** — admission is bounded per shard; a saturated pool
  rejects *new* work with :class:`FleetSaturatedError` (the HTTP layer
  turns that into 503 + ``Retry-After``) while re-routed work bypasses
  the bound because it was already accepted.

All supervisor state lives behind one lock; the static lock-discipline
rule in :mod:`repro.analysis` checks every access (reads included).
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import socket
import tempfile
import threading
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.registry import MetricsRegistry, default_registry, merge_snapshots
from repro.serve.artifact import read_artifact_meta
from repro.serve.engine import EngineConfig
from repro.serve.errors import RETRY_AFTER_S, ServingError, UnknownModelError
from repro.serve.fleet.chaos import CHAOS_ENV_VAR, parse_chaos
from repro.serve.fleet.protocol import (
    ConnectionClosed,
    ProtocolError,
    decode_array,
    encode_array,
    recv_message,
    send_message,
)
from repro.serve.fleet.worker import worker_entry

__all__ = [
    "FleetConfig",
    "FleetSaturatedError",
    "FleetSupervisor",
    "FleetUnavailableError",
    "WorkerError",
]


#: The shard lifecycle states a slot may be in.
SHARD_STATES = ("starting", "live", "dead", "failed")

#: How long a spawned worker may take to warm-load and say hello.
SPAWN_TIMEOUT_S = 120.0
#: How often a spawn waiting for its hello checks that the worker still
#: runs (the hello itself ends the wait at once).
_SPAWN_POLL_S = 0.05
#: Default deadline a blocking predict waits for its reply.
REQUEST_TIMEOUT_S = 120.0
#: Restart backoff ceiling.
RESTART_BACKOFF_MAX_S = 2.0
#: Sliding window the crash counter covers (``FleetConfig.max_restarts``
#: crashes inside it trip the breaker).
RESTART_WINDOW_S = 30.0


def _declare_fleet_instruments(registry: MetricsRegistry) -> Dict[str, object]:
    """Declare every fleet instrument family into ``registry``.

    Called twice with the same declarations: once at import time on the
    process-default registry (so ``python -m repro.obs doc`` documents
    the fleet instruments — nothing ever records there) and once per
    :class:`FleetSupervisor` on its private registry (so two fleets in
    one process never pollute each other's counters, and ``stats()``
    stays per-supervisor).
    """
    return {
        "accepted": registry.counter(
            "fleet_requests_accepted_total", "Requests admitted into the shard pool."
        ),
        "completed": registry.counter(
            "fleet_requests_completed_total", "Requests answered with shard results."
        ),
        "errors": registry.counter(
            "fleet_request_errors_total", "Requests a shard answered with an error."
        ),
        "rejected": registry.counter(
            "fleet_admission_rejects_total",
            "Requests rejected at admission (pool saturated or restarting).",
        ),
        "rerouted": registry.counter(
            "fleet_reroutes_total", "In-flight requests re-sent after a shard death."
        ),
        "reroutes_max": registry.gauge(
            "fleet_reroute_depth_max", "Most reroutes any single request survived."
        ),
        "crashes": registry.counter(
            "fleet_shard_crashes_total", "Shard incarnations that died (any cause)."
        ),
        "restarts": registry.counter(
            "fleet_shard_restarts_total", "Successful shard respawns after a crash."
        ),
        "heartbeat_deaths": registry.counter(
            "fleet_heartbeat_deaths_total", "Shards declared dead for missing pong deadlines."
        ),
        "corrupt_replies": registry.counter(
            "fleet_corrupt_replies_total", "Shard replies that failed their CRC integrity check."
        ),
        "heartbeat_rtt": registry.histogram(
            "fleet_heartbeat_rtt_s", "Ping-to-pong round-trip time per live shard."
        ),
        "shard_boot": registry.histogram(
            "fleet_shard_boot_s",
            "Process start to hello per shard incarnation, first boots and restarts alike.",
        ),
        "parked": registry.gauge(
            "fleet_parked_requests", "Accepted requests parked while no shard is live.", unit="requests"
        ),
        "shard_state": registry.gauge(
            "fleet_shards", "Shards currently in each lifecycle state.", labels=("state",), unit="shards"
        ),
        "pending": registry.gauge(
            "fleet_pending_requests", "In-flight requests across all live shards.", unit="requests"
        ),
    }


# Declaration-only: makes the fleet instruments visible to the generated
# metrics reference; supervisors record into their own registries.
_declare_fleet_instruments(default_registry())


class FleetSaturatedError(ServingError):
    """The pool cannot admit new work right now; retry after a delay."""

    code = "saturated"
    retryable = True
    retry_after = RETRY_AFTER_S


class FleetUnavailableError(ServingError):
    """No shard can ever take this request (breakers open / fleet closed)."""

    code = "unavailable"


class WorkerError(ServingError):
    """An error a shard reported for one request (bad input, model bug).

    Its ``code``, ``retryable`` and ``retry_after`` are the ones the
    shard's own :class:`~repro.serve.errors.ServingError` carried.
    """


@dataclass(frozen=True)
class FleetConfig:
    """Pool sizing, supervision deadlines, and failure policy."""

    #: Worker processes in the pool.
    shards: int = 2
    #: Engine knobs every shard's ServingEngines are built with.
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: In-flight requests one shard may hold before admission rejects.
    max_pending_per_shard: int = 64
    #: Seconds between heartbeat pings to each live shard.
    heartbeat_interval_s: float = 0.5
    #: Pong silence after which a live shard is declared dead.
    heartbeat_timeout_s: float = 3.0
    #: First restart backoff; doubles per crash inside the window.
    restart_backoff_s: float = 0.05
    #: Crashes inside :data:`RESTART_WINDOW_S` before the breaker trips.
    max_restarts: int = 5
    #: Chaos spec for fault injection (None: read ``REPRO_CHAOS``).
    chaos: Optional[str] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.max_pending_per_shard < 1:
            raise ValueError(
                f"max_pending_per_shard must be >= 1, got {self.max_pending_per_shard}"
            )
        if self.heartbeat_timeout_s <= self.heartbeat_interval_s:
            raise ValueError("heartbeat_timeout_s must exceed heartbeat_interval_s")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")


class _Pending:
    """One accepted request: payload plus the caller's completion gate."""

    __slots__ = ("name", "inputs", "done", "result", "error", "reroutes")

    def __init__(self, name: str, inputs: np.ndarray) -> None:
        self.name = name
        self.inputs = inputs
        self.done = threading.Event()
        self.result: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.reroutes = 0

    def complete(self, result: np.ndarray) -> None:
        self.result = result
        self.done.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done.set()


class _ShardLink:
    """One shard *incarnation*: process, socket, and its in-flight table.

    A restart creates a fresh link, so per-incarnation fields are only
    ever written by one thread (the reader, or the monitor for ping
    bookkeeping) and the supervisor's lock guards the shared ``pending``
    table through the owning :class:`FleetSupervisor`.
    """

    __slots__ = (
        "index",
        "generation",
        "token",
        "process",
        "conn",
        "pending",
        "last_pong",
        "last_ping",
        "ping_seq",
        "requests",
        "loaded",
        "_send_lock",
    )

    def __init__(self, index: int, generation: int, token: str, process) -> None:
        self.index = index
        self.generation = generation
        self.token = token
        self.process = process
        self.conn: Optional[socket.socket] = None
        self.pending: Dict[int, _Pending] = {}
        self.last_pong = 0.0
        self.last_ping = 0.0
        self.ping_seq = 0
        self.requests = 0
        #: Models the shard reported resident (hello, pong, admin-ack).
        self.loaded: Tuple[str, ...] = ()
        self._send_lock = threading.Lock()

    def send(self, header: dict, payload: bytes = b"") -> None:
        with self._send_lock:
            send_message(self.conn, header, payload)

    def destroy(self) -> None:
        """Close the socket and make sure the process is gone."""
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:
                pass
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)


class _Slot:
    """The supervisor's fixed view of shard ``index`` across incarnations."""

    __slots__ = ("index", "state", "link", "generation", "restart_at", "crash_times")

    def __init__(self, index: int) -> None:
        self.index = index
        self.state = "starting"  # starting | live | dead | failed
        self.link: Optional[_ShardLink] = None
        self.generation = 0
        self.restart_at = 0.0
        self.crash_times: List[float] = []


class _SpawnWaiter:
    __slots__ = ("event", "conn", "loaded")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.conn: Optional[socket.socket] = None
        self.loaded: Tuple[str, ...] = ()

    def await_hello(self, process) -> bool:
        """Wait until ``process`` says hello, exits, or :data:`SPAWN_TIMEOUT_S` passes.

        Returns whether it said hello.  A worker that dies while it
        loads (say, an artifact whose weights fail to load) ends the
        wait at once, for a first boot and every restart alike, instead
        of holding the spawn for the whole timeout.
        """
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while not self.event.wait(_SPAWN_POLL_S):
            if not process.is_alive() or time.monotonic() >= deadline:
                return False
        return self.conn is not None


class _ControlWaiter:
    """One in-flight control round-trip (``metrics``/``load``/``evict``)."""

    __slots__ = ("event", "reply")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.reply: Optional[dict] = None


def _hash(value: str) -> int:
    return int.from_bytes(hashlib.sha1(value.encode("utf-8")).digest()[:8], "big")


def _build_ring(shards: int, vnodes: int = 64) -> List[Tuple[int, int]]:
    ring = []
    for index in range(shards):
        for vnode in range(vnodes):
            ring.append((_hash(f"shard-{index}-vnode-{vnode}"), index))
    ring.sort()
    return ring


class FleetSupervisor:
    """Supervised multi-process shard pool over sealed model artifacts."""

    def __init__(
        self,
        artifacts: Dict[str, str],
        config: Optional[FleetConfig] = None,
        default_model: Optional[str] = None,
    ) -> None:
        if not artifacts:
            raise ValueError("a fleet needs at least one registered artifact")
        self.config = config if config is not None else FleetConfig()
        # Fail fast on unreadable artifacts (and capture /models metadata)
        # before any process is spawned.
        self._artifacts = {name: os.fspath(path) for name, path in artifacts.items()}
        self._meta = {name: read_artifact_meta(path) for name, path in self._artifacts.items()}
        self.default_model = default_model if default_model is not None else next(iter(artifacts))
        if self.default_model not in self._artifacts:
            raise KeyError(f"default model {self.default_model!r} is not a registered artifact")
        chaos_spec = self.config.chaos
        if chaos_spec is None:
            chaos_spec = os.environ.get(CHAOS_ENV_VAR)
        parse_chaos(chaos_spec)  # validate before shipping it to workers
        self._chaos_spec = chaos_spec
        self._ring = _build_ring(self.config.shards)
        self._ctx = multiprocessing.get_context("spawn")

        self._lock = threading.Lock()
        self._closed = False
        self._ids = itertools.count(1)
        self._generations = itertools.count(1)
        self._parked: List[_Pending] = []
        self._waiters: Dict[str, _SpawnWaiter] = {}
        self._control: Dict[int, _ControlWaiter] = {}
        # Per-supervisor registry: counters are this fleet's alone (two
        # fleets in one test process must not share restart counts), and
        # ``metrics_snapshot`` merges shard snapshots on top of it.
        self._registry = MetricsRegistry()
        self._metrics = _declare_fleet_instruments(self._registry)
        self._slots = [_Slot(index) for index in range(self.config.shards)]

        self._listener, self._address, self._family = self._bind_listener()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True
        )
        self._accept_thread.start()

        boot = [
            threading.Thread(target=self._spawn_shard, args=(slot,), daemon=True)
            for slot in self._slots
        ]
        for thread in boot:
            thread.start()
        for thread in boot:
            thread.join()
        with self._lock:
            live = [slot.index for slot in self._slots if slot.state == "live"]
        if not live:
            self.close()
            raise RuntimeError(
                f"no shard survived boot (0/{self.config.shards} live); "
                "see worker stderr for the load failure"
            )
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="fleet-monitor", daemon=True
        )
        self._monitor_thread.start()

    # ------------------------------------------------------------------
    # Listener / handshake
    # ------------------------------------------------------------------
    def _bind_listener(self):
        if hasattr(socket, "AF_UNIX"):
            root = tempfile.mkdtemp(prefix="repro-fleet-")
            path = os.path.join(root, "fleet.sock")
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            listener.listen(self.config.shards * 2 + 2)
            return listener, path, "AF_UNIX"
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(self.config.shards * 2 + 2)
        return listener, listener.getsockname(), "AF_INET"

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed: supervisor shutting down
            threading.Thread(target=self._greet, args=(conn,), daemon=True).start()

    def _greet(self, conn: socket.socket) -> None:
        conn.settimeout(10.0)
        try:
            header, _ = recv_message(conn)
        except (ConnectionClosed, ProtocolError, OSError):
            conn.close()
            return
        token = header.get("token") if header.get("kind") == "hello" else None
        conn.settimeout(None)
        with self._lock:
            waiter = self._waiters.get(token)
            if waiter is not None:
                waiter.conn = conn
                waiter.loaded = tuple(header.get("loaded", ()))
        if waiter is None:
            conn.close()  # unknown/stale incarnation
            return
        waiter.event.set()

    # ------------------------------------------------------------------
    # Spawning and supervision
    # ------------------------------------------------------------------
    def _spawn_shard(self, slot: _Slot) -> None:
        with self._lock:
            if self._closed:
                return
            generation = next(self._generations)
            token = f"shard-{slot.index}-gen-{generation}"
            waiter = _SpawnWaiter()
            self._waiters[token] = waiter
            slot.state = "starting"
            was_restart = slot.generation > 0
        process = self._ctx.Process(
            target=worker_entry,
            name=token,
            daemon=True,
            args=(
                self._family,
                self._address,
                token,
                slot.index,
                sorted(self._artifacts.items()),
                asdict(self.config.engine),
                self._chaos_spec,
            ),
        )
        link = _ShardLink(slot.index, generation, token, process)
        started = time.monotonic()
        try:
            process.start()
            booted = waiter.await_hello(process)
        except BaseException:
            booted = False
        with self._lock:
            self._waiters.pop(token, None)
        if not booted:
            link.conn = waiter.conn
            link.destroy()
            with self._lock:
                closed = self._closed
                if not closed:
                    self._metrics["crashes"].inc()
                    self._record_crash(slot)
            return
        link.conn = waiter.conn
        link.loaded = waiter.loaded
        now = time.monotonic()
        link.last_pong = now
        link.last_ping = now
        with self._lock:
            if self._closed:
                stillborn = True
            else:
                stillborn = False
                slot.link = link
                slot.generation = generation
                slot.state = "live"
                self._metrics["shard_boot"].observe(now - started)
                if was_restart:
                    self._metrics["restarts"].inc()
                parked = self._parked
                self._parked = []
        if stillborn:
            link.destroy()
            return
        threading.Thread(
            target=self._reader, args=(link,), name=f"fleet-reader-{token}", daemon=True
        ).start()
        for pending in parked:
            self._reroute(pending)

    def _record_crash(self, slot: _Slot) -> None:
        """Backoff/breaker bookkeeping for one crash (lock held by caller,
        who also counts it on the ``crashes`` instrument)."""
        now = time.monotonic()
        slot.crash_times = [t for t in slot.crash_times if now - t <= RESTART_WINDOW_S] + [now]
        if len(slot.crash_times) > self.config.max_restarts:
            slot.state = "failed"  # circuit breaker open: no more restarts
        else:
            slot.state = "dead"
            backoff = self.config.restart_backoff_s * (2 ** (len(slot.crash_times) - 1))
            slot.restart_at = now + min(backoff, RESTART_BACKOFF_MAX_S)

    def _shard_down(self, link: _ShardLink, reason: str) -> None:
        """Handle one incarnation dying: drain its queue and re-route."""
        with self._lock:
            slot = self._slots[link.index]
            if slot.link is not link:
                return  # stale incarnation: already handled
            slot.link = None
            orphans = list(link.pending.values())
            link.pending.clear()
            if reason == "heartbeat timeout":
                self._metrics["heartbeat_deaths"].inc()
            if self._closed:
                slot.state = "dead"
            else:
                self._metrics["crashes"].inc()
                self._record_crash(slot)
            if orphans:
                self._metrics["rerouted"].inc(len(orphans))
            closed = self._closed
            stranded: List[_Pending] = []
            if not closed and all(s.state == "failed" for s in self._slots):
                stranded = self._parked
                self._parked = []
        link.destroy()
        if closed:
            for pending in orphans:
                pending.fail(FleetUnavailableError("fleet closed while the request was in flight"))
            return
        for pending in stranded:
            pending.fail(
                FleetUnavailableError("every shard's crash-loop breaker is open")
            )
        for pending in orphans:
            self._reroute(pending)

    def _reroute(self, pending: _Pending) -> None:
        """Re-dispatch an already-accepted request (never re-admitted)."""
        pending.reroutes += 1
        self._metrics["reroutes_max"].set_max(pending.reroutes)
        try:
            self._dispatch(pending, admission=False)
        except ServingError as error:
            pending.fail(error)

    def _monitor(self) -> None:
        interval = self.config.heartbeat_interval_s
        timeout = self.config.heartbeat_timeout_s
        while True:
            time.sleep(min(0.05, interval / 4))
            now = time.monotonic()
            with self._lock:
                if self._closed:
                    return
                due = [
                    slot
                    for slot in self._slots
                    if slot.state == "dead" and slot.restart_at <= now
                ]
                for slot in due:
                    slot.state = "starting"
                links = [slot.link for slot in self._slots if slot.state == "live"]
            for slot in due:
                threading.Thread(
                    target=self._spawn_shard, args=(slot,), daemon=True
                ).start()
            for link in links:
                if now - link.last_ping >= interval:
                    link.last_ping = now
                    link.ping_seq += 1
                    try:
                        link.send({"kind": "ping", "seq": link.ping_seq})
                    except OSError:
                        self._shard_down(link, "ping send failed")
                        continue
                if now - link.last_pong > timeout:
                    # Alive-but-wedged (or silently gone): same as death.
                    self._shard_down(link, "heartbeat timeout")

    # ------------------------------------------------------------------
    # Reader threads (one per live incarnation)
    # ------------------------------------------------------------------
    def _reader(self, link: _ShardLink) -> None:
        reason = "connection lost"
        while True:
            try:
                header, payload = recv_message(link.conn)
            except (ConnectionClosed, ProtocolError, OSError):
                break
            kind = header.get("kind")
            if "loaded" in header:
                # Pongs and admin acks report the shard's resident models.
                link.loaded = tuple(header["loaded"])
            if kind == "result":
                with self._lock:
                    pending = link.pending.pop(header.get("id"), None)
                if pending is None:
                    continue  # re-routed (or timed out) while computing
                try:
                    result = decode_array(header, payload)
                except ProtocolError:
                    # Corrupt reply: never surface garbage logits.  Put
                    # the request back (it re-routes with the rest of the
                    # queue) and fail the shard over.
                    self._metrics["corrupt_replies"].inc()
                    with self._lock:
                        requeued = self._slots[link.index].link is link
                        if requeued:
                            link.pending[header.get("id")] = pending
                    if not requeued:
                        self._reroute(pending)
                    reason = "corrupt reply"
                    break
                self._metrics["completed"].inc()
                pending.complete(result)
            elif kind == "error":
                with self._lock:
                    pending = link.pending.pop(header.get("id"), None)
                if pending is not None:
                    self._metrics["errors"].inc()
                    pending.fail(
                        WorkerError(
                            str(header.get("message", "shard error")),
                            code=str(header.get("code", "internal")),
                            retryable=bool(header.get("retryable", False)),
                            retry_after=header.get("retry_after"),
                        )
                    )
            elif kind == "pong":
                now = time.monotonic()
                # Approximate RTT: ``last_ping`` is stamped by the
                # monitor just before the ping goes out.
                self._metrics["heartbeat_rtt"].observe(max(0.0, now - link.last_ping))
                link.last_pong = now
            elif kind in ("metrics", "admin-ack"):
                with self._lock:
                    waiter = self._control.get(header.get("id"))
                if waiter is not None:
                    waiter.reply = header
                    waiter.event.set()
            elif kind == "goodbye":
                reason = "drained"
                break
        self._shard_down(link, reason)

    # ------------------------------------------------------------------
    # Control plane (metrics scrapes, admin load/evict)
    # ------------------------------------------------------------------
    def _broadcast(self, header: dict, timeout: float) -> Dict[int, Optional[dict]]:
        """One control round-trip to every live shard.

        Returns ``{shard_index: reply_header_or_None}`` — ``None`` marks
        a shard that died mid-round-trip or missed the deadline.  Control
        frames ride the same ordered stream as predicts, so a reply
        describes the shard *after* everything sent before it.
        """
        with self._lock:
            if self._closed:
                raise FleetUnavailableError("fleet is closed")
            links = [slot.link for slot in self._slots if slot.state == "live"]
        waiting: Dict[int, Tuple[int, _ControlWaiter]] = {}
        for link in links:
            request_id = next(self._ids)
            waiter = _ControlWaiter()
            with self._lock:
                self._control[request_id] = waiter
            try:
                link.send({**header, "id": request_id})
            except OSError:
                with self._lock:
                    self._control.pop(request_id, None)
                self._shard_down(link, "send failed")
                waiting[link.index] = (request_id, None)
                continue
            waiting[link.index] = (request_id, waiter)
        deadline = time.monotonic() + timeout
        replies: Dict[int, Optional[dict]] = {}
        for index, (request_id, waiter) in waiting.items():
            if waiter is not None and waiter.event.wait(max(0.0, deadline - time.monotonic())):
                replies[index] = waiter.reply
            else:
                replies[index] = None
            with self._lock:
                self._control.pop(request_id, None)
        return replies

    def metrics_snapshot(self, timeout: float = 5.0) -> Dict[str, object]:
        """One merged ``repro-metrics/v1`` snapshot for the whole fleet.

        Every live shard is asked for its process-local snapshot (batch
        scheduler, engines, model store instruments) and the results are
        merged on top of the supervisor's own registry and this
        process's default one (where the HTTP frontend counts) —
        counters and histogram buckets sum, so the fleet's p99 reflects
        every shard's samples.  Schema-identical to a single-process
        snapshot: the ``/metrics`` contract does not change shape
        behind a fleet.
        """
        with self._lock:
            states = [slot.state for slot in self._slots]
            parked = len(self._parked)
            in_flight = sum(
                len(slot.link.pending) for slot in self._slots if slot.link is not None
            )
        gauge = self._metrics["shard_state"]
        for state in SHARD_STATES:
            gauge.labelled(state=state).set(states.count(state))
        self._metrics["parked"].set(parked)
        self._metrics["pending"].set(in_flight)
        replies = self._broadcast({"kind": "metrics"}, timeout)
        shard_snapshots = [
            reply["snapshot"]
            for reply in replies.values()
            if reply is not None and isinstance(reply.get("snapshot"), dict)
        ]
        return merge_snapshots(
            default_registry().snapshot(), self._registry.snapshot(), *shard_snapshots
        )

    def _admin_broadcast(self, kind: str, name: str, timeout: float) -> Dict[str, object]:
        if name not in self._artifacts:
            raise UnknownModelError(
                f"no model named {name!r} is registered; available: {list(self._artifacts)}"
            )
        replies = self._broadcast({"kind": kind, "model": name}, timeout)
        shards = {
            str(index): (reply is not None and bool(reply.get("ok", False)))
            for index, reply in replies.items()
        }
        return {"model": name, "shards": shards, "ok": all(shards.values()) and bool(shards)}

    def load(self, name: str, timeout: float = 30.0) -> Dict[str, object]:
        """Ensure every live shard holds a warm engine for ``name``."""
        return self._admin_broadcast("load", name, timeout)

    def evict(self, name: str, timeout: float = 30.0) -> Dict[str, object]:
        """Drop ``name``'s engine on every live shard; the next predict reloads it."""
        return self._admin_broadcast("evict", name, timeout)

    def queue_depth(self) -> int:
        """In-flight requests across all shards plus parked ones."""
        with self._lock:
            return len(self._parked) + sum(
                len(slot.link.pending) for slot in self._slots if slot.link is not None
            )

    # ------------------------------------------------------------------
    # Routing and dispatch
    # ------------------------------------------------------------------
    def _candidates(self, name: str) -> List[int]:
        """Shard indices in ring order starting at ``hash(name)``."""
        ring = self._ring
        start = bisect_left(ring, (_hash(f"model-{name}"), -1))
        order: List[int] = []
        for position in range(len(ring)):
            index = ring[(start + position) % len(ring)][1]
            if index not in order:
                order.append(index)
                if len(order) == self.config.shards:
                    break
        return order

    def _dispatch(self, pending: _Pending, admission: bool = True) -> None:
        """Pick a live shard for ``pending`` and send it.

        Admission (new work) is bounded per shard and rejects with
        :class:`FleetSaturatedError` when every candidate is full or
        restarting; failover (``admission=False``) bypasses the bound —
        the request was already accepted — and parks when no shard is
        live yet.
        """
        meta, payload = encode_array(pending.inputs)
        with self._lock:
            if self._closed:
                raise FleetUnavailableError("fleet is closed")
            live = [
                self._slots[index]
                for index in self._candidates(pending.name)
                if self._slots[index].state == "live"
            ]
            if not live:
                if all(slot.state == "failed" for slot in self._slots):
                    raise FleetUnavailableError(
                        "every shard's crash-loop breaker is open; the fleet needs operator attention"
                    )
                if admission:
                    self._metrics["rejected"].inc()
                    raise FleetSaturatedError(
                        "no live shard can take new work right now (restarting)"
                    )
                self._parked.append(pending)
                return
            if admission:
                open_slots = [
                    slot
                    for slot in live
                    if len(slot.link.pending) < self.config.max_pending_per_shard
                ]
                if not open_slots:
                    self._metrics["rejected"].inc()
                    raise FleetSaturatedError(
                        f"all {len(live)} live shard(s) are at their pending bound "
                        f"({self.config.max_pending_per_shard}); retry later"
                    )
                live = open_slots
            slot = min(live, key=lambda candidate: len(candidate.link.pending))
            link = slot.link
            request_id = next(self._ids)
            link.pending[request_id] = pending
            link.requests += 1
            if admission:
                self._metrics["accepted"].inc()
        try:
            link.send({"kind": "predict", "id": request_id, "model": pending.name, **meta}, payload)
        except OSError:
            # The shard died between selection and send; its drain pass
            # picks this request up (it is registered) and re-routes it.
            self._shard_down(link, "send failed")

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------
    def predict(
        self, inputs, model: Optional[str] = None, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Logits for ``inputs`` from whichever shard the ring picks.

        Blocks until a reply arrives (re-routing transparently across
        shard deaths); raises :class:`FleetSaturatedError` if the pool
        cannot admit the request and :class:`WorkerError` if the shard
        rejected it (bad shape, unknown model on the shard).
        """
        name = model if model is not None else self.default_model
        if name not in self._artifacts:
            raise UnknownModelError(
                f"no model named {name!r} is registered; available: {list(self._artifacts)}"
            )
        pending = _Pending(name, np.asarray(inputs))
        self._dispatch(pending)
        deadline = timeout if timeout is not None else REQUEST_TIMEOUT_S
        if not pending.done.wait(deadline):
            raise TimeoutError(f"fleet request for {name!r} timed out after {deadline}s")
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def names(self) -> List[str]:
        """Registered model names (every shard serves all of them)."""
        return list(self._artifacts)

    def loaded(self) -> List[str]:
        """Models every live shard holds resident (none while none is live)."""
        with self._lock:
            shards = [slot.link.loaded for slot in self._slots if slot.state == "live"]
        if not shards:
            return []
        return [name for name in self._artifacts if all(name in held for held in shards)]

    def describe(self) -> List[Dict[str, object]]:
        """Artifact metadata per model (captured at boot) and its residency."""
        loaded = self.loaded()
        return [
            {"name": name, "path": path, "loaded": name in loaded, **self._meta[name]}
            for name, path in self._artifacts.items()
        ]

    def health(self) -> Dict[str, object]:
        """What ``/healthz`` reports: liveness, residency, per-shard states."""
        shards = self.shard_states()
        return {
            "live": any(shard["state"] == "live" for shard in shards),
            "loaded": self.loaded(),
            "shards": shards,
        }

    def shard_states(self) -> List[Dict[str, object]]:
        """Live per-shard snapshot (what ``/healthz`` reports)."""
        with self._lock:
            return [
                {
                    "shard": slot.index,
                    "state": slot.state,
                    "generation": slot.generation,
                    "pending": len(slot.link.pending) if slot.link is not None else 0,
                    "requests": slot.link.requests if slot.link is not None else 0,
                    "recent_crashes": len(slot.crash_times),
                }
                for slot in self._slots
            ]

    def stats(self) -> Dict[str, object]:
        """Supervisor counters plus the shard snapshot.

        The counters read from this fleet's private metrics registry —
        the same instruments ``/metrics`` serves — so an operator's
        dashboard and a test's ``stats()`` assertion can never disagree.
        """
        snapshot: Dict[str, object] = {
            key: int(self._metrics[key].value)
            for key in (
                "accepted",
                "completed",
                "errors",
                "rejected",
                "rerouted",
                "reroutes_max",
                "crashes",
                "restarts",
                "heartbeat_deaths",
                "corrupt_replies",
            )
        }
        with self._lock:
            parked = len(self._parked)
        snapshot["parked"] = parked
        snapshot["shards"] = self.shard_states()
        return snapshot

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self, timeout: float = 10.0) -> None:
        """Drain and stop every shard, then release the listener."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            links = [slot.link for slot in self._slots if slot.link is not None]
            for slot in self._slots:
                slot.link = None
                if slot.state != "failed":
                    slot.state = "dead"
            parked = self._parked
            self._parked = []
        for pending in parked:
            pending.fail(FleetUnavailableError("fleet closed"))
        for link in links:
            try:
                link.send({"kind": "shutdown"})
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for link in links:
            link.process.join(timeout=max(0.1, deadline - time.monotonic()))
            # In-flight requests were drained by the worker before its
            # goodbye; anything still pending is failed over cleanly.
            orphans = list(link.pending.values())
            link.pending.clear()
            for pending in orphans:
                pending.fail(FleetUnavailableError("fleet closed while the request was in flight"))
            link.destroy()
        try:
            self._listener.close()
        except OSError:
            pass
        if self._family == "AF_UNIX":
            try:
                os.unlink(self._address)
                os.rmdir(os.path.dirname(self._address))
            except OSError:
                pass

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
