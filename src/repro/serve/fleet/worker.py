"""The shard worker process: one warm ModelStore behind a socket.

A worker is spawned by the supervisor with the listener address, an
authentication token, and the sealed-artifact table.  It registers
every artifact in a :class:`~repro.serve.store.ModelStore` sized to
hold them all and warm-loads each *before* saying hello — a shard that
answers the handshake is ready to serve, so a restarted shard never
serves cold-start errors — then loops on the length-prefixed protocol:

* ``predict`` frames are decoded and dispatched to a small handler pool
  whose threads serve through the store (concurrent requests coalesce
  in the engine's micro-batcher exactly like in-process serving, and an
  evicted model reloads on its next predict);
* ``load`` / ``evict`` frames run the store's admin verbs; the ack, like
  every pong, reports the models the shard holds resident;
* ``ping`` frames are answered immediately from the reader loop, so
  heartbeats measure process liveness, not queue depth;
* ``shutdown`` (from the supervisor) and SIGTERM/SIGINT (from an
  operator) both *drain*: stop reading, finish every in-flight request,
  flush its reply, send ``goodbye``, and exit 0.

The :mod:`~repro.serve.fleet.chaos` hooks are consulted here — a kill
fires before the reply is sent, which is the worst case the supervisor
must survive.
"""

from __future__ import annotations

import os
import select
import signal
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.serve.engine import EngineConfig
from repro.serve.errors import ServingError, as_serving_error
from repro.serve.fleet.chaos import parse_chaos
from repro.serve.fleet.protocol import (
    ConnectionClosed,
    ProtocolError,
    decode_array,
    encode_array,
    recv_message,
    send_message,
)
from repro.serve.store import ModelStore

__all__ = ["EXIT_CHAOS_KILL", "EXIT_OK", "worker_entry", "worker_main"]

#: Exit code of a drained worker (graceful shutdown path).
EXIT_OK = 0
#: Exit code of a chaos-injected kill, distinguishable in supervisor logs.
EXIT_CHAOS_KILL = 17

#: How often the reader loop wakes to check the drain flag while idle.
_IDLE_POLL_S = 0.25

#: Handler threads per worker (concurrent requests coalesce in its batcher).
HANDLER_THREADS = 4


def _connect(family_name: str, address) -> socket.socket:
    family = getattr(socket, family_name)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(tuple(address) if isinstance(address, (list, tuple)) else address)
    return sock


class _Worker:
    """Per-process serving state; single reader thread + handler pool."""

    def __init__(
        self,
        sock: socket.socket,
        shard_index: int,
        store: ModelStore,
        chaos_spec: Optional[str],
    ) -> None:
        self.sock = sock
        self.shard_index = shard_index
        self.store = store
        self.chaos = parse_chaos(chaos_spec).for_shard(shard_index)
        self.draining = threading.Event()
        self.exit_code = EXIT_OK
        self._write_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=HANDLER_THREADS, thread_name_prefix=f"shard{shard_index}-handler"
        )
        # Reader-thread-only counters: chaos triggers are deterministic
        # in the order frames arrive, which is the order the supervisor
        # sent them on this one stream.
        self._predicts_seen = 0
        self._pings_seen = 0

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _send(self, header: dict, payload: bytes = b"") -> None:
        with self._write_lock:
            send_message(self.sock, header, payload)

    def _send_residency(self, header: dict) -> None:
        """Send ``header`` stamped with the models this shard holds.

        Read under the write lock, so a frame later in the stream never
        reports an older residency than an earlier one.
        """
        with self._write_lock:
            send_message(self.sock, {**header, "loaded": self.store.loaded()})

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> int:
        kill = self.chaos.first("kill-shard")
        stall = self.chaos.first("stall-heartbeat")
        delay = self.chaos.first("delay-response")
        corrupt = self.chaos.first("corrupt-reply")
        try:
            while not self.draining.is_set():
                readable, _, _ = select.select([self.sock], [], [], _IDLE_POLL_S)
                if not readable:
                    continue
                try:
                    header, payload = recv_message(self.sock)
                except (ConnectionClosed, ProtocolError, OSError):
                    # Supervisor went away: nothing to drain replies to.
                    return self.exit_code
                kind = header.get("kind")
                if kind == "ping":
                    self._pings_seen += 1
                    if stall is not None and self._pings_seen > stall.after:
                        continue  # wedged on purpose: alive, but silent to heartbeats
                    self._send_residency({"kind": "pong", "seq": header.get("seq", 0)})
                elif kind == "predict":
                    self._predicts_seen += 1
                    if kill is not None and self._predicts_seen >= kill.after:
                        # Die with the request in flight and no reply sent:
                        # the supervisor must drain and re-route it.
                        os._exit(EXIT_CHAOS_KILL)
                    corrupt_this = corrupt is not None and self._predicts_seen == corrupt.after
                    delay_ms = (
                        delay.ms
                        if delay is not None and self._predicts_seen >= delay.after
                        else 0.0
                    )
                    self._pool.submit(self._handle_predict, header, payload, corrupt_this, delay_ms)
                elif kind == "metrics":
                    # The shard's process-local snapshot (batcher, engine,
                    # and store instruments) rides back in the header; the
                    # supervisor merges it across shards.
                    self._send(
                        {
                            "kind": "metrics",
                            "id": header.get("id"),
                            "shard": self.shard_index,
                            "snapshot": self.store.metrics_snapshot(),
                        }
                    )
                elif kind in ("load", "evict"):
                    # Admin plane: a load warm-builds the engine before the
                    # ack, so it runs on the handler pool like a predict.
                    self._pool.submit(self._handle_admin, header, kind == "load")
                elif kind == "shutdown":
                    break
                # Unknown kinds are ignored: a newer supervisor may speak
                # a superset of this protocol.
        finally:
            # Drain: every dispatched predict finishes and its reply is
            # flushed before the process exits.
            self._pool.shutdown(wait=True)
            try:
                self._send({"kind": "goodbye", "shard": self.shard_index})
            except OSError:
                pass
            self.store.close()
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self.sock.close()
        return self.exit_code

    # ------------------------------------------------------------------
    # Request handling (pool threads)
    # ------------------------------------------------------------------
    def _handle_predict(
        self, header: dict, payload: bytes, corrupt_this: bool, delay_ms: float
    ) -> None:
        request_id = header.get("id")
        try:
            logits = self.store.predict(decode_array(header, payload), header.get("model"))
        except Exception as error:  # noqa: BLE001 - reported, never dropped
            self._reply_error(request_id, as_serving_error(error))
            return
        meta, body = encode_array(logits)
        if corrupt_this and body:
            # Flip the first byte but keep the declared CRC: the
            # supervisor's integrity check must catch this.
            body = bytes([body[0] ^ 0xFF]) + body[1:]
        if delay_ms > 0:
            time.sleep(delay_ms / 1000.0)
        try:
            self._send({"kind": "result", "id": request_id, **meta}, body)
        except OSError:
            pass  # supervisor gone; it will have re-routed already

    def _handle_admin(self, header: dict, load: bool) -> None:
        name = header.get("model")
        ack = {"kind": "admin-ack", "id": header.get("id"), "model": name, "ok": True}
        try:
            if load:
                self.store.load(name)
            else:
                self.store.evict(name)
        except Exception as error:  # noqa: BLE001 - reported, never dropped
            ack.update(ok=False, error=f"{type(error).__name__}: {error}")
        try:
            self._send_residency(ack)
        except OSError:
            pass

    def _reply_error(self, request_id, error: ServingError) -> None:
        try:
            self._send(
                {
                    "kind": "error",
                    "id": request_id,
                    "code": error.code,
                    "message": str(error),
                    "retryable": error.retryable,
                    "retry_after": error.retry_after,
                }
            )
        except OSError:
            pass


def worker_main(
    family_name: str,
    address,
    token: str,
    shard_index: int,
    artifacts: Sequence[Tuple[str, str]],
    engine_config: Optional[dict] = None,
    chaos_spec: Optional[str] = None,
) -> int:
    """Run one shard worker to completion; returns the exit code."""
    # Warm spawn: every artifact loads before the hello, so a shard that
    # joins the pool serves its first request from a hot engine.  Room
    # for all of them: boot never evicts.
    store = ModelStore(capacity=len(artifacts), config=EngineConfig(**(engine_config or {})))
    try:
        for name, path in artifacts:
            store.register(name, path)
            store.load(name)
    except BaseException:
        store.close()
        raise
    try:
        sock = _connect(family_name, address)
    except OSError:
        # The supervisor is already gone (fleet closed while this
        # restart was in flight): exit quietly instead of crashing with
        # a traceback nobody can act on.
        store.close()
        return EXIT_OK
    worker = _Worker(sock, shard_index, store, chaos_spec)

    def _drain_signal(signum, frame):  # noqa: ARG001 - stdlib signature
        worker.draining.set()

    # SIGTERM/SIGINT drain instead of killing mid-batch; only the main
    # thread of the spawned process runs this, so the handlers install
    # unconditionally.
    signal.signal(signal.SIGTERM, _drain_signal)
    signal.signal(signal.SIGINT, _drain_signal)

    worker._send(
        {
            "kind": "hello",
            "token": token,
            "shard": shard_index,
            "pid": os.getpid(),
            "loaded": store.loaded(),
        }
    )
    return worker.run()


def worker_entry(
    family_name: str,
    address,
    token: str,
    shard_index: int,
    artifacts: List[Tuple[str, str]],
    engine_config: Optional[dict],
    chaos_spec: Optional[str],
) -> None:
    """``multiprocessing`` entry point (spawn-safe: primitives only)."""
    sys.exit(
        worker_main(
            family_name,
            address,
            token,
            shard_index,
            artifacts,
            engine_config=engine_config,
            chaos_spec=chaos_spec,
        )
    )
