"""Serving workloads: a sealed ticket behind ``python -m repro.serve``.

The server runs as a child process with its shipped defaults, exactly
as a user starts it; ``--shards 2`` puts the fleet behind the same
frontend.  Load comes from this process: closed-loop clients, each a
thread with its own :class:`repro.serve.client.HTTPClient` and retries
off, so a 503 is a failure rather than extra latency.  Every response
is checked against a reference computed here before load starts.

The model is fixed (seeded ResNet-18, base width 8, 16x16 float32
inputs, masked with ``magnitude_mask`` and sealed by ``export_artifact``
with compaction on); the workload seed picks the request rows.  Forward
time does not depend on the values of the rows, so figures from
different seeds are comparable.
"""

from __future__ import annotations

import os
import queue
import re
import subprocess
import sys
import threading
import time
import urllib.error
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from common import Deadline, Outcome, mean, median, median_time, percentile
from oracle import ResponseOracle
from procs import descendants, kill, reap
from tracing import Tracer, counter_delta, histogram_delta, histogram_mean_delta

from repro import tensor as T
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18
from repro.pruning.mask import magnitude_mask
from repro.serve.artifact import export_artifact, load_artifact
from repro.serve.client import HTTPClient, RetryPolicy, ServingError
from repro.serve.engine import EngineConfig
from repro.serve.fleet import FleetConfig, FleetSupervisor
from repro.serve.fleet.protocol import decode_array, encode_array
from repro.serve.store import ModelStore
from repro.tensor import Tensor, no_grad, sparse
from repro.tensor.dtypes import default_dtype_scope
from repro.training.evaluation import predict_logits


@dataclass(frozen=True)
class ServingWorkload:
    granularity: str
    sparsity: float
    rows: int
    clients: int
    shards: int
    #: Byte equality (dense kernels) or the oracle's fixed tolerance (CSR).
    exact: bool
WORKLOADS: Dict[str, ServingWorkload] = {
    "http_single": ServingWorkload("channel", 0.7, rows=1, clients=1, shards=1, exact=True),
    "http_bulk": ServingWorkload("unstructured", 0.95, rows=64, clients=1, shards=1, exact=False),
    "fleet_batch": ServingWorkload("channel", 0.7, rows=8, clients=1, shards=2, exact=True),
}

#: Tail percentiles for the report, each printed only when a run holds
#: at least ten samples beyond it.  They are not bounded metrics: on the
#: shared 2-core host their spread over ten runs reached 0.3 to 0.5,
#: past the widest bound the benchmark may set.
TAIL_PERCENTILES = (90, 99)

MODEL_NAME = "ticket"
NUM_CLASSES = 10
#: Distinct requests per run; clients cycle through them.
POOL = 16
#: Server start-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
WARMUP_S = 1.0
#: Alternating untraced/traced rounds in a traced run.
TRACE_ROUNDS = 4
SERVER_BOOT_TIMEOUT_S = 120.0
SERVER_STOP_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# Inputs and references
# ----------------------------------------------------------------------
def build_artifact(workload: ServingWorkload, directory: str) -> str:
    """Seal the workload's ticket, the recipe of the ``repro.bench`` serving specs."""
    model = ClassifierHead(resnet18(base_width=8, seed=0), num_classes=NUM_CLASSES, seed=1)
    mask = magnitude_mask(model, sparsity=workload.sparsity, granularity=workload.granularity)
    mask.apply(model)
    return export_artifact(
        model,
        os.path.join(directory, f"{MODEL_NAME}.npz"),
        model_name="resnet18",
        base_width=8,
        mask=mask,
    )


def make_requests(workload: ServingWorkload, seed: int) -> List[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        rng.uniform(0.0, 1.0, size=(workload.rows, 3, 16, 16)).astype(np.float32)
        for _ in range(POOL)
    ]


def reference_oracle(model, requests: Sequence[np.ndarray], exact: bool) -> ResponseOracle:
    return ResponseOracle([predict_logits(model, rows, fused=False) for rows in requests], exact)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """``python -m repro.serve`` in a child process, on a free port."""

    def __init__(self, artifact: str, shards: int) -> None:
        begin = time.perf_counter()
        command = [sys.executable, "-m", "repro.serve", "--artifact", f"{MODEL_NAME}={artifact}", "--port", "0"]
        if shards > 1:
            command += ["--shards", str(shards)]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            line = self._lines.get(timeout=SERVER_BOOT_TIMEOUT_S)
            match = re.search(r"on (http://\S+) via", line or "")
            if match is None:
                raise RuntimeError(f"server did not start (said {line!r})")
            self.url = match.group(1)
            self.client = HTTPClient(self.url, retry=RetryPolicy(attempts=1))
            health = self.client.healthz()
            if health.get("status") != "ok" or MODEL_NAME not in health.get("loaded", []):
                raise RuntimeError(f"server is not ready: {health}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - begin

    def _drain(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the server and every process under it."""
        pids = [self.process.pid] + descendants(self.process.pid)
        return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """Kill the server and every process under it, and wait for them to end.

        Nothing about shutting down is measured, so there is no point in
        paying for a graceful drain of the fleet (seconds per start-up).
        """
        processes = [self.process.pid] + descendants(self.process.pid)
        kill(processes)
        self.process.wait()
        reap(processes[1:], SERVER_STOP_TIMEOUT_S)
        self._reader.join(timeout=5.0)
        self.process.stdout.close()


# ----------------------------------------------------------------------
# Closed-loop load
# ----------------------------------------------------------------------
def closed_loop(
    make_sender: Callable[[], Callable[[np.ndarray], np.ndarray]],
    requests: Sequence[np.ndarray],
    oracle: ResponseOracle,
    clients: int,
    seconds: float,
    outcome: Outcome,
    tracer: Optional[Tracer] = None,
    span: str = "serve.client.predict",
) -> Dict[str, object]:
    """Each client sends its next request when the previous one returns.

    Returns the latencies (seconds) of the responses received and the
    phase's wall time.  Failed requests and wrong answers count in
    ``outcome``.
    """
    latencies: List[float] = []
    crashed: List[BaseException] = []
    lock = threading.Lock()
    start = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        try:
            load(index)
        except BaseException as error:  # noqa: BLE001 - re-raised by the caller
            crashed.append(error)
            start.abort()

    def load(index: int) -> None:
        send = make_sender()
        mine, verdicts = [], []
        start.wait()
        deadline = Deadline(seconds)
        sent = index
        while not deadline.expired():
            request = sent % len(requests)
            sent += clients
            begin = time.perf_counter()
            try:
                logits = send(requests[request])
            except (ServingError, urllib.error.URLError, OSError, ValueError, RuntimeError) as error:
                verdicts.append(f"request {request}: {type(error).__name__}: {error}")
                continue
            end = time.perf_counter()
            verdicts.append(oracle.check(request, logits))
            mine.append(end - begin)
            if tracer is not None:
                tracer.record(span, begin, end)
        with lock:
            latencies.extend(mine)
            for problem in verdicts:
                outcome.count(problem is None, problem)

    # Daemon threads: an abandoned run exits without waiting out the phase.
    threads = [
        threading.Thread(target=client, args=(index,), daemon=True) for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    try:
        start.wait()
    except threading.BrokenBarrierError:
        pass
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    if crashed:
        raise crashed[0]
    return {"latencies": latencies, "elapsed": time.perf_counter() - begin}


def http_sender(url: str) -> Callable[[], Callable[[np.ndarray], np.ndarray]]:
    def make() -> Callable[[np.ndarray], np.ndarray]:
        client = HTTPClient(url, retry=RetryPolicy(attempts=1))
        return client.predict

    return make


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, directory: str) -> Outcome:
    workload = WORKLOADS[name]
    path = build_artifact(workload, directory)
    requests = make_requests(workload, seed)
    oracle = reference_oracle(load_artifact(path).build_model(), requests, workload.exact)
    outcome = Outcome()
    setups: List[float] = []
    server: Optional[Server] = None
    try:
        for attempt in range(SETUPS):
            server = Server(path, workload.shards)
            setups.append(server.setup_s)
            if attempt < SETUPS - 1:
                server.stop()
                server = None
        send = http_sender(server.url)
        closed_loop(send, requests, oracle, workload.clients, WARMUP_S, outcome)
        phase = closed_loop(send, requests, oracle, workload.clients, seconds, outcome)
        rss_mb = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    latencies = phase["latencies"]
    outcome.metrics = {"setup_s": median(setups), "peak_rss_mb": rss_mb}
    outcome.notes = {"samples": len(latencies)}
    if len(latencies) < 2:
        # Too few answers to time: the run fails, and its result still
        # reports every failure the oracle counted.
        outcome.count(False, f"only {len(latencies)} responses in {seconds}s")
        return outcome
    outcome.metrics["latency_p50_ms"] = median(latencies) * 1e3
    outcome.metrics["ops_per_s"] = len(latencies) / phase["elapsed"]
    for tail in TAIL_PERCENTILES:
        if len(latencies) * (100 - tail) / 100 >= 10:
            outcome.notes[f"latency_p{tail}_ms"] = percentile(latencies, tail) * 1e3
    outcome.notes.update(
        setup_samples_s=setups, clients=workload.clients, rows_per_request=workload.rows
    )
    return outcome


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
def probe_store_us(path: str, repeats: int = 2000) -> float:
    """Median ``ModelStore.get`` of a resident engine, in microseconds."""
    store = ModelStore(capacity=4, config=EngineConfig())
    try:
        store.register(MODEL_NAME, path)
        return median_time(lambda: store.get(MODEL_NAME), repeats) * 1e6
    finally:
        store.close()


def probe_forward(model, rows: np.ndarray, dtype, tracer: Tracer, repeats: int) -> Dict[str, float]:
    """``predict_logits`` and the backbone's children called in order.

    ``model`` is an evaluation graph (``ClassifierHead`` shape, already
    fused).  The children run under the same ``no_grad`` and dtype scope
    the forward uses, so their spans add up to one forward.
    """
    backbone = model.backbone

    def children() -> None:
        with tracer.span("model.children") as parent, no_grad(), default_dtype_scope(dtype):
            x = Tensor(rows)
            with tracer.span("model.stem", parent["id"]):
                x = T.relu(backbone.bn1(backbone.conv1(x)))
            for stage in ("layer1", "layer2", "layer3", "layer4"):
                with tracer.span(f"model.{stage}", parent["id"]):
                    x = getattr(backbone, stage)(x)
            with tracer.span("model.head", parent["id"]):
                x = model.fc(x.mean(axis=(2, 3)))

    def forward() -> None:
        with tracer.span("model.forward"), default_dtype_scope(dtype):
            predict_logits(model, rows, fused=False)

    forward()
    children()
    for _ in range(repeats):
        forward()
        children()
    forward_ms = tracer.median_ms("model.forward")
    metrics = {"model.forward_ms": forward_ms}
    for part in ("stem", "layer1", "layer2", "layer3", "layer4", "head"):
        metrics[f"model.{part}_ms"] = tracer.median_ms(f"model.{part}")
    return metrics


def probe_sparse(model, rows: np.ndarray, dtype, repeats: int) -> Dict[str, float]:
    """CSR kernels the forward dispatches, and auto-vs-dense forward time."""

    def forward() -> None:
        with default_dtype_scope(dtype):
            predict_logits(model, rows, fused=False)

    def dense() -> None:
        with sparse.sparse_policy_scope(mode="off"):
            forward()

    sparse.clear_cache()
    forward()
    entries = sparse.cache_info()["entries"]
    return {
        "tensor.sparse.csr_kernels": float(entries),
        "tensor.sparse.auto_vs_dense": median_time(forward, repeats) / median_time(dense, repeats),
    }


def probe_protocol_us(request: np.ndarray, logits: np.ndarray, repeats: int = 500) -> float:
    """One request and one reply through the fleet's array codec, in microseconds."""

    def roundtrip() -> None:
        for array in (request, logits):
            header, payload = encode_array(array)
            decode_array(header, payload)

    return median_time(roundtrip, repeats) * 1e6


def probe_fleet(
    path: str,
    requests: Sequence[np.ndarray],
    oracle: ResponseOracle,
    workload: ServingWorkload,
    seconds: float,
    tracer: Tracer,
    outcome: Outcome,
) -> Dict[str, float]:
    """``FleetSupervisor.predict`` in this process, against its shards' own timers."""
    config = FleetConfig(shards=workload.shards, engine=EngineConfig())
    with FleetSupervisor({MODEL_NAME: path}, config, default_model=MODEL_NAME) as fleet:
        make = lambda: fleet.predict  # noqa: E731 - one shared supervisor
        closed_loop(make, requests, oracle, workload.clients, WARMUP_S, outcome)
        before = fleet.metrics_snapshot()
        closed_loop(make, requests, oracle, workload.clients, seconds, outcome, tracer, "serve.fleet.predict")
        after = fleet.metrics_snapshot()
    predict_ms = mean(tracer.durations("serve.fleet.predict")) * 1e3
    shard_ms = histogram_mean_delta(before, after, "serve_batch_coalesce_latency_s") * 1e3
    return {"serve.fleet.predict_ms": predict_ms, "serve.fleet.ipc_ms": predict_ms - shard_ms}


def _shard_requests(health: dict) -> Dict[int, int]:
    return {shard["shard"]: int(shard["requests"]) for shard in health.get("shards", [])}


def run_traced(name: str, seed: int, seconds: float, directory: str, tracer: Tracer) -> Outcome:
    workload = WORKLOADS[name]
    path = build_artifact(workload, directory)
    artifact = load_artifact(path)
    model = artifact.build_model()
    dtype = np.dtype(artifact.dtype)
    requests = make_requests(workload, seed)
    oracle = reference_oracle(model, requests, workload.exact)
    outcome = Outcome()
    # Untraced and traced rounds alternate, so drift over the run falls
    # on both sides of the tracing-overhead comparison alike.
    round_s = seconds * 0.6 / (2 * TRACE_ROUNDS)
    plain: List[float] = []
    traced: List[float] = []
    server = Server(path, workload.shards)
    try:
        send = http_sender(server.url)
        closed_loop(send, requests, oracle, workload.clients, WARMUP_S, outcome)
        metrics_0, health_0 = server.client.metrics(), server.client.healthz()
        for _ in range(TRACE_ROUNDS):
            plain += closed_loop(send, requests, oracle, workload.clients, round_s, outcome)["latencies"]
            traced += closed_loop(
                send, requests, oracle, workload.clients, round_s, outcome, tracer
            )["latencies"]
        metrics_1, health_1 = server.client.metrics(), server.client.healthz()
    finally:
        server.stop()

    # The server-side timers cover both kinds of rounds; so does this mean.
    client_ms = mean(plain + traced) * 1e3
    predict_ms = histogram_mean_delta(metrics_0, metrics_1, "serve_batch_coalesce_latency_s") * 1e3
    forward_ms = histogram_mean_delta(metrics_0, metrics_1, "serve_forward_latency_s") * 1e3
    batches, rows = histogram_delta(metrics_0, metrics_1, "serve_batch_occupancy_rows")
    served = counter_delta(metrics_0, metrics_1, "serve_batch_requests_total")
    flushed = counter_delta(metrics_0, metrics_1, "serve_batch_batches_total")
    untraced_ms, traced_ms = median(plain) * 1e3, median(traced) * 1e3
    metrics = {
        "serve.http.overhead_ms": client_ms - predict_ms,
        "serve.engine.predict_ms": predict_ms,
        "serve.batching.wait_ms": predict_ms - forward_ms,
        "serve.batching.rows_per_batch": rows / batches,
        "serve.batching.requests_per_batch": served / flushed,
        "trace.latency_p50_untraced_ms": untraced_ms,
        "trace.latency_p50_traced_ms": traced_ms,
        "trace.overhead_pct": (traced_ms / untraced_ms - 1.0) * 100.0,
    }
    if workload.shards > 1:
        before, after = _shard_requests(health_0), _shard_requests(health_1)
        shares = [after[shard] - before.get(shard, 0) for shard in after]
        metrics["serve.fleet.shard_share_max"] = max(shares) / sum(shares)
        metrics["serve.fleet.rerouted"] = counter_delta(metrics_0, metrics_1, "fleet_reroutes_total")
        metrics["serve.fleet.rejected"] = counter_delta(
            metrics_0, metrics_1, "fleet_admission_rejects_total"
        )

    metrics["serve.store.get_us"] = probe_store_us(path)
    metrics.update(probe_forward(model, requests[0], dtype, tracer, repeats=30))
    metrics.update(probe_sparse(model, requests[0], dtype, repeats=15))
    if workload.shards > 1:
        metrics["serve.fleet.protocol_us"] = probe_protocol_us(
            requests[0], oracle.references[0]
        )
        metrics.update(
            probe_fleet(path, requests, oracle, workload, seconds * 0.2, tracer, outcome)
        )
    outcome.metrics = metrics
    outcome.notes = {
        "traced_samples": len(traced),
        "untraced_samples": len(plain),
        "client_mean_ms": client_ms,
        "forward_mean_ms": forward_ms,
    }
    return outcome
