"""The registered benchmark table: every hot path as a declarative spec.

Importing this module populates :data:`repro.bench.spec.BENCHMARKS`
(the registry imports it lazily, so ``from repro.bench import
available_benchmarks`` is enough to see the table).  Payload sizes are
deliberately small: the ``smoke`` suite is a CI gate that must finish
in seconds, and regressions in these paths are algorithmic (a lost
fast-path, an accidental copy), which small payloads expose just as
well as large ones.

A contract that depends on host speed (a speedup, an overhead share, a
tail latency) is a declared bound on the spec, which ``repro.bench
compare`` enforces; a payload raises only on contract loss that no
host can excuse (lost requests, non-finite numbers, an artifact that
did not shrink).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.attacks.pgd import PGDConfig, pgd_attack
from repro.bench.spec import BenchSpec, register
from repro.core.parallel import SweepRunner
from repro.core.tickets import Ticket
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18, resnet50
from repro.nn.fuse import fuse
from repro.pruning.compact import compact
from repro.pruning.mask import magnitude_mask
from repro.obs.registry import Histogram, MetricsRegistry
from repro.serve.artifact import export_artifact
from repro.serve.batching import MicroBatcher
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.fleet import FleetConfig, FleetSupervisor
from repro.tensor import Tensor, conv2d, cross_entropy, default_dtype_scope, no_grad
from repro.tensor import sparse as _sparse
from repro.tensor.dtypes import SUPPORTED_DTYPES
from repro.utils.timing import best_wall


# ----------------------------------------------------------------------
# tensor.*  — engine primitives
# ----------------------------------------------------------------------
def _matmul_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(0)
    return {
        "x": Tensor(rng.standard_normal((128, 384)) * 0.01),
        "w": Tensor(rng.standard_normal((384, 384)) * 0.01),
    }


def _matmul_payload(state) -> None:
    with no_grad():
        out = state["x"] @ state["w"]
        for _ in range(31):
            out = out @ state["w"]


register(
    BenchSpec(
        name="tensor.matmul",
        title="Tensor matmul chain (128x384 @ 384x384, 32 hops)",
        setup=_matmul_setup,
        payload=_matmul_payload,
        repeats=7,
    )
)


def _conv_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(0)
    return {
        "x": Tensor(rng.standard_normal((8, 8, 16, 16))),
        "w": Tensor(rng.standard_normal((16, 8, 3, 3)) * 0.1),
    }


def _conv_forward_payload(state) -> None:
    with no_grad():
        for _ in range(16):
            conv2d(state["x"], state["w"], stride=1, padding=1)


def _conv_train_payload(state) -> None:
    for _ in range(4):
        x = Tensor(state["x"].data, requires_grad=True)
        out = conv2d(x, state["w"], stride=1, padding=1)
        out.sum().backward()


register(
    BenchSpec(
        name="tensor.conv2d_forward",
        title="conv2d forward (8x8x16x16, 3x3 pad 1, x16)",
        setup=_conv_setup,
        payload=_conv_forward_payload,
        repeats=7,
    )
)

register(
    BenchSpec(
        name="tensor.conv2d_train",
        title="conv2d forward+backward (im2col + col2im fold, x4)",
        setup=_conv_setup,
        payload=_conv_train_payload,
        repeats=7,
    )
)


# ----------------------------------------------------------------------
# engine.*  — the model-level paths every experiment pays
# ----------------------------------------------------------------------
def _train_batch(batch: int):
    rng = np.random.default_rng(0)
    return rng.uniform(size=(batch, 3, 16, 16)), rng.integers(0, 10, size=batch)


def _train_step(model, images, labels) -> float:
    model.train()
    loss = cross_entropy(model(Tensor(images)), labels)
    loss.backward()
    model.zero_grad()
    value = float(loss.item())
    # Timing a numerically broken engine is meaningless — and the specs
    # replaced throughput tests that asserted finiteness, so keep that
    # contract here where every wrapper inherits it.
    if not np.isfinite(value):
        raise FloatingPointError(f"training loss diverged to {value}")
    return value


def _train_step_setup() -> Dict[str, Any]:
    images, labels = _train_batch(8)
    model = ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)
    return {"model": model, "images": images, "labels": labels}


def _train_step_payload(state) -> None:
    _train_step(state["model"], state["images"], state["labels"])


register(
    BenchSpec(
        name="engine.train_step",
        title="ResNet-18 forward+backward training step (batch 8)",
        setup=_train_step_setup,
        payload=_train_step_payload,
    )
)


def _train_step50_setup() -> Dict[str, Any]:
    images, labels = _train_batch(8)
    model = ClassifierHead(resnet50(base_width=8, seed=0), num_classes=10, seed=1)
    return {"model": model, "images": images, "labels": labels}


register(
    BenchSpec(
        name="engine.train_step_resnet50",
        title="ResNet-50 forward+backward training step (batch 8)",
        setup=_train_step50_setup,
        payload=_train_step_payload,
        suites=("full",),
        repeats=3,
    )
)


def _fused_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(0)
    model = ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)
    model.eval()
    return {"model": fuse(model), "images": rng.uniform(size=(16, 3, 16, 16))}


def _fused_payload(state) -> None:
    with no_grad():
        logits = state["model"](Tensor(state["images"])).data
    if logits.shape != (16, 10) or not np.all(np.isfinite(logits)):
        raise FloatingPointError(f"fused eval produced invalid logits (shape {logits.shape})")


register(
    BenchSpec(
        name="engine.fused_inference",
        title="Fused Conv+BN ResNet-18 eval forward (batch 16)",
        setup=_fused_setup,
        payload=_fused_payload,
        repeats=7,
    )
)


def _dtype_speedup_setup() -> Dict[str, Any]:
    images, labels = _train_batch(32)
    models = {}
    for dtype in SUPPORTED_DTYPES:
        with default_dtype_scope(dtype):
            models[dtype] = ClassifierHead(resnet18(base_width=16, seed=0), num_classes=10, seed=1)
    return {"models": models, "images": images, "labels": labels}


def _dtype_speedup_payload(state) -> Dict[str, Any]:
    """Training step under the float32 default vs the float64 path it replaced.

    A wider backbone than ``engine.train_step``, so the im2col GEMMs
    dominate per-op python overhead, which is where the precision
    choice pays off.  Each dtype takes the best of 3 steps after a
    warmup, float64 first.
    """
    single, double = SUPPORTED_DTYPES
    step_s = {}
    for dtype in (double, single):
        model = state["models"][dtype]
        with default_dtype_scope(dtype):
            step_s[dtype] = best_wall(
                lambda: _train_step(model, state["images"], state["labels"]), repeats=3
            )
    return {
        "speedup": step_s[double] / step_s[single],
        "float32_step_ms": round(step_s[single] * 1e3, 2),
        "float64_step_ms": round(step_s[double] * 1e3, 2),
    }


register(
    BenchSpec(
        name="engine.float32_speedup",
        title="ResNet-18 training step, float32 over float64 (width 16, batch 32, >= 1.5x)",
        setup=_dtype_speedup_setup,
        payload=_dtype_speedup_payload,
        metrics=("speedup", "float32_step_ms", "float64_step_ms"),
        # One call is the whole paired measurement (each dtype warms
        # itself), and the bound is checked on every call: more calls
        # would make the contract stricter than the single measurement
        # it has always been.
        warmup=0,
        repeats=1,
        bounds=(("speedup", ">=", 1.5),),
    )
)


# ----------------------------------------------------------------------
# attacks.*  — the PGD inner maximisation of adversarial pretraining
# ----------------------------------------------------------------------
_PGD_CONFIG = PGDConfig(epsilon=0.03, steps=4)


def _pgd_setup() -> Dict[str, Any]:
    images, labels = _train_batch(32)
    model = ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)
    model.eval()
    return {"model": model, "images": images, "labels": labels}


def _pgd_payload(state) -> None:
    images = state["images"]
    adversarial = pgd_attack(
        state["model"], images, state["labels"], _PGD_CONFIG, rng=np.random.default_rng(0)
    )
    # The attack computes the ball's bounds in the engine dtype, so allow
    # their rounding.
    distance = float(np.abs(adversarial - images).max())
    if distance > _PGD_CONFIG.epsilon + 1e-6 or adversarial.min() < 0.0 or adversarial.max() > 1.0:
        raise FloatingPointError(
            f"PGD left the epsilon-ball or [0, 1]: max |delta| {distance:.6f}, "
            f"range [{adversarial.min():.6f}, {adversarial.max():.6f}]"
        )


register(
    BenchSpec(
        name="attacks.pgd",
        title="4-step PGD attack, eps 0.03, on ResNet-18 in eval mode (batch 32)",
        setup=_pgd_setup,
        payload=_pgd_payload,
    )
)


# ----------------------------------------------------------------------
# pruning.*
# ----------------------------------------------------------------------
def _mask_setup() -> Dict[str, Any]:
    return {"model": ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)}


def _mask_payload(state) -> Dict[str, Any]:
    mask = magnitude_mask(state["model"], sparsity=0.8)
    return {"sparsity": round(mask.sparsity(), 4)}


register(
    BenchSpec(
        name="pruning.magnitude_mask",
        title="Global magnitude mask at 80% sparsity (ResNet-18)",
        setup=_mask_setup,
        payload=_mask_payload,
        metrics=("sparsity",),
    )
)


# ----------------------------------------------------------------------
# core.*  — sweep dispatch overhead
# ----------------------------------------------------------------------
def _sweep_point(point: int) -> int:
    return (point * point) % 7919


def _sweep_setup() -> Dict[str, Any]:
    # Every point duplicated once: the dedup map and result re-expansion
    # are part of the measured dispatch path, as in real grids where
    # priors repeat across tasks.
    return {"runner": SweepRunner(workers=1), "points": list(range(8192)) * 2}


def _sweep_payload(state) -> Dict[str, Any]:
    results = state["runner"].map(_sweep_point, state["points"])
    return {"points": len(results)}


register(
    BenchSpec(
        name="core.sweep_dispatch",
        title="SweepRunner serial dispatch + dedup (16384 points)",
        setup=_sweep_setup,
        payload=_sweep_payload,
        metrics=("points",),
        repeats=7,
    )
)


# ----------------------------------------------------------------------
# serve.*  — micro-batching scheduler throughput
# ----------------------------------------------------------------------
_SERVE_CLIENTS = 4
_SERVE_REQUESTS = 64


def _drive(
    call: Callable[[np.ndarray], Any], samples: np.ndarray, clients: int, per_client: int
) -> Tuple[float, List[Exception]]:
    """Closed-loop load: ``clients`` threads released together, each
    sending ``per_client`` single-sample requests through ``call``.

    Returns the wall time until every client finished and the failure
    that stopped each client that hit one.
    """
    failures: List[Exception] = []
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        barrier.wait()
        try:
            for request in range(per_client):
                call(samples[(index * per_client + request) % len(samples)][None])
        except Exception as error:  # noqa: BLE001 - reported to the payload
            failures.append(error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    begin = time.perf_counter()
    for thread in threads:
        thread.join()
    return time.perf_counter() - begin, failures


def _serve_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(0)
    weight = rng.standard_normal((256, 64)).astype(np.float32)  # repro: ignore[dtype-literal] -- fixed benchmark workload; baselines were recorded at float32
    samples = rng.standard_normal((_SERVE_CLIENTS * _SERVE_REQUESTS, 256)).astype(np.float32)  # repro: ignore[dtype-literal] -- fixed benchmark workload; baselines were recorded at float32

    def batch_fn(batch: np.ndarray) -> np.ndarray:
        return batch @ weight

    return {"batch_fn": batch_fn, "samples": samples}


def _serve_payload(state) -> Dict[str, Any]:
    # The shipped defaults; the measured quantity is scheduler
    # coalesce/fan-out overhead.  Batchers sharing a name share one
    # registry series, so the batches this run flushed are the
    # difference across its drive.
    with MicroBatcher(state["batch_fn"]) as batcher:
        before = batcher.stats()["batches"]
        elapsed, failures = _drive(
            batcher.submit, state["samples"], _SERVE_CLIENTS, _SERVE_REQUESTS
        )
        batches = batcher.stats()["batches"] - before
    if failures:
        raise RuntimeError(f"micro-batcher failed a request: {failures[0]!r}")
    total = _SERVE_CLIENTS * _SERVE_REQUESTS
    return {
        "requests_per_s": round(total / elapsed, 1),
        "batches": batches,
    }


register(
    BenchSpec(
        name="serve.microbatch",
        title="MicroBatcher coalesce/fan-out (4 clients x 64 requests)",
        setup=_serve_setup,
        payload=_serve_payload,
        metrics=("requests_per_s", "batches"),
        repeats=5,
        # Thread scheduling on shared runners is the noisiest thing the
        # suite measures; a real scheduler regression is a lost window
        # (2x+), so the band is wide.
        tolerance=1.5,
        # Bound by thread handoffs, which do not scale with CPU speed —
        # gate on raw seconds, not on calibration-normalised units.
        timebase="wall",
    )
)


# ----------------------------------------------------------------------
# serve.fleet_resilience — failover under injected shard death
# ----------------------------------------------------------------------
_FLEET_CLIENTS = 4
_FLEET_REQUESTS = 16  # per client
_FLEET_KILL_AFTER = 10  # shard 0 dies mid-load (chaos re-arms per incarnation)


def _sealed_setup() -> Dict[str, Any]:
    """A seeded 60%-sparse ResNet-18 ticket, sealed, plus 32 request samples."""
    backbone = resnet18(base_width=4, seed=0)
    mask = magnitude_mask(backbone, sparsity=0.6)
    ticket = Ticket(
        scheme="omp",
        prior="adversarial",
        model_name="resnet18",
        base_width=4,
        sparsity=mask.sparsity(),
        mask=mask,
        backbone_state=backbone.state_dict(),
    )
    root = tempfile.mkdtemp(prefix="repro-bench-sealed-")
    path = export_artifact(ticket, os.path.join(root, "model.npz"), num_classes=5, seed=3)
    rng = np.random.default_rng(0)
    return {"artifact": path, "samples": rng.uniform(0.0, 1.0, size=(32, 3, 16, 16))}


def _fleet_payload(state) -> Dict[str, Any]:
    """Boot a 2-shard pool, kill shard 0 mid-load, demand zero loss.

    The timed quantity is the whole recovery story — spawn, routing,
    crash detection, drain-and-re-route, restart — under a client load
    that keeps both shards busy while the chaos hook fires.  Every
    request's latency feeds a histogram whose p99 the spec bounds by
    one respawn budget: failover may pause a tail request, never strand
    it.
    """
    config = FleetConfig(
        shards=2,
        chaos=f"kill-shard:shard=0,after={_FLEET_KILL_AFTER}",
    )
    latency = Histogram()
    with FleetSupervisor({"model": state["artifact"]}, config, default_model="model") as fleet:

        def timed_predict(sample: np.ndarray) -> np.ndarray:
            with latency.time():
                return fleet.predict(sample)

        elapsed, failures = _drive(timed_predict, state["samples"], _FLEET_CLIENTS, _FLEET_REQUESTS)
        stats = fleet.stats()
    if failures:
        raise RuntimeError(f"fleet dropped accepted work under chaos: {failures[0]!r}")
    if stats["crashes"] < 1:
        raise RuntimeError(f"the chaos kill never fired; stats: {stats}")
    if stats["completed"] != stats["accepted"]:
        raise RuntimeError(f"accepted != completed under failover; stats: {stats}")
    total = _FLEET_CLIENTS * _FLEET_REQUESTS
    return {
        "requests_per_s": round(total / elapsed, 1),
        "crashes": stats["crashes"],
        "rerouted": stats["rerouted"],
        "latency_p99_ms": latency.read()["p99"] * 1000.0,
    }


# ----------------------------------------------------------------------
# sparse.*  — sparse execution: compaction speedup + CSR crossover
# ----------------------------------------------------------------------
def _compact_setup() -> Dict[str, Any]:
    model = ClassifierHead(resnet18(base_width=16, seed=0), num_classes=10, seed=1)
    mask = magnitude_mask(model, sparsity=0.9, granularity="channel")
    mask.apply(model)
    masked_dense = fuse(model)
    compacted, report = compact(model)
    if report.removed_channels() < 100:
        raise RuntimeError(f"compaction removed too little to bench: {report.summary()}")
    rng = np.random.default_rng(0)
    return {
        "dense": masked_dense,
        "compacted": compacted,
        "images": rng.uniform(size=(16, 3, 16, 16)),
        "removed": report.removed_channels(),
    }


def _compact_payload(state) -> Dict[str, Any]:
    """Same batch through the masked-dense and the compacted fused graph.

    The spec bounds the speedup: a 90%-channel-sparse ticket must run
    at least 1.5x faster once physically compacted, so the gate fails
    on contract loss (a broken dispatch, a de-compacted export) and not
    just on raw-time drift.
    """
    images = Tensor(state["images"])

    def run(model) -> None:
        with no_grad():
            logits = model(images).data
        if not np.all(np.isfinite(logits)):
            raise FloatingPointError("sparse bench produced non-finite logits")

    dense_s = best_wall(lambda: run(state["dense"]), repeats=4)
    compact_s = best_wall(lambda: run(state["compacted"]), repeats=4)
    return {"speedup": dense_s / compact_s, "removed_channels": state["removed"]}


register(
    BenchSpec(
        name="sparse.compact_inference",
        title="Compacted vs masked-dense fused ResNet-18 at 90% channel sparsity",
        setup=_compact_setup,
        payload=_compact_payload,
        metrics=("speedup", "removed_channels"),
        repeats=5,
        bounds=(("speedup", ">=", 1.5),),
    )
)


#: Zero-fraction grid the crossover spec sweeps; the committed
#: ``DEFAULT_THRESHOLD`` must sit inside the bracket the sweep finds.
_CSR_GRID = (0.5, 0.9, 0.95, 0.98)


def _csr_setup() -> Dict[str, Any]:
    rng = np.random.default_rng(0)
    weights = {}
    for zero_fraction in _CSR_GRID:
        weight = rng.standard_normal((256, 2304))
        weight[rng.uniform(size=weight.shape) < zero_fraction] = 0.0
        weights[zero_fraction] = weight
    return {"weights": weights, "rhs": rng.standard_normal((2304, 1024))}


def _csr_payload(state) -> Dict[str, Any]:
    """Dense GEMM vs CSR kernel across the sparsity grid.

    Reports the measured crossover (the first grid point where CSR
    wins) and, on the scipy backend, asserts the committed dispatch
    threshold is not sitting below a losing grid point — the check that
    keeps ``DEFAULT_THRESHOLD`` honest on the reference machine.
    """
    rhs = state["rhs"]
    speedups = {}
    for zero_fraction, weight in state["weights"].items():
        dense_s = best_wall(lambda: weight @ rhs, repeats=3)
        with _sparse.sparse_policy_scope(mode="force"):
            csr_s = best_wall(lambda: _sparse.maybe_sparse_gemm(weight, rhs), repeats=3)
        speedups[zero_fraction] = dense_s / csr_s
    _sparse.clear_cache()
    crossover = next(
        (zero_fraction for zero_fraction, ratio in speedups.items() if ratio > 1.0), None
    )
    if _sparse.sparse_backend() == "scipy":
        if crossover is None:
            raise RuntimeError(
                f"CSR never beat dense on the grid {speedups}; the sparse "
                "dispatch path has lost its win"
            )
        losing = [
            zero_fraction
            for zero_fraction, ratio in speedups.items()
            if zero_fraction >= _sparse.DEFAULT_THRESHOLD and ratio <= 1.0
        ]
        if losing:
            raise RuntimeError(
                f"dispatch threshold {_sparse.DEFAULT_THRESHOLD} admits losing "
                f"sparsities {losing} (grid {speedups}); re-measure the crossover"
            )
    return {
        "crossover": crossover if crossover is not None else -1.0,
        "speedup_at_98": round(speedups[0.98], 2),
        "backend": _sparse.sparse_backend(),
    }


register(
    BenchSpec(
        name="sparse.csr_matmul",
        title="CSR vs dense GEMM crossover (256x2304 @ 2304x1024 sparsity grid)",
        setup=_csr_setup,
        payload=_csr_payload,
        metrics=("crossover", "speedup_at_98", "backend"),
        repeats=3,
    )
)


def _artifact_size_setup() -> Dict[str, Any]:
    model = ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)
    pruned = ClassifierHead(resnet18(base_width=8, seed=0), num_classes=10, seed=1)
    mask = magnitude_mask(pruned, sparsity=0.8)
    mask.apply(pruned)
    return {"dense": model, "pruned": pruned, "mask": mask}


def _artifact_size_payload(state) -> Dict[str, Any]:
    """Seal a dense and an 80%-unstructured model; assert the shrink.

    Deterministic (no timing sensitivity): the gate is the >= 2x
    on-disk reduction contract of the sparse artifact encoding.
    """
    root = tempfile.mkdtemp(prefix="repro-bench-sparse-size-")
    dense_path = export_artifact(
        state["dense"], os.path.join(root, "dense.npz"), model_name="resnet18", base_width=8
    )
    pruned_path = export_artifact(
        state["pruned"],
        os.path.join(root, "pruned.npz"),
        model_name="resnet18",
        base_width=8,
        mask=state["mask"],
    )
    shrink = os.path.getsize(dense_path) / os.path.getsize(pruned_path)
    if shrink < 2.0:
        raise RuntimeError(
            f"80%-sparse artifact shrank only {shrink:.2f}x on disk; "
            "the >= 2x sparse-encoding contract is broken"
        )
    return {"shrink": round(shrink, 2)}


register(
    BenchSpec(
        name="sparse.artifact_size",
        title="Sealed artifact on-disk shrink at 80% unstructured sparsity",
        setup=_artifact_size_setup,
        payload=_artifact_size_payload,
        metrics=("shrink",),
        repeats=3,
        # The payload is filesystem-bound (npz write + two exports);
        # gate on raw seconds with a wide band — the real gate is the
        # in-payload shrink contract.
        tolerance=1.5,
        timebase="wall",
    )
)


register(
    BenchSpec(
        name="serve.fleet_resilience",
        title="Fleet failover: 2 shards, kill mid-load, zero loss (4x16 requests)",
        setup=_sealed_setup,
        payload=_fleet_payload,
        metrics=("requests_per_s", "crashes", "rerouted", "latency_p99_ms"),
        # Process spawn + restart makes this seconds per repeat: full
        # suite only, no warmup (the first boot *is* the story), and a
        # wide band — the gate is the zero-loss contract plus gross
        # (2x+) recovery-path slowdowns, not scheduler jitter.
        suites=("full",),
        warmup=0,
        repeats=3,
        tolerance=1.5,
        timebase="wall",
        # Tail budget: one full shard respawn (process start + warm
        # artifact load) plus scheduling slack.  Failover parks and
        # re-routes the dead shard's in-flight requests, so the p99
        # absorbs the restart pause.
        bounds=(("latency_p99_ms", "<=", 15_000.0),),
    )
)


# ----------------------------------------------------------------------
# serve.metrics_overhead — instrumentation cost on the serving hot path
# ----------------------------------------------------------------------
_OBS_RECORD_ITERS = 2000
_OBS_REQUESTS = 24
_OBS_ROWS = 8  # rows per request: the tuned micro-batch occupancy


def _metrics_overhead_setup() -> Dict[str, Any]:
    sealed = _sealed_setup()

    def instrument_set(enabled: bool):
        """One request's worth of bound instruments, live or no-op.

        Mirrors every record the serving stack makes for a coalesced
        request, charging the per-*batch* records (occupancy, queue
        depth, forward latency) to a single request — the worst case,
        where no coalescing amortises them.
        """
        registry = MetricsRegistry(enabled=enabled)
        return (
            registry.counter("bench_requests_total", labels=("model",)).labelled(model="m"),
            registry.counter("bench_rows_total", labels=("model",)).labelled(model="m"),
            registry.counter("bench_batches_total"),
            registry.counter("bench_http_total", labels=("route", "status")).labelled(
                route="/predict", status="200"
            ),
            registry.gauge("bench_queue_depth"),
            registry.histogram("bench_occupancy"),
            registry.histogram("bench_coalesce_s"),
            registry.histogram("bench_forward_s"),
        )

    return {
        "artifact": sealed["artifact"],
        "samples": sealed["samples"][:_OBS_ROWS],
        "live": instrument_set(enabled=True),
        "null": instrument_set(enabled=False),
    }


def _metrics_overhead_payload(state) -> Dict[str, Any]:
    """Record-sequence cost vs real request service time, same run.

    The spec bounds the overhead: instrumenting the hot path must cost
    under 2% of a request's service time, so the gate fails on contract
    loss (a heavyweight instrument, a registry lookup leaking onto the
    hot path) and not just on raw-time drift.
    """

    def record_loop(instruments) -> None:
        requests, rows, batches, http, depth, occupancy, coalesce, forward = instruments
        for _ in range(_OBS_RECORD_ITERS):
            requests.inc()
            rows.inc(_OBS_ROWS)
            batches.inc()
            http.inc()
            depth.set(3)
            occupancy.observe(_OBS_ROWS)
            coalesce.observe(0.0012)
            forward.observe(0.0034)

    live_s = best_wall(lambda: record_loop(state["live"]), repeats=4)
    null_s = best_wall(lambda: record_loop(state["null"]), repeats=4)

    samples = state["samples"]
    with ServingEngine(
        state["artifact"], config=EngineConfig(max_batch=_OBS_ROWS, max_wait_ms=0.0)
    ) as engine:

        def serve() -> None:
            for _ in range(_OBS_REQUESTS):
                engine.predict(samples)

        service_s = best_wall(serve, repeats=4)

    record_us = live_s / _OBS_RECORD_ITERS * 1e6
    null_us = null_s / _OBS_RECORD_ITERS * 1e6
    service_us = service_s / _OBS_REQUESTS * 1e6
    return {
        "record_us": round(record_us, 3),
        "null_us": round(null_us, 3),
        "service_us": round(service_us, 1),
        "overhead_pct": record_us / service_us * 100.0,
    }


register(
    BenchSpec(
        name="serve.metrics_overhead",
        title="Metrics registry cost on the serving hot path (<2% budget)",
        setup=_metrics_overhead_setup,
        payload=_metrics_overhead_payload,
        metrics=("record_us", "null_us", "service_us", "overhead_pct"),
        repeats=5,
        # The payload is dominated by real forward passes (CPU-bound),
        # but the overhead bound is the actual gate; the band only
        # needs to catch gross record-path slowdowns.
        tolerance=1.0,
        bounds=(("overhead_pct", "<", 2.0),),
    )
)


# ----------------------------------------------------------------------
# serve.engine_batching — batched serving vs one request at a time
# ----------------------------------------------------------------------
_BATCH_CLIENTS = 8
_BATCH_REQUESTS = 25  # per client


def _engine_batching_payload(state) -> Dict[str, Any]:
    """Concurrent clients through a batching engine vs a serial loop.

    The spec bounds the headline claim of the serving layer —
    coalescing concurrent single-sample requests serves at least 2x the
    requests per second of a server that runs each one alone — so the
    gate fails on contract loss (windows that stop coalescing), not
    just on raw-time drift.
    """
    samples = state["samples"]
    total = _BATCH_CLIENTS * _BATCH_REQUESTS
    rates = {}
    # One request at a time: ``max_batch=1`` and a single closed loop.
    # Batched: the shipped defaults.
    for label, config, clients in (
        ("single", EngineConfig(max_batch=1, max_wait_ms=0.0), 1),
        ("batched", EngineConfig(), _BATCH_CLIENTS),
    ):
        with ServingEngine(state["artifact"], config) as engine:
            engine.predict(samples[:1])  # warm the forward path
            elapsed, failures = _drive(engine.predict, samples, clients, total // clients)
        if failures:
            raise RuntimeError(f"{label} serving failed a request: {failures[0]!r}")
        rates[label] = total / elapsed
    return {
        "speedup": rates["batched"] / rates["single"],
        "single_requests_per_s": round(rates["single"], 1),
        "batched_requests_per_s": round(rates["batched"], 1),
    }


register(
    BenchSpec(
        name="serve.engine_batching",
        title="ServingEngine batched vs one-at-a-time (8 clients x 25 requests, >= 2x)",
        setup=_sealed_setup,
        payload=_engine_batching_payload,
        metrics=("speedup", "single_requests_per_s", "batched_requests_per_s"),
        repeats=5,
        # Like serve.microbatch: bound by thread handoffs, so raw
        # seconds and a wide band; the 2x bound is the real gate.
        tolerance=1.5,
        timebase="wall",
        bounds=(("speedup", ">=", 2.0),),
    )
)
