"""Tests for the ``repro.serve`` subsystem.

Covers the sealed ``repro-model/v1`` artifact round-trip (dtype and
packed-mask fidelity, byte-identical rebuilt predictions), the
micro-batching scheduler's edge cases (single request under the wait
budget, requests larger than ``max_batch``, empty inputs, concurrent
clients, error delivery), the LRU model store, the stdlib HTTP frontend
(one contract, checked against the in-process store and a 2-shard
fleet), and the export-best-point bridge from a finished sweep.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.core.tickets import Ticket
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18
from repro.obs.registry import default_registry
from repro.pruning.mask import magnitude_mask
from repro.serve.artifact import export_artifact, load_artifact
from repro.serve.batching import BatchingConfig, MicroBatcher, QueueFullError
from repro.serve.client import HTTPClient, RetryPolicy
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.errors import ServingError
from repro.serve.fleet.protocol import ARRAY_CONTENT_TYPE, encode_array, pack_frame
from repro.serve.fleet.supervisor import FleetConfig, FleetSupervisor
from repro.serve.http import create_server
from repro.serve.store import ModelStore
from repro.tensor import dtypes
from repro.training.evaluation import predict_logits
from repro.utils.seeding import seeded_rng


def make_ticket(sparsity: float = 0.6) -> Ticket:
    backbone = resnet18(base_width=4, seed=0)
    mask = magnitude_mask(backbone, sparsity=sparsity)
    return Ticket(
        scheme="omp",
        prior="adversarial",
        model_name="resnet18",
        base_width=4,
        sparsity=mask.sparsity(),
        mask=mask,
        backbone_state=backbone.state_dict(),
    )


def reference_model(ticket: Ticket, num_classes: int = 5, seed: int = 3):
    """The exact model ``export_artifact(ticket, ..., seed=3)`` seals."""
    return ClassifierHead(ticket.materialise(seed=seed), num_classes=num_classes, seed=seed)


@pytest.fixture(scope="module")
def sealed(tmp_path_factory):
    """One exported artifact (path, ticket) shared by the read-only tests."""
    ticket = make_ticket()
    path = export_artifact(
        ticket,
        str(tmp_path_factory.mktemp("serve") / "model.npz"),
        num_classes=5,
        seed=3,
        provenance={"experiment": "unit"},
    )
    return path, ticket


@pytest.fixture
def images():
    return seeded_rng(11).uniform(0.0, 1.0, size=(7, 3, 16, 16))


@pytest.fixture
def chunked_images():
    """More rows than ``predict_logits``'s 64-row chunk: the forward runs in two.

    The odd tail makes the chunk size show in the bytes: at 101 rows,
    chunks of 16, 32, 63, 65, 100 or 128 rows each give other logits.
    """
    return seeded_rng(12).uniform(0.0, 1.0, size=(101, 3, 16, 16))


class TestModelArtifact:
    def test_round_trip_header_and_masks(self, sealed):
        path, ticket = sealed
        artifact = load_artifact(path)
        assert artifact.model_name == "resnet18"
        assert artifact.base_width == 4
        assert artifact.num_classes == 5
        assert artifact.input_shape() == (3, 16, 16)
        assert artifact.provenance["experiment"] == "unit"
        assert artifact.provenance["ticket"] == ticket.name
        # The packed masks unpack to exactly the ticket's mask bits.
        mask = artifact.mask()
        expected = ticket.mask.add_prefix("backbone.")
        assert mask.names() == expected.names()
        for name in mask.names():
            np.testing.assert_array_equal(mask[name], expected[name])
        assert artifact.sparsity() == pytest.approx(ticket.sparsity)

    def test_masks_are_bit_packed_on_disk(self, sealed):
        path, ticket = sealed
        with np.load(path) as archive:
            packed_bytes = sum(
                archive[name].nbytes for name in archive.files if name.startswith("mask./")
            )
        unpacked_bytes = sum(mask.nbytes for mask in ticket.mask.as_dict().values())
        assert packed_bytes <= unpacked_bytes / 8 + len(ticket.mask.names())

    def test_state_dtype_preserved_exactly(self, sealed):
        path, _ = sealed
        artifact = load_artifact(path)
        # The unit suite pins a float64 engine, so the sealed graph must
        # round-trip as float64 bit for bit.
        assert artifact.dtype == "float64"
        assert all(value.dtype == np.float64 for value in artifact.state.values())

    def test_float32_artifact_round_trips(self, tmp_path):
        with dtypes.default_dtype_scope(np.float32):
            ticket = make_ticket()
            path = export_artifact(ticket, str(tmp_path / "f32.npz"), num_classes=3)
        artifact = load_artifact(path)
        assert artifact.dtype == "float32"
        # Loading in a float64 process must not promote the sealed graph.
        with ServingEngine(path, EngineConfig(max_wait_ms=0.0)) as engine:
            logits = engine.predict(np.zeros((2, 3, 16, 16)))
        assert logits.dtype == np.float32

    def test_rebuilt_predictions_byte_identical(self, sealed, images):
        path, ticket = sealed
        expected = predict_logits(reference_model(ticket), images)
        got = predict_logits(load_artifact(path).build_model(), images)
        np.testing.assert_array_equal(got, expected)

    def test_rejects_foreign_npz(self, tmp_path):
        from repro.utils.checkpoint import save_state_dict

        path = save_state_dict({"w": np.zeros(3)}, str(tmp_path / "foreign"))
        with pytest.raises(ValueError, match="repro-model/v1"):
            load_artifact(path)

    def test_export_requires_num_classes_for_tickets(self, tmp_path):
        with pytest.raises(ValueError, match="num_classes"):
            export_artifact(make_ticket(), str(tmp_path / "x.npz"))

    def test_atomic_export_survives_interrupted_rewrite(self, sealed, monkeypatch):
        """A kill mid-export must leave the previous artifact intact."""
        path, ticket = sealed
        before = load_artifact(path)

        def exploding_savez(*args, **kwargs):
            raise KeyboardInterrupt("simulated kill mid-write")

        monkeypatch.setattr(np, "savez", exploding_savez)
        with pytest.raises(KeyboardInterrupt):
            export_artifact(ticket, path, num_classes=5, seed=3)
        monkeypatch.undo()
        after = load_artifact(path)
        assert sorted(after.state) == sorted(before.state)
        for name, value in before.state.items():
            np.testing.assert_array_equal(after.state[name], value)


class TestMicroBatcher:
    def test_single_request_completes_under_wait_budget(self):
        calls = []

        def batch_fn(batch):
            calls.append(batch.shape[0])
            return batch * 2.0

        config = BatchingConfig(max_batch=64, max_wait_ms=10_000.0)
        with MicroBatcher(batch_fn, config, name="lone-request") as batcher:
            start = time.monotonic()
            result = batcher.submit(np.ones((3, 2)))
            elapsed = time.monotonic() - start
            np.testing.assert_array_equal(result, np.full((3, 2), 2.0))
            stats = batcher.stats()
        assert calls == [3]
        assert stats["batches"] == 1 and stats["requests"] == 1
        # No other caller is blocked in submit, so the window closes at
        # once instead of waiting out the 10 s budget.
        assert elapsed < 2.0

    def test_request_larger_than_max_batch_runs_alone(self):
        seen = []

        def batch_fn(batch):
            seen.append(batch.shape[0])
            return batch + 1.0

        with MicroBatcher(batch_fn, BatchingConfig(max_batch=4, max_wait_ms=50.0)) as batcher:
            result = batcher.submit(np.zeros((10, 2)))
        np.testing.assert_array_equal(result, np.ones((10, 2)))
        assert seen == [10]

    def test_empty_request_round_trips(self):
        with MicroBatcher(lambda batch: batch * 3.0, BatchingConfig(max_wait_ms=0.0)) as batcher:
            result = batcher.submit(np.zeros((0, 4)))
        assert result.shape == (0, 4)

    def test_concurrent_requests_coalesce_and_fan_back_correctly(self):
        clients = 6
        first_window = threading.Event()

        def batch_fn(batch):
            if not first_window.is_set():
                # Hold the first window until every other client is
                # queued behind it, so the burst coalesces on any host.
                first_window.set()
                waiting = clients - batch.shape[0] // 2
                deadline = time.monotonic() + 10.0
                while batcher.queue_depth < waiting and time.monotonic() < deadline:
                    time.sleep(0.001)
            return batch * 10.0

        barrier = threading.Barrier(clients)
        results = {}

        def client(index):
            barrier.wait()
            results[index] = batcher.submit(np.full((2, 3), float(index)))

        config = BatchingConfig(max_batch=64, max_wait_ms=250.0)
        with MicroBatcher(batch_fn, config, name="coalesce-fan-out") as batcher:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = batcher.stats()
        for index in range(clients):
            np.testing.assert_array_equal(results[index], np.full((2, 3), index * 10.0))
        assert stats["requests"] == clients
        # The clients queued behind the first window ride one together.
        assert stats["requests"] > stats["batches"]

    def test_callers_queued_behind_a_held_window_ride_the_next_one_at_once(self):
        entered = threading.Event()
        release = threading.Event()
        calls = []

        def batch_fn(batch):
            calls.append(batch.shape[0])
            entered.set()
            release.wait(10.0)
            return batch

        config = BatchingConfig(max_batch=64, max_wait_ms=10_000.0)
        with MicroBatcher(batch_fn, config, name="held-window") as batcher:
            start = time.monotonic()
            # The held window's own caller gives up and leaves submit.
            with pytest.raises(TimeoutError, match="not served"):
                batcher.submit(np.ones((1, 2)), timeout=0.2)
            assert entered.wait(5.0)
            threads = [
                threading.Thread(target=batcher.submit, args=(np.ones((1, 2)),))
                for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while batcher.queue_depth < 3:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            release.set()
            for thread in threads:
                thread.join(5.0)
            assert not any(thread.is_alive() for thread in threads)
            elapsed = time.monotonic() - start
        # The three queued callers are every caller blocked in submit:
        # their window closes as soon as it holds them, not after 10 s.
        assert calls == [1, 3]
        assert elapsed < 5.0

    def test_errors_reach_every_caller_and_scheduler_survives(self):
        state = {"fail": True}

        def batch_fn(batch):
            if state["fail"]:
                raise RuntimeError("model exploded")
            return batch

        with MicroBatcher(batch_fn, BatchingConfig(max_wait_ms=0.0), name="errors") as batcher:
            with pytest.raises(RuntimeError, match="model exploded"):
                batcher.submit(np.ones((1, 1)))
            state["fail"] = False
            np.testing.assert_array_equal(batcher.submit(np.ones((1, 1))), np.ones((1, 1)))
            assert batcher.stats()["errors"] == 1

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(lambda batch: batch, BatchingConfig())
        batcher.close()
        with pytest.raises(RuntimeError, match="closed"):
            batcher.submit(np.ones((1, 1)))

    def test_stats_report_latency_percentiles(self):
        config = BatchingConfig(max_wait_ms=0.0)
        with MicroBatcher(lambda batch: batch, config, name="latency-percentiles") as batcher:
            empty = batcher.stats()
            # No batch has run yet: percentiles are unknown, not zero.
            assert empty["latency_p50_ms"] is None and empty["latency_p99_ms"] is None
            for _ in range(8):
                batcher.submit(np.ones((2, 2)))
            stats = batcher.stats()
        assert stats["latency_p50_ms"] > 0.0
        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"]

    def test_stats_read_zeros_when_metrics_are_disabled(self):
        # The registry reads REPRO_METRICS at import, so the disabled
        # path runs in a fresh interpreter: every bound child is the
        # shared no-op, and the view must read it without raising.
        script = (
            "import json\n"
            "import numpy as np\n"
            "from repro.serve.batching import BatchingConfig, MicroBatcher\n"
            "with MicroBatcher(lambda batch: batch, BatchingConfig(max_wait_ms=0.0)) as batcher:\n"
            "    batcher.submit(np.ones((2, 2)))\n"
            "    print(json.dumps(batcher.stats()))\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, REPRO_METRICS="0")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "requests": 0,
            "rows": 0,
            "batches": 0,
            "batch_rows_max": 0,
            "batch_rows_mean": 0.0,
            "errors": 0,
            "latency_p50_ms": None,
            "latency_p99_ms": None,
        }

    def test_concurrent_submit_and_stats_hammer_under_sanitizer(self):
        # Regression for stats/scheduler races: submitters and stats
        # readers hammer the batcher from many threads while the numeric
        # sanitizer instruments the (tensor-engine) batch function.  Any
        # torn read of the registry series (requests behind batches) — or
        # a sanitizer frame leaking across the scheduler thread — shows
        # up here.
        from repro.tensor import Tensor
        from repro.tensor.sanitize import sanitize_scope

        def batch_fn(batch):
            with sanitize_scope():
                return (Tensor(batch) * 2.0).data

        submitters, per_thread = 6, 25
        errors = []
        stop = threading.Event()

        def submitter(index):
            try:
                for i in range(per_thread):
                    payload = np.full((1 + (i % 3), 2), float(index))
                    np.testing.assert_array_equal(
                        batcher.submit(payload), payload * 2.0
                    )
            except Exception as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        def stats_reader():
            try:
                while not stop.is_set():
                    stats = batcher.stats()
                    if stats["latency_p50_ms"] is None:
                        assert stats["latency_p99_ms"] is None
                    else:
                        assert stats["latency_p99_ms"] >= stats["latency_p50_ms"] >= 0.0
                    assert stats["requests"] >= stats["batches"]
            except Exception as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        config = BatchingConfig(max_batch=8, max_wait_ms=1.0)
        with MicroBatcher(batch_fn, config, name="stats-hammer") as batcher:
            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(submitters)]
            threads += [threading.Thread(target=stats_reader) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads[:submitters]:
                thread.join()
            stop.set()
            for thread in threads[submitters:]:
                thread.join()
            final = batcher.stats()
        assert errors == []
        assert final["requests"] == submitters * per_thread
        assert final["errors"] == 0
        assert final["latency_p50_ms"] > 0.0


class TestServingEngine:
    @pytest.fixture(scope="class")
    def engine(self, sealed):
        with ServingEngine(sealed[0], EngineConfig(max_wait_ms=0.5)) as engine:
            yield engine

    def test_single_request_byte_identical_to_predict_logits(
        self, sealed, engine, images, chunked_images
    ):
        model = reference_model(sealed[1])
        for inputs in (images, chunked_images):
            expected = predict_logits(model, inputs)
            got = engine.predict(inputs)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_empty_input_keeps_class_dimension(self, engine):
        assert engine.predict(np.zeros((0, 3, 16, 16))).shape == (0, 5)
        # An empty list over the in-process API means zero samples too.
        assert engine.predict([]).shape == (0, 5)

    def test_single_sample_promoted_to_batch_of_one(self, engine, images):
        logits = engine.predict(images[0])
        assert logits.shape == (1, 5)

    def test_wrong_shape_rejected(self, engine):
        with pytest.raises(ValueError, match="shape"):
            engine.predict(np.zeros((2, 1, 16, 16)))

    def test_concurrent_clients_get_their_own_rows(self, sealed, images):
        """Many clients hitting one engine: coalesced answers match serial ones."""
        _, ticket = sealed
        model = reference_model(ticket)
        clients = 8
        per_client = [images[i % len(images)][None] for i in range(clients)]
        expected = [predict_logits(model, sample) for sample in per_client]

        config = EngineConfig(max_batch=32, max_wait_ms=100.0)
        with ServingEngine(sealed[0], config, name="coalesce-engine") as engine:
            barrier = threading.Barrier(clients)
            results = {}

            def client(index):
                barrier.wait()
                results[index] = engine.predict(per_client[index])

            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = engine.stats()["batching"]

        for index in range(clients):
            assert results[index].shape == (1, 5)
            # Coalescing changes the GEMM batch shape, so low-order bits
            # may differ from the serial forward; the values must agree
            # to far tighter than any decision boundary.
            np.testing.assert_allclose(results[index], expected[index], rtol=0, atol=1e-9)
        assert stats["requests"] == clients
        assert stats["requests"] > stats["batches"]

    def test_predict_after_close_raises(self, sealed):
        engine = ServingEngine(sealed[0], EngineConfig(max_wait_ms=0.0))
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.predict(np.zeros((1, 3, 16, 16)))

    def test_sanitize_flag_surfaces_numeric_faults_to_the_caller(self, sealed, images):
        from repro.tensor.sanitize import SanitizeError, is_sanitize_active, set_sanitize

        # The process-wide switch (what REPRO_SANITIZE=1 sets) reaches
        # the scheduler thread, which sets no override of its own.
        previous = is_sanitize_active()
        set_sanitize(True)
        try:
            with ServingEngine(sealed[0], EngineConfig(max_wait_ms=0.0)) as engine:
                # Clean traffic serves normally with checks on.
                assert engine.predict(images).shape == (len(images), 5)
                # Poison a deep weight: the sanitizer error is raised on the
                # scheduler thread and delivered to the waiting caller, and
                # the message names the culprit layer.
                layer = engine.model.backbone.layer2[0].conv1
                layer.weight.data[0, 0, 0, 0] = np.nan
                with pytest.raises(SanitizeError, match=r"backbone\.layer2"):
                    engine.predict(images)
                # The scheduler survives and keeps serving after the fault.
                layer.weight.data[0, 0, 0, 0] = 0.0
                assert engine.predict(images).shape == (len(images), 5)
        finally:
            set_sanitize(previous)


class TestModelStore:
    def make_artifacts(self, tmp_path, count=3):
        paths = []
        for index in range(count):
            ticket = make_ticket(sparsity=0.3 + 0.2 * index)
            paths.append(
                export_artifact(
                    ticket, str(tmp_path / f"m{index}.npz"), num_classes=4, seed=index
                )
            )
        return paths

    def test_lru_eviction_closes_oldest_engine(self, tmp_path):
        paths = self.make_artifacts(tmp_path)
        store = ModelStore(capacity=2, config=EngineConfig(max_wait_ms=0.0))
        for index, path in enumerate(paths):
            store.register(f"m{index}", path)
        first = store.get("m0")
        store.get("m1")
        assert store.loaded() == ["m0", "m1"]
        store.get("m0")  # refresh m0 so m1 is now least recently used
        store.get("m2")
        assert store.loaded() == ["m0", "m2"]
        assert not first.closed  # m0 survived the eviction
        store.close()
        assert store.loaded() == []
        assert store.names() == ["m0", "m1", "m2"]

    def test_unknown_name_raises_keyerror(self, tmp_path):
        store = ModelStore(capacity=1)
        with pytest.raises(KeyError, match="registered"):
            store.get("ghost")

    def test_describe_reports_metadata_without_loading(self, tmp_path):
        paths = self.make_artifacts(tmp_path, count=1)
        store = ModelStore(capacity=1)
        store.register("only", paths[0])
        (entry,) = store.describe()
        assert entry["name"] == "only"
        assert entry["loaded"] is False
        assert entry["model_name"] == "resnet18"
        assert entry["num_classes"] == 4

    def test_two_resident_models_record_separate_batch_series(self, tmp_path):
        paths = self.make_artifacts(tmp_path, count=2)
        store = ModelStore(capacity=2, config=EngineConfig(max_wait_ms=0.0))
        names = ["series-a", "series-b"]
        for name, path in zip(names, paths):
            store.register(name, path)
        try:
            store.predict(np.zeros((1, 3, 16, 16)), "series-a")
            store.predict(np.zeros((2, 3, 16, 16)), "series-b")
            store.predict(np.zeros((2, 3, 16, 16)), "series-b")
            batching = {name: store.get(name).stats()["batching"] for name in names}
        finally:
            store.close()
        series = {
            (entry["name"], entry["labels"].get("model")): entry
            for entry in default_registry().snapshot()["instruments"]
            if entry["name"].startswith("serve_batch_")
        }
        assert series[("serve_batch_requests_total", "series-a")]["value"] == 1
        assert series[("serve_batch_requests_total", "series-b")]["value"] == 2
        assert series[("serve_batch_occupancy_rows", "series-a")]["sum"] == 1
        assert series[("serve_batch_occupancy_rows", "series-b")]["sum"] == 4
        for name in names:
            assert ("serve_batch_queue_depth", name) in series
            # An engine's stats() is its /metrics series, not a second record.
            batches = series[("serve_batch_batches_total", name)]["value"]
            occupancy = series[("serve_batch_occupancy_rows", name)]
            latency = series[("serve_batch_coalesce_latency_s", name)]
            assert batching[name] == {
                "requests": series[("serve_batch_requests_total", name)]["value"],
                "rows": occupancy["sum"],
                "batches": batches,
                "batch_rows_max": occupancy["max"],
                "batch_rows_mean": round(occupancy["sum"] / batches, 3),
                "errors": series[("serve_batch_errors_total", name)]["value"],
                "latency_p50_ms": round(latency["p50"] * 1000.0, 4),
                "latency_p99_ms": round(latency["p99"] * 1000.0, 4),
            }


@pytest.fixture(scope="class", params=["store", "fleet"])
def http_backend(request, sealed):
    """The module's artifact as ``demo`` behind each serving backend."""
    if request.param == "store":
        store = ModelStore(capacity=2, config=EngineConfig(max_wait_ms=0.5))
        store.register("demo", sealed[0])
        store.load("demo")  # as ``python -m repro.serve`` does before listening
        yield store
        store.close()
    else:
        with FleetSupervisor({"demo": sealed[0]}, FleetConfig(shards=2)) as fleet:
            yield fleet


class TestServeHTTP:
    """One HTTP contract, whichever backend serves it."""

    @pytest.fixture(scope="class")
    def server(self, http_backend):
        server = create_server(http_backend, "demo", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    @pytest.fixture(scope="class")
    def client(self, server):
        with HTTPClient(self.url(server), timeout=60.0, retry=RetryPolicy(attempts=1)) as client:
            yield client

    @staticmethod
    def url(server) -> str:
        host, port = server.server_address[:2]
        return f"http://{host}:{port}"

    def post(self, server, body: bytes, content_type: str):
        """A raw ``POST /predict`` as curl sends it: ``(status, Content-Type, body)``."""
        request = urllib.request.Request(
            self.url(server) + "/predict", data=body, headers={"Content-Type": content_type}
        )
        try:
            with urllib.request.urlopen(request, timeout=60.0) as response:
                return response.status, response.headers.get_content_type(), response.read()
        except urllib.error.HTTPError as error:
            with error:
                return error.code, error.headers.get_content_type(), error.read()

    def predict_as(self, encoding: str, server, client, inputs) -> np.ndarray:
        """``inputs`` through ``/predict`` as a binary ``HTTPClient`` call or raw JSON."""
        if encoding == "binary":
            return client.predict(inputs)
        body = json.dumps({"inputs": np.asarray(inputs).tolist()}).encode("utf-8")
        status, content_type, raw = self.post(server, body, "application/json")
        assert (status, content_type) == (200, "application/json")
        reply = json.loads(raw.decode("utf-8"))
        assert sorted(reply) == ["dtype", "logits", "model", "shape"]
        return np.asarray(reply["logits"], dtype=reply["dtype"]).reshape(reply["shape"])

    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["draining"] is False
        assert health["queue_depth"] == 0
        assert health["default_model"] == "demo"
        # The model is listed as loaded right after boot.
        assert health["models"] == ["demo"] == health["loaded"]

    def test_models_endpoint_lists_artifact_metadata(self, client):
        (entry,) = client.models()["models"]
        assert entry["name"] == "demo"
        assert entry["loaded"] is True
        assert entry["format"] == "repro-model/v1"
        assert entry["model_name"] == "resnet18"
        assert entry["num_classes"] == 5

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("encoding", ["json", "binary"])
    def test_predict_round_trip_byte_identical(
        self, sealed, server, client, images, chunked_images, encoding, dtype
    ):
        model = reference_model(sealed[1])
        for rows in (images, chunked_images):
            inputs = rows.astype(dtype)
            expected = predict_logits(model, inputs)
            served = self.predict_as(encoding, server, client, inputs)
            assert served.dtype == expected.dtype
            np.testing.assert_array_equal(served, expected)
            assert served.flags.writeable

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("encoding", ["json", "binary"])
    def test_predict_empty_inputs(self, server, client, encoding, dtype):
        empty = np.zeros((0, 3, 16, 16), dtype=dtype)
        assert self.predict_as(encoding, server, client, empty).shape == (0, 5)
        if encoding == "binary":
            assert client.predict([]).shape == (0, 5)

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(b"\x00\x00", id="truncated-length"),
            pytest.param(b"\x00\x00\x00\x40{}", id="truncated-header"),
            pytest.param(pack_frame({})[:4] + b"{no", id="header-not-json"),
            pytest.param(b"\x00\x00\x00\x02[]", id="header-not-object"),
            pytest.param(pack_frame({"dtype": "float64"}, bytes(8)), id="missing-shape"),
            pytest.param(pack_frame({"shape": [1]}, bytes(8)), id="missing-dtype"),
            pytest.param(
                pack_frame({**encode_array(np.ones(2))[0], "crc": 1}, np.ones(2).tobytes()),
                id="crc-mismatch",
            ),
            pytest.param(
                pack_frame({"dtype": "float64", "shape": [3]}, bytes(16)), id="size-mismatch"
            ),
            pytest.param(pack_frame(*encode_array(np.array(["ab"]))), id="not-numeric"),
            pytest.param(pack_frame(*encode_array(np.ones(2, complex))), id="complex"),
        ],
    )
    def test_malformed_array_body_is_400(self, server, body):
        status, content_type, raw = self.post(server, body, ARRAY_CONTENT_TYPE)
        assert (status, content_type) == (400, "application/json")
        reply = json.loads(raw.decode("utf-8"))
        assert reply["retryable"] is False and reply["error"]

    def test_shared_client_returns_each_threads_own_logits(self, sealed, client):
        model = reference_model(sealed[1])
        inputs = [seeded_rng(100 + index).uniform(size=(2, 3, 16, 16)) for index in range(8)]
        expected = [predict_logits(model, rows) for rows in inputs]
        problems = []

        def worker(index: int) -> None:
            for _ in range(3):
                served = client.predict(inputs[index])
                if not np.array_equal(served, expected[index]):
                    problems.append(index)

        threads = [threading.Thread(target=worker, args=(index,)) for index in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the pool's check-out/check-in
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []

    def test_keep_alive_connection_has_no_delayed_ack_stall(self, server):
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=60.0)
        timings = []
        try:
            for _ in range(20):
                begin = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                timings.append(time.perf_counter() - begin)
                assert response.status == 200 and not response.will_close
        finally:
            connection.close()
        # With Nagle on, each response on the reused connection waits
        # for the client's delayed ACK: a 40 ms floor.
        assert statistics.median(timings) < 0.015, timings

    def test_close_releases_pooled_connections(self, server, images):
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with HTTPClient(self.url(server), retry=RetryPolicy(attempts=1)) as client:
                threads = [
                    threading.Thread(target=client.predict, args=(images[:1],)) for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
                assert client.healthz()["status"] == "ok"
            del client, threads
            gc.collect()
        assert [str(warning.message) for warning in caught] == []

    def test_predict_bad_shape_is_400(self, client):
        with pytest.raises(ServingError) as info:
            client.predict(np.zeros((2, 1, 16, 16)))
        assert info.value.status == 400
        assert not info.value.retryable

    def test_predict_unknown_model_is_404(self, client, images):
        with pytest.raises(ServingError) as info:
            client.predict(images, model="ghost")
        assert info.value.status == 404

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServingError) as info:
            client._request("/nope")
        assert info.value.status == 404

    def test_rate_limited_request_is_429_with_retry_after(self, client, images):
        assert client.set_rate_limit("demo", rate_per_s=0.001, burst=1)["limit"] == {
            "rate_per_s": 0.001,
            "burst": 1,
        }
        try:
            client.predict(images[:1])  # consumes the single token
            with pytest.raises(ServingError) as info:
                client.predict(images[:1])
            assert info.value.status == 429
            assert info.value.retryable  # the client's retry loop may wait
            assert info.value.retry_after is not None and info.value.retry_after >= 1
        finally:
            client.set_rate_limit("demo", rate_per_s=None)
        client.predict(images[:1])  # cleared: admission is unlimited again

    def test_evict_then_predict_reloads(self, sealed, client, images):
        evicted = client.evict("demo")
        assert evicted["action"] == "evict" and evicted["ok"] is True
        assert client.healthz()["loaded"] == []
        assert [entry["loaded"] for entry in client.models()["models"]] == [False]
        # Still registered: the next predict reloads the sealed artifact.
        expected = predict_logits(reference_model(sealed[1]), images)
        np.testing.assert_array_equal(client.predict(images), expected)
        assert client.load("demo")["ok"] is True
        assert client.healthz()["loaded"] == ["demo"]
        with pytest.raises(ServingError) as info:
            client.evict("ghost")
        assert info.value.status == 404



@pytest.mark.parametrize("name", ["ticket v1", "a/b"])
def test_admin_verbs_encode_the_model_name(sealed, name):
    # ``--artifact NAME=PATH`` registers any name; the admin routes carry
    # it as one path segment, which the server unquotes.
    store = ModelStore(capacity=1, config=EngineConfig(max_wait_ms=0.5))
    store.register(name, sealed[0])
    server = create_server(store, name, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        with HTTPClient(
            f"http://{host}:{port}", timeout=60.0, retry=RetryPolicy(attempts=1)
        ) as client:
            assert client.load(name)["ok"] is True
            assert client.healthz()["loaded"] == [name]
            assert client.set_rate_limit(name, rate_per_s=5.0)["model"] == name
            assert client.set_rate_limit(name, rate_per_s=None)["limit"] is None
            assert client.evict(name)["ok"] is True
            assert client.healthz()["loaded"] == []
    finally:
        server.shutdown()
        server.server_close()
        store.close()

class TestExportBest:
    @pytest.fixture(scope="class")
    def unit_context(self):
        from repro.experiments.config import ExperimentScale
        from repro.experiments.context import ExperimentContext

        scale = ExperimentScale(
            name="unit-serve",
            base_width=4,
            source_classes=4,
            source_train_size=48,
            source_test_size=24,
            pretrain_epochs=1,
            downstream_train_size=32,
            downstream_test_size=24,
            finetune_epochs=1,
            linear_epochs=5,
            sparsity_grid=(0.6,),
            high_sparsity_grid=(0.9,),
            structured_sparsity_grid=(0.3,),
            imp_iterations=1,
            imp_epochs_per_iteration=1,
            lmp_epochs=1,
            attack_epsilon=0.02,
            attack_steps=1,
            segmentation_train_size=12,
            segmentation_test_size=8,
            segmentation_epochs=1,
            vtab_train_size=12,
            vtab_test_size=12,
            fid_samples=12,
            models=("resnet18",),
            tasks=("cifar10",),
        )
        return ExperimentContext(scale)

    def test_best_point_prefers_highest_score_across_arms(self):
        from repro.experiments.export import best_point
        from repro.experiments.results import ResultTable

        table = ResultTable(
            "t",
            [
                dict(model="resnet18", task="cifar10", sparsity=0.6,
                     robust_accuracy=0.4, natural_accuracy=0.7),
                dict(model="resnet18", task="cifar10", sparsity=0.9,
                     robust_accuracy=0.5, natural_accuracy=0.2),
            ],
        )
        row, column, prior = best_point(table)
        assert row["sparsity"] == 0.6
        assert column == "natural_accuracy"
        assert prior == "natural"

    def test_export_best_seals_a_servable_winner(self, tmp_path, unit_context):
        from repro.experiments.export import export_best
        from repro.experiments.results import ResultTable

        table = ResultTable(
            "fig2-like",
            [
                dict(model="resnet18", task="cifar10", sparsity=0.6,
                     robust_accuracy=0.3, natural_accuracy=0.8),
            ],
        )
        path = export_best(
            table, "fig2", unit_context.scale, unit_context, str(tmp_path / "winner.npz")
        )
        artifact = load_artifact(path)
        assert artifact.provenance["experiment"] == "fig2"
        assert artifact.provenance["selected_by"] == "natural_accuracy"
        assert artifact.provenance["head"] == "linear"
        assert artifact.num_classes == unit_context.task("cifar10").num_classes
        assert artifact.sparsity() == pytest.approx(0.6, abs=0.05)
        with ServingEngine(path, EngineConfig(max_wait_ms=0.0)) as engine:
            logits = engine.predict(np.zeros((2, 3, 16, 16)))
        assert logits.shape == (2, artifact.num_classes)

    def test_export_best_rejects_tables_without_grid_columns(self, tmp_path, unit_context):
        from repro.experiments.export import export_best
        from repro.experiments.results import ResultTable

        table = ResultTable("bad", [dict(scheme="imp", robust_accuracy=0.5)])
        with pytest.raises(ValueError, match="export-model"):
            export_best(table, "fig4", unit_context.scale, unit_context, str(tmp_path / "x"))

    def test_cli_parser_accepts_export_model(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(["fig2", "--export-model", "winner.npz"])
        assert args.export_model == "winner.npz"


class TestServeCLI:
    def test_parser_requires_artifact(self):
        from repro.serve.http import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_artifact_name_parsing(self):
        from repro.serve.http import _artifact_name

        assert _artifact_name("demo=/tmp/m.npz") == ("demo", "/tmp/m.npz")
        assert _artifact_name(os.path.join("runs", "winner.npz"))[0] == "winner"

    def test_main_rejects_missing_artifact(self, tmp_path, capsys):
        from repro.serve.http import main

        with pytest.raises(SystemExit):
            main(["--artifact", str(tmp_path / "missing.npz"), "--port", "0"])


class TestMicroBatcherOverload:
    def test_full_queue_rejects_immediately(self):
        """The third request of a 1-slot queue is rejected, not queued."""
        started = threading.Event()
        release = threading.Event()

        def blocking_fn(batch):
            started.set()
            release.wait(10.0)
            return batch

        config = BatchingConfig(max_batch=1, max_wait_ms=0.0, max_queue=1)
        with MicroBatcher(blocking_fn, config) as batcher:
            first = threading.Thread(target=lambda: batcher.submit(np.ones((1, 2))))
            first.start()
            assert started.wait(5.0)  # the scheduler is busy inside batch_fn
            second = threading.Thread(target=lambda: batcher.submit(np.ones((1, 2))))
            second.start()
            deadline = time.monotonic() + 5.0
            while not batcher._queue.full():  # the lone queue slot fills
                assert time.monotonic() < deadline
                time.sleep(0.005)
            start = time.monotonic()
            with pytest.raises(QueueFullError, match="max_queue"):
                batcher.submit(np.ones((1, 2)))
            # Rejection is immediate: submit never waits for a free slot.
            assert time.monotonic() - start < 0.5
            release.set()
            first.join(5.0)
            second.join(5.0)
            assert not first.is_alive() and not second.is_alive()

    def test_submit_timeout_abandons_result_but_scheduler_survives(self):
        release = threading.Event()
        served_rows = []

        def slow_fn(batch):
            release.wait(10.0)
            served_rows.append(batch.shape[0])
            return batch * 2.0

        with MicroBatcher(slow_fn, BatchingConfig(max_batch=4, max_wait_ms=0.0)) as batcher:
            with pytest.raises(TimeoutError, match="not served"):
                batcher.submit(np.ones((2, 3)), timeout=0.05)
            release.set()
            # The abandoned request's batch still ran, and the scheduler
            # keeps serving fresh requests afterwards.
            result = batcher.submit(np.full((1, 3), 2.0), timeout=5.0)
            np.testing.assert_array_equal(result, np.full((1, 3), 4.0))
            assert 2 in served_rows

    def test_rejected_and_timed_out_callers_leave_no_one_to_wait_for(self):
        entered = threading.Event()
        release = threading.Event()

        def batch_fn(batch):
            entered.set()
            release.wait(10.0)
            return batch

        config = BatchingConfig(max_batch=64, max_wait_ms=10_000.0, max_queue=1)
        with MicroBatcher(batch_fn, config, name="no-leaked-callers") as batcher:
            with pytest.raises(TimeoutError, match="not served"):
                batcher.submit(np.ones((1, 2)), timeout=0.2)
            assert entered.wait(5.0)
            queued = threading.Thread(target=batcher.submit, args=(np.ones((1, 2)),))
            queued.start()
            deadline = time.monotonic() + 5.0
            while batcher.queue_depth < 1:  # the lone queue slot fills
                assert time.monotonic() < deadline
                time.sleep(0.005)
            with pytest.raises(QueueFullError, match="max_queue"):
                batcher.submit(np.ones((1, 2)))
            release.set()
            queued.join(5.0)
            assert not queued.is_alive()
            # Neither the timeout nor the rejection still counts as a
            # caller: a lone request runs at once, not after 10 s.
            start = time.monotonic()
            np.testing.assert_array_equal(batcher.submit(np.ones((1, 2))), np.ones((1, 2)))
            assert time.monotonic() - start < 2.0

    def test_caller_count_returns_to_zero_after_a_storm(self):
        # More submitters than cores leave submit every way there is (a
        # result, a rejection, a timeout) with the interpreter switching
        # threads as often as it can: a lost update leaves the count off
        # zero.
        def batch_fn(batch):
            time.sleep(0.001)
            return batch

        outcomes = []

        def submitter(index):
            for request in range(40):
                timeout = 1e-4 if (index + request) % 4 == 0 else None
                try:
                    batcher.submit(np.ones((1, 2)), timeout=timeout)
                    outcomes.append("served")
                except QueueFullError:
                    outcomes.append("rejected")
                except TimeoutError:
                    outcomes.append("timed out")

        config = BatchingConfig(max_batch=4, max_wait_ms=5.0, max_queue=2)
        with MicroBatcher(batch_fn, config, name="caller-count-storm") as batcher:
            threads = [threading.Thread(target=submitter, args=(i,)) for i in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            with batcher._in_submit_lock:
                assert batcher._in_submit == 0
        assert len(outcomes) == 8 * 40 and "served" in outcomes

    def test_negative_max_queue_rejected(self):
        with pytest.raises(ValueError, match="max_queue"):
            BatchingConfig(max_queue=-1)

    def test_engine_config_threads_max_queue_through(self):
        assert EngineConfig(max_queue=3).batching().max_queue == 3
        assert EngineConfig().batching().max_queue == 0  # default stays unbounded


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Replays a per-server script of (status, headers, payload) replies."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _reply(self) -> None:
        self.server.calls += 1
        if self.server.script:
            status, headers, payload = self.server.script.pop(0)
        else:
            status, headers, payload = 200, {}, {"ok": True}
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in headers.items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)
        # Ends the connection without announcing it, as an idle timeout does.
        self.close_connection = self.server.close_after_reply

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._reply()

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self._reply()


@pytest.fixture
def scripted_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script = []
    server.calls = 0
    server.close_after_reply = False
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(5.0)


class TestHTTPClientRetry:
    @staticmethod
    def url(server) -> str:
        host, port = server.server_address[:2]
        return f"http://{host}:{port}"

    def test_retries_503_and_honours_retry_after(self, scripted_server):
        scripted_server.script.extend(
            [
                (503, {"Retry-After": "1"}, {"error": "overloaded", "retryable": True}),
                (503, {"Retry-After": "2"}, {"error": "overloaded", "retryable": True}),
                (200, {}, {"ok": True}),
            ]
        )
        delays = []
        with HTTPClient(
            self.url(scripted_server),
            retry=RetryPolicy(attempts=3, backoff_s=0.01, backoff_max_s=0.05, seed=0),
            sleep=delays.append,
        ) as client:
            assert client.healthz() == {"ok": True}
        assert scripted_server.calls == 3
        # The server's Retry-After hint floors the jittered backoff.
        assert delays[0] >= 1.0 and delays[1] >= 2.0

    def test_gives_up_after_bounded_attempts(self, scripted_server):
        scripted_server.script.extend([(503, {}, {"error": "overloaded"})] * 5)
        with HTTPClient(
            self.url(scripted_server),
            retry=RetryPolicy(attempts=2, backoff_s=0.0),
            sleep=lambda _s: None,
        ) as client, pytest.raises(ServingError) as excinfo:
            client.healthz()
        assert excinfo.value.status == 503
        assert excinfo.value.retryable
        assert scripted_server.calls == 2  # bounded: attempts, not forever

    @pytest.mark.parametrize(
        "status, payload",
        [
            (400, {"error": "bad inputs"}),
            # A 503 the server marks final (every breaker open).
            (503, {"error": "bad inputs", "retryable": False}),
        ],
    )
    def test_non_retryable_errors_fail_fast(self, scripted_server, status, payload):
        scripted_server.script.append((status, {}, payload))
        slept = []
        with HTTPClient(
            self.url(scripted_server), retry=RetryPolicy(attempts=3), sleep=slept.append
        ) as client, pytest.raises(ServingError, match="bad inputs") as excinfo:
            client.healthz()
        assert excinfo.value.status == status
        assert not excinfo.value.retryable
        assert scripted_server.calls == 1
        assert slept == []

    def test_stale_pooled_connection_reopens_outside_the_retry_budget(self, scripted_server):
        scripted_server.close_after_reply = True
        slept = []
        with HTTPClient(
            self.url(scripted_server), retry=RetryPolicy(attempts=1), sleep=slept.append
        ) as client:
            assert client.healthz() == {"ok": True}
            # The pooled connection is closed: reopened once, not retried.
            assert client.healthz() == {"ok": True}
        assert scripted_server.calls == 2
        assert slept == []

    def test_connection_errors_retry_then_raise(self):
        # Bind-then-close yields a port with nothing listening on it.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        delays = []
        client = HTTPClient(
            f"http://127.0.0.1:{port}",
            timeout=1.0,
            retry=RetryPolicy(attempts=3, backoff_s=0.001, seed=1),
            sleep=delays.append,
        )
        with pytest.raises(urllib.error.URLError):
            client.healthz()
        assert len(delays) == 2  # attempts - 1 backoff sleeps

    def test_retry_policy_delay_is_seeded_and_bounded(self):
        policy = RetryPolicy(attempts=5, backoff_s=0.1, backoff_max_s=0.3, seed=42)
        twin = RetryPolicy(attempts=5, backoff_s=0.1, backoff_max_s=0.3, seed=42)
        delays = [policy.delay(k) for k in range(1, 5)]
        assert delays == [twin.delay(k) for k in range(1, 5)]
        assert all(0.0 <= delay <= 0.3 for delay in delays)
        assert RetryPolicy(seed=0).delay(1, retry_after=7.5) >= 7.5

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError, match="attempts"):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_s=-1.0)


class _GatedBackend:
    """A stub backend whose ``predict`` blocks until ``release`` is set."""

    def __init__(self) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()

    def predict(self, inputs, model: str) -> np.ndarray:
        self.entered.set()
        self.release.wait(30.0)
        return np.zeros((len(inputs), 2))

    def names(self):
        return ["stub"]

    def health(self) -> dict:
        return {"live": True, "loaded": ["stub"]}

    def queue_depth(self) -> int:
        return 0


class TestUnreadableBody:
    """A ``POST`` body whose end the server cannot find is refused, not read."""

    @pytest.mark.parametrize(
        "framing, body",
        [
            pytest.param("Content-Length: -1", b'{"inputs": []}', id="negative-length"),
            pytest.param("Content-Length: abc", b'{"inputs": []}', id="non-numeric-length"),
            pytest.param(
                "Transfer-Encoding: chunked", b'e\r\n{"inputs": []}\r\n0\r\n\r\n', id="chunked"
            ),
        ],
    )
    def test_answers_400_and_closes_the_connection(self, framing, body):
        server = create_server(_GatedBackend(), "stub", port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        head = (
            "POST /predict HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n{framing}\r\n\r\n"
        )
        # A keep-alive client: the write side stays open after the request.
        connection = socket.create_connection(server.server_address[:2], timeout=1.0)
        try:
            began = time.monotonic()
            connection.sendall(head.encode("ascii") + body)
            response = http.client.HTTPResponse(connection)
            response.begin()
            reply = json.loads(response.read())
            assert time.monotonic() - began < 1.0
            assert response.status == 400 and reply["retryable"] is False
            assert response.getheader("Connection") == "close"
            try:
                assert connection.recv(1) == b""  # the server closed its end
            except ConnectionResetError:
                pass  # closed with the unread body still queued
            began = time.monotonic()
            assert server.drain(timeout=5.0)
            assert time.monotonic() - began < 1.0
        finally:
            connection.close()
            server.server_close()


class TestGracefulShutdown:
    def test_drain_answers_read_requests_and_closes_idle_connections(self):
        backend = _GatedBackend()
        server = create_server(backend, "stub", port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        busy = http.client.HTTPConnection(host, port, timeout=30.0)
        idle = http.client.HTTPConnection(host, port, timeout=30.0)
        drained = []
        try:
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()  # now an idle keep-alive connection
            busy.request(
                "POST",
                "/predict",
                body=b'{"inputs": [[0.0]]}',
                headers={"Content-Type": "application/json"},
            )
            assert backend.entered.wait(30.0)
            drainer = threading.Thread(target=lambda: drained.append(server.drain(timeout=30.0)))
            drainer.start()
            deadline = time.monotonic() + 30.0
            while not server.draining and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.draining and drained == []  # waiting on the read request
            # The drain closed the idle connection instead of answering 503.
            with pytest.raises(ConnectionError):
                idle.request("GET", "/healthz")
                idle.getresponse()
            # The request read before the drain still gets its answer.
            backend.release.set()
            response = busy.getresponse()
            assert response.status == 200
            assert response.getheader("Connection") == "close"
            assert json.loads(response.read())["shape"] == [1, 2]
            drainer.join(30.0)
            assert drained == [True]
        finally:
            backend.release.set()
            busy.close()
            idle.close()
            server.server_close()

    def test_sigterm_with_an_idle_keep_alive_connection_exits_promptly(self, sealed):
        """An idle keep-alive client must not hold the drain open."""
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--artifact", f"model={sealed[0]}", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        connection = None
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"unexpected server banner: {banner!r}"
            connection = http.client.HTTPConnection(match.group(1), int(match.group(2)), timeout=30.0)
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200 and not response.will_close
            response.read()
            began = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=15.0)
            elapsed = time.monotonic() - began
        finally:
            if connection is not None:
                connection.close()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        assert "drained; bye" in output
        assert elapsed < 10.0

    def test_sigterm_under_load_drains_and_exits_zero(self, sealed):
        """SIGTERM mid-load: every accepted request is answered, exit 0.

        Runs the real ``python -m repro.serve --shards 2`` CLI as a
        subprocess (spawned fleet workers included) with a chaos delay
        keeping requests in flight when the signal lands.
        """
        path, _ = sealed
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CHAOS"] = "delay-response:shard=*,ms=150"
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve",
                "--artifact",
                f"model={path}",
                "--port",
                "0",
                "--shards",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        output = ""
        try:
            # The banner prints once the shard pool is live.
            banner = proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"unexpected server banner: {banner!r}"
            client = HTTPClient(
                f"http://{match.group(1)}:{match.group(2)}",
                timeout=30.0,
                retry=RetryPolicy(attempts=1),
            )
            results, failures = [], []
            stop = threading.Event()

            def hammer() -> None:
                while not stop.is_set():
                    try:
                        results.append(client.predict(np.zeros((1, 3, 16, 16))))
                    except ServingError as error:
                        failures.append(error)
                        return
                    except (OSError, urllib.error.URLError):
                        return  # the listener closed: the drain has begun
                    except Exception as error:  # noqa: BLE001 - any other failure is a bug
                        failures.append(error)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            time.sleep(0.6)  # several 150 ms requests are now in flight
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=60.0)
            stop.set()
            for thread in threads:
                thread.join(15.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            stop.set()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        assert "draining in-flight requests" in output
        assert "drained; bye" in output
        # Zero accepted-request loss: nothing got an error response.
        assert failures == []
        assert results, "the load generator never completed a request"
        assert all(logits.shape == (1, 5) for logits in results)
