"""repro.obs: registry semantics, histogram edges, snapshot merging,
Prometheus exposition, the generated metrics reference, and the HTTP
observability surface (``/metrics`` + admin routes) over a live server."""

from __future__ import annotations

import json
import os
import shutil
import threading
import urllib.request

import numpy as np
import pytest

from repro.core.tickets import Ticket
from repro.models.resnet import resnet18
from repro.obs.docgen import generate_reference
from repro.obs.export import PROMETHEUS_CONTENT_TYPE, render_json, render_prometheus
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    METRICS_FORMAT,
    MetricsRegistry,
    default_registry,
    merge_snapshots,
    percentiles_from_buckets,
)
from repro.pruning.mask import magnitude_mask
from repro.serve.artifact import export_artifact
from repro.serve.client import HTTPClient, RetryPolicy
from repro.serve.engine import EngineConfig
from repro.serve.errors import ServingError
from repro.serve.http import create_server
from repro.serve.store import ModelStore
from repro.utils.seeding import seeded_rng


# ----------------------------------------------------------------------
# Registry core
# ----------------------------------------------------------------------
class TestCountersAndGauges:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total")
        requests.inc()
        requests.inc(4)
        assert registry.value("requests_total") == 5.0
        with pytest.raises(ValueError, match="only go up"):
            requests.inc(-1)

    def test_gauge_moves_both_ways_and_tracks_maximum(self):
        registry = MetricsRegistry()
        depth = registry.gauge("queue_depth")
        depth.set(7)
        depth.dec(3)
        assert registry.value("queue_depth") == 4.0
        depth.set_max(2)  # below current: no effect
        assert registry.value("queue_depth") == 4.0
        depth.set_max(11)
        assert registry.value("queue_depth") == 11.0

    def test_labelled_children_are_cached_and_validated(self):
        registry = MetricsRegistry()
        family = registry.counter("per_model_total", labels=("model",))
        child = family.labelled(model="a")
        assert family.labelled(model="a") is child
        child.inc()
        family.labelled(model="b").inc(2)
        assert registry.value("per_model_total", model="a") == 1.0
        assert registry.value("per_model_total", model="b") == 2.0
        with pytest.raises(ValueError, match="declares labels"):
            family.labelled(shard="0")
        with pytest.raises(ValueError, match="bind values"):
            family.inc()  # labelled family has no unlabelled shortcut

    def test_redeclaration_returns_family_and_conflicts_raise(self):
        registry = MetricsRegistry()
        first = registry.counter("loads_total")
        assert registry.counter("loads_total") is first
        with pytest.raises(ValueError, match="already declared"):
            registry.gauge("loads_total")
        with pytest.raises(ValueError, match="already declared"):
            registry.counter("loads_total", labels=("model",))

    def test_disabled_registry_hands_out_noops_but_keeps_declarations(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("ghost_total", "documented but free")
        counter.inc(100)
        latency = registry.histogram("ghost_latency_s")
        latency.observe(1.0)
        with latency.time():
            pass
        assert registry.value("ghost_total") == 0.0
        assert registry.snapshot()["instruments"] == []
        names = [entry["name"] for entry in registry.describe()]
        assert names == ["ghost_latency_s", "ghost_total"]


class TestHistogramEdges:
    def test_empty_histogram_reports_none_not_zero(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_s")
        reading = registry.snapshot()["instruments"][0]
        assert reading["count"] == 0
        assert reading["p50"] is None and reading["p95"] is None and reading["p99"] is None
        assert reading["min"] is None and reading["max"] is None
        assert hist.count == 0

    def test_single_sample_reads_back_exactly(self):
        registry = MetricsRegistry()
        registry.histogram("latency_s").observe(0.0042)
        reading = registry.snapshot()["instruments"][0]
        assert reading["count"] == 1
        assert reading["min"] == reading["max"] == 0.0042
        assert reading["p50"] == reading["p95"] == reading["p99"] == 0.0042

    def test_boundary_sample_lands_in_its_le_bucket(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_s", bounds=(0.001, 0.01, 0.1))
        hist.observe(0.01)  # exactly on a bound: le semantics, not lt
        counts = registry.snapshot()["instruments"][0]["buckets"]["counts"]
        assert counts == [0, 1, 0, 0]

    def test_overflow_and_quantiles_clamped_to_observed_range(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_s", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            hist.observe(value)
        reading = registry.snapshot()["instruments"][0]
        assert reading["buckets"]["counts"] == [1, 1, 1]
        assert reading["min"] == 0.5 and reading["max"] == 99.0
        assert 0.5 <= reading["p50"] <= 99.0
        assert reading["p99"] <= 99.0  # clamped: never interpolates past max

    def test_nan_observations_are_dropped(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_s")
        hist.observe(float("nan"))
        hist.observe(0.25)
        reading = registry.snapshot()["instruments"][0]
        assert reading["count"] == 1
        assert reading["sum"] == 0.25

    def test_percentiles_from_buckets_empty_contract(self):
        empty = percentiles_from_buckets((1.0, 2.0), [0, 0, 0], None, None)
        assert empty == {"p50": None, "p95": None, "p99": None}

    def test_concurrent_record_and_snapshot_hammer(self, monkeypatch):
        # Writers observe while readers snapshot; run with the numeric
        # sanitizer armed (REPRO_SANITIZE=1) like the serving stack's
        # strictest deployment profile.  Every snapshot must be
        # internally consistent and the final tally exact.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        registry = MetricsRegistry()
        hist = registry.histogram("hammer_s", bounds=DEFAULT_LATENCY_BUCKETS_S)
        counter = registry.counter("hammer_total")
        writers, per_thread = 8, 400
        errors: list = []
        stop = threading.Event()

        def writer(index: int) -> None:
            try:
                for i in range(per_thread):
                    hist.observe(0.0001 * ((index + i) % 50 + 1))
                    counter.inc()
            except Exception as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        def reader() -> None:
            try:
                while not stop.is_set():
                    snapshot = registry.snapshot()
                    for entry in snapshot["instruments"]:
                        if entry["kind"] != "histogram":
                            continue
                        # Bucket counts always sum to the reported count.
                        assert sum(entry["buckets"]["counts"]) == entry["count"]
                        if entry["count"]:
                            assert entry["min"] <= entry["max"]
                    json.dumps(snapshot)  # stays JSON-pure under load
            except Exception as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads[:writers]:
            thread.join()
        stop.set()
        for thread in threads[writers:]:
            thread.join()
        assert not errors, errors[0]
        assert hist.count == writers * per_thread
        assert registry.value("hammer_total") == writers * per_thread


class TestSnapshotAndMerge:
    def build(self, requests: float, latencies) -> dict:
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(requests)
        registry.gauge("queue_depth").set(requests / 2)
        hist = registry.histogram("latency_s", bounds=(0.01, 0.1, 1.0))
        for value in latencies:
            hist.observe(value)
        return registry.snapshot()

    def test_snapshot_is_sorted_and_json_pure(self):
        snapshot = self.build(3, [0.05])
        assert snapshot["format"] == METRICS_FORMAT
        names = [entry["name"] for entry in snapshot["instruments"]]
        assert names == sorted(names)
        assert json.loads(render_json(snapshot)) == json.loads(json.dumps(snapshot))

    def test_merge_sums_counters_gauges_and_buckets(self):
        merged = merge_snapshots(
            self.build(4, [0.02, 0.02]), self.build(6, [0.5, 0.5, 0.5])
        )
        by_name = {entry["name"]: entry for entry in merged["instruments"]}
        assert by_name["requests_total"]["value"] == 10.0
        assert by_name["queue_depth"]["value"] == 5.0
        hist = by_name["latency_s"]
        assert hist["count"] == 5
        assert hist["buckets"]["counts"] == [0, 2, 3, 0]
        assert hist["min"] == 0.02 and hist["max"] == 0.5
        assert hist["p50"] == pytest.approx(0.5, abs=0.5)  # re-derived, in range

    def test_merge_is_schema_identical_and_nondestructive(self):
        one, two = self.build(1, [0.02]), self.build(2, [0.2])
        before = json.dumps(one, sort_keys=True)
        merged = merge_snapshots(one, two)
        assert json.dumps(one, sort_keys=True) == before  # inputs untouched
        assert merged["format"] == METRICS_FORMAT
        solo_keys = {
            entry["name"]: sorted(entry) for entry in one["instruments"]
        }
        for entry in merged["instruments"]:
            assert sorted(entry) == solo_keys[entry["name"]]

    def test_merge_rejects_foreign_payloads_and_mismatched_bounds(self):
        with pytest.raises(ValueError, match="not a repro-metrics/v1"):
            merge_snapshots({"format": "other/v1", "instruments": []})
        registry = MetricsRegistry()
        registry.histogram("latency_s", bounds=(1.0,)).observe(0.5)
        other = registry.snapshot()
        with pytest.raises(ValueError, match="bucket bounds differ"):
            merge_snapshots(self.build(0, [0.5]), other)


class TestPrometheusExposition:
    def test_counters_gauges_and_cumulative_buckets(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", labels=("model",)).labelled(model="demo").inc(3)
        hist = registry.histogram("latency_s", bounds=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{model="demo"} 3' in text
        assert "# TYPE latency_s histogram" in text
        # Cumulative buckets: 1 under 0.1, 2 under 1.0, 3 under +Inf.
        assert 'latency_s_bucket{le="0.1"} 1' in text
        assert 'latency_s_bucket{le="1"} 2' in text
        assert 'latency_s_bucket{le="+Inf"} 3' in text
        assert "latency_s_count 3" in text
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", labels=("name",)).labelled(name='he said "hi"').inc()
        text = render_prometheus(registry.snapshot())
        assert r'odd_total{name="he said \"hi\""} 1' in text


class TestGeneratedReference:
    def test_reference_covers_every_default_registry_instrument(self):
        reference = generate_reference()
        for entry in default_registry().describe():
            assert f"`{entry['name']}`" in reference, entry["name"]

    def test_committed_reference_matches_generated(self):
        committed = os.path.join(os.path.dirname(__file__), "..", "docs", "METRICS.md")
        with open(os.path.normpath(committed), "r", encoding="utf-8") as handle:
            assert handle.read() == generate_reference(), (
                "docs/METRICS.md is stale; regenerate with "
                "`PYTHONPATH=src python -m repro.obs doc --output docs/METRICS.md`"
            )


# ----------------------------------------------------------------------
# HTTP observability surface
# ----------------------------------------------------------------------
def make_artifact(tmp_path_factory) -> str:
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
    return export_artifact(
        ticket, str(tmp_path_factory.mktemp("obs") / "model.npz"), num_classes=5, seed=3
    )


class TestMetricsHTTP:
    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        return make_artifact(tmp_path_factory)

    @pytest.fixture(scope="class")
    def server(self, artifact, tmp_path_factory):
        store = ModelStore(capacity=2, config=EngineConfig(max_wait_ms=0.5))
        store.register("demo", artifact)
        # A model whose artifact vanishes after registration: every
        # /predict against it is a deterministic 503 (load failure).
        broken = str(tmp_path_factory.mktemp("obs-broken") / "gone.npz")
        shutil.copyfile(artifact, broken)
        store.register("broken", broken)
        os.unlink(broken)
        server = create_server(store, "demo", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        store.close()

    @pytest.fixture(scope="class")
    def client(self, server):
        host, port = server.server_address[:2]
        with HTTPClient(
            f"http://{host}:{port}", timeout=30.0, retry=RetryPolicy(attempts=1)
        ) as client:
            yield client

    @pytest.fixture(scope="class")
    def images(self):
        return seeded_rng(11).uniform(0.0, 1.0, size=(4, 3, 16, 16))

    def read(self, snapshot: dict, name: str, **labels) -> dict:
        for entry in snapshot["instruments"]:
            if entry["name"] == name and entry.get("labels", {}) == labels:
                return entry
        raise AssertionError(f"{name}{labels} not in snapshot")

    def test_metrics_agree_with_client_tally_after_mixed_run(self, client, images):
        before = client.metrics()
        assert before["format"] == METRICS_FORMAT

        def predict_count(snapshot: dict, status: str) -> float:
            try:
                return self.read(
                    snapshot,
                    "serve_http_requests_total",
                    route="/predict",
                    status=status,
                )["value"]
            except AssertionError:
                return 0.0

        successes = failures = 0
        for index in range(5):
            if index % 2 == 0:
                client.predict(images[: 1 + index % 3])
                successes += 1
            else:
                with pytest.raises(ServingError) as info:
                    client.predict(images[:1], model="broken")
                assert info.value.status == 503
                failures += 1
        after = client.metrics()
        assert predict_count(after, "200") - predict_count(before, "200") == successes
        assert predict_count(after, "503") - predict_count(before, "503") == failures
        model_requests = self.read(after, "serve_model_requests_total", model="demo")
        assert model_requests["value"] >= successes
        forward = self.read(after, "serve_forward_latency_s", model="demo")
        assert forward["count"] >= 1
        assert forward["p50"] is not None

    def test_prometheus_exposition_over_http(self, server):
        host, port = server.server_address[:2]
        with urllib.request.urlopen(f"http://{host}:{port}/metrics?format=prom") as response:
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = response.read().decode("utf-8")
        assert "# TYPE serve_http_requests_total counter" in text
        with urllib.request.urlopen(
            urllib.request.Request(
                f"http://{host}:{port}/metrics", headers={"Accept": "text/plain"}
            )
        ) as response:
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE

    def test_admin_evict_and_load_round_trip(self, client, images):
        client.predict(images[:1])  # ensure resident
        evicted = client.evict("demo")
        assert evicted["ok"] is True and evicted["was_loaded"] is True
        loaded = {entry["name"]: entry["loaded"] for entry in client.models()["models"]}
        assert loaded["demo"] is False
        warmed = client.load("demo")
        assert warmed["ok"] is True
        loaded = {entry["name"]: entry["loaded"] for entry in client.models()["models"]}
        assert loaded["demo"] is True
        with pytest.raises(ServingError) as info:
            client.evict("ghost")
        assert info.value.status == 404


class TestDrainHTTP:
    def test_drain_reports_202_then_draining_healthz(self, tmp_path_factory):
        artifact = make_artifact(tmp_path_factory)
        store = ModelStore(capacity=1)
        store.register("demo", artifact)
        server = create_server(store, "demo", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            client = HTTPClient(f"http://{host}:{port}", retry=RetryPolicy(attempts=1))
            drained = threading.Event()
            server.on_drain = drained.set
            assert client.drain()["status"] == "draining"
            assert drained.wait(5.0), "drain hook never fired"
            health = client.healthz()
            assert health["status"] == "draining"
            assert health["draining"] is True
            with pytest.raises(ServingError) as info:
                client.predict(np.zeros((1, 3, 16, 16)))
            assert info.value.status == 503
            assert info.value.retryable
        finally:
            server.shutdown()
            server.server_close()
            store.close()
