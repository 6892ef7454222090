"""Tests for the supervised multi-process shard pool (``repro.serve.fleet``).

Covers the length-prefixed wire protocol (framing, CRC integrity,
desynchronisation detection), the deterministic chaos-spec parser, and
the supervisor's failure taxonomy end to end with real worker
processes: byte-identical serving, zero-loss failover when a shard is
killed mid-batch (every orphaned request re-routed exactly once), the
crash-loop circuit breaker, bounded-admission backpressure surfacing as
``503`` + ``Retry-After`` over HTTP, heartbeat-stall detection, CRC
failover on corrupted replies, and graceful drain on close.  The HTTP
contract the fleet shares with in-process serving is tested once, for
both backends, in ``test_serve.py``.

Worker processes warm-spawn a real engine (~2s each), so fleets are
booted sparingly: one shared no-chaos fleet serves the routing tests,
and each failure scenario boots exactly one small fleet of its own.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import zipfile

import numpy as np
import pytest

from repro.analysis.engine import lint_paths
from repro.core.tickets import Ticket
from repro.models.resnet import resnet18
from repro.pruning.mask import magnitude_mask
from repro.serve.artifact import export_artifact
from repro.serve.client import HTTPClient, RetryPolicy
from repro.serve.engine import EngineConfig, ServingEngine
from repro.serve.errors import RETRY_AFTER_S, ServingError
from repro.serve.fleet import chaos as chaos_mod
from repro.serve.fleet.protocol import (
    ConnectionClosed,
    ProtocolError,
    decode_array,
    encode_array,
    recv_message,
    send_message,
)
from repro.serve.fleet.supervisor import (
    FleetConfig,
    FleetSaturatedError,
    FleetSupervisor,
    FleetUnavailableError,
    WorkerError,
)
from repro.serve.http import create_server
from repro.utils.seeding import seeded_rng

#: Coalescing changes the GEMM batch shape, so concurrent results may
#: differ from the serial forward in the last float64 bit; anything
#: beyond this is a routing/fan-out bug, not rounding.
COALESCE_ATOL = 1e-9


def make_artifact(path: str) -> str:
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
    return export_artifact(ticket, path, num_classes=5, seed=3)


@pytest.fixture(scope="module")
def sealed(tmp_path_factory):
    return make_artifact(str(tmp_path_factory.mktemp("fleet") / "model.npz"))


@pytest.fixture(scope="module")
def images():
    return seeded_rng(11).uniform(0.0, 1.0, size=(8, 3, 16, 16))


@pytest.fixture(scope="module")
def expected(sealed, images):
    """Per-row serial reference: what single-process serving answers."""
    with ServingEngine(sealed) as engine:
        return np.concatenate([engine.predict(images[i][None]) for i in range(len(images))])


@pytest.fixture(scope="module")
def fleet(sealed):
    """One healthy two-shard pool shared by the non-chaos tests."""
    with FleetSupervisor({"model": sealed}, FleetConfig(shards=2)) as pool:
        yield pool


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestProtocol:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_array_round_trip(self, dtype):
        array = seeded_rng(0).standard_normal((3, 4)).astype(dtype)
        header, payload = encode_array(array)
        rebuilt = decode_array(header, payload)
        assert rebuilt.dtype == array.dtype
        np.testing.assert_array_equal(rebuilt, array)

    def test_empty_array_round_trip(self):
        array = np.zeros((0, 5))
        header, payload = encode_array(array)
        assert decode_array(header, payload).shape == (0, 5)

    def test_corrupted_payload_fails_crc(self):
        header, payload = encode_array(np.ones((2, 2)))
        corrupted = bytes([payload[0] ^ 0xFF]) + payload[1:]
        with pytest.raises(ProtocolError, match="CRC32"):
            decode_array(header, corrupted)

    def test_size_mismatch_rejected(self):
        header, payload = encode_array(np.ones((2, 2)))
        header = dict(header, shape=[3, 3], crc=None)
        with pytest.raises(ProtocolError, match="bytes"):
            decode_array(header, payload)

    def test_socket_round_trip_and_eof(self):
        left, right = socket.socketpair()
        try:
            meta, payload = encode_array(np.arange(6.0).reshape(2, 3))
            send_message(left, {"kind": "result", "id": 7, **meta}, payload)
            header, body = recv_message(right)
            assert header["kind"] == "result" and header["id"] == 7
            np.testing.assert_array_equal(
                decode_array(header, body), np.arange(6.0).reshape(2, 3)
            )
            left.close()
            with pytest.raises(ConnectionClosed):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_desynchronised_stream_detected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\xff\xff\xff\xff")  # frame length far beyond MAX_FRAME
            with pytest.raises(ProtocolError, match="frame length"):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_header_must_be_object_with_kind(self):
        left, right = socket.socketpair()
        try:
            send_message(left, {"no_kind": True})
            with pytest.raises(ProtocolError, match="kind"):
                recv_message(right)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# Chaos spec parsing
# ----------------------------------------------------------------------
class TestChaosSpec:
    def test_parse_full_spec(self):
        config = chaos_mod.parse_chaos(
            "kill-shard:shard=0,after=5; delay-response:shard=*,ms=25.5,after=2"
        )
        kill, delay = config.hooks
        assert (kill.kind, kill.shard, kill.after) == ("kill-shard", 0, 5)
        assert (delay.kind, delay.shard, delay.ms, delay.after) == (
            "delay-response",
            None,
            25.5,
            2,
        )

    def test_empty_and_none_mean_no_hooks(self):
        assert not chaos_mod.parse_chaos(None)
        assert not chaos_mod.parse_chaos("  ;  ")

    def test_for_shard_filters_and_first_selects(self):
        config = chaos_mod.parse_chaos("kill-shard:shard=1; stall-heartbeat:shard=*")
        zero = config.for_shard(0)
        assert zero.first("kill-shard") is None
        assert zero.first("stall-heartbeat") is not None
        assert config.for_shard(1).first("kill-shard").shard == 1

    @pytest.mark.parametrize(
        "spec",
        [
            "explode-shard:shard=0",
            "kill-shard:shard=0,when=now",
            "kill-shard:shard",
            "kill-shard:after=0",
            "delay-response:ms=-1",
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            chaos_mod.parse_chaos(spec)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(chaos_mod.CHAOS_ENV_VAR, "kill-shard:shard=2")
        assert chaos_mod.chaos_from_env().first("kill-shard").shard == 2
        assert chaos_mod.chaos_from_env("").first("kill-shard") is None

    def test_supervisor_validates_chaos_before_spawning(self, sealed):
        with pytest.raises(ValueError, match="unknown chaos hook"):
            FleetSupervisor({"m": sealed}, FleetConfig(shards=1, chaos="bogus:after=1"))


# ----------------------------------------------------------------------
# Healthy-pool serving (shared fleet)
# ----------------------------------------------------------------------
class TestFleetServing:
    def test_serial_predict_byte_identical(self, fleet, images, expected):
        for index in range(3):
            got = fleet.predict(images[index][None])
            np.testing.assert_array_equal(got, expected[index][None])

    def test_empty_input_keeps_class_dimension(self, fleet):
        assert fleet.predict([]).shape == (0, 5)

    def test_unknown_model_rejected_before_dispatch(self, fleet, images):
        with pytest.raises(KeyError, match="no model named"):
            fleet.predict(images[:1], model="missing")

    def test_bad_shape_reported_as_worker_error(self, fleet):
        with pytest.raises(WorkerError) as info:
            fleet.predict(np.zeros((2, 1, 16, 16)))
        assert info.value.code == "bad-request"
        assert not info.value.retryable

    def test_concurrent_load_zero_loss(self, fleet, images, expected):
        clients, errors, results = 16, [], {}
        before = fleet.stats()

        def client(index: int) -> None:
            try:
                results[index] = fleet.predict(images[index % len(images)][None])
            except BaseException as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for index, logits in results.items():
            np.testing.assert_allclose(
                logits, expected[index % len(images)][None], rtol=0, atol=COALESCE_ATOL
            )
        after = fleet.stats()
        assert after["accepted"] - before["accepted"] == clients
        assert after["completed"] - before["completed"] == clients

    def test_shard_states_snapshot(self, fleet):
        states = fleet.shard_states()
        assert [state["shard"] for state in states] == [0, 1]
        assert all(state["state"] == "live" for state in states)
        assert fleet.health() == {"live": True, "loaded": ["model"], "shards": states}
        assert fleet.names() == ["model"]
        described = fleet.describe()
        assert described[0]["name"] == "model" and described[0]["loaded"]

    def test_metrics_schema_identical_to_in_process(self, fleet, images):
        """The /metrics contract does not change shape behind a fleet.

        A 2-shard fleet snapshot must be the same ``repro-metrics/v1``
        schema an in-process server serves: same format tag, same
        per-kind key sets, and the per-shard worker instruments merged
        into single aggregate series.
        """
        from repro.obs.registry import METRICS_FORMAT, default_registry

        fleet.predict(images[:1])
        snapshot = fleet.metrics_snapshot()
        assert snapshot["format"] == METRICS_FORMAT
        local = default_registry().snapshot()
        kinds: dict = {}
        for source in (snapshot, local):
            for entry in source["instruments"]:
                kinds.setdefault(entry["kind"], set()).add(tuple(sorted(entry)))
        assert all(len(shapes) == 1 for shapes in kinds.values()), kinds
        by_name = {
            (entry["name"], tuple(sorted(entry["labels"].items()))): entry
            for entry in snapshot["instruments"]
        }
        # Supervisor-side series and merged worker-side series coexist.
        accepted = by_name[("fleet_requests_accepted_total", ())]
        assert accepted["value"] >= 1
        model_requests = by_name[("serve_model_requests_total", (("model", "model"),))]
        assert model_requests["value"] >= 1
        # One aggregate series per (name, labels): shards never leak
        # their index into the public schema.
        assert len(by_name) == len(snapshot["instruments"])

    def test_evict_and_load_ack_per_shard(self, fleet, images, expected):
        evicted = fleet.evict("model")
        assert evicted == {"model": "model", "shards": {"0": True, "1": True}, "ok": True}
        assert fleet.loaded() == []
        # Each shard's store reloads the evicted model on demand.
        np.testing.assert_array_equal(fleet.predict(images[:1]), expected[:1])
        warmed = fleet.load("model")
        assert warmed == {"model": "model", "shards": {"0": True, "1": True}, "ok": True}
        assert fleet.loaded() == ["model"]
        with pytest.raises(KeyError, match="no model named"):
            fleet.evict("missing")

    def test_close_is_idempotent_and_final(self, sealed, images):
        pool = FleetSupervisor({"m": sealed}, FleetConfig(shards=1))
        pool.close()
        pool.close()
        with pytest.raises(FleetUnavailableError, match="closed"):
            pool.predict(images[:1])


# ----------------------------------------------------------------------
# Failure modes (one dedicated small fleet per scenario)
# ----------------------------------------------------------------------
class TestFailover:
    def test_shard_killed_mid_coalesced_batch_rerouted_exactly_once(
        self, sealed, images, expected
    ):
        """The headline guarantee: a kill with requests in flight loses none."""
        config = FleetConfig(
            shards=2, chaos="kill-shard:shard=0,after=3", restart_backoff_s=0.05
        )
        with FleetSupervisor({"model": sealed}, config) as pool:
            clients, errors, results = 24, [], {}

            def client(index: int) -> None:
                try:
                    results[index] = pool.predict(images[index % len(images)][None])
                except BaseException as error:  # noqa: BLE001 - collected for the assert
                    errors.append(error)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, f"failover dropped requests: {errors[:3]}"
            for index, logits in results.items():
                np.testing.assert_allclose(
                    logits,
                    expected[index % len(images)][None],
                    rtol=0,
                    atol=COALESCE_ATOL,
                )
            stats = pool.stats()
            assert stats["accepted"] == stats["completed"] == clients
            assert stats["crashes"] >= 1
            assert stats["rerouted"] >= 1
            # Surviving-shard failover lands every orphan on its first
            # re-dispatch: re-routed exactly once, never ping-ponged.
            assert stats["reroutes_max"] == 1
            # Every incarnation that said hello timed its boot: the first
            # boots and each restart, read once no respawn is in flight.
            deadline = time.monotonic() + 60.0
            while any(s["state"] in ("starting", "dead") for s in pool.shard_states()):
                assert time.monotonic() < deadline, pool.shard_states()
                time.sleep(0.05)
            by_name = {entry["name"]: entry for entry in pool.metrics_snapshot()["instruments"]}
            restarts = by_name["fleet_shard_restarts_total"]["value"]
            assert restarts >= 1
            assert by_name["fleet_shard_boot_s"]["count"] == config.shards + restarts

    def test_corrupt_reply_fails_over_instead_of_serving_garbage(
        self, sealed, images, expected
    ):
        # Every worker corrupts its second reply: request 1 warms the
        # preferred shard, request 2 trips its CRC check and must be
        # re-routed to the other (still-clean) shard transparently.
        config = FleetConfig(
            shards=2, chaos="corrupt-reply:shard=*,after=2", restart_backoff_s=0.05
        )
        with FleetSupervisor({"model": sealed}, config) as pool:
            np.testing.assert_array_equal(pool.predict(images[0][None]), expected[0][None])
            got = pool.predict(images[1][None])
            np.testing.assert_array_equal(got, expected[1][None])
            stats = pool.stats()
            assert stats["corrupt_replies"] == 1
            assert stats["crashes"] >= 1
            assert stats["completed"] == 2

    def test_heartbeat_stall_treated_as_death(self, sealed, images, expected):
        # Shard 0 answers one ping then goes silent while still serving:
        # alive-but-wedged.  The monitor must declare it dead once the
        # pong deadline passes and keep the pool serving via shard 1.
        config = FleetConfig(
            shards=2,
            chaos="stall-heartbeat:shard=0,after=1",
            heartbeat_interval_s=0.1,
            heartbeat_timeout_s=0.4,
            restart_backoff_s=0.05,
        )
        with FleetSupervisor({"model": sealed}, config) as pool:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if pool.stats()["heartbeat_deaths"] >= 1:
                    break
                time.sleep(0.05)
            stats = pool.stats()
            assert stats["heartbeat_deaths"] >= 1, f"stalled shard never declared dead: {stats}"
            got = pool.predict(images[2][None], timeout=30.0)
            np.testing.assert_allclose(
                got, expected[2][None], rtol=0, atol=COALESCE_ATOL
            )

    def test_crash_loop_breaker_trips_after_max_restarts(self, sealed, images):
        # A poisoned single-shard pool: the worker dies on every predict.
        # After max_restarts crashes inside the window the breaker opens
        # and the parked request fails cleanly instead of looping forever.
        config = FleetConfig(
            shards=1,
            chaos="kill-shard:shard=0,after=1",
            max_restarts=1,
            restart_backoff_s=0.02,
        )
        with FleetSupervisor({"model": sealed}, config) as pool:
            with pytest.raises(FleetUnavailableError, match="breaker"):
                pool.predict(images[:1], timeout=120.0)
            assert pool.stats()["crashes"] >= 2
            assert [slot["state"] for slot in pool.shard_states()] == ["failed"]
            # Fast-fail from then on: no shard can ever take the work.
            with pytest.raises(FleetUnavailableError):
                pool.predict(images[:1])

    def test_backpressure_rejects_then_recovers_and_maps_to_http_503(
        self, sealed, images, expected
    ):
        # One shard, one admission slot, and slowed replies: the second
        # concurrent request must be rejected with the Retry-After hint
        # (and over HTTP as 503), then succeed once the pool drains.
        config = FleetConfig(
            shards=1,
            chaos="delay-response:shard=*,ms=700",
            max_pending_per_shard=1,
        )
        with FleetSupervisor({"model": sealed}, config) as pool:
            server = create_server(pool, "model")
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            host, port = server.server_address[:2]
            http = HTTPClient(f"http://{host}:{port}", retry=RetryPolicy(attempts=1))
            try:
                in_flight = threading.Thread(
                    target=pool.predict, args=(images[0][None],), kwargs={"timeout": 30.0}
                )
                in_flight.start()
                time.sleep(0.2)  # let the slow request occupy the only slot
                with pytest.raises(FleetSaturatedError) as info:
                    pool.predict(images[1][None])
                assert info.value.retry_after == RETRY_AFTER_S
                with pytest.raises(ServingError) as http_info:
                    http.predict(images[1][None])
                assert http_info.value.status == 503
                assert http_info.value.retryable
                assert http_info.value.retry_after == RETRY_AFTER_S
                in_flight.join()
                # Recovery: the slot freed, admission opens again.
                got = pool.predict(images[1][None], timeout=30.0)
                np.testing.assert_allclose(
                    got, expected[1][None], rtol=0, atol=COALESCE_ATOL
                )
                assert pool.stats()["rejected"] >= 2
            finally:
                http.close()
                server.shutdown()
                server.server_close()

    def test_shard_that_dies_before_its_hello_fails_the_boot_at_once(self, sealed, tmp_path):
        # The header and masks still pass ``read_artifact_meta``, but the
        # worker's load fails on the missing weight and it exits at once.
        # The spawn must end there, not after the whole spawn timeout.
        broken = str(tmp_path / "broken.npz")
        with zipfile.ZipFile(sealed) as source, zipfile.ZipFile(broken, "w") as target:
            for member in source.infolist():
                if member.filename != "state./backbone.conv1.weight.npy":
                    target.writestr(member, source.read(member))
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="no shard survived boot"):
            FleetSupervisor({"ticket": broken}, FleetConfig(shards=1))
        assert time.monotonic() - started < 30.0

    def test_close_during_load_never_hangs_a_caller(self, sealed, images):
        config = FleetConfig(shards=2, chaos="delay-response:shard=*,ms=300")
        pool = FleetSupervisor({"model": sealed}, config)
        outcomes: list = []

        def client(index: int) -> None:
            try:
                outcomes.append(("ok", pool.predict(images[index % len(images)][None])))
            except FleetUnavailableError as error:
                outcomes.append(("closed", error))

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        time.sleep(0.15)
        pool.close()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "a caller hung across close()"
        assert len(outcomes) == 8
        for kind, value in outcomes:
            if kind == "ok":
                assert value.shape == (1, 5)


# ----------------------------------------------------------------------
# Static analysis coverage
# ----------------------------------------------------------------------
class TestLockDisciplineCoverage:
    def test_fleet_package_is_lint_clean(self):
        """Supervisor state stays behind its lock (and every other rule).

        The lock-discipline rule guards every attribute the supervisor
        mutates under ``self._lock`` — reads included — so this check
        failing means a new code path touched pool state lock-free.
        """
        root = os.path.join(os.path.dirname(__file__), "..", "src", "repro", "serve")
        findings = lint_paths([os.path.normpath(root)])
        assert findings == [], [str(finding) for finding in findings]
