"""Tests for repro.bench: registry, harness, baselines, comparator, CLI."""

import dataclasses
import itertools
import json
import time

import pytest

from repro.bench import specs as bench_specs
from repro.bench.baseline import Baseline, BaselineStore
from repro.bench.calibrate import Calibration, calibrate
from repro.bench.cli import main as bench_main
from repro.bench.compare import (
    compare_artifact,
    compare_measurement,
    has_regression,
    render_verdicts,
)
from repro.bench.harness import (
    ARTIFACT_FORMAT,
    artifact_calibration,
    artifact_results,
    load_artifact,
    measure,
    run_suite,
)
from repro.bench.spec import (
    BENCHMARKS,
    SUITES,
    BenchSpec,
    available_benchmarks,
    get_bench,
    register,
    suite_benchmarks,
)
from repro.tensor import sparse as tensor_sparse
from repro.utils.checkpoint import write_json

#: A deterministic fake machine speed: one unit == one millisecond.
UNIT = Calibration(unit_s=1e-3, spin_s=1e-3, blas_s=1e-3)


def _spec(name="test.cheap", payload=None, **overrides):
    def default_payload(state):
        return None

    options = dict(
        name=name,
        title=name,
        setup=lambda: {},
        payload=payload if payload is not None else default_payload,
        warmup=0,
        repeats=3,
    )
    options.update(overrides)
    return BenchSpec(**options)


@pytest.fixture
def temp_register():
    """Register throwaway specs; always unregister afterwards."""
    created = []

    def factory(spec):
        register(spec)
        created.append(spec.name)
        return spec

    yield factory
    for name in created:
        BENCHMARKS.pop(name, None)


# ----------------------------------------------------------------------
# Registry and spec validation
# ----------------------------------------------------------------------
def test_registry_names_and_suites():
    names = available_benchmarks()
    assert len(names) == len(set(names))
    assert names, "the built-in spec table must register benchmarks"
    for name in names:
        spec = get_bench(name)
        assert set(spec.suites) <= set(SUITES)
    smoke = {spec.name for spec in suite_benchmarks("smoke")}
    assert smoke <= set(names)
    # Every serving/engine/tensor hot path the issue names is covered.
    covered = {name.split(".")[0] for name in names}
    assert {"tensor", "engine", "core", "serve", "pruning"} <= covered


def test_register_rejects_duplicates(temp_register):
    spec = temp_register(_spec("test.dup"))
    with pytest.raises(ValueError, match="already registered"):
        register(spec)


def test_get_bench_unknown_name():
    with pytest.raises(KeyError, match="unknown benchmark"):
        get_bench("no.such.bench")


def test_suite_benchmarks_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        suite_benchmarks("nightly")


@pytest.mark.parametrize(
    "overrides",
    [
        {"name": "has space"},
        {"name": ""},
        {"suites": ("smoke", "nightly")},
        {"suites": ()},
        {"repeats": 0},
        {"warmup": -1},
        {"tolerance": 0.0},
        {"timebase": "cycles"},
        {"bounds": (("rows", ">=", 1.0),)},
        {"metrics": ("rows",), "bounds": (("rows", "=>", 1.0),)},
    ],
)
def test_spec_validation(overrides):
    with pytest.raises(ValueError):
        _spec(**overrides)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def test_measure_reports_wall_stats_and_units():
    result = measure(_spec(payload=lambda state: time.sleep(0.001), repeats=5), UNIT)
    assert set(result.wall_s) == {"median", "min", "mean", "max"}
    assert result.wall_s["min"] <= result.wall_s["median"] <= result.wall_s["max"]
    assert result.units == pytest.approx(result.wall_s["median"] / UNIT.unit_s)
    assert result.units >= 1.0  # slept >= 1ms on a 1ms unit


def test_measure_validates_metric_schema():
    good = _spec(payload=lambda state: {"rows": 4, "extra": 1}, metrics=("rows",))
    assert measure(good, UNIT).metrics == {"rows": 4}
    with pytest.raises(TypeError, match="not a dict"):
        measure(_spec(payload=lambda state: None, metrics=("rows",)), UNIT)
    with pytest.raises(KeyError, match="omitted declared metrics"):
        measure(_spec(payload=lambda state: {"other": 1}, metrics=("rows",)), UNIT)


def _bounded_spec(values, bound, warmup=0, **overrides):
    """A spec whose payload reports ``values`` in turn as its ``speedup``."""
    reported = iter(values)
    return _spec(
        payload=lambda state: {"speedup": next(reported)},
        metrics=("speedup",),
        bounds=(bound,),
        warmup=warmup,
        repeats=len(values) - warmup,
        **overrides,
    )


def test_measure_records_a_broken_bound_on_any_call():
    # The warmup call is checked too, and the note names the call, the
    # metric, its value and the bound.
    spec = _bounded_spec([1.4, 2.0, 2.0], ("speedup", ">=", 1.5), warmup=1)
    result = measure(spec, UNIT)
    assert result.violations == ["call 1 of 3: speedup = 1.4 breaks speedup >= 1.5"]
    assert result.metrics == {"speedup": 2.0}
    assert not measure(_bounded_spec([2.0, 2.0], ("speedup", ">=", 1.5)), UNIT).violations


def test_bounds_compare_exactly_at_the_threshold():
    # A value exactly at a >= floor passes, exactly at a < ceiling
    # fails, and nothing is rounded on the way (1.4999 is not 1.5).
    assert not measure(_bounded_spec([1.5], ("speedup", ">=", 1.5)), UNIT).violations
    assert measure(_bounded_spec([1.4999], ("speedup", ">=", 1.5)), UNIT).violations
    assert measure(_bounded_spec([2.0], ("speedup", "<", 2.0)), UNIT).violations
    assert not measure(_bounded_spec([1.9999], ("speedup", "<", 2.0)), UNIT).violations


@pytest.mark.parametrize(
    "name, bound",
    [
        ("sparse.compact_inference", ("speedup", ">=", 1.5)),
        ("serve.engine_batching", ("speedup", ">=", 2.0)),
        ("serve.metrics_overhead", ("overhead_pct", "<", 2.0)),
        ("serve.fleet_resilience", ("latency_p99_ms", "<=", 15_000.0)),
        ("engine.float32_speedup", ("speedup", ">=", 1.5)),
        ("sparse.csr_matmul", ("threshold_losses", "<=", 0)),
    ],
)
def test_host_timing_contracts_keep_their_bounds(name, bound):
    # Each was an in-payload (or in-test) assertion, now a bound with
    # this metric, comparison and threshold; loosening one must fail here.
    assert get_bench(name).bounds == (bound,)


# ----------------------------------------------------------------------
# sparse.csr_matmul: the dispatch threshold's contract as a bound
# ----------------------------------------------------------------------
CSR_SPEC = "sparse.csr_matmul"


@pytest.fixture
def csr_grid(monkeypatch):
    """Make ``sparse.csr_matmul`` read the given dense/CSR ratios.

    The payload times dense, then CSR, at each grid point in order; the
    stubbed ``best_wall`` answers with the ratio, then 1.0, so no GEMM
    runs and every call reads the same grid.  The backend reads as
    scipy, the one the contract covers.
    """
    monkeypatch.setattr(tensor_sparse, "sparse_backend", lambda: "scipy")

    def stub(speedups):
        walls = itertools.cycle([wall for ratio in speedups for wall in (ratio, 1.0)])
        monkeypatch.setattr(bench_specs, "best_wall", lambda work, repeats: next(walls))

    return stub


def _csr_contract(state=None):
    """One payload call's metrics and the bounds they break."""
    spec = get_bench(CSR_SPEC)
    metrics = spec.payload(state if state is not None else spec.setup())
    return metrics, spec.violations(metrics)


def test_csr_loss_above_the_threshold_breaks_the_bound(csr_grid):
    # A 2-core host's grid: CSR wins only at 0.98, so the 0.95 point
    # that the 0.92 threshold dispatches loses.  Every call is checked,
    # and each ratio stays in the result unrounded.
    csr_grid([0.0613, 0.3187, 0.5237, 1.4249])
    result = measure(get_bench(CSR_SPEC), UNIT)
    assert result.violations == [
        f"call {call} of 4: threshold_losses = 1 breaks threshold_losses <= 0"
        for call in (1, 2, 3, 4)
    ]
    assert result.metrics == {
        "crossover": 0.98,
        "threshold_losses": 1,
        "dispatch_threshold": tensor_sparse.DEFAULT_THRESHOLD,
        "speedup_at_50": 0.0613,
        "speedup_at_90": 0.3187,
        "speedup_at_95": 0.5237,
        "speedup_at_98": 1.4249,
        "backend": "scipy",
    }


@pytest.mark.parametrize("threshold, losses", [(0.92, 2), (0.99, 1)])
def test_csr_winning_nowhere_breaks_the_bound(csr_grid, monkeypatch, threshold, losses):
    # Also with a threshold above the grid's top, which admits no point.
    monkeypatch.setattr(tensor_sparse, "DEFAULT_THRESHOLD", threshold)
    csr_grid([0.04, 0.27, 0.46, 0.86])
    metrics, violations = _csr_contract()
    assert metrics["crossover"] == -1.0
    assert metrics["threshold_losses"] == losses
    assert violations == [f"threshold_losses = {losses} breaks threshold_losses <= 0"]


def test_csr_winning_from_the_threshold_up_keeps_the_bound(csr_grid):
    csr_grid([0.2, 0.8, 1.01, 3.5])
    metrics, violations = _csr_contract()
    assert (metrics["crossover"], metrics["threshold_losses"], violations) == (0.95, 0, [])


def test_csr_numpy_backend_is_exempt(csr_grid, monkeypatch):
    # Without scipy, ``auto`` never dispatches, so no threshold can lose.
    monkeypatch.setattr(tensor_sparse, "sparse_backend", lambda: "numpy")
    csr_grid([0.04, 0.27, 0.46, 0.86])
    metrics, violations = _csr_contract()
    assert (metrics["backend"], metrics["threshold_losses"], violations) == ("numpy", 0, [])


def test_csr_bound_breaks_exactly_where_the_old_payload_raised(csr_grid, monkeypatch):
    # The payload used to raise when CSR won nowhere on the grid, or lost
    # (ratio <= 1.0) at a grid point at or above the threshold.
    grid = bench_specs._CSR_GRID
    state = get_bench(CSR_SPEC).setup()
    for threshold in (0.5, 0.92, 0.98, 0.99):
        monkeypatch.setattr(tensor_sparse, "DEFAULT_THRESHOLD", threshold)
        for speedups in itertools.product((0.5, 1.0, 2.0), repeat=len(grid)):
            csr_grid(speedups)
            raised = all(ratio <= 1.0 for ratio in speedups) or any(
                zero_fraction >= threshold and ratio <= 1.0
                for zero_fraction, ratio in zip(grid, speedups)
            )
            _, violations = _csr_contract(state)
            assert bool(violations) == raised, (threshold, speedups)


def test_artifact_round_trip(tmp_path):
    artifact = run_suite([_spec()], suite="smoke", calibration=UNIT)
    path = write_json(str(tmp_path / "run.json"), artifact)
    loaded = load_artifact(path)
    assert loaded["format"] == ARTIFACT_FORMAT
    assert loaded["suite"] == "smoke"
    # Calibration-unit round-trip: the units stored in the artifact must
    # re-derive exactly from the stored wall-times and calibration.
    calibration = artifact_calibration(loaded)
    assert calibration == UNIT
    (result,) = artifact_results(loaded)
    assert result.units == pytest.approx(calibration.units(result.wall_s["median"]))
    assert result.tolerance == _spec().tolerance
    assert result.timebase == "machine"
    assert result.violations == []


def test_artifact_round_trip_keeps_violations(tmp_path):
    artifact = run_suite([_bounded_spec([1.0], ("speedup", ">=", 1.5))], calibration=UNIT)
    path = write_json(str(tmp_path / "run.json"), artifact)
    (result,) = artifact_results(load_artifact(path))
    assert result.violations == ["call 1 of 1: speedup = 1.0 breaks speedup >= 1.5"]
    # An artifact written before bounds existed reads as having none.
    del artifact["results"][0]["violations"]
    (older,) = artifact_results(artifact)
    assert older.violations == []


def test_wall_timebase_skips_calibration_normalisation():
    spec = _spec(payload=lambda state: time.sleep(0.001), timebase="wall")
    result = measure(spec, UNIT)
    # Wall-timebase units are raw seconds, untouched by the (1ms) unit.
    assert result.units == pytest.approx(result.wall_s["median"])
    assert result.timebase == "wall"


def test_load_artifact_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"format": "repro-run/v1"}))
    with pytest.raises(ValueError, match="repro-bench/v1"):
        load_artifact(str(path))


def test_calibrate_measures_positive_unit():
    calibration = calibrate(repeats=1)
    assert calibration.unit_s > 0
    assert calibration.spin_s > 0 and calibration.blas_s > 0
    assert calibration.units(calibration.unit_s) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Comparator edge cases
# ----------------------------------------------------------------------
def test_compare_missing_baseline_is_not_failing():
    verdict = compare_measurement("test.cheap", 1.0, None, tolerance=0.5)
    assert verdict.status == "no_baseline"
    assert not verdict.failing
    assert not has_regression([verdict])


def test_compare_new_spec_against_empty_store(tmp_path):
    artifact = run_suite([_spec()], calibration=UNIT)
    verdicts = compare_artifact(artifact, BaselineStore(str(tmp_path / "none")))
    assert [verdict.status for verdict in verdicts] == ["no_baseline"]


def test_compare_zero_time_measurements():
    # 0 vs 0: both floored, ratio 1.0 — neutral, no division by zero.
    assert compare_measurement("s", 0.0, 0.0, tolerance=0.5).status == "neutral"
    # A zero baseline with real run time is an (enormous) regression.
    assert compare_measurement("s", 1.0, 0.0, tolerance=0.5).status == "regression"
    # A zero run against a real baseline is an improvement.
    assert compare_measurement("s", 0.0, 1.0, tolerance=0.5).status == "improvement"


def test_compare_threshold_boundary_exactly_met():
    # ratio == 1 + tolerance sits on the boundary: still neutral (the
    # regression predicate is strict), one step beyond regresses.
    assert compare_measurement("s", 1.5, 1.0, tolerance=0.5).status == "neutral"
    assert compare_measurement("s", 1.6, 1.0, tolerance=0.5).status == "regression"
    # Mirror boundary on the improvement side.
    assert compare_measurement("s", 0.5, 1.0, tolerance=0.5).status == "neutral"
    assert compare_measurement("s", 0.4, 1.0, tolerance=0.5).status == "improvement"


def test_compare_incompatible_calibration_version(tmp_path):
    artifact = run_suite([_spec()], calibration=UNIT)
    store = BaselineStore(str(tmp_path))
    stale = Calibration(unit_s=1e-3, spin_s=1e-3, blas_s=1e-3, version=UNIT.version + 1)
    store.save(Baseline("test.cheap", units=1.0, wall_s={}, calibration=stale))
    (verdict,) = compare_artifact(artifact, store)
    assert verdict.status == "incomparable"
    assert "version" in verdict.note
    # A stale baseline must not silently stop gating: incomparable
    # fails the gate (CLI and has_regression agree) until re-blessed.
    assert verdict.failing
    assert has_regression([verdict])


def test_compare_timebase_mismatch_is_incomparable(tmp_path):
    artifact = run_suite([_spec(timebase="wall")], calibration=UNIT)
    store = BaselineStore(str(tmp_path))
    store.save(Baseline("test.cheap", units=1.0, wall_s={}, calibration=UNIT,
                        timebase="machine"))
    (verdict,) = compare_artifact(artifact, store)
    assert verdict.status == "incomparable"
    assert "timebase" in verdict.note
    assert verdict.failing


def test_compare_wall_timebase_ignores_calibration_version(tmp_path):
    # A wall-timebase spec compares raw seconds: a baseline blessed
    # under an older calibration workload is still comparable.
    artifact = run_suite([_spec(timebase="wall")], calibration=UNIT)
    store = BaselineStore(str(tmp_path))
    stale = Calibration(unit_s=1e-3, spin_s=1e-3, blas_s=1e-3, version=UNIT.version + 1)
    (result,) = artifact_results(artifact)
    store.save(Baseline("test.cheap", units=result.units, wall_s={}, calibration=stale,
                        timebase="wall"))
    (verdict,) = compare_artifact(artifact, store)
    assert verdict.status == "neutral"


def test_compare_corrupt_committed_baseline_fails_the_gate(tmp_path, temp_register):
    # A baseline file that exists but cannot be parsed must fail the
    # gate loudly, not silently degrade the spec to no_baseline.
    name = "test.corrupt"
    temp_register(_spec(name))
    artifact = run_suite([BENCHMARKS[name]], calibration=UNIT)
    store = BaselineStore(str(tmp_path))
    (tmp_path / f"{name}.json").write_text("{torn")
    (verdict,) = compare_artifact(artifact, store)
    assert verdict.status == "invalid_baseline"
    assert verdict.failing
    assert has_regression([verdict])
    run_path = str(tmp_path / "run.json")
    write_json(run_path, artifact)
    assert bench_main(["compare", run_path, "--baselines", str(tmp_path)]) == 1


def test_compare_fails_a_broken_bound_with_or_without_a_baseline(tmp_path, temp_register):
    name = "test.contract"
    temp_register(_bounded_spec([1.0, 1.0], ("speedup", ">=", 1.5), name=name))
    artifact = run_suite([BENCHMARKS[name]], calibration=UNIT)
    empty, neutral = BaselineStore(str(tmp_path / "none")), BaselineStore(str(tmp_path))
    (result,) = artifact_results(artifact)
    neutral.save(Baseline.from_result(result, UNIT))
    for store in (empty, neutral):
        (verdict,) = compare_artifact(artifact, store)
        assert verdict.status == "contract"
        assert verdict.failing and has_regression([verdict])
        assert "speedup = 1.0 breaks speedup >= 1.5" in verdict.note
        assert verdict.note in render_verdicts([verdict])
    run_path = str(tmp_path / "run.json")
    write_json(run_path, artifact)
    for store in (empty, neutral):
        assert bench_main(["compare", run_path, "--baselines", store.root]) == 1


def test_cli_update_baseline_refuses_a_broken_bound(tmp_path, temp_register, capsys):
    name = "test.unblessable"
    temp_register(_bounded_spec([1.0], ("speedup", ">=", 1.5), name=name))
    run_path = str(tmp_path / "run.json")
    write_json(run_path, run_suite([BENCHMARKS[name]], calibration=UNIT))
    baselines = tmp_path / "baselines"
    assert bench_main(["update-baseline", run_path, "--baselines", str(baselines)]) == 1
    assert "speedup >= 1.5" in capsys.readouterr().err
    assert BaselineStore(str(baselines)).load(name) is None


def test_a_raising_spec_fails_the_gate_and_the_others_still_run(
    tmp_path, temp_register, capsys, monkeypatch
):
    monkeypatch.setattr("repro.bench.harness.calibrate", lambda: UNIT)

    def explode(state):
        raise RuntimeError("threshold admits losing sparsities")

    names = ["test.before", "test.raises", "test.after"]
    temp_register(_spec(names[0]))
    temp_register(_spec(names[1], payload=explode))
    temp_register(_spec(names[2]))
    with pytest.raises(RuntimeError):
        measure(BENCHMARKS[names[1]], UNIT)

    run_path = str(tmp_path / "run.json")
    spec_args = [arg for name in names for arg in ("--spec", name)]
    assert bench_main(["run", *spec_args, "--output", run_path]) == 0
    note = "raised RuntimeError: threshold admits losing sparsities"
    assert note in capsys.readouterr().out
    results = artifact_results(load_artifact(run_path))
    assert [result.spec for result in results] == names
    assert [result.violations for result in results] == [[], [note], []]

    baselines = str(tmp_path / "baselines")
    assert bench_main(["compare", run_path, "--baselines", baselines]) == 1
    out = capsys.readouterr().out
    assert "contract" in out and note in out
    assert bench_main(["update-baseline", run_path, "--baselines", baselines]) == 1
    assert BaselineStore(baselines).load(names[1]) is None


def test_render_verdicts_mentions_every_spec():
    verdicts = [
        compare_measurement("a.fast", 1.0, 1.0, tolerance=0.5),
        compare_measurement("b.new", 1.0, None, tolerance=0.5),
    ]
    text = render_verdicts(verdicts)
    assert "a.fast" in text and "b.new" in text
    assert "neutral" in text and "no_baseline" in text


# ----------------------------------------------------------------------
# Baseline store
# ----------------------------------------------------------------------
def test_baseline_store_round_trip(tmp_path):
    store = BaselineStore(str(tmp_path))
    saved = Baseline("test.cheap", units=2.5, wall_s={"median": 0.0025},
                     calibration=UNIT, source_suite="smoke")
    store.save(saved)
    loaded = store.load("test.cheap")
    assert loaded is not None
    assert loaded.units == saved.units
    assert loaded.calibration == UNIT
    assert loaded.source_suite == "smoke"


def test_baseline_store_misses(tmp_path):
    store = BaselineStore(str(tmp_path))
    assert store.load("test.cheap") is None  # absent directory/file: a miss
    # A file that exists but cannot be parsed raises: corruption of a
    # committed baseline must not read as an ordinary miss.
    (tmp_path / "torn.json").write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        store.load("torn")
    # Foreign canonical results sharing the directory are not baselines.
    (tmp_path / "BENCH_serve.json").write_text(json.dumps({"format": "repro-serve-bench/v1"}))
    with pytest.raises(ValueError, match="baseline"):
        store.load("BENCH_serve")


# ----------------------------------------------------------------------
# CLI: run -> bless -> gate, including a deliberate injected slowdown
# ----------------------------------------------------------------------
def test_cli_gate_detects_injected_slowdown(tmp_path, temp_register, capsys, monkeypatch):
    # Each `run` would measure its own calibration unit, and on a loaded
    # host one unit can read 10x another, which hides the slowdown; pin
    # it so the test sees only the payload.
    monkeypatch.setattr("repro.bench.harness.calibrate", lambda: UNIT)
    name = "test.gate"
    temp_register(_spec(name, payload=lambda state: time.sleep(0.002), tolerance=0.5))
    run_path = str(tmp_path / "run.json")
    baselines = str(tmp_path / "baselines")

    assert bench_main(["run", "--spec", name, "--output", run_path]) == 0
    assert bench_main(["update-baseline", run_path, "--baselines", baselines]) == 0
    assert bench_main(["compare", run_path, "--baselines", baselines]) == 0

    # Inject a deliberate slowdown into the spec's payload, far past the
    # 50% tolerance, and the gate must go red.
    BENCHMARKS[name] = dataclasses.replace(
        BENCHMARKS[name], payload=lambda state: time.sleep(0.02)
    )
    slow_path = str(tmp_path / "slow.json")
    assert bench_main(["run", "--spec", name, "--output", slow_path]) == 0
    assert bench_main(["compare", slow_path, "--baselines", baselines]) == 1
    out = capsys.readouterr().out
    assert "regression" in out and "FAIL" in out

    # Blessing the slowdown makes the same artifact pass again.
    assert bench_main(["update-baseline", slow_path, "--baselines", baselines]) == 0
    assert bench_main(["compare", slow_path, "--baselines", baselines]) == 0


def test_cli_compare_strict_fails_on_missing_baseline(tmp_path, temp_register):
    name = "test.strict"
    temp_register(_spec(name))
    run_path = str(tmp_path / "run.json")
    empty = str(tmp_path / "baselines")
    assert bench_main(["run", "--spec", name, "--output", run_path]) == 0
    assert bench_main(["compare", run_path, "--baselines", empty]) == 0
    assert bench_main(["compare", run_path, "--baselines", empty, "--strict"]) == 1


def test_cli_update_baseline_unknown_spec(tmp_path, temp_register):
    name = "test.unknown"
    temp_register(_spec(name))
    run_path = str(tmp_path / "run.json")
    assert bench_main(["run", "--spec", name, "--output", run_path]) == 0
    code = bench_main(
        ["update-baseline", run_path, "--baselines", str(tmp_path), "--spec", "not.there"]
    )
    assert code == 2


def test_cli_run_rejects_unknown_spec(tmp_path, capsys):
    code = bench_main(["run", "--spec", "no.such.bench", "--output", str(tmp_path / "r.json")])
    assert code == 2
    assert "unknown benchmark spec" in capsys.readouterr().err


def test_cli_run_dedupes_repeated_specs(tmp_path, temp_register):
    name = "test.dedupe"
    temp_register(_spec(name))
    run_path = str(tmp_path / "run.json")
    assert bench_main(["run", "--spec", name, "--spec", name, "--output", run_path]) == 0
    assert [result.spec for result in artifact_results(load_artifact(run_path))] == [name]


def test_cli_list_smoke(capsys):
    assert bench_main(["list", "--suite", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "engine.fused_inference" in out
    assert "serve.microbatch" in out
