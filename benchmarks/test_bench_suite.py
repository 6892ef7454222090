"""Thin pytest runner over the ``repro.bench`` registry.

The timing logic lives in :mod:`repro.bench.harness`; this file only
walks the smoke suite so the registered hot paths stay exercised (their
metric schemas validated, their host-independent checks raised)
whenever the benchmark tree runs under pytest.  A broken declared bound
is recorded on the result, not asserted here: the gating comparison —
bounds and committed baselines — is the CI ``bench-gate`` job
(``python -m repro.bench run | compare``), because shared runners are
too noisy for pass/fail wall-times inside a shared pytest session.
"""

import pytest

from repro.bench.calibrate import calibrate
from repro.bench.harness import artifact_results, measure, run_suite
from repro.bench.spec import suite_benchmarks


@pytest.fixture(scope="module")
def calibration():
    return calibrate()


@pytest.mark.parametrize("spec", suite_benchmarks("smoke"), ids=lambda spec: spec.name)
def test_smoke_spec_measures(spec, calibration):
    result = measure(spec, calibration)
    assert result.spec == spec.name
    assert result.wall_s["median"] > 0
    assert result.units > 0
    assert set(result.metrics) == set(spec.metrics)


def test_run_suite_produces_artifact(calibration):
    specs = suite_benchmarks("smoke")[:1]
    artifact = run_suite(specs, suite="smoke", calibration=calibration)
    assert artifact["format"] == "repro-bench/v1"
    assert [result.spec for result in artifact_results(artifact)] == [specs[0].name]
