"""Engine checks that the registered throughput specs do not make.

The engine's throughput numbers are the registered :mod:`repro.bench`
specs (``engine.*``, ``tensor.*``), which ``test_bench_suite.py`` runs
here and the CI ``bench-gate`` job gates against baselines; the
float32-over-float64 speedup is the bounded ``engine.float32_speedup``
spec.  What stays here is host-independent: Conv+BN fusion must agree
with the unfused model, the engine must ship ``float32``, and the
full-suite-only ResNet-50 training step must still run.
"""

import numpy as np

from repro.bench import best_wall, calibrate, get_bench, measure
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18
from repro.nn.fuse import fuse
from repro.tensor import Tensor, default_dtype, no_grad


def test_resnet50_train_step_throughput():
    """``engine.train_step_resnet50`` is full-suite only, so the smoke run skips it."""
    result = measure(get_bench("engine.train_step_resnet50"), calibrate(repeats=1))
    assert result.units > 0


def test_conv_bn_fusion_speedup():
    """Folding BN into conv must make the eval forward measurably faster.

    Uses the wider backbone (where GEMMs dominate python overhead) and
    checks the direction of effect; fused and unfused logits must agree
    to float32 tolerance, so the speedup is free.
    """
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(32, 3, 16, 16))
    model = ClassifierHead(resnet18(base_width=16, seed=0), num_classes=10, seed=1)
    model.eval()
    fused = fuse(model)

    def forward(module):
        def run():
            with no_grad():
                module(Tensor(images))

        return run

    unfused_time = best_wall(forward(model), repeats=9)
    fused_time = best_wall(forward(fused), repeats=9)
    with no_grad():
        reference = model(Tensor(images)).data
        folded = fused(Tensor(images)).data
    np.testing.assert_allclose(folded, reference, rtol=1e-4, atol=1e-5)
    assert np.array_equal(folded.argmax(axis=1), reference.argmax(axis=1))
    speedup = unfused_time / fused_time
    print(
        f"\nunfused {unfused_time * 1e3:.1f}ms  fused {fused_time * 1e3:.1f}ms  "
        f"speedup {speedup:.2f}x"
    )
    # The numeric-agreement asserts above are the gate; the wall-clock
    # ratio is report-only because scheduler noise on a loaded machine
    # can swamp an effect this small (real measurements see ~1.1-1.3x
    # from folding alone; the rest of the eval-path win comes from the
    # im2col layout).  The bench-gate CI job tracks the fused inference
    # timing against its committed baseline per push.


def test_default_dtype_is_float32():
    """The engine ships single-precision; the registered engine specs measure it."""
    assert default_dtype() == np.float32
