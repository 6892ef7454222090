"""Unit tests for FGSM, PGD, and randomized smoothing."""

import numpy as np
import pytest

from repro.attacks.fgsm import fgsm_attack
from repro.attacks.pgd import PGDConfig, pgd_attack
from repro.attacks.smoothing import (
    RandomizedSmoothing,
    _binomial_lower_bound,
    certified_accuracy_curve,
    gaussian_augment,
)
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18
from repro.nn.module import Module
from repro.tensor import Tensor, cross_entropy, default_dtype, default_dtype_scope, no_grad
from repro.utils.seeding import seeded_rng


class TestFGSM:
    def test_perturbation_bounded_and_clipped(self, tiny_classifier, small_batch):
        images, labels = small_batch
        adversarial = fgsm_attack(tiny_classifier, images, labels % 6, epsilon=0.05)
        assert adversarial.shape == images.shape
        assert np.abs(adversarial - images).max() <= 0.05 + 1e-12
        assert adversarial.min() >= 0.0 and adversarial.max() <= 1.0

    def test_zero_epsilon_is_identity(self, tiny_classifier, small_batch):
        images, labels = small_batch
        adversarial = fgsm_attack(tiny_classifier, images, labels % 6, epsilon=0.0)
        np.testing.assert_array_equal(adversarial, images)

    def test_negative_epsilon_rejected(self, tiny_classifier, small_batch):
        images, labels = small_batch
        with pytest.raises(ValueError):
            fgsm_attack(tiny_classifier, images, labels % 6, epsilon=-0.1)

    def test_does_not_leave_parameter_gradients(self, tiny_classifier, small_batch):
        images, labels = small_batch
        fgsm_attack(tiny_classifier, images, labels % 6, epsilon=0.03)
        assert all(parameter.grad is None for parameter in tiny_classifier.parameters())


class TestPGD:
    def test_config_default_step_size(self):
        config = PGDConfig(epsilon=0.1, steps=5)
        assert config.resolved_step_size() == pytest.approx(0.05)
        assert PGDConfig(epsilon=0.1, step_size=0.02).resolved_step_size() == 0.02

    def test_perturbation_bounded(self, tiny_classifier, small_batch):
        images, labels = small_batch
        config = PGDConfig(epsilon=0.04, steps=3)
        adversarial = pgd_attack(tiny_classifier, images, labels % 6, config, rng=seeded_rng(0))
        assert np.abs(adversarial - images).max() <= 0.04 + 1e-12
        assert adversarial.min() >= 0.0 and adversarial.max() <= 1.0

    def test_zero_steps_or_epsilon_is_identity(self, tiny_classifier, small_batch):
        images, labels = small_batch
        identity = pgd_attack(tiny_classifier, images, labels % 6, PGDConfig(epsilon=0.0, steps=5))
        np.testing.assert_array_equal(identity, images)

    def test_attack_increases_loss(self, tiny_classifier, small_batch):
        images, labels = small_batch
        labels = labels % 6
        tiny_classifier.eval()
        with no_grad():
            clean_loss = cross_entropy(tiny_classifier(Tensor(images)), labels).item()
        adversarial = pgd_attack(
            tiny_classifier, images, labels, PGDConfig(epsilon=0.1, steps=5), rng=seeded_rng(1)
        )
        with no_grad():
            adversarial_loss = cross_entropy(tiny_classifier(Tensor(adversarial)), labels).item()
        assert adversarial_loss >= clean_loss - 1e-6

    def test_pgd_stronger_than_fgsm_or_equal(self, tiny_classifier, small_batch):
        images, labels = small_batch
        labels = labels % 6
        tiny_classifier.eval()
        fgsm = fgsm_attack(tiny_classifier, images, labels, epsilon=0.06)
        pgd = pgd_attack(
            tiny_classifier,
            images,
            labels,
            PGDConfig(epsilon=0.06, steps=7, random_start=False),
            rng=seeded_rng(2),
        )
        with no_grad():
            fgsm_loss = cross_entropy(tiny_classifier(Tensor(fgsm)), labels).item()
            pgd_loss = cross_entropy(tiny_classifier(Tensor(pgd)), labels).item()
        assert pgd_loss >= fgsm_loss - 0.05

    def test_parameter_gradients_cleared(self, tiny_classifier, small_batch):
        images, labels = small_batch
        pgd_attack(tiny_classifier, images, labels % 6, PGDConfig(epsilon=0.03, steps=2))
        assert all(parameter.grad is None for parameter in tiny_classifier.parameters())


ATTACKS = {
    "fgsm": lambda model, images, labels: fgsm_attack(model, images, labels, epsilon=0.03),
    "pgd": lambda model, images, labels: pgd_attack(
        model, images, labels, PGDConfig(epsilon=0.03, steps=3), rng=seeded_rng(0)
    ),
}


class FailingForward(Module):
    """Wraps a model and raises on its forward number ``fail_at`` (counting from 0)."""

    def __init__(self, model: Module, fail_at: int) -> None:
        super().__init__()
        self.model = model
        self.fail_at = fail_at
        self.calls = 0

    def forward(self, x):
        if self.calls == self.fail_at:
            raise RuntimeError("forward failed mid-attack")
        self.calls += 1
        return self.model(x)


@pytest.mark.parametrize("attack", list(ATTACKS), ids=list(ATTACKS))
class TestAttacksLeaveModelAsFound:
    def test_accumulated_gradients_survive_bit_for_bit(self, attack, tiny_classifier, small_batch):
        images, labels = small_batch
        rng = seeded_rng(3)
        parameters = tiny_classifier.parameters()
        for parameter in parameters:
            parameter.grad = rng.normal(size=parameter.shape)
        sentinels = [parameter.grad.copy() for parameter in parameters]
        ATTACKS[attack](tiny_classifier, images, labels % 6)
        for parameter, sentinel in zip(parameters, sentinels):
            assert parameter.grad is not None
            assert parameter.grad.tobytes() == sentinel.tobytes()

    def test_frozen_parameters_stay_frozen(self, attack, tiny_classifier, small_batch):
        images, labels = small_batch
        flags = freeze_every_other_parameter(tiny_classifier)
        ATTACKS[attack](tiny_classifier, images, labels % 6)
        assert [parameter.requires_grad for parameter in tiny_classifier.parameters()] == flags

    def test_flags_restored_when_the_forward_raises(self, attack, tiny_classifier, small_batch):
        images, labels = small_batch
        flags = freeze_every_other_parameter(tiny_classifier)
        # PGD fails on its second step, after one full forward and backward.
        failing = FailingForward(tiny_classifier, fail_at=1 if attack == "pgd" else 0)
        with pytest.raises(RuntimeError, match="mid-attack"):
            ATTACKS[attack](failing, images, labels % 6)
        assert failing.calls == failing.fail_at
        assert [parameter.requires_grad for parameter in tiny_classifier.parameters()] == flags


def freeze_every_other_parameter(model: Module) -> list:
    """Freeze half the parameters, as compacted and LMP models do; return every flag."""
    parameters = model.parameters()
    for parameter in parameters[::2]:
        parameter.requires_grad = False
    flags = [parameter.requires_grad for parameter in parameters]
    assert any(flags) and not all(flags)
    return flags


def reference_pgd(model, images, labels, config, rng):
    """PGD whose backward also computes every parameter's gradient, then drops them."""
    images = np.asarray(images, dtype=default_dtype())
    step_size = config.resolved_step_size()
    delta = rng.uniform(-config.epsilon, config.epsilon, size=images.shape)
    adversarial = np.clip(images + delta.astype(images.dtype, copy=False), 0.0, 1.0)
    for _ in range(config.steps):
        inputs = Tensor(adversarial, requires_grad=True)
        cross_entropy(model(inputs), labels).backward()
        assert all(parameter.grad is not None for parameter in model.parameters())
        adversarial = adversarial + step_size * np.sign(inputs.grad)
        adversarial = np.clip(adversarial, images - config.epsilon, images + config.epsilon)
        adversarial = np.clip(adversarial, 0.0, 1.0)
        model.zero_grad()
    return adversarial


def test_input_only_pgd_matches_full_backward_byte_for_byte(grad_dtype):
    """Dropping the parameter gradients must not change one bit of the attack."""
    with default_dtype_scope(grad_dtype):
        model = ClassifierHead(resnet18(base_width=4, seed=1), num_classes=6, seed=2)
        model.eval()
        rng = seeded_rng(4)
        images = rng.uniform(0.0, 1.0, size=(6, 3, 16, 16))
        labels = rng.integers(0, 6, size=6)
        config = PGDConfig(epsilon=0.03, steps=4)
        assert all(parameter.requires_grad for parameter in model.parameters())
        expected = reference_pgd(model, images, labels, config, seeded_rng(5))
        adversarial = pgd_attack(model, images, labels, config, rng=seeded_rng(5))
    assert adversarial.dtype == expected.dtype == grad_dtype
    assert adversarial.tobytes() == expected.tobytes()
    assert all(parameter.requires_grad for parameter in model.parameters())


class TestGaussianAugment:
    def test_noise_added_and_clipped(self, rng):
        images = rng.uniform(size=(4, 3, 8, 8))
        noisy = gaussian_augment(images, sigma=0.2, rng=rng)
        assert noisy.shape == images.shape
        assert not np.array_equal(noisy, images)
        assert noisy.min() >= 0.0 and noisy.max() <= 1.0

    def test_zero_sigma_identity(self, rng):
        images = rng.uniform(size=(2, 3, 8, 8))
        np.testing.assert_array_equal(gaussian_augment(images, 0.0, rng), images)

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError):
            gaussian_augment(np.zeros((1, 3, 4, 4)), -1.0, rng)


class TestRandomizedSmoothing:
    def test_predict_returns_valid_radius(self, tiny_classifier, small_batch):
        images, _ = small_batch
        smoother = RandomizedSmoothing(tiny_classifier, sigma=0.1, num_samples=16)
        result = smoother.predict(images[0], rng=seeded_rng(0))
        assert result.certified_radius >= 0.0
        assert isinstance(result.prediction, int)

    def test_certify_batch_shapes(self, tiny_classifier, small_batch):
        images, _ = small_batch
        smoother = RandomizedSmoothing(tiny_classifier, sigma=0.1, num_samples=8)
        predictions, radii = smoother.certify_batch(images[:3], rng=seeded_rng(0))
        assert predictions.shape == (3,) and radii.shape == (3,)
        assert np.all(radii >= 0.0)

    def test_constructor_validation(self, tiny_classifier):
        with pytest.raises(ValueError):
            RandomizedSmoothing(tiny_classifier, sigma=0.0)
        with pytest.raises(ValueError):
            RandomizedSmoothing(tiny_classifier, sigma=0.1, num_samples=1)

    def test_certified_accuracy_curve_monotone(self, tiny_classifier, small_batch):
        images, labels = small_batch
        smoother = RandomizedSmoothing(tiny_classifier, sigma=0.1, num_samples=8)
        curve = certified_accuracy_curve(
            smoother, images[:4], labels[:4] % 6, radii=(0.0, 0.1, 0.5), rng=seeded_rng(0)
        )
        values = [curve[r] for r in sorted(curve)]
        assert all(0.0 <= value <= 1.0 for value in values)
        # Certified accuracy can only decrease as the required radius grows.
        assert all(later <= earlier + 1e-12 for earlier, later in zip(values, values[1:]))

    def test_binomial_lower_bound_properties(self):
        assert _binomial_lower_bound(0, 10, 0.05) == 0.0
        assert 0.0 < _binomial_lower_bound(10, 10, 0.05) < 1.0
        assert _binomial_lower_bound(5, 10, 0.05) < 0.5
        # More successes -> larger lower bound.
        assert _binomial_lower_bound(9, 10, 0.05) > _binomial_lower_bound(6, 10, 0.05)
