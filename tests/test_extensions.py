"""Tests for the extension features beyond the paper's core pipeline:
the black-box square attack, free adversarial training, and the
random-mask baseline ticket."""

import numpy as np
import pytest

from repro.attacks.square import SquareAttackConfig, square_attack
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18
from repro.pruning.random_mask import random_mask
from repro.tensor import Tensor, cross_entropy, no_grad
from repro.training.evaluation import evaluate_accuracy
from repro.training.free import FreeAdversarialTrainer
from repro.training.trainer import Trainer, TrainerConfig
from repro.utils.seeding import seeded_rng


def small_classifier(num_classes: int, seed: int = 0) -> ClassifierHead:
    return ClassifierHead(resnet18(base_width=4, seed=seed), num_classes=num_classes, seed=seed + 1)


class TestSquareAttack:
    def test_perturbation_bounded_and_clipped(self, tiny_classifier, small_batch):
        images, labels = small_batch
        config = SquareAttackConfig(epsilon=0.05, iterations=10)
        adversarial = square_attack(
            tiny_classifier, images, labels % 6, config=config, rng=seeded_rng(0)
        )
        assert adversarial.shape == images.shape
        assert np.abs(adversarial - images).max() <= 0.05 + 1e-12
        assert adversarial.min() >= 0.0 and adversarial.max() <= 1.0

    def test_zero_budget_is_identity(self, tiny_classifier, small_batch):
        images, labels = small_batch
        config = SquareAttackConfig(epsilon=0.0, iterations=10)
        np.testing.assert_array_equal(
            square_attack(tiny_classifier, images, labels % 6, config=config), images
        )

    def test_loss_does_not_decrease(self, tiny_classifier, small_batch):
        images, labels = small_batch
        labels = labels % 6
        tiny_classifier.eval()
        with no_grad():
            clean_loss = cross_entropy(tiny_classifier(Tensor(images)), labels).item()
        adversarial = square_attack(
            tiny_classifier,
            images,
            labels,
            config=SquareAttackConfig(epsilon=0.08, iterations=15),
            rng=seeded_rng(1),
        )
        with no_grad():
            attacked_loss = cross_entropy(tiny_classifier(Tensor(adversarial)), labels).item()
        assert attacked_loss >= clean_loss - 1e-6

    def test_square_side_shrinks(self):
        config = SquareAttackConfig(iterations=10, initial_fraction=0.5)
        assert config.square_side(0, 16) >= config.square_side(9, 16)
        assert config.square_side(9, 16) >= 1


class TestFreeAdversarialTraining:
    def test_trains_and_reduces_loss(self, toy_dataset):
        model = small_classifier(2)
        trainer = FreeAdversarialTrainer(
            model,
            TrainerConfig(epochs=2, learning_rate=0.05, batch_size=16, seed=0),
            epsilon=0.03,
            replays=2,
        )
        history = trainer.fit(toy_dataset)
        losses = history.series("train_loss")
        assert losses[-1] < losses[0] + 0.5

    def test_reaches_nontrivial_accuracy(self, toy_dataset):
        model = small_classifier(2)
        trainer = FreeAdversarialTrainer(
            model, TrainerConfig(epochs=3, learning_rate=0.08, batch_size=16, seed=0), epsilon=0.02, replays=2
        )
        trainer.fit(toy_dataset)
        assert evaluate_accuracy(model, toy_dataset) > 0.6

    def test_validation(self, toy_dataset):
        with pytest.raises(ValueError):
            FreeAdversarialTrainer(small_classifier(2), epsilon=-0.1)
        with pytest.raises(ValueError):
            FreeAdversarialTrainer(small_classifier(2), replays=0)

    def test_comparable_cost_to_natural_training(self, toy_dataset):
        """Free AT with m replays runs m optimizer steps per batch, not m attacks."""
        model = small_classifier(2)
        trainer = FreeAdversarialTrainer(
            model, TrainerConfig(epochs=1, batch_size=16, seed=0), epsilon=0.03, replays=3
        )
        history = trainer.fit(toy_dataset)
        assert len(history.series("train_loss")) == 1  # one epoch logged


class TestRandomMaskBaseline:
    def test_sparsity_close_to_target(self):
        model = resnet18(base_width=4, seed=0)
        mask = random_mask(model, sparsity=0.7, rng=seeded_rng(0))
        assert mask.sparsity() == pytest.approx(0.7, abs=0.05)

    def test_structured_random_mask(self):
        model = resnet18(base_width=4, seed=0)
        mask = random_mask(model, sparsity=0.5, rng=seeded_rng(0), granularity="channel")
        # Whole filters are kept or dropped together.
        name = mask.names()[0]
        per_filter = mask[name].reshape(mask[name].shape[0], -1)
        assert all(len(np.unique(row)) == 1 for row in per_filter)

    def test_different_seeds_differ(self):
        model = resnet18(base_width=4, seed=0)
        a = random_mask(model, 0.5, seeded_rng(1))
        b = random_mask(model, 0.5, seeded_rng(2))
        assert a.overlap(b) < 0.999

    def test_random_mask_ignores_magnitudes(self):
        """Unlike magnitude pruning, kept and pruned weights have similar |w|."""
        model = resnet18(base_width=4, seed=0)
        mask = random_mask(model, sparsity=0.5, rng=seeded_rng(3))
        parameters = dict(model.named_parameters())
        name = max(mask.names(), key=lambda n: parameters[n].size)
        weight = np.abs(parameters[name].data)
        kept_mean = weight[mask[name] == 1].mean()
        pruned_mean = weight[mask[name] == 0].mean()
        assert kept_mean == pytest.approx(pruned_mean, rel=0.25)

    def test_validation(self):
        model = resnet18(base_width=4, seed=0)
        with pytest.raises(ValueError):
            random_mask(model, sparsity=1.0, rng=seeded_rng(0))
        with pytest.raises(ValueError):
            random_mask(model, sparsity=0.5, rng=seeded_rng(0), granularity="block")

    def test_usable_for_training(self, toy_dataset):
        model = small_classifier(2)
        mask = random_mask(model, sparsity=0.5, rng=seeded_rng(0))
        trainer = Trainer(model, TrainerConfig(epochs=1, batch_size=16, seed=0), mask=mask)
        trainer.fit(toy_dataset)
        parameters = dict(model.named_parameters())
        for name in mask.names():
            zeros = parameters[name].data[mask[name] == 0]
            np.testing.assert_allclose(zeros, 0.0, atol=1e-12)
