"""Unit tests for iterative magnitude pruning (IMP / A-IMP) and learnable masks (LMP)."""

import numpy as np
import pytest

from repro.attacks.pgd import PGDConfig
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18
from repro.nn.layers import Conv2d, Linear
from repro.pruning.imp import IMPConfig, iterative_magnitude_prune
from repro.pruning.lmp import (
    LMPConfig,
    MaskedConv2d,
    MaskedLinear,
    _topk_binary,
    attach_learnable_masks,
    extract_learned_mask,
    learn_mask,
    straight_through_topk,
)
from repro.tensor import Tensor
from repro.training.trainer import TrainerConfig
from repro.utils.seeding import seeded_rng


def small_classifier(num_classes: int, seed: int = 0) -> ClassifierHead:
    return ClassifierHead(resnet18(base_width=4, seed=seed), num_classes=num_classes, seed=seed + 1)


class TestIMP:
    def test_reaches_target_sparsity(self, toy_dataset):
        model = small_classifier(2)
        config = IMPConfig(
            target_sparsity=0.7,
            iterations=2,
            epochs_per_iteration=1,
            trainer_config=TrainerConfig(epochs=1, batch_size=16, seed=0),
        )
        mask, trajectory = iterative_magnitude_prune(model, toy_dataset, config, seed=0)
        assert mask.sparsity() == pytest.approx(0.7, abs=0.03)
        assert len(trajectory) == 2
        assert trajectory[0] < trajectory[1]

    def test_model_weights_respect_final_mask(self, toy_dataset):
        model = small_classifier(2)
        config = IMPConfig(target_sparsity=0.6, iterations=2, epochs_per_iteration=1)
        mask, _ = iterative_magnitude_prune(model, toy_dataset, config, seed=0)
        parameters = dict(model.named_parameters())
        for name in mask.names():
            zeros = parameters[name].data[mask[name] == 0]
            np.testing.assert_allclose(zeros, 0.0, atol=1e-12)

    def test_adversarial_variant_runs(self, toy_dataset):
        model = small_classifier(2)
        config = IMPConfig(
            target_sparsity=0.5,
            iterations=1,
            epochs_per_iteration=1,
            adversarial=True,
            attack=PGDConfig(epsilon=0.02, steps=2),
            trainer_config=TrainerConfig(epochs=1, batch_size=16, seed=0),
        )
        mask, _ = iterative_magnitude_prune(model, toy_dataset, config, seed=0)
        assert mask.sparsity() == pytest.approx(0.5, abs=0.03)

    def test_zero_iterations_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            iterative_magnitude_prune(
                small_classifier(2), toy_dataset, IMPConfig(iterations=0), seed=0
            )


class TestTopK:
    def test_exact_count(self, rng):
        values = rng.normal(size=(6, 7))
        for keep in (1, 5, 20, 42):
            mask = _topk_binary(values, keep)
            assert int(mask.sum()) == min(keep, values.size)

    def test_keeps_largest_by_magnitude(self):
        values = np.array([0.1, -5.0, 2.0, -0.3])
        mask = _topk_binary(values, 2)
        np.testing.assert_array_equal(mask, [0.0, 1.0, 1.0, 0.0])

    def test_handles_ties_exactly(self):
        values = np.ones((3, 3))
        mask = _topk_binary(values, 4)
        assert int(mask.sum()) == 4

    def test_zero_keep(self, rng):
        assert _topk_binary(rng.normal(size=(3,)), 0).sum() == 0

    def test_straight_through_gradient(self, rng):
        scores = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        mask = straight_through_topk(scores, keep=8)
        (mask * Tensor(np.full((4, 4), 2.0))).sum().backward()
        np.testing.assert_allclose(scores.grad, 2.0)  # identity backward


class TestMaskedLayers:
    def test_masked_conv_respects_sparsity(self, rng):
        base = Conv2d(3, 4, 3, padding=1, rng=seeded_rng(0))
        masked = MaskedConv2d(base, sparsity=0.75, rng=rng)
        assert masked.keep == max(1, round(base.weight.data.size * 0.25))
        out = masked(Tensor(rng.uniform(size=(2, 3, 8, 8))))
        assert out.shape == (2, 4, 8, 8)
        assert not masked.weight.requires_grad
        assert masked.score.requires_grad

    def test_masked_linear_forward_matches_masked_weight(self, rng):
        base = Linear(6, 3, rng=seeded_rng(0))
        masked = MaskedLinear(base, sparsity=0.5, rng=rng)
        x = rng.normal(size=(4, 6))
        out = masked(Tensor(x)).data
        manual = x @ (masked.weight.data * masked.current_mask()).T + masked.bias.data
        np.testing.assert_allclose(out, manual)

    def test_score_gradients_flow(self, rng):
        base = Linear(5, 2, rng=seeded_rng(0))
        masked = MaskedLinear(base, sparsity=0.5, rng=rng)
        out = masked(Tensor(rng.normal(size=(3, 5))))
        out.sum().backward()
        assert masked.score.grad is not None
        assert masked.weight.grad is None  # frozen


class TestAttachAndLearn:
    def test_attach_replaces_backbone_but_not_head(self):
        model = small_classifier(3)
        replaced = attach_learnable_masks(model, sparsity=0.5, seed=0)
        assert len(replaced) > 0
        assert all("fc" not in name for name in replaced)
        assert isinstance(model.backbone.conv1, MaskedConv2d)
        assert isinstance(model.fc, Linear)

    def test_extract_learned_mask_sparsity(self):
        model = small_classifier(3)
        attach_learnable_masks(model, sparsity=0.8, seed=0)
        mask = extract_learned_mask(model)
        assert mask.sparsity() == pytest.approx(0.8, abs=0.05)
        assert all(name.endswith("weight") for name in mask.names())

    def test_extract_without_attach_raises(self):
        with pytest.raises(ValueError):
            extract_learned_mask(small_classifier(3))

    def test_learn_mask_trains_scores_and_head(self, toy_dataset):
        model = small_classifier(2)
        model.backbone.requires_grad_(False)
        attach_learnable_masks(model, sparsity=0.5, seed=0)
        initial_mask = extract_learned_mask(model)
        weights_before = model.backbone.conv1.weight.data.copy()
        config = LMPConfig(sparsity=0.5, epochs=2, batch_size=16, learning_rate=0.1, seed=0)
        mask, history = learn_mask(model, toy_dataset, config)
        # Frozen weights untouched, loss recorded, sparsity maintained.
        np.testing.assert_array_equal(model.backbone.conv1.weight.data, weights_before)
        assert len(history.series("train_loss")) == 2
        assert mask.sparsity() == pytest.approx(initial_mask.sparsity(), abs=0.05)

    def test_learn_mask_requires_masked_layers(self, toy_dataset):
        with pytest.raises(ValueError):
            learn_mask(small_classifier(2), toy_dataset, LMPConfig(epochs=1))

    def test_invalid_sparsity_rejected(self, rng):
        base = Linear(4, 2, rng=seeded_rng(0))
        with pytest.raises(ValueError):
            MaskedLinear(base, sparsity=1.0, rng=rng)
