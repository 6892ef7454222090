"""Unit and integration tests for the training loops and pretraining entry points."""

import numpy as np
import pytest

from repro.attacks.pgd import PGDConfig
from repro.data.dataset import ArrayDataset
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18
from repro.pruning.mask import PruningMask, magnitude_mask
from repro.training.adversarial import AdversarialTrainer
from repro.training.evaluation import (
    evaluate_accuracy,
    evaluate_adversarial_accuracy,
    evaluate_corruption_accuracy,
    predict_logits,
)
from repro.training.pretrain import PRETRAIN_SCHEMES, pretrain_backbone
from repro.training.smoothing import GaussianAugmentTrainer
from repro.training.trainer import Trainer, TrainerConfig


def build_small_classifier(num_classes: int, seed: int = 0) -> ClassifierHead:
    return ClassifierHead(resnet18(base_width=4, seed=seed), num_classes=num_classes, seed=seed + 1)


class TestTrainerConfig:
    def test_default_milestones(self):
        config = TrainerConfig(epochs=150)
        assert config.resolved_milestones() == (50, 100)

    def test_explicit_milestones(self):
        config = TrainerConfig(epochs=10, lr_milestones=(3, 7))
        assert config.resolved_milestones() == (3, 7)


class TestTrainer:
    def test_loss_decreases_on_separable_data(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        trainer = Trainer(model, TrainerConfig(epochs=3, learning_rate=0.1, batch_size=16, seed=0))
        history = trainer.fit(toy_dataset)
        losses = history.series("train_loss")
        assert losses[-1] < losses[0]

    def test_accuracy_improves_over_chance(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        trainer = Trainer(model, TrainerConfig(epochs=4, learning_rate=0.1, batch_size=16, seed=0))
        trainer.fit(toy_dataset)
        assert evaluate_accuracy(model, toy_dataset) > 0.7

    def test_mask_is_enforced_throughout_training(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        mask = magnitude_mask(model, sparsity=0.5)
        trainer = Trainer(model, TrainerConfig(epochs=2, learning_rate=0.1, seed=0), mask=mask)
        trainer.fit(toy_dataset)
        for name, parameter in model.named_parameters():
            if name in mask.names():
                zeros = parameter.data[mask[name] == 0]
                np.testing.assert_allclose(zeros, 0.0, atol=1e-12)

    def test_restricted_parameters_only_updated(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        backbone_before = model.backbone.conv1.weight.data.copy()
        trainer = Trainer(
            model,
            TrainerConfig(epochs=1, learning_rate=0.1, seed=0),
            parameters=model.fc.parameters(),
        )
        trainer.fit(toy_dataset)
        np.testing.assert_array_equal(model.backbone.conv1.weight.data, backbone_before)

    def test_history_records_lr_schedule(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        config = TrainerConfig(epochs=3, learning_rate=0.1, lr_milestones=(1,), seed=0)
        trainer = Trainer(model, config)
        trainer.fit(toy_dataset)
        lrs = trainer.history.series("lr")
        assert lrs[0] == pytest.approx(0.1)
        assert lrs[-1] == pytest.approx(0.01)


class TestAdversarialTrainer:
    def test_runs_and_reduces_loss(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        trainer = AdversarialTrainer(
            model,
            TrainerConfig(epochs=2, learning_rate=0.1, batch_size=16, seed=0),
            attack=PGDConfig(epsilon=0.03, steps=2),
        )
        history = trainer.fit(toy_dataset)
        assert history.series("train_loss")[-1] < history.series("train_loss")[0] + 0.5

    def test_prepare_batch_returns_perturbed_inputs(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        trainer = AdversarialTrainer(
            model, TrainerConfig(epochs=1, seed=0), attack=PGDConfig(epsilon=0.05, steps=2)
        )
        images, labels = toy_dataset.images[:8], toy_dataset.labels[:8]
        prepared = trainer.prepare_batch(images, labels)
        assert not np.array_equal(prepared, images)
        assert np.abs(prepared - images).max() <= 0.05 + 1e-12

    def test_model_mode_restored_after_attack(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        trainer = AdversarialTrainer(model, TrainerConfig(epochs=1, seed=0))
        model.train()
        trainer.prepare_batch(toy_dataset.images[:4], toy_dataset.labels[:4])
        assert model.training

    def test_model_mode_restored_when_attack_raises(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        trainer = AdversarialTrainer(model, TrainerConfig(epochs=1, seed=0))
        model.train()
        # Two input channels against a three-channel stem: the first forward raises.
        with pytest.raises(ValueError, match="channel mismatch"):
            trainer.prepare_batch(toy_dataset.images[:4, :2], toy_dataset.labels[:4])
        assert all(module.training for module in model.modules())
        assert all(parameter.requires_grad for parameter in model.parameters())


class TestGaussianAugmentTrainer:
    def test_prepare_batch_adds_noise(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        trainer = GaussianAugmentTrainer(model, TrainerConfig(epochs=1, seed=0), sigma=0.2)
        prepared = trainer.prepare_batch(toy_dataset.images[:4], toy_dataset.labels[:4])
        assert not np.array_equal(prepared, toy_dataset.images[:4])

    def test_negative_sigma_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            GaussianAugmentTrainer(build_small_classifier(2), sigma=-0.1)


class TestEvaluationHelpers:
    def test_predict_logits_shape(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        logits = predict_logits(model, toy_dataset.images, batch_size=16)
        assert logits.shape == (len(toy_dataset), 2)

    def test_predict_logits_empty_dataset_keeps_class_dim(self, toy_dataset):
        """Regression: an empty input used to yield shape (0,), crashing argmax."""
        model = build_small_classifier(num_classes=2)
        empty = toy_dataset.images[:0]
        logits = predict_logits(model, empty, batch_size=16)
        assert logits.shape == (0, 2)
        assert logits.argmax(axis=1).shape == (0,)

    def test_evaluate_accuracy_range(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        acc = evaluate_accuracy(model, toy_dataset)
        assert 0.0 <= acc <= 1.0

    def test_adversarial_accuracy_not_above_clean(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        trainer = Trainer(model, TrainerConfig(epochs=3, learning_rate=0.1, seed=0))
        trainer.fit(toy_dataset)
        clean = evaluate_accuracy(model, toy_dataset)
        adversarial = evaluate_adversarial_accuracy(
            model, toy_dataset, attack=PGDConfig(epsilon=0.1, steps=3), seed=0
        )
        assert adversarial <= clean + 0.05

    def test_corruption_accuracy_range(self, toy_dataset):
        model = build_small_classifier(num_classes=2)
        acc = evaluate_corruption_accuracy(model, toy_dataset, severity=2)
        assert 0.0 <= acc <= 1.0


class TestPretraining:
    def test_all_schemes_run(self, tiny_source_task):
        for scheme in PRETRAIN_SCHEMES:
            result = pretrain_backbone(
                "resnet18",
                tiny_source_task,
                scheme=scheme,
                base_width=4,
                trainer_config=TrainerConfig(epochs=1, learning_rate=0.1, seed=0),
                attack=PGDConfig(epsilon=0.02, steps=2),
                seed=0,
            )
            assert result.scheme == scheme
            assert 0.0 <= result.source_accuracy <= 1.0
            assert "conv1.weight" in result.backbone_state

    def test_unknown_scheme_rejected(self, tiny_source_task):
        with pytest.raises(ValueError):
            pretrain_backbone("resnet18", tiny_source_task, scheme="quantum")

    def test_build_backbone_roundtrip(self, tiny_source_task):
        result = pretrain_backbone(
            "resnet18",
            tiny_source_task,
            scheme="natural",
            base_width=4,
            trainer_config=TrainerConfig(epochs=1, seed=0),
        )
        backbone = result.build_backbone(base_width=4, seed=9)
        np.testing.assert_array_equal(backbone.conv1.weight.data, result.backbone_state["conv1.weight"])
