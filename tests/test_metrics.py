"""Unit tests for classification, OoD, segmentation, and FID metrics."""

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset
from repro.data.synthetic import GeneratorConfig, SyntheticImageGenerator
from repro.metrics.classification import (
    accuracy,
    expected_calibration_error,
    negative_log_likelihood,
    softmax_probabilities,
    top_k_accuracy,
)
from repro.metrics.fid import RandomFeatureEmbedder, fid_between_datasets, frechet_distance
from repro.metrics.ood import max_softmax_score, ood_roc_auc, roc_auc
from repro.metrics.segmentation import confusion_matrix, mean_iou


class TestClassificationMetrics:
    def test_softmax_probabilities_sum_to_one(self, rng):
        probabilities = softmax_probabilities(rng.normal(size=(6, 4)))
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)

    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_top_k_accuracy(self):
        logits = np.array([[3.0, 2.0, 1.0, 0.0], [0.0, 1.0, 2.0, 3.0]])
        labels = np.array([1, 0])
        assert top_k_accuracy(logits, labels, k=1) == 0.0
        assert top_k_accuracy(logits, labels, k=2) == pytest.approx(0.5)
        assert top_k_accuracy(logits, labels, k=4) == 1.0

    def test_nll_matches_manual(self, rng):
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        probabilities = softmax_probabilities(logits)
        expected = -np.log(probabilities[np.arange(5), labels]).mean()
        assert negative_log_likelihood(logits, labels) == pytest.approx(expected)

    def test_ece_perfectly_calibrated_is_zero(self):
        # Two classes with 60%/40% confidence, empirically correct 60%/40% of the time.
        logits = np.log(np.array([[0.6, 0.4]] * 10))
        labels = np.array([0] * 6 + [1] * 4)
        assert expected_calibration_error(logits, labels, num_bins=10) == pytest.approx(0.0, abs=1e-9)

    def test_ece_overconfident_model(self):
        logits = np.array([[10.0, -10.0]] * 10)  # ~100% confident in class 0
        labels = np.array([0] * 5 + [1] * 5)  # but only 50% correct
        assert expected_calibration_error(logits, labels) == pytest.approx(0.5, abs=1e-3)

    def test_ece_bounds_and_validation(self, rng):
        logits = rng.normal(size=(20, 4))
        labels = rng.integers(0, 4, size=20)
        assert 0.0 <= expected_calibration_error(logits, labels) <= 1.0
        with pytest.raises(ValueError):
            expected_calibration_error(logits, labels, num_bins=0)


class TestOoDMetrics:
    def test_roc_auc_perfect_separation(self):
        assert roc_auc(np.array([0.9, 0.8]), np.array([0.1, 0.2])) == 1.0
        assert roc_auc(np.array([0.1, 0.2]), np.array([0.9, 0.8])) == 0.0

    def test_roc_auc_random_scores_near_half(self, rng):
        positive = rng.uniform(size=500)
        negative = rng.uniform(size=500)
        assert roc_auc(positive, negative) == pytest.approx(0.5, abs=0.06)

    def test_roc_auc_handles_ties(self):
        assert roc_auc(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == pytest.approx(0.5)

    def test_roc_auc_empty_rejected(self):
        with pytest.raises(ValueError):
            roc_auc(np.array([]), np.array([0.5]))

    def test_max_softmax_score_range(self, rng):
        scores = max_softmax_score(rng.normal(size=(10, 5)))
        assert np.all((scores >= 0.2 - 1e-9) & (scores <= 1.0))

    def test_ood_roc_auc_confident_in_distribution(self):
        in_logits = np.array([[6.0, 0.0, 0.0]] * 20)
        ood_logits = np.zeros((20, 3))
        assert ood_roc_auc(in_logits, ood_logits) == 1.0


class TestSegmentationMetrics:
    def test_confusion_matrix_counts(self):
        predictions = np.array([0, 1, 1, 2])
        labels = np.array([0, 1, 2, 2])
        matrix = confusion_matrix(predictions, labels, num_classes=3)
        assert matrix[0, 0] == 1 and matrix[1, 1] == 1
        assert matrix[2, 1] == 1 and matrix[2, 2] == 1

    def test_confusion_matrix_shape_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros(3), np.zeros(4), 2)

    def test_mean_iou_perfect(self):
        labels = np.array([[0, 1], [1, 2]])
        assert mean_iou(labels, labels, num_classes=3) == pytest.approx(1.0)

    def test_mean_iou_known_value(self):
        labels = np.array([0, 0, 1, 1])
        predictions = np.array([0, 1, 1, 1])
        # class 0: inter 1, union 2 -> 0.5 ; class 1: inter 2, union 3 -> 2/3
        assert mean_iou(predictions, labels, num_classes=2) == pytest.approx((0.5 + 2 / 3) / 2)

    def test_mean_iou_ignores_absent_classes(self):
        labels = np.array([0, 0])
        predictions = np.array([0, 0])
        assert mean_iou(predictions, labels, num_classes=5) == pytest.approx(1.0)


class TestFID:
    def test_frechet_distance_identical_gaussians_is_zero(self, rng):
        mean = rng.normal(size=4)
        covariance = np.eye(4) * 2.0
        assert frechet_distance(mean, covariance, mean, covariance) == pytest.approx(0.0, abs=1e-6)

    def test_frechet_distance_univariate_closed_form(self):
        # d^2 = (mu1-mu2)^2 + (s1-s2)^2 for 1-D Gaussians.
        distance = frechet_distance(np.array([0.0]), np.array([[1.0]]), np.array([3.0]), np.array([[4.0]]))
        assert distance == pytest.approx(9.0 + 1.0, rel=1e-6)

    def test_frechet_distance_mean_shape_mismatch(self):
        with pytest.raises(ValueError):
            frechet_distance(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3))

    def test_fid_between_identical_datasets_is_small(self):
        generator = SyntheticImageGenerator(GeneratorConfig(num_classes=4))
        dataset = generator.dataset(60, seed=0)
        fid = fid_between_datasets(dataset, dataset, use_pixels=True)
        assert fid == pytest.approx(0.0, abs=1e-6)

    def test_fid_orders_domain_shift(self):
        """Larger generator domain shift must yield a larger FID to the source."""
        base = GeneratorConfig(num_classes=4, class_seed=3)
        source = SyntheticImageGenerator(base.shifted(0.0)).dataset(80, seed=1)
        near = SyntheticImageGenerator(base.shifted(0.2, class_seed=4)).dataset(80, seed=2)
        far = SyntheticImageGenerator(base.shifted(0.9, class_seed=4)).dataset(80, seed=3)
        fid_near = fid_between_datasets(source, near, use_pixels=True, seed=0)
        fid_far = fid_between_datasets(source, far, use_pixels=True, seed=0)
        assert fid_far > fid_near

    def test_embedder_feature_shape(self, rng):
        embedder = RandomFeatureEmbedder(seed=0, base_width=4)
        features = embedder.embed(rng.uniform(size=(6, 3, 16, 16)))
        assert features.shape == (6, embedder.feature_dim)

    def test_fid_with_embedder_positive_for_different_data(self):
        base = GeneratorConfig(num_classes=4, class_seed=3)
        source = SyntheticImageGenerator(base.shifted(0.0)).dataset(40, seed=1)
        shifted = SyntheticImageGenerator(base.shifted(1.0, class_seed=9)).dataset(40, seed=2)
        embedder = RandomFeatureEmbedder(seed=0, base_width=4)
        fid = fid_between_datasets(source, shifted, embedder=embedder, max_samples=40)
        assert fid > 0.0
