"""Unit tests for datasets: synthetic generators, tasks, loaders, corruptions, OoD."""

import numpy as np
import pytest

from repro.data.corruptions import available_corruptions, corrupt
from repro.data.dataset import ArrayDataset, DataLoader
from repro.data.ood import ood_dataset
from repro.data.segmentation import segmentation_task
from repro.data.synthetic import GeneratorConfig, SyntheticImageGenerator
from repro.data.tasks import (
    VTAB_TASK_NAMES,
    available_downstream_tasks,
    downstream_task,
    source_task,
    vtab_suite,
)


class TestArrayDatasetAndLoader:
    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.normal(size=(4, 3, 8, 8)), np.zeros(3))

    def test_indexing_and_subset(self, rng):
        dataset = ArrayDataset(rng.normal(size=(10, 3, 8, 8)), np.arange(10))
        image, label = dataset[3]
        assert image.shape == (3, 8, 8) and label == 3
        subset = dataset.subset(np.array([0, 2, 4]))
        assert len(subset) == 3
        np.testing.assert_array_equal(subset.labels, [0, 2, 4])
        assert dataset.num_classes == 10

    def test_loader_batches_cover_dataset(self, rng):
        dataset = ArrayDataset(rng.normal(size=(25, 3, 4, 4)), np.arange(25))
        loader = DataLoader(dataset, batch_size=8, shuffle=False)
        assert len(loader) == 4
        seen = np.concatenate([labels for _, labels in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(25))

    def test_loader_drop_last(self, rng):
        dataset = ArrayDataset(rng.normal(size=(25, 3, 4, 4)), np.arange(25))
        loader = DataLoader(dataset, batch_size=8, drop_last=True)
        assert len(loader) == 3
        assert sum(len(labels) for _, labels in loader) == 24

    def test_loader_shuffle_is_seeded(self, rng):
        dataset = ArrayDataset(rng.normal(size=(16, 1, 2, 2)), np.arange(16))
        first = [labels for _, labels in DataLoader(dataset, 4, shuffle=True, rng=np.random.default_rng(3))]
        second = [labels for _, labels in DataLoader(dataset, 4, shuffle=True, rng=np.random.default_rng(3))]
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_invalid_batch_size(self, rng):
        dataset = ArrayDataset(rng.normal(size=(4, 1, 2, 2)), np.arange(4))
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)


class TestSyntheticGenerator:
    def test_sample_shapes_and_range(self, rng):
        generator = SyntheticImageGenerator(GeneratorConfig(num_classes=5, image_size=12))
        images, labels = generator.sample(20, rng)
        assert images.shape == (20, 3, 12, 12)
        assert labels.shape == (20,)
        assert images.min() >= 0.0 and images.max() <= 1.0
        assert labels.min() >= 0 and labels.max() < 5

    def test_dataset_is_deterministic_per_seed(self):
        generator = SyntheticImageGenerator(GeneratorConfig(num_classes=4))
        a = generator.dataset(16, seed=3)
        b = generator.dataset(16, seed=3)
        np.testing.assert_array_equal(a.images, b.images)
        c = generator.dataset(16, seed=4)
        assert not np.array_equal(a.images, c.images)

    def test_prototypes_shape_and_copy(self):
        generator = SyntheticImageGenerator(GeneratorConfig(num_classes=3, image_size=8))
        prototypes = generator.prototypes
        assert prototypes.shape == (3, 3, 8, 8)
        prototypes[...] = 0
        assert not np.all(generator.prototypes == 0)

    def test_classes_are_distinguishable(self, rng):
        """Different class prototypes should be farther apart than intra-class samples."""
        generator = SyntheticImageGenerator(GeneratorConfig(num_classes=4, noise_std=0.05))
        prototypes = generator.prototypes
        inter = np.mean(
            [
                np.abs(prototypes[i] - prototypes[j]).mean()
                for i in range(4)
                for j in range(i + 1, 4)
            ]
        )
        assert inter > 0.02

    def test_domain_shift_changes_distribution(self):
        base = GeneratorConfig(num_classes=4, class_seed=1)
        near = SyntheticImageGenerator(base.shifted(0.0))
        far = SyntheticImageGenerator(base.shifted(1.0))
        assert not np.allclose(near.prototypes, far.prototypes)

    def test_shifted_copies_config(self):
        config = GeneratorConfig(num_classes=4, domain_shift=0.0)
        shifted = config.shifted(0.5, class_seed=9)
        assert shifted.domain_shift == 0.5
        assert shifted.class_seed == 9
        assert config.domain_shift == 0.0


class TestTasks:
    def test_source_task_shapes(self, tiny_source_task):
        assert tiny_source_task.num_classes == 6
        assert len(tiny_source_task.train) == 96
        assert len(tiny_source_task.test) == 48
        assert tiny_source_task.domain_shift == 0.0
        assert tiny_source_task.image_size == 16

    def test_downstream_task_lookup(self):
        task = downstream_task("cifar10", train_size=32, test_size=16)
        assert task.num_classes == 10
        assert task.domain_shift > 0
        with pytest.raises(KeyError):
            downstream_task("imagenet22k")

    def test_task_name_normalisation(self):
        task = downstream_task("Caltech-101", train_size=16, test_size=8)
        assert task.name == "caltech101"

    def test_available_tasks_cover_vtab(self):
        assert set(VTAB_TASK_NAMES) <= set(available_downstream_tasks())
        assert len(VTAB_TASK_NAMES) == 12

    def test_vtab_suite_order_and_sizes(self):
        suite = vtab_suite(train_size=16, test_size=8)
        assert [task.name for task in suite] == VTAB_TASK_NAMES
        assert all(len(task.train) == 16 for task in suite)

    def test_labels_within_num_classes(self):
        task = downstream_task("pets", train_size=64, test_size=16)
        assert task.train.labels.max() < task.num_classes
        assert task.train.labels.min() >= 0


class TestSegmentationTask:
    def test_shapes_and_label_range(self):
        task = segmentation_task(num_classes=4, train_size=10, test_size=5, image_size=16)
        assert task.train.images.shape == (10, 3, 16, 16)
        assert task.train.labels.shape == (10, 16, 16)
        assert task.train.labels.min() >= 0
        assert task.train.labels.max() < 4

    def test_background_and_objects_present(self):
        task = segmentation_task(num_classes=3, train_size=20, test_size=5)
        labels = task.train.labels
        assert (labels == 0).any()
        assert (labels > 0).any()

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            segmentation_task(num_classes=1)


class TestCorruptions:
    def test_all_corruptions_preserve_shape_and_range(self, rng):
        images = rng.uniform(size=(4, 3, 16, 16))
        for name in available_corruptions():
            corrupted = corrupt(images, name, severity=3, seed=1)
            assert corrupted.shape == images.shape
            assert corrupted.min() >= 0.0 and corrupted.max() <= 1.0

    def test_severity_increases_distortion(self, rng):
        images = rng.uniform(0.2, 0.8, size=(8, 3, 16, 16))
        mild = corrupt(images, "gaussian_noise", severity=1, seed=0)
        harsh = corrupt(images, "gaussian_noise", severity=5, seed=0)
        assert np.abs(harsh - images).mean() > np.abs(mild - images).mean()

    def test_unknown_corruption_and_severity(self, rng):
        images = rng.uniform(size=(1, 3, 8, 8))
        with pytest.raises(KeyError):
            corrupt(images, "motion_blur_9000")
        with pytest.raises(ValueError):
            corrupt(images, "contrast", severity=9)


class TestOoD:
    def test_shapes_and_labels(self):
        dataset = ood_dataset(num_samples=30, image_size=16, seed=1)
        assert dataset.images.shape == (30, 3, 16, 16)
        assert np.all(dataset.labels == -1)
        assert dataset.images.min() >= 0.0 and dataset.images.max() <= 1.0

    def test_noise_fraction_validation(self):
        with pytest.raises(ValueError):
            ood_dataset(num_samples=10, noise_fraction=1.5)

    def test_differs_from_source_distribution(self, tiny_source_task):
        ood = ood_dataset(num_samples=len(tiny_source_task.test), seed=2)
        gap = abs(float(ood.images.mean()) - float(tiny_source_task.test.images.mean()))
        spread_gap = abs(float(ood.images.std()) - float(tiny_source_task.test.images.std()))
        assert gap + spread_gap > 0.01
