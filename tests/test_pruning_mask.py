"""Unit tests for pruning masks, granularities, and magnitude pruning."""

import numpy as np
import pytest

from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18, resnet50
from repro.pruning.granularity import GRANULARITIES, expand_group_mask, group_reduce_scores
from repro.pruning.mask import PruningMask, magnitude_mask, prunable_parameter_names
from repro.pruning.omp import one_shot_magnitude_prune
from repro.pruning.schedules import geometric_sparsity_schedule, linear_sparsity_schedule


class TestPrunableParameterNames:
    def test_excludes_biases_and_batchnorm(self, tiny_backbone):
        names = prunable_parameter_names(tiny_backbone)
        assert all("bn" not in name for name in names)
        assert all(not name.endswith("bias") for name in names)
        assert "conv1.weight" in names

    def test_excludes_head_by_default(self):
        model = ClassifierHead(resnet18(base_width=4, seed=0), num_classes=5, seed=1)
        names = prunable_parameter_names(model)
        assert all("fc" not in name for name in names)
        with_head = prunable_parameter_names(model, include_head=True)
        assert any("fc" in name for name in with_head)


class TestGranularity:
    def test_group_scores_shapes(self, rng):
        weight = rng.normal(size=(6, 4, 3, 3))
        assert group_reduce_scores(weight, "unstructured").shape == weight.shape
        assert group_reduce_scores(weight, "row").shape == (6, 4, 3)
        assert group_reduce_scores(weight, "kernel").shape == (6, 4)
        assert group_reduce_scores(weight, "channel").shape == (6,)

    def test_dense_weight_granularities(self, rng):
        weight = rng.normal(size=(8, 16))
        assert group_reduce_scores(weight, "channel").shape == (8,)
        assert group_reduce_scores(weight, "kernel").shape == weight.shape

    def test_expand_round_trip(self, rng):
        weight_shape = (6, 4, 3, 3)
        for granularity in GRANULARITIES:
            scores = group_reduce_scores(np.ones(weight_shape), granularity)
            mask = (scores > 0).astype(float)
            expanded = expand_group_mask(mask, weight_shape, granularity)
            assert expanded.shape == weight_shape
            assert np.all(expanded == 1.0)

    def test_unknown_granularity_rejected(self, rng):
        with pytest.raises(ValueError):
            group_reduce_scores(rng.normal(size=(2, 2)), "block")
        with pytest.raises(ValueError):
            expand_group_mask(np.ones((2,)), (2, 2), "block")

    def test_channel_mask_zeroes_whole_filters(self, rng):
        weight = rng.normal(size=(4, 3, 3, 3))
        scores = group_reduce_scores(weight, "channel")
        group_mask = (scores > np.median(scores)).astype(float)
        expanded = expand_group_mask(group_mask, weight.shape, "channel")
        for filter_index in range(4):
            values = np.unique(expanded[filter_index])
            assert len(values) == 1  # whole filter kept or removed


class TestPruningMask:
    def test_rejects_non_binary(self, rng):
        with pytest.raises(ValueError):
            PruningMask({"w": rng.normal(size=(3, 3))})

    def test_sparsity_and_remaining(self):
        mask = PruningMask({"a": np.array([[1.0, 0.0], [0.0, 0.0]]), "b": np.ones((2, 2))})
        assert mask.sparsity() == pytest.approx(3 / 8)
        assert mask.num_remaining() == 5
        assert mask.per_layer_sparsity()["a"] == pytest.approx(0.75)

    def test_apply_and_gradient_masking(self, tiny_backbone):
        model = resnet18(base_width=4, seed=0)
        mask = magnitude_mask(model, sparsity=0.6)
        mask.apply(model)
        name = mask.names()[0]
        parameter = dict(model.named_parameters())[name]
        assert np.all(parameter.data[mask[name] == 0] == 0)
        parameter.grad = np.ones_like(parameter.data)
        mask.apply_to_gradients(model)
        assert np.all(parameter.grad[mask[name] == 0] == 0)

    def test_apply_strict_unknown_parameter(self, rng):
        mask = PruningMask({"nonexistent.weight": np.ones((2, 2))})
        model = resnet18(base_width=4, seed=0)
        with pytest.raises(KeyError):
            mask.apply(model)
        mask.apply(model, strict=False)  # silently skipped

    def test_apply_shape_mismatch(self):
        model = resnet18(base_width=4, seed=0)
        mask = PruningMask({"conv1.weight": np.ones((1, 1, 1, 1))})
        with pytest.raises(ValueError):
            mask.apply(model)

    def test_prefix_roundtrip(self):
        mask = PruningMask({"conv1.weight": np.ones((2, 2))})
        prefixed = mask.add_prefix("backbone.")
        assert prefixed.names() == ["backbone.conv1.weight"]
        stripped = prefixed.strip_prefix("backbone.")
        assert stripped.names() == ["conv1.weight"]

    def test_strip_prefix_drops_unrelated(self):
        mask = PruningMask({"backbone.conv1.weight": np.ones((2, 2)), "fc.weight": np.ones((2, 2))})
        stripped = mask.strip_prefix("backbone.")
        assert stripped.names() == ["conv1.weight"]

    def test_overlap_and_intersection(self):
        a = PruningMask({"w": np.array([1.0, 1.0, 0.0, 0.0])})
        b = PruningMask({"w": np.array([1.0, 0.0, 1.0, 0.0])})
        assert a.overlap(b) == pytest.approx(1 / 3)
        assert a.intersect(b)["w"].sum() == 1
        assert a.overlap(a) == pytest.approx(1.0)

    def test_overlap_of_disjoint_masks_is_zero(self):
        a = PruningMask({"w": np.ones((2, 2))})
        b = PruningMask({"v": np.ones((2, 2))})
        assert a.overlap(b) == 0.0

    def test_intersect_of_disjoint_masks_raises(self):
        a = PruningMask({"w": np.ones((2, 2))})
        b = PruningMask({"v": np.ones((2, 2))})
        with pytest.raises(ValueError, match="share no parameter names"):
            a.intersect(b)

    def test_masks_are_stored_as_uint8(self):
        mask = PruningMask({"w": np.array([1.0, 0.0, 1.0])})
        assert mask["w"].dtype == np.uint8
        rebuilt = PruningMask.from_state_dict(mask.state_dict())
        assert rebuilt["w"].dtype == np.uint8

    def test_apply_preserves_parameter_dtype(self):
        model = resnet18(base_width=4, seed=0)
        parameter = model.conv1.weight
        before = parameter.data.dtype
        mask = magnitude_mask(model, sparsity=0.5)
        mask.apply(model)
        assert model.conv1.weight.data.dtype == before

    def test_dense_mask(self):
        model = resnet18(base_width=4, seed=0)
        dense = PruningMask.dense(model)
        assert dense.sparsity() == 0.0

    def test_state_dict_roundtrip(self):
        mask = PruningMask({"w": np.array([1.0, 0.0])})
        rebuilt = PruningMask.from_state_dict(mask.state_dict())
        np.testing.assert_array_equal(rebuilt["w"], mask["w"])
        assert "w" in rebuilt


class TestMagnitudeMask:
    @pytest.mark.parametrize("sparsity", [0.3, 0.7, 0.95])
    def test_global_sparsity_close_to_target(self, sparsity):
        model = resnet18(base_width=4, seed=0)
        mask = magnitude_mask(model, sparsity=sparsity)
        assert mask.sparsity() == pytest.approx(sparsity, abs=0.02)

    def test_layerwise_scope(self):
        model = resnet18(base_width=4, seed=0)
        mask = magnitude_mask(model, sparsity=0.5, scope="layerwise")
        for layer_sparsity in mask.per_layer_sparsity().values():
            assert layer_sparsity == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("granularity", ["row", "kernel", "channel"])
    def test_structured_sparsity_close_to_target(self, granularity):
        model = resnet50(base_width=4, seed=0)
        mask = magnitude_mask(model, sparsity=0.4, granularity=granularity)
        assert mask.sparsity() == pytest.approx(0.4, abs=0.1)

    def test_keeps_largest_magnitudes(self, rng):
        model = resnet18(base_width=4, seed=0)
        mask = magnitude_mask(model, sparsity=0.5)
        parameters = dict(model.named_parameters())
        # Globally, the mean |w| of kept weights must exceed that of pruned weights.
        kept, pruned = [], []
        for name in mask.names():
            weight = np.abs(parameters[name].data)
            kept.append(weight[mask[name] == 1].mean())
            pruned.append(weight[mask[name] == 0].mean() if (mask[name] == 0).any() else 0.0)
        assert np.mean(kept) > np.mean(pruned)

    def test_invalid_arguments(self):
        model = resnet18(base_width=4, seed=0)
        with pytest.raises(ValueError):
            magnitude_mask(model, sparsity=1.0)
        with pytest.raises(ValueError):
            magnitude_mask(model, sparsity=0.5, granularity="block")
        with pytest.raises(ValueError):
            magnitude_mask(model, sparsity=0.5, scope="galactic")

    def test_zero_sparsity_keeps_everything(self):
        model = resnet18(base_width=4, seed=0)
        mask = magnitude_mask(model, sparsity=0.0)
        assert mask.sparsity() == 0.0

    @pytest.mark.parametrize("scope", ["global", "layerwise"])
    def test_uniform_magnitudes_hit_target_sparsity(self, scope):
        """Regression: ties at the threshold must not prune every tied group.

        With the old strict ``score > threshold`` comparison a layer of
        uniform magnitudes was pruned to 100% regardless of the target.
        """
        from repro.nn.layers import Linear

        layer = Linear(8, 8, bias=False)
        layer.weight.data = np.full((8, 8), 0.25, dtype=layer.weight.data.dtype)
        mask = magnitude_mask(layer, sparsity=0.5, parameter_names=["weight"], scope=scope)
        assert mask.sparsity() == pytest.approx(0.5, abs=0.02)

    def test_partial_ties_at_threshold_hit_target(self):
        """Only as many tied groups as the budget requires are pruned."""
        from repro.nn.layers import Linear

        layer = Linear(10, 1, bias=False)
        # 4 small distinct weights, 6 tied at the would-be threshold.
        layer.weight.data = np.array(
            [[0.01, 0.02, 0.03, 0.04, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]],
            dtype=layer.weight.data.dtype,
        )
        mask = magnitude_mask(layer, sparsity=0.6, parameter_names=["weight"])
        assert int(mask["weight"].sum()) == 4
        # All four distinct small weights go first.
        np.testing.assert_array_equal(mask["weight"][0, :4], np.zeros(4, dtype=np.uint8))


class TestOMP:
    def test_apply_flag(self):
        model = resnet18(base_width=4, seed=0)
        before = model.conv1.weight.data.copy()
        mask = one_shot_magnitude_prune(model, sparsity=0.5, apply=False)
        np.testing.assert_array_equal(model.conv1.weight.data, before)
        one_shot_magnitude_prune(model, sparsity=0.5, apply=True)
        zeros = model.conv1.weight.data[mask["conv1.weight"] == 0]
        np.testing.assert_allclose(zeros, 0.0)


class TestSchedules:
    def test_geometric_monotone_and_reaches_target(self):
        schedule = geometric_sparsity_schedule(0.9, 5)
        assert len(schedule) == 5
        assert all(later > earlier for earlier, later in zip(schedule, schedule[1:]))
        assert schedule[-1] == pytest.approx(0.9)

    def test_linear_schedule(self):
        schedule = linear_sparsity_schedule(0.8, 4)
        np.testing.assert_allclose(schedule, [0.2, 0.4, 0.6, 0.8])

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_sparsity_schedule(1.0, 3)
        with pytest.raises(ValueError):
            geometric_sparsity_schedule(0.5, 0)
        with pytest.raises(ValueError):
            linear_sparsity_schedule(-0.1, 3)
        with pytest.raises(ValueError):
            linear_sparsity_schedule(0.5, 0)
