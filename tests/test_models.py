"""Unit tests for the ResNet backbones, heads, and model registry."""

import numpy as np
import pytest

from repro.models.heads import ClassifierHead, FCNSegmentationHead, LinearProbe, SegmentationModel
from repro.models.registry import available_models, build_model, register_model
from repro.models.resnet import BasicBlock, Bottleneck, ResNet, ResNetConfig, resnet18, resnet50
from repro.tensor import Tensor
from repro.utils.seeding import seeded_rng


class TestResNetBackbones:
    def test_resnet18_feature_shape(self, tiny_backbone, rng):
        out = tiny_backbone(Tensor(rng.uniform(size=(2, 3, 16, 16))))
        assert out.shape == (2, tiny_backbone.out_features)
        assert tiny_backbone.out_features == 4 * 8  # base_width * 8 * expansion(1)

    def test_resnet50_feature_shape(self, tiny_bottleneck_backbone, rng):
        out = tiny_bottleneck_backbone(Tensor(rng.uniform(size=(2, 3, 16, 16))))
        assert out.shape == (2, tiny_bottleneck_backbone.out_features)
        assert tiny_bottleneck_backbone.out_features == 4 * 8 * 4  # expansion 4

    def test_forward_features_spatial_shape(self, tiny_backbone, rng):
        feature_map = tiny_backbone.forward_features(Tensor(rng.uniform(size=(1, 3, 16, 16))))
        # Three stride-2 stages: 16 -> 8 -> 4 -> 2.
        assert feature_map.shape == (1, tiny_backbone.out_features, 2, 2)

    def test_resnet50_has_more_parameters_than_resnet18(self):
        small = resnet18(base_width=4, seed=0)
        large = resnet50(base_width=4, seed=0)
        assert large.num_parameters() > 2 * small.num_parameters()

    def test_block_counts(self):
        model = resnet18(base_width=4, seed=0)
        assert len(model.layer1) == 2 and len(model.layer4) == 2
        model50 = resnet50(base_width=4, seed=0)
        assert len(model50.layer1) == 3 and len(model50.layer3) == 6

    def test_deterministic_construction(self):
        a = resnet18(base_width=4, seed=11)
        b = resnet18(base_width=4, seed=11)
        np.testing.assert_array_equal(a.conv1.weight.data, b.conv1.weight.data)
        c = resnet18(base_width=4, seed=12)
        assert not np.array_equal(a.conv1.weight.data, c.conv1.weight.data)

    def test_unknown_block_type_rejected(self):
        with pytest.raises(ValueError):
            ResNet(ResNetConfig(block="bogus"))

    def test_config_feature_dim(self):
        assert ResNetConfig(block="basic", base_width=8).feature_dim() == 64
        assert ResNetConfig(block="bottleneck", base_width=8).feature_dim() == 256


class TestBlocks:
    def test_basic_block_identity_path(self, rng):
        block = BasicBlock(8, 8, stride=1, rng=seeded_rng(0))
        out = block(Tensor(rng.normal(size=(2, 8, 8, 8))))
        assert out.shape == (2, 8, 8, 8)

    def test_basic_block_downsample_path(self, rng):
        block = BasicBlock(8, 16, stride=2, rng=seeded_rng(0))
        out = block(Tensor(rng.normal(size=(2, 8, 8, 8))))
        assert out.shape == (2, 16, 4, 4)

    def test_bottleneck_expansion(self, rng):
        block = Bottleneck(8, 4, stride=1, rng=seeded_rng(0))
        out = block(Tensor(rng.normal(size=(2, 8, 8, 8))))
        assert out.shape == (2, 16, 8, 8)  # 4 * expansion(4)


class TestHeads:
    def test_classifier_head(self, rng):
        backbone = resnet18(base_width=4, seed=0)
        model = ClassifierHead(backbone, num_classes=7, seed=1)
        logits = model(Tensor(rng.uniform(size=(3, 3, 16, 16))))
        assert logits.shape == (3, 7)
        features = model.features(Tensor(rng.uniform(size=(3, 3, 16, 16))))
        assert features.shape == (3, backbone.out_features)

    def test_linear_probe_freezes_backbone(self, rng):
        backbone = resnet18(base_width=4, seed=0)
        probe = LinearProbe(backbone, num_classes=5, seed=1)
        assert all(not parameter.requires_grad for parameter in backbone.parameters())
        assert all(parameter.requires_grad for parameter in probe.fc.parameters())
        logits = probe(Tensor(rng.uniform(size=(2, 3, 16, 16))))
        assert logits.shape == (2, 5)
        assert len(list(probe.trainable_parameters())) == 2

    def test_segmentation_model_output_resolution(self, rng):
        backbone = resnet18(base_width=4, seed=0)
        model = SegmentationModel(backbone, num_classes=4, seed=1)
        logits = model(Tensor(rng.uniform(size=(2, 3, 16, 16))))
        assert logits.shape == (2, 4, 16, 16)

    def test_fcn_head_shape(self, rng):
        head = FCNSegmentationHead(in_channels=8, num_classes=3, upsample_factor=4, seed=0)
        out = head(Tensor(rng.normal(size=(2, 8, 4, 4))))
        assert out.shape == (2, 3, 16, 16)


class TestRegistry:
    def test_available_and_build(self):
        assert {"resnet18", "resnet50"} <= set(available_models())
        model = build_model("resnet18", base_width=4, seed=0)
        assert isinstance(model, ResNet)

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("resnet9000")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_model("resnet18", resnet18)
