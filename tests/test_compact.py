"""Physical compaction of structured tickets: output equivalence of
masked-dense vs compacted vs CSR execution for every registry model,
exactness rules (ReLU constants, bias folding, retained dead channels),
loader-side conform_to_state, and the sealed-artifact round trip
(compaction + sparse encoding + size provenance + serving)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.graph import check_model
from repro.models.heads import ClassifierHead
from repro.models.registry import available_models, build_model
from repro.nn.fuse import fuse
from repro.pruning.compact import compact, conform_to_state
from repro.pruning.mask import magnitude_mask
from repro.serve.artifact import export_artifact, load_artifact
from repro.serve.engine import ServingEngine
from repro.tensor import sparse_policy_scope
from repro.training.evaluation import predict_logits

INPUT_SHAPE = (3, 16, 16)


def masked_classifier(name, sparsity=0.9, granularity="channel", seed=0):
    backbone = build_model(name, base_width=8, seed=seed)
    model = ClassifierHead(backbone, num_classes=10, seed=seed)
    mask = magnitude_mask(model, sparsity, granularity=granularity)
    mask.apply(model)
    return model, mask


def batch(rng, n=4):
    return rng.uniform(0.0, 1.0, size=(n,) + INPUT_SHAPE)


def tolerance(model):
    """fp tolerance for compacted GEMMs: shrinking K re-blocks the BLAS
    reduction, so sums reassociate; measured diffs are ~1e-8 (float32)
    and ~1e-14 (float64) — far below either bound."""
    dtype = next(parameter.data.dtype for _, parameter in model.named_parameters())
    return {"rtol": 1e-4, "atol": 1e-5} if dtype == np.float32 else {"rtol": 1e-9, "atol": 1e-11}


class TestCompactEquivalence:
    @pytest.mark.parametrize("name", available_models())
    def test_masked_dense_vs_compacted_vs_csr(self, rng, name):
        model, _mask = masked_classifier(name)
        images = batch(rng)
        reference = predict_logits(model, images, fused=False)

        compacted, report = compact(model)
        assert report.removed_channels() > 0
        assert report.parameters_after < report.parameters_before
        assert 0.0 < report.parameter_reduction() < 1.0

        compacted_logits = predict_logits(compacted, images, fused=False)
        assert np.allclose(compacted_logits, reference, **tolerance(model))

        with sparse_policy_scope(mode="force"):
            csr_logits = predict_logits(compacted, images, fused=False)
        assert np.allclose(csr_logits, reference, **tolerance(model))

    @pytest.mark.parametrize("name", available_models())
    def test_plain_and_fused_inputs_both_compact(self, rng, name):
        model, _mask = masked_classifier(name)
        images = batch(rng)
        reference = predict_logits(model, images, fused=False)

        from_plain, report_plain = compact(model)
        from_fused, report_fused = compact(fuse(model))
        assert report_plain.removed_channels() == report_fused.removed_channels()
        plain_logits = predict_logits(from_plain, images, fused=False)
        fused_logits = predict_logits(from_fused, images, fused=False)
        assert np.array_equal(plain_logits, fused_logits)
        assert np.allclose(plain_logits, reference, **tolerance(model))

    def test_source_model_is_never_mutated(self, rng):
        model, _mask = masked_classifier("resnet18")
        state_before = {k: v.copy() for k, v in model.state_dict().items()}
        compact(model)
        for key, value in model.state_dict().items():
            assert np.array_equal(value, state_before[key])

    def test_compacted_graph_passes_check_model(self):
        model, _mask = masked_classifier("resnet18")
        compacted, report = compact(model, verify_input_shape=INPUT_SHAPE)
        assert report.removed_channels() > 0
        check_model(compacted, INPUT_SHAPE)

    def test_perturbed_bn_keeps_uncovered_dead_channels(self, rng):
        """Non-zero ReLU constants through a padded consumer are not
        removable; the report must show retained dead channels and the
        outputs must still match."""
        model, _mask = masked_classifier("resnet18", seed=3)
        for name, parameter in model.named_parameters():
            if ".bn" in name and name.endswith(".bias"):
                parameter.data += rng.uniform(0.1, 0.5, size=parameter.shape)
        images = batch(rng)
        reference = predict_logits(model, images, fused=False)
        compacted, report = compact(model)
        assert report.retained_dead_channels() > 0
        assert np.allclose(
            predict_logits(compacted, images, fused=False), reference, **tolerance(model)
        )

    def test_bottleneck_folds_constants_through_conv3(self, rng):
        model, _mask = masked_classifier("resnet50", seed=3)
        for name, parameter in model.named_parameters():
            if ".bn" in name and name.endswith(".bias"):
                parameter.data += rng.uniform(0.1, 0.5, size=parameter.shape)
        images = batch(rng)
        reference = predict_logits(model, images, fused=False)
        compacted, report = compact(model)
        assert sum(entry.folded for entry in report.blocks) > 0
        assert np.allclose(
            predict_logits(compacted, images, fused=False), reference, **tolerance(model)
        )

    def test_fully_masked_producer_keeps_one_channel(self, rng):
        model, _mask = masked_classifier("resnet18", sparsity=0.99)
        compacted, _report = compact(model)
        for _path, module in compacted.named_modules():
            from repro.nn.layers import Conv2d

            if isinstance(module, Conv2d):
                assert module.out_channels >= 1
                assert module.weight.shape[0] == module.out_channels
        images = batch(rng)
        assert np.allclose(
            predict_logits(compacted, images, fused=False),
            predict_logits(model, images, fused=False),
            **tolerance(model),
        )

    def test_dense_model_reports_nothing(self, rng):
        backbone = build_model("resnet18", base_width=8, seed=0)
        model = ClassifierHead(backbone, num_classes=10, seed=0)
        compacted, report = compact(model)
        assert report.removed_channels() == 0
        assert report.summary()["layers"] == {}
        images = batch(rng)
        assert np.allclose(
            predict_logits(compacted, images, fused=False),
            predict_logits(model, images, fused=False),
            **tolerance(model),
        )

    def test_report_summary_is_json_able(self):
        import json

        model, _mask = masked_classifier("resnet18")
        _compacted, report = compact(model)
        summary = json.loads(json.dumps(report.summary()))
        assert summary["removed_channels"] == report.removed_channels()
        assert summary["parameter_reduction"] > 0.5


class TestConformToState:
    def test_fresh_skeleton_loads_compacted_state(self, rng):
        model, _mask = masked_classifier("resnet18")
        compacted, _report = compact(model)
        state = compacted.state_dict()

        skeleton = fuse(ClassifierHead(build_model("resnet18", base_width=8, seed=0), num_classes=10, seed=0))
        with pytest.raises(Exception):
            skeleton.load_state_dict({k: v.copy() for k, v in state.items()})
        conform_to_state(skeleton, state)
        skeleton.load_state_dict({k: v.copy() for k, v in state.items()})

        images = batch(rng)
        assert np.array_equal(
            predict_logits(skeleton, images, fused=False),
            predict_logits(compacted, images, fused=False),
        )

    def test_matching_state_is_a_no_op(self):
        model = fuse(ClassifierHead(build_model("resnet18", base_width=8, seed=0), num_classes=10, seed=0))
        state = model.state_dict()
        shapes_before = {k: v.shape for k, v in state.items()}
        conform_to_state(model, state)
        assert {k: v.shape for k, v in model.state_dict().items()} == shapes_before


class TestArtifactRoundTrip:
    def test_structured_export_shrinks_and_serves_identically(self, rng, tmp_path):
        model, mask = masked_classifier("resnet18")
        dense_model = ClassifierHead(build_model("resnet18", base_width=8, seed=0), num_classes=10, seed=0)

        dense_path = export_artifact(
            dense_model, str(tmp_path / "dense.npz"), model_name="resnet18", base_width=8
        )
        pruned_path = export_artifact(
            model, str(tmp_path / "pruned.npz"), model_name="resnet18", base_width=8, mask=mask
        )
        assert os.path.getsize(dense_path) / os.path.getsize(pruned_path) >= 2.0

        artifact = load_artifact(pruned_path)
        assert artifact.provenance["compaction"]["removed_channels"] > 0
        assert artifact.provenance["artifact_bytes"] == os.path.getsize(pruned_path)
        state_bytes = artifact.provenance["state_bytes"]
        assert state_bytes["encoded"] <= state_bytes["dense"]

        images = batch(rng).astype(artifact.dtype)
        reference = predict_logits(model, images, fused=False)
        local = predict_logits(artifact.build_model(), images, fused=False)
        assert np.allclose(local, reference, rtol=1e-4, atol=1e-5)
        with ServingEngine(artifact) as engine:
            served = engine.predict(images)
        assert np.array_equal(served, local)

    def test_unstructured_export_sparse_encodes(self, rng, tmp_path):
        model, mask = masked_classifier("resnet18", granularity="unstructured")
        dense_model = ClassifierHead(build_model("resnet18", base_width=8, seed=0), num_classes=10, seed=0)

        dense_path = export_artifact(
            dense_model, str(tmp_path / "dense.npz"), model_name="resnet18", base_width=8
        )
        pruned_path = export_artifact(
            model, str(tmp_path / "pruned.npz"), model_name="resnet18", base_width=8, mask=mask
        )
        assert os.path.getsize(dense_path) / os.path.getsize(pruned_path) >= 2.0

        artifact = load_artifact(pruned_path)
        images = batch(rng).astype(artifact.dtype)
        # Unstructured sparsity is preserved bit-for-bit through the
        # pack/unpack encoding: against the fused source graph (the form
        # the artifact seals), predictions are byte-identical.
        assert np.array_equal(
            predict_logits(artifact.build_model(), images, fused=False),
            predict_logits(model, images, fused=True),
        )

    def test_compact_false_preserves_dense_shapes(self, rng, tmp_path):
        model, mask = masked_classifier("resnet18")
        path = export_artifact(
            model,
            str(tmp_path / "uncompacted.npz"),
            model_name="resnet18",
            base_width=8,
            mask=mask,
            compact=False,
        )
        artifact = load_artifact(path)
        assert "compaction" not in artifact.provenance
        images = batch(rng).astype(artifact.dtype)
        assert np.allclose(
            predict_logits(artifact.build_model(), images, fused=False),
            predict_logits(model, images, fused=False),
            rtol=1e-5,
            atol=1e-7,
        )
