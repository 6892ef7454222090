"""Integration tests for the robust-ticket pipeline (tickets, transfer, evaluation).

These run the real pipeline end-to-end at a miniature scale (base width
4, a few dozen images, one epoch) so they remain fast while exercising
every code path that the benchmark harness relies on.
"""

import numpy as np
import pytest

from repro.core.evaluate import evaluate_properties
from repro.core.pipeline import PipelineConfig, RobustTicketPipeline
from repro.core.tickets import Ticket
from repro.core.transfer import finetune_classification, finetune_segmentation, linear_evaluation
from repro.data.segmentation import segmentation_task
from repro.data.tasks import downstream_task, source_task
from repro.pruning.lmp import LMPConfig
from repro.pruning.mask import magnitude_mask
from repro.training.trainer import TrainerConfig


@pytest.fixture(scope="module")
def mini_pipeline():
    """A pipeline tiny enough to pretrain inside the test session."""
    config = PipelineConfig(
        model_name="resnet18",
        base_width=4,
        source_classes=6,
        source_train_size=96,
        source_test_size=48,
        pretrain_epochs=2,
        pretrain_lr=0.08,
        attack_epsilon=0.03,
        attack_steps=2,
        seed=0,
    )
    return RobustTicketPipeline(config)


@pytest.fixture(scope="module")
def mini_task():
    return downstream_task("cifar10", train_size=64, test_size=48, seed=3)


class TestTicketObject:
    def test_materialise_applies_mask_and_weights(self, mini_pipeline):
        ticket = mini_pipeline.draw_omp_ticket("natural", 0.6)
        backbone = ticket.materialise(seed=4)
        parameters = dict(backbone.named_parameters())
        name = ticket.mask.names()[0]
        zeros = parameters[name].data[ticket.mask[name] == 0]
        np.testing.assert_allclose(zeros, 0.0)
        kept = parameters[name].data[ticket.mask[name] == 1]
        expected = ticket.backbone_state[name][ticket.mask[name] == 1]
        np.testing.assert_allclose(kept, expected)

    def test_naming_and_robust_flag(self, mini_pipeline):
        robust = mini_pipeline.draw_omp_ticket("robust", 0.5)
        natural = mini_pipeline.draw_omp_ticket("natural", 0.5)
        assert robust.is_robust and not natural.is_robust
        assert robust.name.startswith("robust-omp")
        assert natural.name.startswith("natural-omp")

    def test_with_mask_swaps_mask_only(self, mini_pipeline):
        ticket = mini_pipeline.draw_omp_ticket("natural", 0.5)
        backbone = ticket.materialise()
        denser = magnitude_mask(backbone, sparsity=0.2)
        swapped = ticket.with_mask(denser, scheme="custom")
        assert swapped.scheme == "custom"
        assert swapped.sparsity == pytest.approx(denser.sparsity())
        assert swapped.backbone_state is ticket.backbone_state


class TestPipeline:
    def test_pretraining_is_cached_per_scheme(self, mini_pipeline):
        first = mini_pipeline.pretrain("robust")
        second = mini_pipeline.pretrain("adversarial")
        assert first is second
        natural = mini_pipeline.pretrain("natural")
        assert natural is not first

    def test_unknown_prior_rejected(self, mini_pipeline):
        with pytest.raises(ValueError):
            mini_pipeline.pretrain("quantum")

    def test_omp_ticket_sparsity(self, mini_pipeline):
        ticket = mini_pipeline.draw_omp_ticket("robust", 0.8)
        assert ticket.sparsity == pytest.approx(0.8, abs=0.03)
        assert ticket.scheme == "omp"

    def test_structured_omp_ticket(self, mini_pipeline):
        ticket = mini_pipeline.draw_omp_ticket("natural", 0.3, granularity="channel")
        assert ticket.granularity == "channel"
        assert 0.1 < ticket.sparsity < 0.6

    def test_imp_ticket_upstream_and_downstream(self, mini_pipeline, mini_task):
        upstream = mini_pipeline.draw_imp_ticket(
            "natural", 0.5, on="upstream", iterations=1, epochs_per_iteration=1
        )
        assert upstream.scheme == "imp"
        assert upstream.metadata["on"] == "upstream"
        downstream = mini_pipeline.draw_imp_ticket(
            "robust", 0.5, on="downstream", downstream=mini_task, iterations=1, epochs_per_iteration=1
        )
        assert downstream.scheme == "aimp"
        assert downstream.metadata["task"] == mini_task.name
        # Masks are stored at backbone level so they can be re-applied.
        assert all(not name.startswith("backbone.") for name in downstream.mask.names())

    def test_imp_downstream_requires_task(self, mini_pipeline):
        with pytest.raises(ValueError):
            mini_pipeline.draw_imp_ticket("natural", 0.5, on="downstream")
        with pytest.raises(ValueError):
            mini_pipeline.draw_imp_ticket("natural", 0.5, on="sideways")

    def test_transfer_modes(self, mini_pipeline, mini_task):
        ticket = mini_pipeline.draw_omp_ticket("robust", 0.5)
        finetuned = mini_pipeline.transfer(
            ticket, mini_task, mode="finetune", config=TrainerConfig(epochs=1, seed=0)
        )
        linear = mini_pipeline.transfer(ticket, mini_task, mode="linear")
        assert 0.0 <= finetuned.score <= 1.0
        assert 0.0 <= linear.score <= 1.0
        assert finetuned.mode == "finetune" and linear.mode == "linear"
        with pytest.raises(ValueError):
            mini_pipeline.transfer(ticket, mini_task, mode="quantum")

    def test_lmp_transfer(self, mini_pipeline, mini_task):
        result = mini_pipeline.lmp_transfer(
            "robust", 0.6, mini_task, lmp_config=LMPConfig(sparsity=0.6, epochs=1, seed=0)
        )
        assert result.mode == "lmp"
        assert 0.0 <= result.score <= 1.0
        assert result.sparsity == pytest.approx(0.6, abs=0.05)


class TestTransferFunctions:
    def test_finetune_keeps_mask_enforced(self, mini_pipeline, mini_task):
        ticket = mini_pipeline.draw_omp_ticket("natural", 0.7)
        result = finetune_classification(
            ticket, mini_task, config=TrainerConfig(epochs=1, seed=0), keep_model=True
        )
        model = result.model
        parameters = dict(model.named_parameters())
        for name in ticket.mask.names():
            weight = parameters[f"backbone.{name}"]
            zeros = weight.data[ticket.mask[name] == 0]
            np.testing.assert_allclose(zeros, 0.0, atol=1e-12)

    def test_linear_evaluation_returns_probe(self, mini_pipeline, mini_task):
        ticket = mini_pipeline.draw_omp_ticket("natural", 0.5)
        result = linear_evaluation(ticket, mini_task, epochs=5, keep_model=True)
        assert result.model is not None
        assert 0.0 <= result.score <= 1.0

    def test_segmentation_transfer(self, mini_pipeline):
        task = segmentation_task(num_classes=3, train_size=24, test_size=12, seed=1)
        ticket = mini_pipeline.draw_omp_ticket("robust", 0.5)
        result = finetune_segmentation(ticket, task, config=TrainerConfig(epochs=1, seed=0))
        assert 0.0 <= result.score <= 1.0
        assert "pixel_accuracy" in result.extra


class TestPropertyEvaluation:
    def test_report_fields_in_range(self, mini_pipeline, mini_task):
        ticket = mini_pipeline.draw_omp_ticket("robust", 0.5)
        result = finetune_classification(
            ticket, mini_task, config=TrainerConfig(epochs=1, seed=0), keep_model=True
        )
        report = evaluate_properties(result.model, mini_task, seed=0)
        as_dict = report.as_dict()
        assert set(as_dict) == {
            "accuracy",
            "ece",
            "nll",
            "adv_accuracy",
            "corruption_accuracy",
            "roc_auc",
        }
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.ece <= 1.0
        assert report.nll >= 0.0
        assert 0.0 <= report.adversarial_accuracy <= 1.0
        assert 0.0 <= report.corruption_accuracy <= 1.0
        assert 0.0 <= report.ood_roc_auc <= 1.0
        assert report.adversarial_accuracy <= report.accuracy + 0.1


class TestPipelineConfig:
    def test_paper_scale_is_larger(self):
        smoke = PipelineConfig()
        paper = PipelineConfig.paper_scale()
        assert paper.source_train_size > smoke.source_train_size
        assert paper.pretrain_epochs > smoke.pretrain_epochs

    def test_attack_config(self):
        config = PipelineConfig(attack_epsilon=0.05, attack_steps=3)
        attack = config.attack()
        assert attack.epsilon == 0.05 and attack.steps == 3


class TestSweepCache:
    """Disk-backed caching of pretrained backbones and drawn tickets."""

    @staticmethod
    def _config(cache_dir, seed=0):
        return PipelineConfig(
            model_name="resnet18",
            base_width=4,
            source_classes=4,
            source_train_size=48,
            source_test_size=24,
            pretrain_epochs=1,
            attack_steps=2,
            seed=seed,
            cache_dir=str(cache_dir),
        )

    def test_pretrain_result_roundtrip(self, tmp_path):
        from repro.core.cache import SweepCache
        from repro.training.pretrain import PretrainResult

        result = PretrainResult(
            scheme="natural",
            model_name="resnet18",
            backbone_state={"conv1.weight": np.arange(8.0).reshape(2, 2, 2, 1)},
            head_state={"weight": np.ones((3, 2))},
            source_accuracy=0.75,
            config={"epochs": 1.0},
        )
        cache = SweepCache(str(tmp_path))
        cache.store_pretrain("abc123", result)
        restored = cache.load_pretrain("abc123")
        assert restored is not None
        assert restored.scheme == "natural"
        assert restored.source_accuracy == pytest.approx(0.75)
        np.testing.assert_array_equal(
            restored.backbone_state["conv1.weight"], result.backbone_state["conv1.weight"]
        )
        np.testing.assert_array_equal(restored.head_state["weight"], result.head_state["weight"])
        assert cache.load_pretrain("missing") is None

    def test_pretrain_persists_across_processes(self, tmp_path, monkeypatch):
        first = RobustTicketPipeline(self._config(tmp_path))
        trained = first.pretrain("natural")

        # A fresh pipeline (same config, new "process") must hit the disk
        # cache; make any actual pretraining attempt an error.
        import repro.core.pipeline as pipeline_module

        def fail(*args, **kwargs):
            raise AssertionError("pretrain_backbone should not run on a cache hit")

        monkeypatch.setattr(pipeline_module, "pretrain_backbone", fail)
        second = RobustTicketPipeline(self._config(tmp_path))
        cached = second.pretrain("natural")
        assert cached.scheme == trained.scheme
        for name, value in trained.backbone_state.items():
            np.testing.assert_array_equal(cached.backbone_state[name], value)

    def test_ticket_persists_across_processes(self, tmp_path, monkeypatch):
        first = RobustTicketPipeline(self._config(tmp_path))
        ticket = first.draw_omp_ticket("natural", sparsity=0.5)

        import repro.core.pipeline as pipeline_module

        def fail(*args, **kwargs):
            raise AssertionError("pretrain_backbone should not run on a cache hit")

        monkeypatch.setattr(pipeline_module, "pretrain_backbone", fail)
        second = RobustTicketPipeline(self._config(tmp_path))
        cached = second.draw_omp_ticket("natural", sparsity=0.5)
        assert cached.sparsity == pytest.approx(ticket.sparsity)
        for name in ticket.mask.names():
            np.testing.assert_array_equal(cached.mask[name], ticket.mask[name])

    def test_config_change_invalidates_cache(self, tmp_path, monkeypatch):
        first = RobustTicketPipeline(self._config(tmp_path, seed=0))
        first.pretrain("natural")

        import repro.core.pipeline as pipeline_module

        def fail(*args, **kwargs):
            raise AssertionError("different config must miss the cache")

        monkeypatch.setattr(pipeline_module, "pretrain_backbone", fail)
        different = RobustTicketPipeline(self._config(tmp_path, seed=1))
        with pytest.raises(AssertionError, match="must miss the cache"):
            different.pretrain("natural")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        from repro.core.cache import SweepCache

        cache = SweepCache(str(tmp_path))
        path = tmp_path / "pretrain-deadbeef.npz"
        path.write_bytes(b"not an npz archive")
        assert cache.load_pretrain("deadbeef") is None

    def test_pretrain_entry_with_its_header_first_still_loads(self, tmp_path):
        """An entry whose header is the archive's first member (the layout
        before the header moved last) loads to the same result."""
        import json

        from repro.core.cache import CACHE_FORMAT_VERSION, SweepCache
        from repro.training.pretrain import PretrainResult
        from repro.utils.checkpoint import save_state_dict

        result = PretrainResult(
            scheme="adversarial",
            model_name="resnet18",
            backbone_state={"conv1.weight": np.arange(8.0).reshape(2, 2, 2, 1)},
            head_state={"weight": np.ones((3, 2), dtype=np.float32)},
            source_accuracy=0.625,
            config={"epochs": 2.0},
        )
        header = {
            "version": CACHE_FORMAT_VERSION,
            "scheme": result.scheme,
            "model_name": result.model_name,
            "source_accuracy": result.source_accuracy,
            "config": result.config,
        }
        header_first = {
            "__sweep_cache_header__": np.frombuffer(
                json.dumps(header).encode("utf-8"), dtype=np.uint8
            ),
            "backbone./conv1.weight": result.backbone_state["conv1.weight"],
            "head./weight": result.head_state["weight"],
        }
        save_state_dict(header_first, str(tmp_path / "old" / "pretrain-abc.npz"))
        new_cache = SweepCache(str(tmp_path / "new"))
        new_cache.store_pretrain("abc", result)

        old = SweepCache(str(tmp_path / "old")).load_pretrain("abc")
        new = new_cache.load_pretrain("abc")
        for loaded in (old, new):
            assert loaded is not None
            assert (loaded.scheme, loaded.model_name, loaded.config) == (
                result.scheme,
                result.model_name,
                result.config,
            )
            assert loaded.source_accuracy == result.source_accuracy
            for got, want in (
                (loaded.backbone_state, result.backbone_state),
                (loaded.head_state, result.head_state),
            ):
                assert sorted(got) == sorted(want)
                for name, value in want.items():
                    assert got[name].dtype == value.dtype
                    np.testing.assert_array_equal(got[name], value)

    def test_truncated_and_headerless_entries_are_misses(self, tmp_path):
        from repro.core.cache import SweepCache
        from repro.obs.registry import default_registry
        from repro.utils.checkpoint import save_state_dict

        def counts(kind):
            registry = default_registry()
            return (
                registry.value("sweep_cache_hits_total", kind=kind),
                registry.value("sweep_cache_misses_total", kind=kind),
            )

        cache = SweepCache(str(tmp_path))
        save_state_dict({"w": np.zeros(64)}, str(tmp_path / "pretrain-headerless.npz"))
        full = save_state_dict({"w": np.zeros(64)}, str(tmp_path / "whole.npz"))
        with open(full, "rb") as handle:
            truncated = handle.read()[:100]
        (tmp_path / "ticket-truncated.npz").write_bytes(truncated)
        for kind, key, read in (
            ("pretrain", "headerless", cache.load_pretrain),
            ("ticket", "truncated", cache.load_ticket),
        ):
            hits, misses = counts(kind)
            assert read(key) is None
            assert counts(kind) == (hits, misses + 1)
