"""The end-to-end robust-ticket transfer-learning pipeline.

``RobustTicketPipeline`` wraps the full workflow of the paper:
pretraining dense models on the source task under different schemes,
drawing tickets from them with OMP / (A-)IMP / LMP at any sparsity and
granularity, and transferring those tickets to downstream tasks.

Pretraining results are cached per scheme so that sweeping sparsity
ratios (as every figure in the paper does) pretrains each dense model
exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.attacks.pgd import PGDConfig
from repro.core.cache import CACHE_FORMAT_VERSION, SweepCache, config_hash
from repro.core.tickets import Ticket
from repro.core.transfer import (
    TransferResult,
    finetune_classification,
    finetune_segmentation,
    linear_evaluation,
)
from repro.data.segmentation import SegmentationTask
from repro.data.tasks import TaskSpec, source_task
from repro.models.heads import ClassifierHead
from repro.pruning.imp import IMPConfig, iterative_magnitude_prune
from repro.pruning.lmp import LMPConfig, attach_learnable_masks, learn_mask
from repro.pruning.omp import one_shot_magnitude_prune
from repro.tensor import default_dtype
from repro.training.evaluation import evaluate_accuracy
from repro.training.pretrain import PretrainResult, pretrain_backbone
from repro.training.trainer import TrainerConfig

#: Mapping from ticket prior names to pretraining schemes.
_PRIOR_TO_SCHEME = {
    "natural": "natural",
    "robust": "adversarial",
    "adversarial": "adversarial",
    "smoothing": "smoothing",
}


@dataclass
class PipelineConfig:
    """Configuration of a :class:`RobustTicketPipeline`.

    The defaults are the "smoke" scale used by the test-suite and the
    benchmark harness; ``PipelineConfig.paper_scale()`` documents the
    settings closer to the paper's grids for larger machines.
    """

    model_name: str = "resnet18"
    base_width: int = 8
    source_classes: int = 16
    source_train_size: int = 1200
    source_test_size: int = 300
    image_size: int = 16
    pretrain_epochs: int = 6
    pretrain_lr: float = 0.05
    pretrain_batch_size: int = 32
    attack_epsilon: float = 0.03
    attack_steps: int = 5
    smoothing_sigma: float = 0.12
    seed: int = 0
    #: Directory of the persistent sweep cache (see
    #: :class:`repro.core.cache.SweepCache`).  ``None`` disables disk
    #: caching; in-process per-scheme caching always applies.
    cache_dir: Optional[str] = None

    def attack(self) -> PGDConfig:
        """The PGD configuration used for adversarial pretraining / A-IMP."""
        return PGDConfig(epsilon=self.attack_epsilon, steps=self.attack_steps)

    def trainer_config(self, epochs: Optional[int] = None) -> TrainerConfig:
        return TrainerConfig(
            epochs=epochs if epochs is not None else self.pretrain_epochs,
            batch_size=self.pretrain_batch_size,
            learning_rate=self.pretrain_lr,
            seed=self.seed,
        )

    @classmethod
    def paper_scale(cls) -> "PipelineConfig":
        """Settings approximating the paper's scale (hours of CPU time)."""
        return cls(
            base_width=16,
            source_classes=40,
            source_train_size=20000,
            source_test_size=4000,
            pretrain_epochs=60,
            attack_steps=7,
        )


class RobustTicketPipeline:
    """Pretrain → draw ticket → transfer, with per-scheme caching."""

    def __init__(self, config: Optional[PipelineConfig] = None, source: Optional[TaskSpec] = None) -> None:
        self.config = config if config is not None else PipelineConfig()
        self.source = source if source is not None else source_task(
            num_classes=self.config.source_classes,
            train_size=self.config.source_train_size,
            test_size=self.config.source_test_size,
            seed=self.config.seed + 100,
            image_size=self.config.image_size,
        )
        self._pretrained: Dict[str, PretrainResult] = {}
        self.cache: Optional[SweepCache] = (
            SweepCache(self.config.cache_dir) if self.config.cache_dir else None
        )

    # ------------------------------------------------------------------
    # Stage 1: pretraining
    # ------------------------------------------------------------------
    def pretrain(self, prior: str = "robust") -> PretrainResult:
        """Pretrain (or fetch the cached) dense model for ``prior``.

        Results are cached per scheme in memory, and — when
        ``config.cache_dir`` is set — on disk keyed by the full
        pretraining configuration, so repeated sweep runs on one machine
        pretrain each scheme exactly once.
        """
        scheme = self._scheme_for(prior)
        if scheme not in self._pretrained:
            key = self._pretrain_key(scheme)
            result = self.cache.load_pretrain(key) if self.cache else None
            if result is None:
                result = pretrain_backbone(
                    self.config.model_name,
                    self.source,
                    scheme=scheme,
                    base_width=self.config.base_width,
                    trainer_config=self.config.trainer_config(),
                    attack=self.config.attack(),
                    smoothing_sigma=self.config.smoothing_sigma,
                    seed=self.config.seed,
                )
                if self.cache:
                    self.cache.store_pretrain(key, result)
            self._pretrained[scheme] = result
        return self._pretrained[scheme]

    def _scheme_for(self, prior: str) -> str:
        if prior not in _PRIOR_TO_SCHEME:
            raise ValueError(f"unknown prior {prior!r}; expected one of {sorted(_PRIOR_TO_SCHEME)}")
        return _PRIOR_TO_SCHEME[prior]

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------
    def _base_key_payload(self, scheme: str) -> Dict[str, object]:
        """Every configuration field that influences a pretrained backbone."""
        c = self.config
        return {
            "version": CACHE_FORMAT_VERSION,
            "scheme": scheme,
            "model_name": c.model_name,
            "base_width": c.base_width,
            "source_task": self.source.name,
            "source_classes": c.source_classes,
            "source_train_size": c.source_train_size,
            "source_test_size": c.source_test_size,
            "image_size": c.image_size,
            "pretrain_epochs": c.pretrain_epochs,
            "pretrain_lr": c.pretrain_lr,
            "pretrain_batch_size": c.pretrain_batch_size,
            "attack_epsilon": c.attack_epsilon,
            "attack_steps": c.attack_steps,
            "smoothing_sigma": c.smoothing_sigma,
            "seed": c.seed,
            "dtype": default_dtype().name,
        }

    def _pretrain_key(self, scheme: str) -> str:
        payload = self._base_key_payload(scheme)
        payload["kind"] = "pretrain"
        return config_hash(payload)

    def _ticket_key(self, scheme: str, **fields) -> str:
        payload = self._base_key_payload(scheme)
        payload["kind"] = "ticket"
        payload.update(fields)
        return config_hash(payload)

    # ------------------------------------------------------------------
    # Stage 2: drawing tickets
    # ------------------------------------------------------------------
    def draw_omp_ticket(
        self,
        prior: str,
        sparsity: float,
        granularity: str = "unstructured",
    ) -> Ticket:
        """Draw a ticket by one-shot magnitude pruning of the pretrained weights."""
        key = self._ticket_key(
            self._scheme_for(prior), ticket_scheme="omp", sparsity=sparsity, granularity=granularity
        )
        if self.cache:
            cached = self.cache.load_ticket(key)
            if cached is not None:
                return cached
        pretrained = self.pretrain(prior)
        backbone = pretrained.build_backbone(self.config.base_width, seed=self.config.seed)
        mask = one_shot_magnitude_prune(
            backbone, sparsity=sparsity, granularity=granularity, apply=False
        )
        ticket = Ticket(
            scheme="omp",
            prior=pretrained.scheme,
            model_name=self.config.model_name,
            base_width=self.config.base_width,
            sparsity=mask.sparsity(),
            mask=mask,
            backbone_state=pretrained.backbone_state,
            granularity=granularity,
            metadata={"requested_sparsity": f"{sparsity:.4f}"},
        )
        if self.cache:
            self.cache.store_ticket(key, ticket)
        return ticket

    def draw_imp_ticket(
        self,
        prior: str,
        sparsity: float,
        on: str = "upstream",
        downstream: Optional[TaskSpec] = None,
        iterations: int = 3,
        epochs_per_iteration: int = 2,
        granularity: str = "unstructured",
    ) -> Ticket:
        """Draw a ticket by iterative magnitude pruning.

        ``prior="robust"`` runs **A-IMP** (adversarial objective between
        pruning iterations, Eq. 1); ``prior="natural"`` runs vanilla IMP.
        ``on`` selects whether the iterative pruning happens on the
        upstream/source task ("US" tickets) or on the supplied
        ``downstream`` task ("DS" tickets).
        """
        if on not in ("upstream", "downstream"):
            raise ValueError("on must be 'upstream' or 'downstream'")
        if on == "downstream" and downstream is None:
            raise ValueError("downstream task must be provided for on='downstream'")
        task = self.source if on == "upstream" else downstream
        key = self._ticket_key(
            self._scheme_for(prior),
            ticket_scheme="imp",
            sparsity=sparsity,
            granularity=granularity,
            on=on,
            task=task.name,
            task_classes=task.num_classes,
            task_train_size=len(task.train),
            task_test_size=len(task.test),
            iterations=iterations,
            epochs_per_iteration=epochs_per_iteration,
        )
        if self.cache:
            cached = self.cache.load_ticket(key)
            if cached is not None:
                return cached
        pretrained = self.pretrain(prior)
        adversarial = self._scheme_for(prior) == "adversarial"

        backbone = pretrained.build_backbone(self.config.base_width, seed=self.config.seed)
        model = ClassifierHead(backbone, num_classes=task.num_classes, seed=self.config.seed + 3)
        imp_config = IMPConfig(
            target_sparsity=sparsity,
            iterations=iterations,
            epochs_per_iteration=epochs_per_iteration,
            adversarial=adversarial,
            attack=self.config.attack(),
            granularity=granularity,
            trainer_config=self.config.trainer_config(epochs_per_iteration),
        )
        mask, _ = iterative_magnitude_prune(model, task.train, imp_config, seed=self.config.seed)
        backbone_mask = mask.strip_prefix("backbone.")
        ticket = Ticket(
            scheme="aimp" if adversarial else "imp",
            prior=pretrained.scheme,
            model_name=self.config.model_name,
            base_width=self.config.base_width,
            sparsity=backbone_mask.sparsity(),
            mask=backbone_mask,
            backbone_state=pretrained.backbone_state,
            granularity=granularity,
            metadata={"on": on, "task": task.name, "requested_sparsity": f"{sparsity:.4f}"},
        )
        if self.cache:
            self.cache.store_ticket(key, ticket)
        return ticket

    # ------------------------------------------------------------------
    # Stage 3: transfer
    # ------------------------------------------------------------------
    def transfer(
        self,
        ticket: Ticket,
        task: TaskSpec,
        mode: str = "finetune",
        config: Optional[TrainerConfig] = None,
        seed: Optional[int] = None,
    ) -> TransferResult:
        """Transfer ``ticket`` to ``task`` via finetuning or linear evaluation."""
        seed = seed if seed is not None else self.config.seed
        if mode == "finetune":
            return finetune_classification(ticket, task, config=config, seed=seed)
        if mode == "linear":
            return linear_evaluation(ticket, task, seed=seed)
        raise ValueError(f"unknown transfer mode {mode!r}; expected 'finetune' or 'linear'")

    def transfer_segmentation(
        self,
        ticket: Ticket,
        task: SegmentationTask,
        config: Optional[TrainerConfig] = None,
        seed: Optional[int] = None,
    ) -> TransferResult:
        """Transfer ``ticket`` to the dense-prediction task (mIoU score)."""
        seed = seed if seed is not None else self.config.seed
        return finetune_segmentation(ticket, task, config=config, seed=seed)

    # ------------------------------------------------------------------
    # LMP: drawing and transfer are a single step
    # ------------------------------------------------------------------
    def lmp_transfer(
        self,
        prior: str,
        sparsity: float,
        task: TaskSpec,
        lmp_config: Optional[LMPConfig] = None,
    ) -> TransferResult:
        """Learn a task-specific mask on frozen pretrained weights (LMP).

        Returns the downstream accuracy of the masked model with its
        trained linear head; the learned mask is attached to the result
        via ``extra['sparsity']`` and can be recovered with
        :func:`repro.pruning.lmp.extract_learned_mask` on the kept model.
        """
        pretrained = self.pretrain(prior)
        lmp_config = lmp_config if lmp_config is not None else LMPConfig(
            sparsity=sparsity, seed=self.config.seed
        )
        backbone = pretrained.build_backbone(self.config.base_width, seed=self.config.seed)
        backbone.requires_grad_(False)
        model = ClassifierHead(backbone, num_classes=task.num_classes, seed=self.config.seed + 5)
        attach_learnable_masks(
            model, sparsity=lmp_config.sparsity, seed=self.config.seed + 11
        )
        mask, _ = learn_mask(model, task.train, lmp_config)
        score = evaluate_accuracy(model, task.test)
        kind = "robust" if self._scheme_for(prior) in ("adversarial", "smoothing") else "natural"
        return TransferResult(
            ticket_name=f"{kind}-lmp-s{mask.sparsity():.2f}",
            task_name=task.name,
            mode="lmp",
            score=score,
            sparsity=mask.sparsity(),
            extra={"head_dense": 1.0},
        )
