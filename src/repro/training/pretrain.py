"""Pretraining entry points for the three schemes compared in the paper.

``pretrain_backbone(scheme=...)`` trains a ResNet + classifier head on
the source task with one of:

* ``"natural"`` — standard cross-entropy training (baseline, produces
  the dense model from which *natural* tickets are drawn);
* ``"adversarial"`` — PGD adversarial training (produces the dense
  model from which *robust* tickets are drawn);
* ``"smoothing"`` — Gaussian-noise-augmented training (the randomized
  smoothing alternative of Fig. 6).

The result carries the trained backbone state dict, which is the object
that gets pruned and transferred downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.attacks.pgd import PGDConfig
from repro.data.tasks import TaskSpec
from repro.models.heads import ClassifierHead
from repro.models.registry import build_model
from repro.models.resnet import ResNet
from repro.training.adversarial import AdversarialTrainer
from repro.training.evaluation import evaluate_accuracy
from repro.training.smoothing import GaussianAugmentTrainer
from repro.training.trainer import Trainer, TrainerConfig

#: Pretraining schemes understood by :func:`pretrain_backbone`.
PRETRAIN_SCHEMES: Tuple[str, ...] = ("natural", "adversarial", "smoothing")


@dataclass
class PretrainResult:
    """Outcome of pretraining a dense model on the source task."""

    scheme: str
    model_name: str
    backbone_state: Dict[str, np.ndarray]
    head_state: Dict[str, np.ndarray]
    source_accuracy: float
    config: Dict[str, float] = field(default_factory=dict)

    def build_backbone(self, base_width: int, seed: int = 0) -> ResNet:
        """Instantiate a fresh backbone loaded with the pretrained weights."""
        backbone = build_model(self.model_name, base_width=base_width, seed=seed)
        backbone.load_state_dict(self.backbone_state)
        return backbone


def pretrain_backbone(
    model_name: str,
    source: TaskSpec,
    scheme: str = "natural",
    base_width: int = 8,
    trainer_config: Optional[TrainerConfig] = None,
    attack: Optional[PGDConfig] = None,
    smoothing_sigma: float = 0.12,
    seed: int = 0,
) -> PretrainResult:
    """Pretrain a dense backbone on the source task with the given scheme."""
    if scheme not in PRETRAIN_SCHEMES:
        raise ValueError(f"unknown pretraining scheme {scheme!r}; expected one of {PRETRAIN_SCHEMES}")
    trainer_config = trainer_config if trainer_config is not None else TrainerConfig(seed=seed)

    backbone = build_model(model_name, base_width=base_width, seed=seed)
    model = ClassifierHead(backbone, num_classes=source.num_classes, seed=seed + 1)

    if scheme == "natural":
        trainer: Trainer = Trainer(model, config=trainer_config)
    elif scheme == "adversarial":
        trainer = AdversarialTrainer(
            model, config=trainer_config, attack=attack if attack is not None else PGDConfig()
        )
    else:
        trainer = GaussianAugmentTrainer(model, config=trainer_config, sigma=smoothing_sigma)

    trainer.fit(source.train)
    accuracy = evaluate_accuracy(model, source.test)

    return PretrainResult(
        scheme=scheme,
        model_name=model_name,
        backbone_state=backbone.state_dict(),
        head_state=model.fc.state_dict(),
        source_accuracy=accuracy,
        config={
            "base_width": float(base_width),
            "epochs": float(trainer_config.epochs),
            "seed": float(seed),
        },
    )
