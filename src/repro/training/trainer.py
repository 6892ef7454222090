"""The natural (standard cross-entropy) training loop."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn.module import Module, Parameter
from repro.optim import SGD, MultiStepLR
from repro.optim.optimizer import Optimizer
from repro.optim.schedules import LRSchedule
from repro.tensor import Tensor, cross_entropy
from repro.utils.logging import MetricLogger
from repro.utils.seeding import seeded_rng

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.pruning.mask import PruningMask


@dataclass
class TrainerConfig:
    """Hyper-parameters of a training run.

    The defaults mirror the paper's downstream finetuning recipe (SGD
    with momentum 0.9 and weight decay 1e-4, multi-step decay by 0.1 at
    1/3 and 2/3 of the run), scaled down in epochs for the CPU budget.
    """

    epochs: int = 6
    batch_size: int = 32
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    lr_milestones: Optional[Sequence[int]] = None
    lr_gamma: float = 0.1
    shuffle: bool = True
    seed: int = 0

    def resolved_milestones(self) -> Sequence[int]:
        if self.lr_milestones is not None:
            return self.lr_milestones
        return (max(1, self.epochs // 3), max(2, 2 * self.epochs // 3))


class Trainer:
    """Standard supervised training with cross-entropy loss.

    Parameters
    ----------
    model:
        The module to train; its output must be class logits ``(N, C)``
        (or ``(N, C, H, W)`` for dense prediction).
    config:
        Optimisation hyper-parameters.
    mask:
        Optional pruning mask.  When provided, masked weights are zeroed
        before training starts, their gradients are zeroed every step,
        and the mask is re-applied after every optimizer step so pruned
        weights can never regrow (momentum and weight decay would
        otherwise reintroduce them).
    parameters:
        Restrict optimisation to these parameters (used by linear
        evaluation, where only the probe is trainable).
    """

    def __init__(
        self,
        model: Module,
        config: Optional[TrainerConfig] = None,
        mask: Optional["PruningMask"] = None,
        parameters: Optional[Iterable[Parameter]] = None,
    ) -> None:
        self.model = model
        self.config = config if config is not None else TrainerConfig()
        self.mask = mask
        self.history = MetricLogger()
        self._rng = seeded_rng(self.config.seed)
        trainable = list(parameters) if parameters is not None else [
            parameter for parameter in model.parameters() if parameter.requires_grad
        ]
        self.optimizer: Optimizer = SGD(
            trainable,
            lr=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        self.schedule: LRSchedule = MultiStepLR(
            self.optimizer,
            base_lr=self.config.learning_rate,
            milestones=self.config.resolved_milestones(),
            gamma=self.config.lr_gamma,
        )
        if self.mask is not None:
            self.mask.apply(self.model)

    # ------------------------------------------------------------------
    # Batch hooks (overridden by adversarial / smoothing trainers)
    # ------------------------------------------------------------------
    def prepare_batch(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Transform input images before the forward pass (identity here)."""
        return images

    def compute_loss(self, images: np.ndarray, labels: np.ndarray) -> Tensor:
        """Forward pass and loss for one (already prepared) batch."""
        logits = self.model(Tensor(images))
        return cross_entropy(logits, labels)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def fit(self, dataset: ArrayDataset, epochs: Optional[int] = None) -> MetricLogger:
        """Train on ``dataset`` and return the metric history."""
        epochs = epochs if epochs is not None else self.config.epochs
        loader = DataLoader(
            dataset,
            batch_size=self.config.batch_size,
            shuffle=self.config.shuffle,
            rng=self._rng,
        )
        for epoch in range(epochs):
            self.schedule.step(epoch)
            epoch_loss = self._train_one_epoch(loader)
            self.history.log(train_loss=epoch_loss, lr=self.optimizer.lr)
        return self.history

    def _train_one_epoch(self, loader: DataLoader) -> float:
        self.model.train()
        losses = []
        for images, labels in loader:
            prepared = self.prepare_batch(images, labels)
            self.optimizer.zero_grad()
            loss = self.compute_loss(prepared, labels)
            loss.backward()
            if self.mask is not None:
                self.mask.apply_to_gradients(self.model)
            self.optimizer.step()
            if self.mask is not None:
                self.mask.apply(self.model)
            losses.append(loss.item())
        return float(np.mean(losses)) if losses else float("nan")
