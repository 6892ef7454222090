"""Adversarial (PGD / minimax) training — Eq. 1 of the paper.

Each mini-batch is replaced by PGD adversarial examples crafted against
the current model before the usual cross-entropy step, i.e. the inner
maximisation of

    min_theta  max_{||delta||_inf <= eps}  l(f(m ⊙ theta, x + delta), y)

is approximated with a few PGD steps.  This is the robust pretraining
scheme used to produce the dense models from which robust tickets are
drawn, and also the objective of A-IMP between pruning iterations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from repro.attacks.pgd import PGDConfig, pgd_attack
from repro.nn.module import Module, Parameter
from repro.training.trainer import Trainer, TrainerConfig
from repro.utils.seeding import seeded_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.pruning.mask import PruningMask


class AdversarialTrainer(Trainer):
    """PGD adversarial training (Madry et al., 2017)."""

    def __init__(
        self,
        model: Module,
        config: Optional[TrainerConfig] = None,
        attack: Optional[PGDConfig] = None,
        mask: Optional["PruningMask"] = None,
        parameters: Optional[Iterable[Parameter]] = None,
    ) -> None:
        super().__init__(model, config=config, mask=mask, parameters=parameters)
        self.attack = attack if attack is not None else PGDConfig()
        self._attack_rng = seeded_rng(self.config.seed + 17)

    def prepare_batch(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Replace the clean batch with PGD adversarial examples."""
        # The attack is crafted in evaluation mode so batch-norm statistics
        # are not perturbed by the attack's forward passes; the caller's
        # mode is restored for the subsequent parameter update, also when
        # the attack raises.
        was_training = self.model.training
        self.model.eval()
        try:
            return pgd_attack(self.model, images, labels, self.attack, rng=self._attack_rng)
        finally:
            self.model.train(was_training)
