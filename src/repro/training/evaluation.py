"""Model evaluation helpers: logits, clean / adversarial / corruption accuracy."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.attacks.pgd import PGDConfig, pgd_attack
from repro.data.corruptions import available_corruptions, corrupt
from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn.fuse import maybe_fuse
from repro.nn.module import Module
from repro.tensor import Tensor, no_grad


def predict_logits(
    model: Module, images: np.ndarray, batch_size: int = 64, fused: bool = True
) -> np.ndarray:
    """Run the model in evaluation mode and return its outputs for ``images``.

    This is the one batched evaluation forward: accuracy, linear-probe
    features, segmentation maps, FID embeddings, adversarial scoring and
    the serving engine all run their models over inputs through it, so
    a change to the eval path (or a hook into it) lands in one place.
    The outputs are whatever the model returns, class logits or pooled
    features, computed ``batch_size`` rows at a time under ``no_grad``.

    When ``fused`` is true (the default) and the model contains foldable
    Conv+BN pairs, the batches run through an inference-only fused copy
    (see :mod:`repro.nn.fuse`), which skips one full pass over every
    intermediate activation per pair.  Models without BatchNorm — and
    already-fused copies — pass through unchanged.

    An empty ``images`` array still produces logits with the full class
    dimension (shape ``(0, C, ...)``) by running one zero-length forward
    pass, so downstream ``argmax(axis=1)`` keeps working.
    """
    model.eval()
    if fused:
        model = maybe_fuse(model)
    outputs = []
    with no_grad():
        for start in range(0, len(images), batch_size):
            batch = images[start : start + batch_size]
            outputs.append(model(Tensor(batch)).data)
        if not outputs:
            return model(Tensor(images)).data
    return np.concatenate(outputs, axis=0)


def evaluate_accuracy(model: Module, dataset: ArrayDataset, batch_size: int = 64) -> float:
    """Top-1 accuracy (per-pixel accuracy for dense labels)."""
    logits = predict_logits(model, dataset.images, batch_size=batch_size)
    predictions = logits.argmax(axis=1)
    return float((predictions == dataset.labels).mean())


def evaluate_adversarial_accuracy(
    model: Module,
    dataset: ArrayDataset,
    attack: Optional[PGDConfig] = None,
    batch_size: int = 64,
    seed: int = 0,
) -> float:
    """Accuracy under a PGD attack with the given configuration.

    Both the attack and the scoring run against the *unfused* model:
    the attack's loss gradients define the threat model, and scoring
    with anything but the attacked network (even a fused copy that
    agrees to float tolerance) could flip boundary samples and shift
    the metric.  The scoring forward is a small fraction of the
    multi-step attack loop, so there is nothing to win by fusing it.
    """
    attack = attack if attack is not None else PGDConfig()
    rng = np.random.default_rng(seed)
    model.eval()
    correct = 0
    total = 0
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    for images, labels in loader:
        adversarial = pgd_attack(model, images, labels, attack, rng=rng)
        logits = predict_logits(model, adversarial, batch_size, fused=False)
        correct += int((logits.argmax(axis=1) == labels).sum())
        total += len(labels)
    return correct / total if total else float("nan")


def evaluate_corruption_accuracy(
    model: Module,
    dataset: ArrayDataset,
    severity: int = 3,
    batch_size: int = 64,
    seed: int = 0,
    inference_model: Optional[Module] = None,
) -> float:
    """Mean accuracy across all implemented corruptions at the given severity."""
    model.eval()
    if inference_model is None:
        inference_model = maybe_fuse(model)  # fold Conv+BN once, not per corruption
    accuracies = []
    for index, corruption in enumerate(available_corruptions()):
        corrupted = corrupt(dataset.images, corruption, severity=severity, seed=seed + index)
        logits = predict_logits(inference_model, corrupted, batch_size=batch_size, fused=False)
        accuracies.append(float((logits.argmax(axis=1) == dataset.labels).mean()))
    return float(np.mean(accuracies))
