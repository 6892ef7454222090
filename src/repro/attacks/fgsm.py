"""Fast Gradient Sign Method (FGSM) attack."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.attacks.pgd import input_only_backward
from repro.nn.module import Module
from repro.tensor import Tensor, cross_entropy, default_dtype


def fgsm_attack(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    epsilon: float,
    clip_min: float = 0.0,
    clip_max: float = 1.0,
    loss_fn: Callable = cross_entropy,
) -> np.ndarray:
    """Craft FGSM adversarial examples ``x + epsilon * sign(grad_x loss)``.

    The model is evaluated in its current train/eval mode; callers should
    normally put it in ``eval()`` first so batch-norm uses running
    statistics.  The backward pass is input-only, as in
    :func:`~repro.attacks.pgd.pgd_attack`: the model's parameters, their
    ``requires_grad`` flags and their ``.grad`` buffers are left as the
    caller had them, and no other thread may use the model during the
    attack, because it flips ``requires_grad`` on the shared parameters.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if epsilon == 0:
        return np.asarray(images, dtype=default_dtype()).copy()

    inputs = Tensor(np.asarray(images, dtype=default_dtype()), requires_grad=True)
    with input_only_backward(model):
        loss = loss_fn(model(inputs), labels)
        loss.backward()
    if inputs.grad is None:
        raise RuntimeError("input gradient was not populated; is the model differentiable?")
    adversarial = inputs.data + epsilon * np.sign(inputs.grad)
    return np.clip(adversarial, clip_min, clip_max)
