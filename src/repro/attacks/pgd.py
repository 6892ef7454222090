"""Projected Gradient Descent (PGD) attack under an L-infinity constraint.

This is the attack of Madry et al. (2017), used both as the evaluation
attack (Adv-Acc in Fig. 8 / Tab. I) and as the inner maximisation of the
adversarial training objective (Eq. 1 of the paper).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from repro.nn.module import Module
from repro.tensor import Tensor, cross_entropy, default_dtype


@dataclass(frozen=True)
class PGDConfig:
    """Hyper-parameters of the PGD attack.

    Attributes
    ----------
    epsilon:
        L-infinity radius of the perturbation ball.
    step_size:
        Per-iteration step size (``alpha``).  Defaults to
        ``2.5 * epsilon / steps`` when left as ``None``, the standard
        heuristic.
    steps:
        Number of gradient ascent iterations.
    random_start:
        Whether to start from a uniform random point inside the ball.
    """

    epsilon: float = 8.0 / 255.0
    step_size: Optional[float] = None
    steps: int = 7
    random_start: bool = True

    def resolved_step_size(self) -> float:
        if self.step_size is not None:
            return float(self.step_size)
        return 2.5 * self.epsilon / max(self.steps, 1)


def pgd_attack(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    config: PGDConfig,
    rng: Optional[np.random.Generator] = None,
    clip_min: float = 0.0,
    clip_max: float = 1.0,
    loss_fn: Callable = cross_entropy,
) -> np.ndarray:
    """Craft PGD adversarial examples for ``images`` under ``config``.

    Returns a new array.  The backward pass is input-only (see
    :func:`input_only_backward`): no parameter gradient is computed, so
    the model's parameters, their ``requires_grad`` flags and their
    ``.grad`` buffers are left as the caller had them.  The attack flips
    ``requires_grad`` on the model's shared parameters while it runs, so
    no other thread may use the model during an attack.
    """
    images = np.asarray(images, dtype=default_dtype())
    if config.epsilon <= 0 or config.steps <= 0:
        return images.copy()
    rng = rng if rng is not None else np.random.default_rng()
    step_size = config.resolved_step_size()

    if config.random_start:
        delta = rng.uniform(-config.epsilon, config.epsilon, size=images.shape).astype(
            images.dtype, copy=False
        )
    else:
        delta = np.zeros_like(images)
    adversarial = np.clip(images + delta, clip_min, clip_max)

    with input_only_backward(model):
        for _ in range(config.steps):
            inputs = Tensor(adversarial, requires_grad=True)
            loss = loss_fn(model(inputs), labels)
            loss.backward()
            gradient = inputs.grad
            if gradient is None:
                raise RuntimeError("input gradient was not populated during PGD")
            adversarial = adversarial + step_size * np.sign(gradient)
            adversarial = np.clip(adversarial, images - config.epsilon, images + config.epsilon)
            adversarial = np.clip(adversarial, clip_min, clip_max)
    return adversarial


@contextlib.contextmanager
def input_only_backward(model: Module) -> Iterator[None]:
    """Turn ``requires_grad`` off on every trainable parameter of ``model`` for the block.

    An attack needs the gradient of the loss with respect to its input
    alone.  With the parameters frozen, the backward closures skip
    their weight and bias work, and no parameter ``.grad`` is written.
    The graph an attack records keeps no im2col columns either: a
    convolution keeps them only for a weight that needs a gradient when
    the forward runs.
    Recording stays on, so the convolutions and matmuls keep the dense
    GEMM a training step runs (the CSR kernels serve frozen weights
    only under ``no_grad``) and the input gradient is the same to the
    byte.  Only the flags this turned off are turned back on, in a
    ``finally``, so parameters the caller had frozen (compacted or LMP
    models carry some) stay frozen even when the block raises.
    """
    trainable = [parameter for parameter in model.parameters() if parameter.requires_grad]
    for parameter in trainable:
        parameter.requires_grad = False
    try:
        yield
    finally:
        for parameter in trainable:
            parameter.requires_grad = True
