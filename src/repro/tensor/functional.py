"""Differentiable functional operations built on :class:`repro.tensor.Tensor`.

These are the activation functions, losses, and miscellaneous helpers
used by the neural-network layers in :mod:`repro.nn` and by the
adversarial attacks in :mod:`repro.attacks`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.tensor.dtypes import default_dtype
from repro.tensor.tensor import Tensor, as_tensor


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit ``max(x, 0)``."""
    x = as_tensor(x)
    mask = (x.data > 0).astype(x.data.dtype)
    out_data = x.data * mask

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), backward_fn, "relu")


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with slope ``negative_slope`` for negative inputs."""
    x = as_tensor(x)
    scale = np.where(x.data > 0, 1.0, negative_slope)
    out_data = x.data * scale

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * scale)

    return Tensor._make(out_data, (x,), backward_fn, "leaky_relu")


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid ``1 / (1 + exp(-x))`` (numerically stable)."""
    x = as_tensor(x)
    out_data = np.where(
        x.data >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x.data, -500, 500))),
        np.exp(np.clip(x.data, -500, 500)) / (1.0 + np.exp(np.clip(x.data, -500, 500))),
    )

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (x,), backward_fn, "sigmoid")


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    x = as_tensor(x)
    out_data = np.tanh(x.data)

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * (1.0 - out_data**2))

    return Tensor._make(out_data, (x,), backward_fn, "tanh")


def clip(x: Tensor, minimum: float, maximum: float) -> Tensor:
    """Clamp values to ``[minimum, maximum]`` (gradient is zero outside)."""
    x = as_tensor(x)
    out_data = np.clip(x.data, minimum, maximum)
    mask = ((x.data >= minimum) & (x.data <= maximum)).astype(x.data.dtype)

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), backward_fn, "clip")


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``a`` where ``condition`` else ``b``.

    ``condition`` is a plain boolean array (it carries no gradient).
    """
    a = as_tensor(a)
    b = as_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward_fn(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.where(condition, grad, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(condition, 0.0, grad))

    return Tensor._make(out_data, (a, b), backward_fn, "where")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis`` (stable; implemented via ``log_softmax``)."""
    return log_softmax(x, axis=axis).exp()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))`` along ``axis``."""
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_sum
    softmax_data = np.exp(out_data)

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            grad_sum = grad.sum(axis=axis, keepdims=True)
            x._accumulate(grad - softmax_data * grad_sum)

    return Tensor._make(out_data, (x,), backward_fn, "log_softmax")


def batch_norm2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    mean: np.ndarray,
    var: np.ndarray,
    eps: float = 1e-5,
    training: bool = False,
) -> Tensor:
    """Channel-wise batch normalisation of NCHW activations, as one fused op.

    ``mean`` and ``var`` are plain per-channel numpy arrays computed
    exactly once by the caller: the batch statistics of ``x`` in
    training mode, the running statistics in evaluation mode.  Keeping
    the statistics out of the autograd graph avoids the second full
    mean/var pass the naive tensor-graph formulation pays, and the
    hand-written backward produces the same gradients in three passes
    over the activation instead of the ~10 temporaries the composed
    ``(x - mean) / sqrt(var + eps)`` graph allocates.

    ``training`` selects the backward formula: in training mode the
    statistics are functions of ``x`` and the full batch-norm Jacobian
    applies; in evaluation mode they are constants and the input
    gradient is a pure rescale.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    bias = as_tensor(bias)
    mean = np.asarray(mean, dtype=x.data.dtype)
    var = np.asarray(var, dtype=x.data.dtype)
    channel_shape = (1, -1, 1, 1)
    inv_std = (1.0 / np.sqrt(var + eps)).reshape(channel_shape)
    normalised = (x.data - mean.reshape(channel_shape)) * inv_std
    out_data = normalised * weight.data.reshape(channel_shape) + bias.data.reshape(channel_shape)
    # Only the weight gradient and the training-mode input gradient read
    # ``normalised``.  An eval-mode attack graph, whose weights
    # ``input_only_backward`` freezes, keeps none of it.
    kept_normalised = normalised if training or weight.requires_grad else None

    def backward_fn(grad: np.ndarray) -> None:
        axes = (0, 2, 3)
        if weight.requires_grad:
            if kept_normalised is None:
                raise RuntimeError(
                    "batch_norm2d: the weight needs a gradient, but it was frozen when the "
                    "forward was recorded, so its normalised input was not kept"
                )
            weight._accumulate((grad * kept_normalised).sum(axis=axes))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=axes))
        if x.requires_grad:
            grad_normalised = grad * weight.data.reshape(channel_shape)
            if training:
                grad_mean = grad_normalised.mean(axis=axes, keepdims=True)
                grad_dot = (grad_normalised * kept_normalised).mean(axis=axes, keepdims=True)
                x._accumulate((grad_normalised - grad_mean - kept_normalised * grad_dot) * inv_std)
            else:
                x._accumulate(grad_normalised * inv_std)

    return Tensor._make(out_data, (x, weight, bias), backward_fn, "batch_norm2d")


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a ``(N, num_classes)`` one-hot float encoding of integer labels."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    encoded = np.zeros((labels.shape[0], num_classes), dtype=default_dtype())
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def nll_loss(log_probs: Tensor, labels: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of integer ``labels`` under ``log_probs``.

    ``log_probs`` has shape ``(N, C)`` (or ``(N, C, *spatial)`` for dense
    prediction, in which case labels have matching spatial shape).
    """
    log_probs = as_tensor(log_probs)
    labels = np.asarray(labels, dtype=np.int64)
    if log_probs.ndim > 2:
        # Dense prediction: move the class axis last and flatten everything else.
        num_classes = log_probs.shape[1]
        flat = log_probs.transpose(
            (0,) + tuple(range(2, log_probs.ndim)) + (1,)
        ).reshape((-1, num_classes))
        return nll_loss(flat, labels.reshape(-1), reduction=reduction)

    num_samples = log_probs.shape[0]
    picked = log_probs.data[np.arange(num_samples), labels]
    if reduction == "mean":
        out_data = -picked.mean()
        scale = 1.0 / num_samples
    elif reduction == "sum":
        out_data = -picked.sum()
        scale = 1.0
    else:
        raise ValueError(f"unknown reduction: {reduction!r}")

    def backward_fn(grad: np.ndarray) -> None:
        if log_probs.requires_grad:
            full = np.zeros_like(log_probs.data)
            full[np.arange(num_samples), labels] = -scale
            log_probs._accumulate(full * grad)

    return Tensor._make(np.asarray(out_data), (log_probs,), backward_fn, "nll_loss")


def cross_entropy(
    logits: Tensor,
    labels: np.ndarray,
    reduction: str = "mean",
    label_smoothing: float = 0.0,
) -> Tensor:
    """Softmax cross-entropy between ``logits`` (N, C) and integer ``labels``.

    Supports optional label smoothing, used by some finetuning recipes.
    """
    logits = as_tensor(logits)
    log_probs = log_softmax(logits, axis=1 if logits.ndim > 1 else -1)
    if label_smoothing <= 0.0:
        return nll_loss(log_probs, labels, reduction=reduction)

    num_classes = logits.shape[1]
    smooth = label_smoothing / num_classes
    targets = one_hot(labels, num_classes) * (1.0 - label_smoothing) + smooth
    per_sample = -(log_probs * Tensor(targets)).sum(axis=1)
    if reduction == "mean":
        return per_sample.mean()
    if reduction == "sum":
        return per_sample.sum()
    raise ValueError(f"unknown reduction: {reduction!r}")


def mse_loss(prediction: Tensor, target: Tensor, reduction: str = "mean") -> Tensor:
    """Mean squared error between ``prediction`` and ``target``."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = prediction - target
    squared = diff * diff
    if reduction == "mean":
        return squared.mean()
    if reduction == "sum":
        return squared.sum()
    raise ValueError(f"unknown reduction: {reduction!r}")


def dropout(x: Tensor, p: float = 0.5, training: bool = True, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero activations with probability ``p`` during training."""
    if not training or p <= 0.0:
        return as_tensor(x)
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    x = as_tensor(x)
    rng = rng if rng is not None else np.random.default_rng()
    keep = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    out_data = x.data * keep

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad * keep)

    return Tensor._make(out_data, (x,), backward_fn, "dropout")
