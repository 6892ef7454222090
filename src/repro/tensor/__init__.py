"""Tape-based reverse-mode automatic differentiation on numpy arrays.

This subpackage is the computational substrate for the whole
reproduction: a minimal but complete autograd engine providing the
operations needed to train convolutional networks (ResNets), run
adversarial attacks (gradients w.r.t. inputs), and learn pruning masks
(straight-through estimators).

Public API
----------
``Tensor``
    The autograd array type.  Wraps a ``numpy.ndarray`` and records the
    operations applied to it so gradients can be computed with
    :meth:`Tensor.backward`.
``no_grad``
    Context manager disabling graph recording (used for evaluation and
    for in-place parameter updates inside optimizers).
Compute precision
    ``default_dtype`` / ``set_default_dtype`` / ``default_dtype_scope``
    configure the floating dtype the engine computes in (``float32`` by
    default; ``float64`` for high-precision gradient checking).
Functional operations
    ``relu``, ``softmax``, ``log_softmax``, ``cross_entropy``,
    ``conv2d``, ``max_pool2d``, ``avg_pool2d``, ... re-exported from
    :mod:`repro.tensor.functional` and :mod:`repro.tensor.conv`.
"""

from repro.tensor.dtypes import (
    ACCUMULATION_DTYPE,
    default_dtype,
    default_dtype_scope,
    set_default_dtype,
)
from repro.tensor.sanitize import (
    SanitizeError,
    is_sanitize_active,
    sanitize_scope,
    set_sanitize,
)
from repro.tensor.sparse import (
    SparsePolicy,
    sparse_backend,
    sparse_policy_scope,
)
from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled, as_tensor
from repro.tensor.functional import (
    batch_norm2d,
    relu,
    leaky_relu,
    sigmoid,
    tanh,
    softmax,
    log_softmax,
    cross_entropy,
    nll_loss,
    mse_loss,
    dropout,
    clip,
    where,
    one_hot,
)
from repro.tensor.conv import (
    conv2d,
    conv2d_transpose_upsample,
    max_pool2d,
    avg_pool2d,
    adaptive_avg_pool2d,
)

__all__ = [
    "Tensor",
    "ACCUMULATION_DTYPE",
    "default_dtype",
    "default_dtype_scope",
    "set_default_dtype",
    "SanitizeError",
    "is_sanitize_active",
    "sanitize_scope",
    "set_sanitize",
    "SparsePolicy",
    "sparse_backend",
    "sparse_policy_scope",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "batch_norm2d",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "dropout",
    "clip",
    "where",
    "one_hot",
    "conv2d",
    "conv2d_transpose_upsample",
    "max_pool2d",
    "avg_pool2d",
    "adaptive_avg_pool2d",
]
