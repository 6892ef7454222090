"""The ``Tensor`` autograd array and its primitive operations.

The engine is a classic dynamic tape: every operation that involves at
least one tensor requiring gradients produces a new :class:`Tensor`
holding references to its parents and a closure that, given the output
gradient, accumulates gradients into the parents.  Calling
:meth:`Tensor.backward` topologically sorts the recorded graph and runs
the closures in reverse order, freeing the tape as it walks it: once a
node's closure has run, the node drops its gradient, its closure and
its parent links, so the activations and im2col columns only backward
needed go with them.  A graph can therefore be differentiated once.

Only the operations needed by the reproduction are implemented, but
each supports full numpy broadcasting with correct gradient reduction.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.tensor import sanitize as _sanitize
from repro.tensor import sparse as _sparse
from repro.tensor.dtypes import default_dtype

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


class _GradMode(threading.local):
    """Thread-local flag controlling whether operations are recorded."""

    def __init__(self) -> None:
        self.enabled = True


_grad_mode = _GradMode()


def is_grad_enabled() -> bool:
    """Return ``True`` if operations are currently being recorded."""
    return _grad_mode.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager that disables recording of the autograd tape.

    Used for evaluation loops, parameter updates inside optimizers, and
    any bookkeeping arithmetic whose gradients are never needed.
    """
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over dimensions that were broadcast from size 1.
    axes = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value: ArrayLike, dtype=None) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=False, dtype=dtype)


class Tensor:
    """A numpy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like initial value.  Floating point data is stored with
        the engine's configured compute precision by default (see
        :func:`repro.tensor.dtypes.set_default_dtype`; ``float32`` out
        of the box).
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_op")
    __array_priority__ = 1000  # numpy defers binary ops to Tensor

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        dtype=None,
        _parents: Sequence["Tensor"] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        _op: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        array = np.asarray(data, dtype=dtype)
        if array.dtype.kind in "fc" and dtype is None:
            array = array.astype(default_dtype(), copy=False)
        elif array.dtype.kind in "iub" and dtype is None and requires_grad:
            array = array.astype(default_dtype())
        self.data = array
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents = tuple(_parents)
        self._backward_fn = _backward_fn
        self._op = _op

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a tensor with exactly one element, got shape {self.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached copy of this tensor."""
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        _sanitize.check_forward(data, op)
        requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not requires_grad:
            return Tensor(data, requires_grad=False)
        return Tensor(
            data,
            requires_grad=True,
            _parents=parents,
            _backward_fn=backward_fn,
            _op=op,
        )

    def _accumulate(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into this tensor's ``.grad`` buffer.

        A leaf (a tensor no op produced, such as a parameter) stores its
        first gradient as its own array.  The array a closure hands over
        may be shared: ``a + b`` gives both operands the same one.  A
        leaf's gradient outlives backward and is updated in place
        (:meth:`repro.pruning.mask.PruningMask.apply_to_gradients`), so a
        shared array would carry one leaf's update into another's.  An
        interior node's gradient is released as soon as its closure has
        run, so it may share; only views and read-only arrays are copied
        there.
        """
        grad = np.asarray(grad, dtype=self.data.dtype if self.data.dtype.kind == "f" else default_dtype())
        _sanitize.check_gradient(grad, self._op or "leaf")
        if self.grad is None:
            if not self._op or grad.base is not None or not grad.flags.writeable:
                grad = grad.copy()
            self.grad = grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        The closures run in reverse topological order, so a node's
        gradient is complete when its closure runs.  The node hands its
        ``.grad``, its closure and its parent links over to that run, so
        whatever only backward needed (activations, im2col columns,
        interior gradients) is freed while the walk goes on, not when
        the caller drops the loss.  Leaves keep their ``.grad``.  A graph
        is differentiated once: a later backward that reaches a released
        node raises ``RuntimeError`` naming its op, instead of silently
        losing the gradients behind it.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1`` which is only valid for scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient requires a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                grad = np.broadcast_to(grad, self.data.shape).copy()

        # Topological sort of the reachable graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            node_id = id(node)
            if node_id in visited:
                continue
            visited.add(node_id)
            if node._op and node._backward_fn is None:
                raise RuntimeError(
                    f"backward() reached a {node._op!r} node that an earlier backward "
                    "already released: a graph can be differentiated once"
                )
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        # Popping drops the walk's own reference to each node, so a node
        # nothing else holds is freed, activation included, once its
        # closure has run.
        while topo:
            node = topo.pop()
            backward_fn, node_grad = node._backward_fn, node.grad
            if backward_fn is None:
                continue  # a leaf keeps its gradient
            node._backward_fn, node._parents, node.grad = None, (), None
            if node_grad is not None:
                backward_fn(node_grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn, "add")

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(out_data, (self,), backward_fn, "neg")

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data - other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn, "sub")

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn, "mul")

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward_fn, "div")

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data**exponent

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward_fn, "pow")

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix product supporting 2-D operands (and batched left-hand 2-D)."""
        other = as_tensor(other)
        out_data = None
        if (
            not is_grad_enabled()
            and not other.requires_grad
            and self.data.ndim == 2
            and other.data.ndim == 2
        ):
            # ``x @ W.T`` with a frozen, heavily pruned right-hand side
            # (Linear layers of sealed models) may run through the CSR
            # kernel; ``None`` means the dense path wins.
            out_data = _sparse.maybe_sparse_rhs_gemm(self.data, other.data)
        if out_data is None:
            out_data = self.data @ other.data

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data).reshape(self.shape))
                else:
                    self._accumulate(
                        _unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape)
                    )
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad).reshape(other.shape))
                else:
                    other._accumulate(
                        _unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape)
                    )

        return Tensor._make(out_data, (self, other), backward_fn, "matmul")

    # ------------------------------------------------------------------
    # Comparisons (no gradient)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > as_tensor(other).data

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= as_tensor(other).data

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < as_tensor(other).data

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= as_tensor(other).data

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original_shape = self.shape
        out_data = self.data.reshape(shape)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward_fn, "reshape")

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward_fn, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def flatten(self, start_dim: int = 0) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onwards into one."""
        lead = self.shape[:start_dim]
        return self.reshape(lead + (-1,))

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        original_shape = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros(original_shape, dtype=grad.dtype)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(out_data, (self,), backward_fn, "getitem")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.shape

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(input_shape) for a in axes)
                shape = list(input_shape)
                for a in axes:
                    shape[a] = 1
                expanded = grad.reshape(shape)
            self._accumulate(np.broadcast_to(expanded, input_shape).copy())

        return Tensor._make(out_data, (self,), backward_fn, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Biased variance (divides by N), matching batch-norm semantics."""
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            expanded_out = self.data.max(axis=axis, keepdims=True)
            expanded_grad = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                shape = list(self.shape)
                for a in axes:
                    shape[a] = 1
                expanded_grad = grad.reshape(shape)
            elif axis is None and not keepdims:
                expanded_grad = np.asarray(grad).reshape((1,) * self.ndim)
            mask = (self.data == expanded_out).astype(self.data.dtype)
            # Split gradient equally among ties, matching numpy semantics loosely.
            counts = mask.sum(axis=axis, keepdims=True)
            self._accumulate(mask * expanded_grad / counts)

        return Tensor._make(out_data, (self,), backward_fn, "max")

    # ------------------------------------------------------------------
    # Elementwise transcendental functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward_fn, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward_fn, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out_data)

        return Tensor._make(out_data, (self,), backward_fn, "sqrt")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward_fn, "abs")

    # ------------------------------------------------------------------
    # Concatenation / stacking
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward_fn(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tuple(tensors), backward_fn, "concat")

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward_fn(grad: np.ndarray) -> None:
            slices = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, slices):
                if tensor.requires_grad:
                    tensor._accumulate(np.squeeze(piece, axis=axis))

        return Tensor._make(out_data, tuple(tensors), backward_fn, "stack")

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(
            np.zeros(shape, dtype=dtype if dtype is not None else default_dtype()),
            requires_grad=requires_grad,
            dtype=dtype,
        )

    @staticmethod
    def ones(shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(
            np.ones(shape, dtype=dtype if dtype is not None else default_dtype()),
            requires_grad=requires_grad,
            dtype=dtype,
        )

    @staticmethod
    def full(shape, value: float, requires_grad: bool = False, dtype=None) -> "Tensor":
        return Tensor(
            np.full(shape, value, dtype=dtype if dtype is not None else default_dtype()),
            requires_grad=requires_grad,
            dtype=dtype,
        )
