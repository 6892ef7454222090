"""Convolution and pooling operations for the autograd engine.

All tensors follow the NCHW layout used throughout the reproduction:
``(batch, channels, height, width)``.

Convolution and pooling share one unfold, :func:`_im2col_t`, and its
adjoint fold, :func:`_col2im_t`.  Both walk the memoised
:func:`_window_plan` of their geometry, which clips every kernel tap's
window to the image, so padding never materialises as a padded copy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.tensor import sparse as _sparse
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _output_size(
    image_size: Tuple[int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[int, int]:
    """Spatial output size of a convolution window; raises when it is empty."""
    out_h = (image_size[0] + 2 * padding[0] - kernel_size[0]) // stride[0] + 1
    out_w = (image_size[1] + 2 * padding[1] - kernel_size[1]) // stride[1] + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"im2col produced non-positive output size {(out_h, out_w)} "
            f"for input {image_size}, kernel {kernel_size}, stride {stride}, padding {padding}"
        )
    return out_h, out_w


def _im2col_t(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` patches into *transposed* columns: ``(C * kh * kw, N * oh * ow)``.

    Row ``(c, i, j)`` holds what tap ``(i, j)`` of channel ``c`` reads
    at every output position.  The columns are assembled from
    ``kh * kw`` large strided slice copies whose inner run is a full
    output row, and BLAS consumes the layout without further copies.

    Padding is handled by clipping windows; there is no padded copy of
    the input.  Each tap copies only the window its :func:`_window_plan`
    entry keeps inside the image into a zero-filled buffer, so the
    padding positions read as zeros, bit for bit what a zero-padded
    copy would give.
    """
    batch, channels, height, width = images.shape
    kernel_h, kernel_w = kernel_size
    out_h, out_w = _output_size((height, width), kernel_size, stride, padding)

    # Without padding every tap's window is the whole output plane, so
    # nothing is left for zeros to fill.
    allocate = np.zeros if padding[0] or padding[1] else np.empty
    columns = allocate((channels, kernel_h, kernel_w, batch, out_h, out_w), dtype=images.dtype)
    channels_first = images.transpose(1, 0, 2, 3)
    for i, j, out_rows, out_cols, in_rows, in_cols in _window_plan(
        height, width, kernel_size, stride, padding
    ):
        columns[:, i, j, :, out_rows, out_cols] = channels_first[:, :, in_rows, in_cols]
    return (
        columns.reshape(channels * kernel_h * kernel_w, batch * out_h * out_w),
        (out_h, out_w),
    )


def _clip_axis(
    size: int, offset: int, stride: int, pad: int, out_size: int
) -> Optional[Tuple[slice, slice]]:
    """Output positions whose tap ``offset`` reads inside ``[0, size)``, and their source.

    Output position ``o`` reads source index ``offset + stride * o - pad``.
    Returns ``(output slice, source slice)``, or ``None`` when every
    position the tap reads is padding.
    """
    first = max(0, -((offset - pad) // stride))
    stop = min(out_size, (size - 1 + pad - offset) // stride + 1)
    if stop <= first:
        return None
    source = offset + stride * first - pad
    return slice(first, stop), slice(source, source + stride * (stop - first - 1) + 1, stride)


@lru_cache(maxsize=256)
def _window_plan(
    height: int,
    width: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[Tuple[int, int, slice, slice, slice, slice], ...]:
    """In-image window of every kernel tap, for one convolution geometry.

    Each entry is ``(i, j, out_rows, out_cols, in_rows, in_cols)``: the
    output positions whose tap ``(i, j)`` reads a pixel inside the
    ``height x width`` image, and the matching strided image slice.
    Taps that read only padding are left out; the rest keep the
    row-major tap order, so a fold that walks the plan adds each
    element's contributions in the same order as a walk over the
    padded plane.  Geometries repeat every training step, so the plan
    is memoised per geometry.
    """
    out_h, out_w = _output_size((height, width), kernel, stride, padding)
    rows = [_clip_axis(height, i, stride[0], padding[0], out_h) for i in range(kernel[0])]
    cols = [_clip_axis(width, j, stride[1], padding[1], out_w) for j in range(kernel[1])]
    return tuple(
        (i, j, row[0], col[0], row[1], col[1])
        for i, row in enumerate(rows)
        if row is not None
        for j, col in enumerate(cols)
        if col is not None
    )


def _col2im_t(
    columns_t: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`_im2col_t`: fold ``(C*kh*kw, N*oh*ow)`` columns into images.

    Adds each tap's :func:`_window_plan` window straight into the
    unpadded image, onto zeros and in tap order, so every element sees
    the same additions in the same order as on a zero-padded plane, and
    the result is the same to the byte (signed zeros included).  A 1x1
    kernel is a single tap, and windows that never overlap add onto
    distinct zeros, so every geometry takes this one path.
    """
    batch, channels, height, width = image_shape
    kernel_h, kernel_w = kernel_size
    out_h, out_w = _output_size((height, width), kernel_size, stride, padding)
    windows = columns_t.reshape(
        channels, kernel_h, kernel_w, batch, out_h, out_w
    ).transpose(3, 0, 1, 2, 4, 5)
    image = np.zeros(image_shape, dtype=columns_t.dtype)
    for i, j, out_rows, out_cols, in_rows, in_cols in _window_plan(
        height, width, kernel_size, stride, padding
    ):
        image[:, :, in_rows, in_cols] += windows[:, :, i, j, out_rows, out_cols]
    return image


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride=1,
    padding=0,
) -> Tensor:
    """2-D convolution (cross-correlation) in NCHW layout.

    Parameters
    ----------
    x:
        Input of shape ``(N, C_in, H, W)``.
    weight:
        Kernel of shape ``(C_out, C_in, kh, kw)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    stride = _pair(stride)
    padding = _pair(padding)
    out_channels, in_channels, kernel_h, kernel_w = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[1]} channels, weight expects {in_channels}"
        )

    columns_t, (out_h, out_w) = _im2col_t(x.data, (kernel_h, kernel_w), stride, padding)
    weight_matrix = weight.data.reshape(out_channels, -1)
    output = None
    if not is_grad_enabled() and not weight.requires_grad:
        # Frozen inference weights (fused/sealed models) may route the
        # GEMM through the CSR kernel when their sparsity clears the
        # measured crossover; ``None`` means "run the dense path".
        output = _sparse.maybe_sparse_gemm(weight_matrix, columns_t)
    if output is None:
        output = weight_matrix @ columns_t  # (C_out, N*out_h*out_w)
    if bias is not None:
        # The GEMM output is freshly allocated, so the bias can be added
        # in place without an extra full-size temporary.
        np.add(output, bias.data.reshape(-1, 1), out=output)
    batch = x.shape[0]
    out_data = output.reshape(out_channels, batch, out_h, out_w).transpose(1, 0, 2, 3)

    parents = (x, weight) if bias is None else (x, weight, bias)
    # Only the weight gradient reads the columns.  An attack graph, whose
    # weights ``input_only_backward`` freezes, keeps none of them.
    weight_columns_t = columns_t if weight.requires_grad else None

    def backward_fn(grad: np.ndarray) -> None:
        # grad: (N, C_out, out_h, out_w) -> (C_out, N*out_h*out_w)
        grad_matrix = grad.transpose(1, 0, 2, 3).reshape(out_channels, -1)
        if weight.requires_grad:
            if weight_columns_t is None:
                raise RuntimeError(
                    "conv2d: the weight needs a gradient, but it was frozen when the "
                    "forward was recorded, so its im2col columns were not kept"
                )
            grad_weight = grad_matrix @ weight_columns_t.T
            weight._accumulate(grad_weight.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_matrix.sum(axis=1))
        if x.requires_grad:
            grad_columns_t = weight_matrix.T @ grad_matrix
            grad_input = _col2im_t(
                grad_columns_t, x.shape, (kernel_h, kernel_w), stride, padding
            )
            x._accumulate(grad_input)

    return Tensor._make(out_data, parents, backward_fn, "conv2d")


def max_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    """Max pooling over spatial windows (``stride`` defaults to the kernel size)."""
    x = as_tensor(x)
    kernel = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel
    batch, channels, height, width = x.shape
    planes = (batch * channels, 1, height, width)
    columns, (out_h, out_w) = _im2col_t(x.data.reshape(planes), kernel, stride, (0, 0))
    # columns: (kh*kw, N*C*out_h*out_w), one window per column.
    argmax = columns.argmax(axis=0)
    windows = np.arange(columns.shape[1])
    out_data = columns[argmax, windows].reshape(batch, channels, out_h, out_w)

    def backward_fn(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_columns = np.zeros_like(columns)
        grad_columns[argmax, windows] = grad.reshape(-1)
        grad_input = _col2im_t(grad_columns, planes, kernel, stride, (0, 0))
        x._accumulate(grad_input.reshape(x.shape))

    return Tensor._make(out_data, (x,), backward_fn, "max_pool2d")


def avg_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    """Average pooling over spatial windows (``stride`` defaults to the kernel size)."""
    x = as_tensor(x)
    kernel = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel
    batch, channels, height, width = x.shape
    planes = (batch * channels, 1, height, width)
    columns, (out_h, out_w) = _im2col_t(x.data.reshape(planes), kernel, stride, (0, 0))
    out_data = columns.mean(axis=0).reshape(batch, channels, out_h, out_w)
    window = kernel[0] * kernel[1]

    def backward_fn(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_columns = np.broadcast_to(grad.reshape(1, -1) / window, columns.shape)
        grad_input = _col2im_t(grad_columns, planes, kernel, stride, (0, 0))
        x._accumulate(grad_input.reshape(x.shape))

    return Tensor._make(out_data, (x,), backward_fn, "avg_pool2d")


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling; only ``output_size == 1`` (global pooling) is needed."""
    if output_size != 1:
        raise NotImplementedError("only global average pooling (output_size=1) is supported")
    x = as_tensor(x)
    return x.mean(axis=(2, 3), keepdims=True)


def conv2d_transpose_upsample(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour spatial upsampling by an integer ``scale``.

    This stands in for a learned transposed convolution in the FCN
    segmentation head; the subsequent 1x1/3x3 convolutions supply the
    learnable mixing.
    """
    x = as_tensor(x)
    scale = int(scale)
    out_data = x.data.repeat(scale, axis=2).repeat(scale, axis=3)

    def backward_fn(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        batch, channels, height, width = x.shape
        reshaped = grad.reshape(batch, channels, height, scale, width, scale)
        x._accumulate(reshaped.sum(axis=(3, 5)))

    return Tensor._make(out_data, (x,), backward_fn, "upsample")
