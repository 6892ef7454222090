"""Convolution and pooling operations (im2col based) for the autograd engine.

All tensors follow the NCHW layout used throughout the reproduction:
``(batch, channels, height, width)``.
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


def im2col(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold image patches into columns.

    Parameters
    ----------
    images:
        Array of shape ``(N, C, H, W)``.
    kernel_size, stride, padding:
        Convolution geometry as ``(height, width)`` pairs.

    Returns
    -------
    columns:
        Array of shape ``(N * out_h * out_w, C * kh * kw)``.
    out_size:
        The spatial output size ``(out_h, out_w)``.
    """
    batch, channels, height, width = images.shape
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    pad_h, pad_w = padding
    out_h, out_w = _output_size((height, width), kernel_size, stride, padding)

    if pad_h or pad_w:
        images = np.pad(
            images,
            ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)),
            mode="constant",
        )

    strides = images.strides
    windows = np.lib.stride_tricks.as_strided(
        images,
        shape=(batch, channels, out_h, out_w, kernel_h, kernel_w),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride_h,
            strides[3] * stride_w,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    # (N, out_h, out_w, C, kh, kw) -> (N * out_h * out_w, C * kh * kw).
    # The reshape of the transposed window view materialises a fresh
    # C-contiguous copy whenever the strides require one (every real
    # convolution geometry; note the copy still carries a non-None
    # ``.base``).  Only when reshape can return a view does it alias
    # ``images`` — and then it inherits the window view's read-only
    # flag, which is exactly the condition for the explicit copy that
    # keeps this public API's contract of a writable array independent
    # of its input.
    columns = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )
    if not columns.flags.writeable:
        columns = np.array(columns)
    return columns, (out_h, out_w)


def _im2col_t(
    images: np.ndarray,
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold patches into *transposed* columns: ``(C * kh * kw, N * oh * ow)``.

    This is the layout :func:`conv2d` computes in.  Unlike the
    row-major layout of :func:`im2col` — whose materialisation is a
    single generic 6-D gather with a ``kw``-element inner run — the
    transposed layout is assembled from ``kh * kw`` large strided slice
    copies whose inner run is a full output row, which is 2-3x faster
    on the 3x3 geometries that dominate ResNet inference and training.
    BLAS consumes either orientation without further copies.

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
    is memoised like :func:`_scatter_plan`.
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


@lru_cache(maxsize=256)
def _scatter_plan(
    padded_h: int,
    padded_w: int,
    kernel: Tuple[int, int],
    stride: Tuple[int, int],
    out_size: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precomputed scatter-add plan for one convolution geometry.

    Maps every column element ``(i, j, oh, ow)`` to its flat position in
    the padded spatial plane, pre-sorted so the accumulation becomes a
    single segmented reduction (``np.add.reduceat``) instead of a python
    loop over kernel offsets.  Geometries repeat every training step, so
    the plan is memoised per (padded size, kernel, stride, output size).
    """
    kernel_h, kernel_w = kernel
    stride_h, stride_w = stride
    out_h, out_w = out_size
    rows = (
        np.arange(kernel_h).reshape(-1, 1, 1, 1)
        + stride_h * np.arange(out_h).reshape(1, 1, -1, 1)
    )
    cols = (
        np.arange(kernel_w).reshape(1, -1, 1, 1)
        + stride_w * np.arange(out_w).reshape(1, 1, 1, -1)
    )
    flat = (rows * padded_w + cols).reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    starts = np.flatnonzero(np.r_[True, sorted_flat[1:] != sorted_flat[:-1]])
    return order, starts, sorted_flat[starts]


#: Above this many kernel taps, the python loop over kernel offsets is
#: dominated by its dispatch overhead and the single segmented
#: reduceat-scatter wins; below it, the handful of big strided adds is
#: faster (measured crossover on the shapes this engine runs).
_SCATTER_MIN_TAPS = 16


def col2im(
    columns: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Fold columns back into images, accumulating overlaps (adjoint of im2col).

    Dispatches on the window geometry:

    * ``1x1`` kernels and non-overlapping windows (``stride >= kernel``,
      every pooling backward) scatter with a **single strided view
      write** — no python loop, no accumulation pass.
    * Large overlapping kernels use a cached sort/segment plan and one
      ``np.add.reduceat`` (a vectorised scatter-add).
    * Small overlapping kernels (the 3x3 convolutions that dominate
      training) keep a loop over the ``kh x kw`` offsets: each
      iteration is one full-width strided add, which beats the sorted
      gather of the segmented scatter at this size.  This branch
      handles padding by clipping windows: each tap adds only its
      in-image window, straight into the unpadded image, so there is
      no padded plane to allocate and crop.
    """
    batch, channels, height, width = image_shape
    kernel_h, kernel_w = kernel_size
    out_h, out_w = _output_size((height, width), kernel_size, stride, padding)
    windows = columns.reshape(
        batch, out_h, out_w, channels, kernel_h, kernel_w
    ).transpose(0, 3, 4, 5, 1, 2)
    return _fold_windows(windows, image_shape, kernel_size, stride, padding)


def _col2im_t(
    columns_t: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`_im2col_t`: fold ``(C*kh*kw, N*oh*ow)`` columns."""
    batch, channels, height, width = image_shape
    kernel_h, kernel_w = kernel_size
    out_h, out_w = _output_size((height, width), kernel_size, stride, padding)
    windows = columns_t.reshape(
        channels, kernel_h, kernel_w, batch, out_h, out_w
    ).transpose(3, 0, 1, 2, 4, 5)
    return _fold_windows(windows, image_shape, kernel_size, stride, padding)


def _fold_windows(
    reshaped: np.ndarray,
    image_shape: Tuple[int, int, int, int],
    kernel_size: Tuple[int, int],
    stride: Tuple[int, int],
    padding: Tuple[int, int],
) -> np.ndarray:
    """Accumulate a ``(N, C, kh, kw, oh, ow)`` window view into images.

    The strided-write and segmented-scatter branches fold into a
    zero-padded plane and return its interior.  The accumulating branch
    handles padding by clipping windows instead: it adds each tap's
    :func:`_window_plan` window straight into the unpadded image, onto
    zeros and in tap order, so every element sees the same additions in
    the same order as on a padded plane, and the result is the same to
    the byte (signed zeros included).
    """
    batch, channels, height, width = image_shape
    kernel_h, kernel_w = kernel_size
    stride_h, stride_w = stride
    pad_h, pad_w = padding

    out_h, out_w = _output_size((height, width), kernel_size, stride, padding)
    padded_h = height + 2 * pad_h
    padded_w = width + 2 * pad_w

    if kernel_h == 1 and kernel_w == 1:
        padded = np.zeros((batch, channels, padded_h, padded_w), dtype=reshaped.dtype)
        padded[:, :, : stride_h * out_h : stride_h, : stride_w * out_w : stride_w] = (
            reshaped[:, :, 0, 0]
        )
    elif stride_h >= kernel_h and stride_w >= kernel_w:
        padded = np.zeros((batch, channels, padded_h, padded_w), dtype=reshaped.dtype)
        # Non-overlapping windows touch pairwise-distinct elements of the
        # padded plane, so the whole fold is one strided scatter write
        # through a window view.
        element_strides = padded.strides
        windows = np.lib.stride_tricks.as_strided(
            padded,
            shape=(batch, channels, out_h, out_w, kernel_h, kernel_w),
            strides=(
                element_strides[0],
                element_strides[1],
                element_strides[2] * stride_h,
                element_strides[3] * stride_w,
                element_strides[2],
                element_strides[3],
            ),
        )
        windows[...] = reshaped.transpose(0, 1, 4, 5, 2, 3)
    elif kernel_h * kernel_w > _SCATTER_MIN_TAPS:
        contributions = np.ascontiguousarray(reshaped).reshape(
            batch * channels, kernel_h * kernel_w * out_h * out_w
        )
        order, starts, targets = _scatter_plan(
            padded_h, padded_w, (kernel_h, kernel_w), (stride_h, stride_w), (out_h, out_w)
        )
        flat = np.zeros((batch * channels, padded_h * padded_w), dtype=reshaped.dtype)
        flat[:, targets] = np.add.reduceat(contributions[:, order], starts, axis=1)
        padded = flat.reshape(batch, channels, padded_h, padded_w)
    else:
        image = np.zeros(image_shape, dtype=reshaped.dtype)
        for i, j, out_rows, out_cols, in_rows, in_cols in _window_plan(
            height, width, kernel_size, stride, padding
        ):
            image[:, :, in_rows, in_cols] += reshaped[:, :, i, j, out_rows, out_cols]
        return image

    if pad_h or pad_w:
        return padded[:, :, pad_h : pad_h + height, pad_w : pad_w + width]
    return padded


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

    def backward_fn(grad: np.ndarray) -> None:
        # grad: (N, C_out, out_h, out_w) -> (C_out, N*out_h*out_w)
        grad_matrix = grad.transpose(1, 0, 2, 3).reshape(out_channels, -1)
        if weight.requires_grad:
            grad_weight = grad_matrix @ columns_t.T
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


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the spatial dimensions of an NCHW tensor."""
    x = as_tensor(x)
    pad = int(padding)
    out_data = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")

    def backward_fn(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(grad[:, :, pad:-pad or None, pad:-pad or None])

    return Tensor._make(out_data, (x,), backward_fn, "pad2d")


def max_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    """Max pooling over non-overlapping (or strided) spatial windows."""
    x = as_tensor(x)
    kernel = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel
    batch, channels, height, width = x.shape

    columns, (out_h, out_w) = im2col(
        x.data.reshape(batch * channels, 1, height, width), kernel, stride, (0, 0)
    )
    # columns: (N*C*out_h*out_w, kh*kw)
    argmax = columns.argmax(axis=1)
    out_flat = columns[np.arange(columns.shape[0]), argmax]
    out_data = out_flat.reshape(batch, channels, out_h, out_w)

    def backward_fn(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_columns = np.zeros_like(columns)
        grad_columns[np.arange(columns.shape[0]), argmax] = grad.reshape(-1)
        grad_input = col2im(
            grad_columns,
            (batch * channels, 1, height, width),
            kernel,
            stride,
            (0, 0),
        )
        x._accumulate(grad_input.reshape(x.shape))

    return Tensor._make(out_data, (x,), backward_fn, "max_pool2d")


def avg_pool2d(x: Tensor, kernel_size=2, stride=None) -> Tensor:
    """Average pooling over spatial windows."""
    x = as_tensor(x)
    kernel = _pair(kernel_size)
    stride = _pair(stride) if stride is not None else kernel
    batch, channels, height, width = x.shape

    columns, (out_h, out_w) = im2col(
        x.data.reshape(batch * channels, 1, height, width), kernel, stride, (0, 0)
    )
    out_data = columns.mean(axis=1).reshape(batch, channels, out_h, out_w)
    window = kernel[0] * kernel[1]

    def backward_fn(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        grad_columns = np.repeat(grad.reshape(-1, 1), window, axis=1) / window
        grad_input = col2im(
            grad_columns,
            (batch * channels, 1, height, width),
            kernel,
            stride,
            (0, 0),
        )
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
