"""Unit tests for convolution, pooling and the unfold/fold kernels they share."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    avg_pool2d,
    adaptive_avg_pool2d,
    conv2d,
    conv2d_transpose_upsample,
    max_pool2d,
)
from repro.tensor.conv import _col2im_t, _im2col_t

from tests.helpers import check_gradient


def reference_conv2d(images, weight, bias, stride, padding):
    """Naive direct convolution used as ground truth."""
    batch, in_channels, height, width = images.shape
    out_channels, _, kernel_h, kernel_w = weight.shape
    padded = np.pad(images, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (height + 2 * padding - kernel_h) // stride + 1
    out_w = (width + 2 * padding - kernel_w) // stride + 1
    output = np.zeros((batch, out_channels, out_h, out_w))
    for n in range(batch):
        for c_out in range(out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[
                        n, :, i * stride : i * stride + kernel_h, j * stride : j * stride + kernel_w
                    ]
                    output[n, c_out, i, j] = (patch * weight[c_out]).sum()
            if bias is not None:
                output[n, c_out] += bias[c_out]
    return output


def padded_reference_unfold(images, kernel, stride, padding):
    """Unfold a zero-padded copy of ``images`` into row-major ``(N*oh*ow, C*kh*kw)`` columns.

    Row ``(n, o_h, o_w)`` holds one window, channels first and then
    taps in row-major order; each tap is one strided slice of the
    padded copy.
    """
    batch, channels = images.shape[:2]
    (kernel_h, kernel_w), (stride_h, stride_w), (pad_h, pad_w) = kernel, stride, padding
    padded = np.pad(images, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    out_h = (padded.shape[2] - kernel_h) // stride_h + 1
    out_w = (padded.shape[3] - kernel_w) // stride_w + 1
    taps = np.stack(
        [
            padded[:, :, i : i + stride_h * out_h : stride_h, j : j + stride_w * out_w : stride_w]
            for i in range(kernel_h)
            for j in range(kernel_w)
        ]
    )  # (kh*kw, N, C, oh, ow)
    return taps.transpose(1, 3, 4, 2, 0).reshape(
        batch * out_h * out_w, channels * kernel_h * kernel_w
    )


def padded_reference_fold(windows, image_shape, kernel, stride, padding):
    """Fold ``(N, C, kh, kw, oh, ow)`` windows into a zero-padded plane, then crop it.

    Walks the taps in row-major order, each adding onto the zeros, so
    every element sums its contributions in tap order.
    """
    batch, channels, height, width = image_shape
    (kernel_h, kernel_w), (stride_h, stride_w), (pad_h, pad_w) = kernel, stride, padding
    out_h, out_w = windows.shape[-2:]
    plane = np.zeros(
        (batch, channels, height + 2 * pad_h, width + 2 * pad_w), dtype=windows.dtype
    )
    for i in range(kernel_h):
        for j in range(kernel_w):
            plane[
                :, :, i : i + stride_h * out_h : stride_h, j : j + stride_w * out_w : stride_w
            ] += windows[:, :, i, j]
    return np.ascontiguousarray(plane[:, :, pad_h : pad_h + height, pad_w : pad_w + width])


#: Kernels 1-5, strides 1-3 and padding 0-3 (padding >= kernel included,
#: so some taps read nothing but padding), plus rectangular geometries.
WINDOW_GEOMETRIES = [
    ((kernel, kernel), (stride, stride), (pad, pad))
    for kernel in range(1, 6)
    for stride in range(1, 4)
    for pad in range(4)
] + [
    ((2, 3), (2, 1), (1, 0)),
    ((1, 4), (1, 2), (0, 3)),
    ((5, 2), (3, 1), (2, 1)),
    ((4, 5), (1, 2), (3, 0)),
]


def _geometry_id(geometry):
    (kernel_h, kernel_w), (stride_h, stride_w), (pad_h, pad_w) = geometry
    return f"k{kernel_h}x{kernel_w}-s{stride_h}x{stride_w}-p{pad_h}x{pad_w}"


def _window_cases(rng, geometry):
    """Inputs over spatial sizes down to 1x1, batch 1 and 3, float32 and float64.

    Yields ``(images, columns_t)`` with ``-0.0`` planted in both, where
    ``columns_t`` is a random array in the transposed column layout.
    Sizes the geometry cannot cover are skipped.
    """
    kernel, stride, padding = geometry
    for height, width in ((1, 1), (2, 2), (3, 5), (7, 6)):
        out_h = (height + 2 * padding[0] - kernel[0]) // stride[0] + 1
        out_w = (width + 2 * padding[1] - kernel[1]) // stride[1] + 1
        if out_h <= 0 or out_w <= 0:
            continue
        for batch in (1, 3):
            for dtype in (np.float32, np.float64):
                images = rng.normal(size=(batch, 2, height, width)).astype(dtype)
                images[rng.random(images.shape) < 0.25] = -0.0
                columns_t = rng.normal(
                    size=(2 * kernel[0] * kernel[1], batch * out_h * out_w)
                ).astype(dtype)
                columns_t[rng.random(columns_t.shape) < 0.25] = -0.0
                yield images, columns_t


class TestIm2Col:
    def test_shapes(self, rng):
        images = rng.normal(size=(2, 3, 8, 8))
        columns_t, out_size = _im2col_t(images, (3, 3), (1, 1), (1, 1))
        assert out_size == (8, 8)
        assert columns_t.shape == (3 * 3 * 3, 2 * 8 * 8)

    @pytest.mark.parametrize("geometry", WINDOW_GEOMETRIES, ids=_geometry_id)
    def test_transposed_layout_matches_row_layout(self, rng, geometry):
        """``_im2col_t`` is the row-major reference unfold, transposed, to the byte.

        ``_im2col_t`` clips windows to the image;
        ``padded_reference_unfold`` slices a zero-padded copy.  The two
        must agree signed zeros included.
        """
        kernel, stride, padding = geometry
        checked = 0
        for images, _ in _window_cases(rng, geometry):
            columns = padded_reference_unfold(images, kernel, stride, padding)
            columns_t, _ = _im2col_t(images, kernel, stride, padding)
            assert columns_t.dtype == images.dtype
            assert columns_t.shape == columns.T.shape
            assert columns_t.tobytes() == np.ascontiguousarray(columns.T).tobytes()
            checked += 1
        assert checked

    @pytest.mark.parametrize("geometry", WINDOW_GEOMETRIES, ids=_geometry_id)
    def test_folds_match_padded_reference(self, rng, geometry):
        """``_col2im_t`` equals a fold over a padded plane, to the byte, signed zeros included."""
        kernel, stride, padding = geometry
        checked = 0
        for images, columns_t in _window_cases(rng, geometry):
            batch, channels = images.shape[:2]
            out_h = (images.shape[2] + 2 * padding[0] - kernel[0]) // stride[0] + 1
            out_w = (images.shape[3] + 2 * padding[1] - kernel[1]) // stride[1] + 1
            windows = columns_t.reshape(
                channels, kernel[0], kernel[1], batch, out_h, out_w
            ).transpose(3, 0, 1, 2, 4, 5)
            expected = padded_reference_fold(windows, images.shape, kernel, stride, padding)
            folded = _col2im_t(columns_t, images.shape, kernel, stride, padding)
            assert folded.shape == images.shape and folded.dtype == images.dtype
            assert folded.tobytes() == expected.tobytes()
            checked += 1
        assert checked

    def test_invalid_geometry_raises(self, rng):
        images = rng.normal(size=(1, 1, 2, 2))
        with pytest.raises(ValueError):
            _im2col_t(images, (5, 5), (1, 1), (0, 0))

    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [
            ((3, 3), (2, 2), (1, 1)),
            ((1, 1), (1, 1), (0, 0)),
            ((2, 2), (2, 2), (0, 0)),
            ((5, 5), (1, 1), (2, 2)),
        ],
        ids=["3x3-overlap", "1x1", "non-overlap", "5x5-overlap"],
    )
    def test_col2im_is_adjoint_of_im2col(self, rng, kernel, stride, padding):
        """<unfold(x), y> == <x, fold(y)> — the defining adjoint property."""
        images = rng.normal(size=(2, 3, 6, 6))
        columns_t, _ = _im2col_t(images, kernel, stride, padding)
        probe = rng.normal(size=columns_t.shape)
        lhs = float((columns_t * probe).sum())
        folded = _col2im_t(probe, images.shape, kernel, stride, padding)
        rhs = float((images * folded).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_large_kernel_conv_gradient(self, rng):
        """5x5 stride-1 convolutions (25 taps, most overlapping) fold correctly."""
        weight = rng.normal(size=(2, 2, 5, 5))
        images = rng.normal(size=(2, 2, 6, 6))
        check_gradient(
            lambda t: (conv2d(t, Tensor(weight), stride=1, padding=2) ** 2).sum(),
            images,
        )


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_reference(self, rng, stride, padding):
        images = rng.normal(size=(2, 3, 7, 7))
        weight = rng.normal(size=(4, 3, 3, 3))
        bias = rng.normal(size=(4,))
        out = conv2d(Tensor(images), Tensor(weight), Tensor(bias), stride=stride, padding=padding)
        expected = reference_conv2d(images, weight, bias, stride, padding)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            conv2d(Tensor(rng.normal(size=(1, 2, 4, 4))), Tensor(rng.normal(size=(3, 5, 3, 3))))

    def test_input_gradient(self, rng, grad_dtype):
        weight = rng.normal(size=(2, 3, 3, 3))
        images = rng.normal(size=(2, 3, 5, 5))
        check_gradient(
            lambda t: (conv2d(t, Tensor(weight), stride=1, padding=1) ** 2).sum(),
            images,
            dtype=grad_dtype,
        )

    def test_weight_and_bias_gradient(self, rng, grad_dtype):
        images = rng.normal(size=(2, 2, 5, 5))
        weight = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=(3,))
        check_gradient(
            lambda t: (conv2d(Tensor(images), t, Tensor(bias), stride=2, padding=1) ** 2).sum(),
            weight,
            dtype=grad_dtype,
        )
        check_gradient(
            lambda t: (conv2d(Tensor(images), Tensor(weight), t, stride=1, padding=0) ** 2).sum(),
            bias,
            dtype=grad_dtype,
        )


#: Pooling windows that overlap (kernel > stride), as ``(kernel, stride)``.
OVERLAPPING_POOLS = [
    pytest.param(3, 2, id="k3-s2"),
    pytest.param(3, 1, id="k3-s1"),
    pytest.param(2, 1, id="k2-s1"),
]


class TestPooling:
    def test_max_pool_forward(self):
        images = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(images), 2)
        np.testing.assert_array_equal(out.data.reshape(2, 2), [[5, 7], [13, 15]])

    def test_max_pool_gradient(self, rng, grad_dtype):
        images = rng.normal(size=(2, 3, 6, 6))
        check_gradient(lambda t: (max_pool2d(t, 2) ** 2).sum(), images, dtype=grad_dtype)

    def test_avg_pool_forward_and_gradient(self, rng, grad_dtype):
        images = rng.normal(size=(2, 2, 4, 4))
        out = avg_pool2d(Tensor(images), 2)
        expected = images.reshape(2, 2, 2, 2, 2, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(out.data, expected)
        check_gradient(lambda t: (avg_pool2d(t, 2) ** 2).sum(), images, dtype=grad_dtype)

    @pytest.mark.parametrize("kernel,stride", OVERLAPPING_POOLS)
    def test_overlapping_pools_match_reference_unfold(self, rng, kernel, stride):
        images = rng.normal(size=(2, 3, 7, 7))
        columns = padded_reference_unfold(
            images.reshape(6, 1, 7, 7), (kernel, kernel), (stride, stride), (0, 0)
        )
        out_size = (7 - kernel) // stride + 1
        out_shape = (2, 3, out_size, out_size)
        max_out = max_pool2d(Tensor(images), kernel, stride)
        assert max_out.data.tobytes() == columns.max(axis=1).reshape(out_shape).tobytes()
        avg_out = avg_pool2d(Tensor(images), kernel, stride)
        np.testing.assert_allclose(avg_out.data, columns.mean(axis=1).reshape(out_shape))

    @pytest.mark.parametrize("kernel,stride", OVERLAPPING_POOLS)
    def test_overlapping_max_pool_gradient(self, rng, kernel, stride, grad_dtype):
        # Inputs 0.05 apart: the finite-difference step (0.01 in float32)
        # cannot change which element is a window's maximum, which it
        # does on nearly tied normal samples.  The loss is linear in the
        # output so float32 rounding of its value stays below tolerance.
        images = rng.permutation(2 * 3 * 7 * 7).reshape(2, 3, 7, 7) * 0.05
        out_size = (7 - kernel) // stride + 1
        probe = Tensor(rng.normal(size=(2, 3, out_size, out_size)))
        check_gradient(
            lambda t: (max_pool2d(t, kernel, stride) * probe).sum(), images, dtype=grad_dtype
        )

    @pytest.mark.parametrize("kernel,stride", OVERLAPPING_POOLS)
    def test_overlapping_avg_pool_gradient(self, rng, kernel, stride, grad_dtype):
        images = rng.normal(size=(2, 3, 7, 7))
        check_gradient(
            lambda t: (avg_pool2d(t, kernel, stride) ** 2).sum(), images, dtype=grad_dtype
        )

    def test_adaptive_avg_pool_global(self, rng):
        images = rng.normal(size=(2, 3, 5, 5))
        out = adaptive_avg_pool2d(Tensor(images), 1)
        np.testing.assert_allclose(out.data, images.mean(axis=(2, 3), keepdims=True))

    def test_adaptive_avg_pool_rejects_other_sizes(self, rng):
        with pytest.raises(NotImplementedError):
            adaptive_avg_pool2d(Tensor(rng.normal(size=(1, 1, 4, 4))), 2)


class TestPaddingAndUpsample:
    def test_upsample_forward(self):
        images = np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2)
        out = conv2d_transpose_upsample(Tensor(images), scale=2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_array_equal(out.data[0, 0, :2, :2], [[0, 0], [0, 0]])
        np.testing.assert_array_equal(out.data[0, 0, 2:, 2:], [[3, 3], [3, 3]])

    def test_upsample_gradient(self, rng, grad_dtype):
        images = rng.normal(size=(2, 2, 3, 3))
        check_gradient(
            lambda t: (conv2d_transpose_upsample(t, 2) ** 2).sum(), images, dtype=grad_dtype
        )
