"""Unit tests for convolution, pooling and the im2col/col2im machinery."""

import numpy as np
import pytest

from repro.tensor import (
    Tensor,
    avg_pool2d,
    adaptive_avg_pool2d,
    conv2d,
    conv2d_transpose_upsample,
    col2im,
    im2col,
    max_pool2d,
    pad2d,
)

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


def padded_reference_fold(windows, image_shape, kernel, stride, padding):
    """Fold ``(N, C, kh, kw, oh, ow)`` windows into a zero-padded plane, then crop it.

    Walks the taps in row-major order.  Where windows overlap (a kernel
    larger than its stride on either axis) each tap adds onto the zeros,
    so every element sums its contributions in tap order.  Where they
    never overlap an element receives at most one value, which is
    written as it is.
    """
    batch, channels, height, width = image_shape
    (kernel_h, kernel_w), (stride_h, stride_w), (pad_h, pad_w) = kernel, stride, padding
    out_h, out_w = windows.shape[-2:]
    plane = np.zeros(
        (batch, channels, height + 2 * pad_h, width + 2 * pad_w), dtype=windows.dtype
    )
    overlapping = kernel_h > stride_h or kernel_w > stride_w
    for i in range(kernel_h):
        for j in range(kernel_w):
            target = plane[
                :, :, i : i + stride_h * out_h : stride_h, j : j + stride_w * out_w : stride_w
            ]
            if overlapping:
                target += windows[:, :, i, j]
            else:
                target[...] = windows[:, :, i, j]
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
        columns, out_size = im2col(images, (3, 3), (1, 1), (1, 1))
        assert out_size == (8, 8)
        assert columns.shape == (2 * 8 * 8, 3 * 3 * 3)

    @pytest.mark.parametrize("geometry", WINDOW_GEOMETRIES, ids=_geometry_id)
    def test_transposed_layout_matches_row_layout(self, rng, geometry):
        """The engine's transposed unfold is the row-major unfold, transposed, to the byte.

        Pins the production ``_im2col_t`` (used by ``conv2d``, which
        clips windows instead of padding) to the public reference
        ``im2col`` (which pads with ``np.pad``), signed zeros included,
        so the two implementations cannot drift apart.
        """
        from repro.tensor.conv import _im2col_t

        kernel, stride, padding = geometry
        checked = 0
        for images, _ in _window_cases(rng, geometry):
            columns, out_size = im2col(images, kernel, stride, padding)
            columns_t, out_size_t = _im2col_t(images, kernel, stride, padding)
            assert out_size == out_size_t
            assert columns_t.dtype == images.dtype
            assert columns_t.shape == columns.T.shape
            assert columns_t.tobytes() == np.ascontiguousarray(columns.T).tobytes()
            checked += 1
        assert checked

    @pytest.mark.parametrize("geometry", WINDOW_GEOMETRIES, ids=_geometry_id)
    def test_folds_match_padded_reference(self, rng, geometry):
        """``_col2im_t`` and ``col2im`` equal a fold over a padded plane, to the byte.

        Large overlapping kernels fold through ``np.add.reduceat``,
        whose summation order numpy does not specify, so on that branch
        the fold agrees with the reference to rounding only.  Every
        other geometry must match byte for byte, signed zeros included.
        """
        from repro.tensor.conv import _SCATTER_MIN_TAPS, _col2im_t

        kernel, stride, padding = geometry
        segmented = (kernel[0] > stride[0] or kernel[1] > stride[1]) and (
            kernel[0] * kernel[1] > _SCATTER_MIN_TAPS
        )
        checked = 0
        for images, columns_t in _window_cases(rng, geometry):
            batch, channels = images.shape[:2]
            out_h = (images.shape[2] + 2 * padding[0] - kernel[0]) // stride[0] + 1
            out_w = (images.shape[3] + 2 * padding[1] - kernel[1]) // stride[1] + 1
            windows = columns_t.reshape(
                channels, kernel[0], kernel[1], batch, out_h, out_w
            ).transpose(3, 0, 1, 2, 4, 5)
            expected = padded_reference_fold(windows, images.shape, kernel, stride, padding)
            folded_t = _col2im_t(columns_t, images.shape, kernel, stride, padding)
            folded = col2im(
                np.ascontiguousarray(columns_t.T), images.shape, kernel, stride, padding
            )
            for result in (folded_t, folded):
                assert result.shape == images.shape and result.dtype == images.dtype
                if segmented:
                    tolerance = 64 * np.finfo(images.dtype).eps
                    np.testing.assert_allclose(result, expected, rtol=tolerance, atol=tolerance)
                else:
                    assert np.ascontiguousarray(result).tobytes() == expected.tobytes()
            checked += 1
        assert checked

    def test_invalid_geometry_raises(self, rng):
        images = rng.normal(size=(1, 1, 2, 2))
        with pytest.raises(ValueError):
            im2col(images, (5, 5), (1, 1), (0, 0))

    @pytest.mark.parametrize(
        "kernel,stride,padding",
        [
            ((3, 3), (2, 2), (1, 1)),
            ((1, 1), (1, 1), (0, 0)),  # 1x1 fast path: direct strided write
            ((2, 2), (2, 2), (0, 0)),  # non-overlapping fast path (pooling)
            ((5, 5), (1, 1), (2, 2)),  # >16-tap path: segmented reduceat scatter
        ],
        ids=["3x3-overlap", "1x1", "non-overlap", "5x5-scatter"],
    )
    def test_col2im_is_adjoint_of_im2col(self, rng, kernel, stride, padding):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property.

        Parametrised over every dispatch branch of ``col2im`` (strided
        write, scatter-add, strided-add loop).
        """
        images = rng.normal(size=(2, 3, 6, 6))
        columns, _ = im2col(images, kernel, stride, padding)
        probe = rng.normal(size=columns.shape)
        lhs = float((columns * probe).sum())
        folded = col2im(probe, images.shape, kernel, stride, padding)
        rhs = float((images * folded).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_large_kernel_conv_gradient(self, rng):
        """5x5 stride-1 convolutions exercise the reduceat scatter branch."""
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

    def test_adaptive_avg_pool_global(self, rng):
        images = rng.normal(size=(2, 3, 5, 5))
        out = adaptive_avg_pool2d(Tensor(images), 1)
        np.testing.assert_allclose(out.data, images.mean(axis=(2, 3), keepdims=True))

    def test_adaptive_avg_pool_rejects_other_sizes(self, rng):
        with pytest.raises(NotImplementedError):
            adaptive_avg_pool2d(Tensor(rng.normal(size=(1, 1, 4, 4))), 2)


class TestPaddingAndUpsample:
    def test_pad2d_forward_and_gradient(self, rng, grad_dtype):
        images = rng.normal(size=(1, 2, 3, 3))
        out = pad2d(Tensor(images), 2)
        assert out.shape == (1, 2, 7, 7)
        np.testing.assert_allclose(out.data[:, :, 2:5, 2:5], images)
        check_gradient(lambda t: (pad2d(t, 1) ** 2).sum(), images, dtype=grad_dtype)

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
