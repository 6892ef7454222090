"""Unit tests for the core autograd engine (arithmetic, reductions, shapes, the tape).

Gradient checks are parametrised over the engine's two supported compute
dtypes (see the ``grad_dtype`` fixture): ``float64`` verifies the
gradient formulas at high precision, ``float32`` verifies that the
default single-precision path computes the same gradients to within its
numerical noise floor.
"""

import tracemalloc

import numpy as np
import pytest

from repro.attacks.pgd import PGDConfig, input_only_backward, pgd_attack
from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18
from repro.nn import BatchNorm2d, Conv2d, Module, Parameter
from repro.pruning.mask import PruningMask
from repro.tensor import Tensor, default_dtype, no_grad, is_grad_enabled, as_tensor, cross_entropy

from tests.helpers import check_gradient


class TestBasics:
    def test_tensor_wraps_array_in_default_dtype(self):
        tensor = Tensor([[1, 2], [3, 4]], requires_grad=True)
        assert tensor.dtype == default_dtype()
        assert tensor.shape == (2, 2)
        assert tensor.size == 4
        assert tensor.ndim == 2

    def test_detach_shares_data_but_drops_graph(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        detached = tensor.detach()
        assert not detached.requires_grad
        assert detached.data is tensor.data

    def test_copy_is_independent(self):
        tensor = Tensor([1.0, 2.0])
        duplicate = tensor.copy()
        duplicate.data[0] = 99.0
        assert tensor.data[0] == 1.0

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_item_on_size_one_multidim(self):
        assert Tensor([[3.5]]).item() == pytest.approx(3.5)
        assert Tensor(np.full((1, 1, 1), 2.0)).item() == pytest.approx(2.0)

    def test_item_on_non_scalar_raises_value_error(self):
        with pytest.raises(ValueError, match="exactly one element"):
            Tensor([1.0, 2.0]).item()
        with pytest.raises(ValueError, match="exactly one element"):
            Tensor(np.zeros((2, 3))).item()

    def test_backward_requires_scalar_without_grad(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            tensor.backward()

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_as_tensor_passthrough(self):
        tensor = Tensor([1.0])
        assert as_tensor(tensor) is tensor
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_constructors(self):
        assert np.all(Tensor.zeros((2, 3)).data == 0)
        assert np.all(Tensor.ones((2, 3)).data == 1)
        assert np.all(Tensor.full((2,), 7.0).data == 7.0)


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()


class TestArithmeticGradients:
    def test_add_gradient(self, rng, grad_dtype):
        value = rng.normal(size=(3, 4))
        other = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t + Tensor(other)).sum(), value, dtype=grad_dtype)

    def test_mul_gradient(self, rng, grad_dtype):
        value = rng.normal(size=(3, 4))
        other = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t * Tensor(other)).sum(), value, dtype=grad_dtype)

    def test_div_gradient(self, rng, grad_dtype):
        value = rng.normal(size=(3, 4)) + 3.0
        other = rng.normal(size=(3, 4)) + 3.0
        check_gradient(lambda t: (t / Tensor(other)).sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: (Tensor(other) / t).sum(), value, dtype=grad_dtype)

    def test_sub_and_neg_gradient(self, rng, grad_dtype):
        value = rng.normal(size=(2, 5))
        check_gradient(lambda t: (-(t - 2.0) + (3.0 - t)).sum(), value, dtype=grad_dtype)

    def test_pow_gradient(self, rng, grad_dtype):
        value = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradient(lambda t: (t**3).sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: (t**0.5).sum(), value, dtype=grad_dtype)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_broadcasting_gradients(self, rng, grad_dtype):
        value = rng.normal(size=(3, 1, 4))
        other = rng.normal(size=(1, 5, 4))
        check_gradient(lambda t: (t * Tensor(other)).sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: (t + Tensor(other)).sum(), value, dtype=grad_dtype)

    def test_scalar_broadcast_gradient(self, rng, grad_dtype):
        value = rng.normal(size=(2, 3))
        check_gradient(lambda t: (t * 3.0 + 1.0).sum(), value, dtype=grad_dtype)

    def test_matmul_gradient(self, rng, grad_dtype):
        left = rng.normal(size=(3, 4))
        right = rng.normal(size=(4, 2))
        check_gradient(lambda t: t.matmul(Tensor(right)).sum(), left, dtype=grad_dtype)
        check_gradient(lambda t: Tensor(left).matmul(t).sum(), right, dtype=grad_dtype)

    def test_matmul_operator(self, rng):
        left = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        right = Tensor(rng.normal(size=(3, 2)))
        out = left @ right
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out.data, left.data @ right.data)

    def test_gradient_accumulates_over_reuse(self, rng):
        value = rng.normal(size=(3,))
        tensor = Tensor(value, requires_grad=True)
        loss = (tensor * tensor).sum() + tensor.sum()
        loss.backward()
        np.testing.assert_allclose(tensor.grad, 2 * value + 1.0)


class TestTranscendental:
    def test_exp_log_sqrt_abs_gradients(self, rng, grad_dtype):
        value = np.abs(rng.normal(size=(3, 3))) + 0.5
        check_gradient(lambda t: t.exp().sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: t.log().sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: t.sqrt().sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: t.abs().sum(), rng.normal(size=(3, 3)) + 0.1, dtype=grad_dtype)

    def test_exp_forward(self):
        np.testing.assert_allclose(Tensor([0.0, 1.0]).exp().data, [1.0, np.e])


class TestReductions:
    def test_sum_axis_gradients(self, rng, grad_dtype):
        value = rng.normal(size=(2, 3, 4))
        check_gradient(lambda t: t.sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: (t.sum(axis=1) ** 2).sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: (t.sum(axis=(0, 2)) ** 2).sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(), value, dtype=grad_dtype)

    def test_mean_matches_numpy(self, rng):
        value = rng.normal(size=(4, 5))
        tensor = Tensor(value)
        np.testing.assert_allclose(tensor.mean(axis=0).data, value.mean(axis=0))
        np.testing.assert_allclose(tensor.mean().data, value.mean())

    def test_mean_gradient(self, rng, grad_dtype):
        value = rng.normal(size=(3, 4))
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), value, dtype=grad_dtype)

    def test_var_matches_numpy_biased(self, rng):
        value = rng.normal(size=(4, 6))
        np.testing.assert_allclose(Tensor(value).var(axis=0).data, value.var(axis=0), atol=1e-12)

    def test_max_gradient(self, rng, grad_dtype):
        value = rng.normal(size=(3, 5))
        check_gradient(lambda t: (t.max(axis=1) ** 2).sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: t.max() * 2.0, value, dtype=grad_dtype)

    def test_max_forward(self, rng):
        value = rng.normal(size=(2, 7))
        np.testing.assert_allclose(Tensor(value).max(axis=1).data, value.max(axis=1))


class TestShapeOps:
    def test_reshape_gradient(self, rng, grad_dtype):
        value = rng.normal(size=(2, 6))
        check_gradient(lambda t: (t.reshape(3, 4) ** 2).sum(), value, dtype=grad_dtype)

    def test_flatten(self, rng):
        tensor = Tensor(rng.normal(size=(2, 3, 4)))
        assert tensor.flatten(start_dim=1).shape == (2, 12)
        assert tensor.flatten().shape == (24,)

    def test_transpose_gradient(self, rng, grad_dtype):
        value = rng.normal(size=(2, 3, 4))
        check_gradient(lambda t: (t.transpose(2, 0, 1) ** 2).sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: (t.T ** 2).sum(), rng.normal(size=(3, 4)), dtype=grad_dtype)

    def test_getitem_gradient(self, rng, grad_dtype):
        value = rng.normal(size=(4, 5))
        check_gradient(lambda t: (t[1:3, ::2] ** 2).sum(), value, dtype=grad_dtype)
        check_gradient(lambda t: (t[0] ** 2).sum(), value, dtype=grad_dtype)

    def test_concatenate_gradient(self, rng, grad_dtype):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(4, 3))
        check_gradient(
            lambda t: (Tensor.concatenate([t, Tensor(b)], axis=0) ** 2).sum(), a, dtype=grad_dtype
        )

    def test_stack_forward_and_gradient(self, rng, grad_dtype):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(2, 3))
        stacked = Tensor.stack([Tensor(a), Tensor(b)], axis=0)
        assert stacked.shape == (2, 2, 3)
        check_gradient(
            lambda t: (Tensor.stack([t, Tensor(b)], axis=1) ** 2).sum(), a, dtype=grad_dtype
        )


class TestComparisons:
    def test_comparisons_return_plain_arrays(self):
        a = Tensor([1.0, 2.0, 3.0])
        assert isinstance(a > 1.5, np.ndarray)
        np.testing.assert_array_equal(a > 1.5, [False, True, True])
        np.testing.assert_array_equal(a <= 2.0, [True, True, False])
        np.testing.assert_array_equal(a >= 3.0, [False, False, True])
        np.testing.assert_array_equal(a < 2.0, [True, False, False])


class TestTape:
    """Backward frees the tape as it walks it; a graph is differentiated once."""

    def test_backward_releases_interior_nodes_and_leaves_keep_gradients(self, rng):
        weight = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        inputs = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        hidden = inputs @ weight
        activated = hidden.exp()
        loss = activated.sum()
        loss.backward()
        for node in (hidden, activated, loss):
            assert node.grad is None
            assert node._backward_fn is None
            assert node._parents == ()
        np.testing.assert_allclose(weight.grad, inputs.data.T @ np.exp(hidden.data))
        assert inputs.grad.shape == inputs.shape

    def test_second_backward_raises_naming_the_op(self, rng):
        tensor = Tensor(rng.normal(size=(3,)), requires_grad=True)
        loss = (tensor * tensor).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="'sum' node.*differentiated once"):
            loss.backward()

    def test_backward_through_a_released_interior_node_raises(self, rng):
        tensor = Tensor(rng.normal(size=(3,)), requires_grad=True)
        hidden = tensor.exp()
        hidden.sum().backward()
        first = tensor.grad.copy()
        with pytest.raises(RuntimeError, match="'exp' node.*differentiated once"):
            (hidden * 2.0).sum().backward()
        # The walk raised before any closure ran.
        np.testing.assert_array_equal(tensor.grad, first)

    def test_leaves_never_share_a_gradient_array(self):
        class Pair(Module):
            def __init__(self):
                super().__init__()
                self.a = Parameter(np.ones(4))
                self.b = Parameter(np.ones(4))

            def forward(self):
                return self.a + self.b

        model = Pair()
        model().sum().backward()
        assert model.a.grad is not model.b.grad
        mask = PruningMask({"a": np.array([1, 0, 1, 0], dtype=np.uint8)})
        mask.apply_to_gradients(model)
        np.testing.assert_array_equal(model.a.grad, [1.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(model.b.grad, np.ones(4))

    #: Each layer whose closure keeps an activation-sized array only for
    #: its weight gradient: how to build it for 2x3x6x6 inputs, that
    #: array's shape, and the error a frozen-then-thawed weight raises.
    WEIGHT_GRADIENT_INPUTS = {
        "conv2d": (
            lambda rng: Conv2d(3, 4, 3, padding=1, rng=rng),
            (3 * 3 * 3, 2 * 6 * 6),  # im2col columns: (C_in * kh * kw, N * out_h * out_w)
            "columns were not kept",
        ),
        "eval_batch_norm2d": (
            lambda rng: BatchNorm2d(3).eval(),
            (2, 3, 6, 6),  # the normalised input
            "normalised input was not kept",
        ),
    }

    @staticmethod
    def _keeps(out, shape) -> bool:
        """Whether the closure of ``out`` holds an array of ``shape``."""
        return any(
            isinstance(cell.cell_contents, np.ndarray) and cell.cell_contents.shape == shape
            for cell in out._backward_fn.__closure__
        )

    @pytest.mark.parametrize("layer", sorted(WEIGHT_GRADIENT_INPUTS))
    def test_attack_graph_keeps_no_conv_columns(self, rng, layer):
        build, kept_shape, _ = self.WEIGHT_GRADIENT_INPUTS[layer]
        module = build(rng)
        inputs = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        assert self._keeps(module(inputs), kept_shape)
        with input_only_backward(module):
            out = module(inputs)
            assert not self._keeps(out, kept_shape)
            out.sum().backward()
        assert inputs.grad is not None and module.weight.grad is None

    @pytest.mark.parametrize("layer", sorted(WEIGHT_GRADIENT_INPUTS))
    def test_weight_frozen_at_record_time_raises_instead_of_a_wrong_gradient(self, rng, layer):
        build, _, message = self.WEIGHT_GRADIENT_INPUTS[layer]
        module = build(rng)
        inputs = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        with input_only_backward(module):
            out = module(inputs)
        assert module.weight.requires_grad
        with pytest.raises(RuntimeError, match=message):
            out.sum().backward()


def _traced(run):
    """``run()``'s result, and the bytes held when it returns and at its peak, above the level before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


class TestTapeMemory:
    """Allocated bytes (``tracemalloc``), which do not depend on the host."""

    @pytest.fixture
    def resnet_batch(self):
        model = ClassifierHead(resnet18(base_width=4, seed=0), num_classes=10, seed=1)
        data = np.random.default_rng(0)
        images = data.uniform(size=(16, 3, 16, 16))
        labels = data.integers(0, 10, size=16)
        return model, images, labels

    @staticmethod
    def _train_step(model, images, labels):
        model.train()
        loss = cross_entropy(model(Tensor(images)), labels)
        loss.backward()
        return loss  # held, as a training loop holds it into its next step

    def test_train_step_returns_memory_to_its_level_before_the_forward(self, resnet_batch):
        model, images, labels = resnet_batch
        self._train_step(model, images, labels)  # warm the memoised window plans
        model.zero_grad()
        loss, held, peak = _traced(lambda: self._train_step(model, images, labels))
        gradients = sum(parameter.grad.nbytes for parameter in model.parameters())
        # What stays is the parameter gradients; the graph is gone.
        assert held - gradients < 0.05 * peak, (held, gradients, peak)
        assert np.isfinite(loss.item())

    def test_pgd_attack_peaks_below_one_train_step(self, resnet_batch):
        model, images, labels = resnet_batch
        self._train_step(model, images, labels)
        model.zero_grad()
        _, _, train_peak = _traced(lambda: self._train_step(model, images, labels))
        model.zero_grad()
        model.eval()
        config = PGDConfig(epsilon=0.03, steps=4)
        _, _, attack_peak = _traced(
            lambda: pgd_attack(model, images, labels, config, rng=np.random.default_rng(1))
        )
        assert attack_peak < 0.6 * train_peak, (attack_peak, train_peak)
