"""Runtime sanitizer: NaN/Inf raise with op + dotted layer attribution,
scopes are thread-local, and clean models are numerically untouched."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.models.heads import ClassifierHead
from repro.models.resnet import resnet18
from repro.tensor import Tensor
from repro.tensor import sanitize as sanitize_impl
from repro.tensor.sanitize import SanitizeError, is_sanitize_active, sanitize_scope, set_sanitize
from repro.utils.seeding import seeded_rng


@pytest.fixture(autouse=True)
def _sanitizer_off_between_tests():
    set_sanitize(False)
    yield
    set_sanitize(False)


@pytest.fixture()
def tiny_model():
    return ClassifierHead(resnet18(base_width=4), num_classes=5).eval()


@pytest.fixture()
def images():
    return seeded_rng(0).standard_normal((2, 3, 16, 16))


class TestScopesAndSwitches:
    def test_default_is_off(self):
        assert not is_sanitize_active()

    def test_scope_enables_and_restores(self):
        with sanitize_scope():
            assert is_sanitize_active()
            with sanitize_scope(False):
                assert not is_sanitize_active()
            assert is_sanitize_active()
        assert not is_sanitize_active()

    def test_set_sanitize_is_process_wide_but_scope_wins(self):
        set_sanitize(True)
        assert is_sanitize_active()
        with sanitize_scope(False):
            assert not is_sanitize_active()
        assert is_sanitize_active()

    def test_scope_is_thread_local(self):
        seen = {}

        def worker():
            seen["active_in_thread"] = is_sanitize_active()

        with sanitize_scope():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["active_in_thread"] is False

    def test_env_variable_parsing(self, monkeypatch):
        # The env default is captured at import; exercise the parse rule
        # directly so the test does not depend on process start state.
        truthy = {"1", "true", "yes", "on"}
        for value in truthy | {"0", "", "off", "no"}:
            expected = value in truthy
            assert (value.strip().lower() in truthy) is expected


class TestForwardChecks:
    def test_nan_weight_names_op_and_dotted_layer_path(self, tiny_model, images):
        tiny_model.backbone.layer2[0].conv1.weight.data[0, 0, 0, 0] = np.nan
        with sanitize_scope():
            with pytest.raises(SanitizeError) as excinfo:
                tiny_model(Tensor(images))
        message = str(excinfo.value)
        assert "conv2d" in message
        assert "backbone.layer2.layer0.conv1 (Conv2d)" in message
        assert "NaN" in message

    def test_inf_input_is_reported_with_count(self):
        with sanitize_scope():
            x = Tensor(np.array([1.0, np.inf]))
            with pytest.raises(SanitizeError, match=r"Inf: 1/2"):
                x * 2.0

    def test_inactive_sanitizer_lets_nan_flow(self, tiny_model, images):
        tiny_model.backbone.layer2[0].conv1.weight.data[0, 0, 0, 0] = np.nan
        out = tiny_model(Tensor(images))
        assert np.isnan(out.data).any()

    def test_clean_forward_is_numerically_identical(self, tiny_model, images):
        plain = tiny_model(Tensor(images)).data
        with sanitize_scope():
            sanitized = tiny_model(Tensor(images)).data
        np.testing.assert_array_equal(plain, sanitized)

    def test_integer_tensors_are_exempt(self):
        with sanitize_scope():
            x = Tensor(np.array([1, 2, 3]))
            assert (x + 1).data.tolist() == [2, 3, 4]


class TestGradientChecks:
    def test_non_finite_seed_gradient_raises(self):
        t = Tensor(np.array([4.0]), requires_grad=True)
        y = t.sqrt()
        with sanitize_scope():
            with pytest.raises(SanitizeError, match="gradient"):
                y.backward(np.array([np.inf]))

    def test_gradient_overflow_in_backward_raises(self):
        # log'(x) = 1/x overflows float64 at a subnormal input even
        # though the forward value (~ -744) is perfectly finite.
        t = Tensor(np.array([5e-324]), requires_grad=True)
        y = t.log()
        assert np.isfinite(y.data).all()
        with sanitize_scope(), np.errstate(over="ignore"):
            with pytest.raises(SanitizeError, match="gradient"):
                y.sum().backward()

    def test_finite_backward_untouched(self, tiny_model, images):
        tiny_model.train()
        with sanitize_scope():
            loss = (tiny_model(Tensor(images)) ** 2).sum()
            loss.backward()
        assert all(
            parameter.grad is not None and np.isfinite(parameter.grad).all()
            for parameter in tiny_model.parameters()
            if parameter.requires_grad
        )


class TestLayerAttribution:
    def test_layer_stack_unwinds_after_errors(self, tiny_model, images):
        tiny_model.backbone.conv1.weight.data[0, 0, 0, 0] = np.nan
        with sanitize_scope():
            with pytest.raises(SanitizeError):
                tiny_model(Tensor(images))
        # The failed forward must not leave stale frames behind.
        assert sanitize_impl.current_layer_path() == "<no module context>"

    def test_module_output_check_names_layer(self):
        assert "<no module context>" in sanitize_impl.current_layer_path()
        sanitize_impl.push_layer("backbone", "ResNet")
        sanitize_impl.push_layer("fc", "Linear")
        try:
            assert sanitize_impl.current_layer_path() == "backbone.fc (Linear)"
            with sanitize_scope():
                with pytest.raises(SanitizeError, match=r"backbone\.fc \(Linear\)"):
                    sanitize_impl.check_module_output(np.array([np.nan]))
        finally:
            sanitize_impl.pop_layer()
            sanitize_impl.pop_layer()
