import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finite_diff import central_diff, grad_check
from scorealign.net import (
    GELU,
    SGD,
    Conv3x3,
    Dropout,
    GlobalAvgPool,
    Layer,
    Linear,
    Network,
    NumericalError,
    Param,
    cross_entropy,
    smooth_l1,
)


def finite_diff_input_grad(layer, x, dout, eps=1e-6):
    """Central-difference gradient of sum(out * dout) in the input."""
    return central_diff(lambda: float(np.sum(layer.forward(x) * dout)), x, eps)


def direct_conv3x3(x, w, b, dout):
    """Naive direct 3x3 / stride 1 / pad 1 convolution: output, input gradient,
    weight gradient and bias gradient for the output gradient `dout`."""
    n, c, h, wd = x.shape
    o = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.zeros((n, o, h, wd)) + b[None, :, None, None]
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for oc in range(o):
        for ic in range(c):
            for di in range(3):
                for dj in range(3):
                    for i in range(h):
                        for j in range(wd):
                            y[:, oc, i, j] += w[oc, ic, di, dj] * xp[:, ic, i + di, j + dj]
                            dw[oc, ic, di, dj] += dout[:, oc, i, j] @ xp[:, ic, i + di, j + dj]
                            dxp[:, ic, i + di, j + dj] += w[oc, ic, di, dj] * dout[:, oc, i, j]
    return y, dxp[:, :, 1:-1, 1:-1], dw, dout.sum(axis=(0, 2, 3))


def rel_err(a, ref):
    return float(np.max(np.abs(a - ref)) / max(float(np.max(np.abs(ref))), 1e-300))


class TestConv3x3:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        conv = Conv3x3(1, 1, rng)
        conv.w.value[...] = 0.0
        conv.w.value[0, 0, 1, 1] = 1.0  # center tap
        x = rng.normal(size=(2, 1, 4, 5))
        assert np.allclose(conv.forward(x), x)

    def test_all_ones_kernel_sums_neighborhood(self):
        rng = np.random.default_rng(0)
        conv = Conv3x3(1, 1, rng)
        conv.w.value[...] = 1.0
        x = np.ones((1, 1, 3, 3))
        y = conv.forward(x)
        # center pixel sees all 9 neighbors, corner only 4 (zero padding)
        assert y[0, 0, 1, 1] == 9.0
        assert y[0, 0, 0, 0] == 4.0

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        conv = Conv3x3(2, 3, rng)
        x = rng.normal(size=(2, 2, 4, 4))
        dout = rng.normal(size=(2, 3, 4, 4))
        conv.forward(x)
        dx = conv.backward(dout)
        assert np.allclose(dx, finite_diff_input_grad(conv, x, dout), atol=1e-7)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), c=st.integers(1, 4), o=st.integers(1, 4),
           h=st.integers(1, 6), w=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @example(n=1, c=2, o=3, h=1, w=1, seed=0)
    @example(n=3, c=3, o=2, h=2, w=5, seed=1)
    @example(n=4, c=1, o=4, h=6, w=1, seed=2)
    def test_matches_direct_convolution(self, n, c, o, h, w, seed):
        rng = np.random.default_rng(seed)
        conv = Conv3x3(c, o, rng)
        conv.b.value[...] = rng.normal(size=o)
        x = rng.normal(size=(n, c, h, w))
        dout = rng.normal(size=(n, o, h, w))
        y = conv.forward(x)
        dx = conv.backward(dout)
        ref = direct_conv3x3(x, conv.w.value, conv.b.value, dout)
        for got, want in zip((y, dx, conv.w.grad, conv.b.grad), ref):
            assert got.shape == want.shape
            assert rel_err(got, want) <= 1e-12
        assert y.flags.c_contiguous and dx.flags.c_contiguous

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), c=st.integers(1, 4), o=st.integers(1, 4),
           h=st.integers(1, 6), w=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @example(n=1, c=1, o=1, h=1, w=1, seed=0)
    @example(n=1, c=3, o=2, h=1, w=4, seed=1)
    def test_train_windows_and_param_backward_are_bitwise_backward(self, n, c, o, h, w, seed):
        rng = np.random.default_rng(seed)
        w0, b0 = rng.normal(size=(o, c, 3, 3)), rng.normal(size=o)
        x = rng.normal(size=(n, c, h, w))
        dout = rng.normal(size=(n, o, h, w))

        def run(mode, method):
            conv = Conv3x3(c, o, np.random.default_rng(0))
            conv.w.value[...], conv.b.value[...] = w0, b0
            y = conv.forward(x, mode=mode, rng=np.random.default_rng(1))
            dx = getattr(conv, method)(dout)
            return y, dx, conv.w.grad, conv.b.grad

        y, dx, dw, db = run("eval", "backward")
        for got, want in zip(run("train", "backward"), (y, dx, dw, db)):
            assert got.tobytes() == want.tobytes()
        for mode in ("train", "eval"):
            got_y, none, got_dw, got_db = run(mode, "param_backward")
            assert none is None
            assert (got_y.tobytes(), got_dw.tobytes(), got_db.tobytes()) == (
                y.tobytes(), dw.tobytes(), db.tobytes())

    def test_backward_twice_after_one_train_forward(self):
        rng = np.random.default_rng(3)
        conv = Conv3x3(2, 3, rng)
        x, dout = rng.normal(size=(2, 2, 3, 4)), rng.normal(size=(2, 3, 3, 4))
        conv.forward(x, mode="train", rng=rng)
        dx = conv.backward(dout)
        once = conv.w.grad.copy()
        assert np.array_equal(conv.backward(dout), dx)  # the kept windows read again
        assert np.array_equal(conv.w.grad, 2 * once)


class TestLinear:
    def test_identity_weights(self):
        rng = np.random.default_rng(0)
        lin = Linear(3, 3, rng)
        lin.w.value[...] = np.eye(3)
        lin.b.value[...] = 0.0
        x = rng.normal(size=(4, 3))
        assert np.allclose(lin.forward(x), x)

    def test_zero_input_gives_bias(self):
        lin = Linear(3, 2, np.random.default_rng(0))
        lin.b.value[...] = [1.5, -2.0]
        assert np.allclose(lin.forward(np.zeros((2, 3))), [[1.5, -2.0], [1.5, -2.0]])

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        lin = Linear(5, 3, rng)
        x = rng.normal(size=(4, 5))
        dout = rng.normal(size=(4, 3))
        lin.forward(x)
        dx = lin.backward(dout)
        assert np.allclose(dx, finite_diff_input_grad(lin, x, dout), atol=1e-7)


class TestActivations:
    def test_gelu_fixed_points(self):
        g = GELU()
        assert g.forward(np.array([0.0]))[0] == 0.0
        assert abs(g.forward(np.array([10.0]))[0] - 10.0) < 1e-6
        assert abs(g.forward(np.array([-10.0]))[0]) < 1e-6

    def test_gelu_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        g = GELU()
        x = rng.normal(size=(3, 7))
        dout = rng.normal(size=(3, 7))
        g.forward(x)
        assert np.allclose(g.backward(dout), finite_diff_input_grad(g, x, dout), atol=1e-7)


class TestDropout:
    def test_rate_zero_is_identity_in_train(self):
        d = Dropout(0.0)
        x = np.ones((2, 3))
        out = d.forward(x, mode="train", rng=np.random.default_rng(0))
        assert np.array_equal(out, x)

    def test_eval_is_identity(self):
        d = Dropout(0.5)
        x = np.ones((4, 4))
        assert np.array_equal(d.forward(x, mode="eval"), x)

    def test_train_survivor_fraction_and_scaling(self):
        d = Dropout(0.25)
        x = np.ones(1_000_000)
        out = d.forward(x, mode="train", rng=np.random.default_rng(7))
        survivors = np.count_nonzero(out)
        assert abs(survivors / x.size - 0.75) < 0.01
        assert np.allclose(out[out > 0], 1.0 / 0.75)
        assert abs(np.mean(out) - 1.0) < 0.01  # inverted scaling keeps E[y] = E[x]


class TestGlobalAvgPool:
    def test_constant_map(self):
        p = GlobalAvgPool()
        assert np.array_equal(p.forward(np.full((2, 3, 4, 4), 5.0)), np.full((2, 3), 5.0))

    def test_backward_spreads_evenly(self):
        p = GlobalAvgPool()
        x = np.zeros((1, 2, 2, 2))
        p.forward(x)
        dx = p.backward(np.array([[4.0, 8.0]]))
        assert np.array_equal(dx[0, 0], np.ones((2, 2)))
        assert np.array_equal(dx[0, 1], np.full((2, 2), 2.0))


class TestSmoothL1:
    def test_quadratic_region(self):
        loss, grad = smooth_l1(np.array([0.05]), np.array([0.0]), 0.1)
        assert loss[0] == pytest.approx(0.0125, abs=1e-15)
        assert grad[0] == pytest.approx(0.5, abs=1e-15)

    def test_linear_region(self):
        loss, grad = smooth_l1(np.array([1.0, -1.0]), np.array([0.0, 0.0]), 0.1)
        assert np.allclose(loss, 0.95)
        assert np.array_equal(grad, [1.0, -1.0])

    def test_continuity_at_boundary(self):
        a = 0.1
        below, _ = smooth_l1(np.array([a - 1e-12]), np.array([0.0]), a)
        above, _ = smooth_l1(np.array([a + 1e-12]), np.array([0.0]), a)
        assert abs(below[0] - above[0]) < 1e-10
        assert below[0] == pytest.approx(a / 2.0, abs=1e-10)

    def test_gradient_magnitude_capped(self):
        rng = np.random.default_rng(5)
        _, grad = smooth_l1(rng.normal(scale=10, size=100), np.zeros(100), 0.1)
        assert np.all(np.abs(grad) <= 1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        y_hat = rng.normal(size=20) * 0.3
        y = rng.normal(size=20) * 0.3
        _, grad = smooth_l1(y_hat, y, 0.1)
        num = central_diff(lambda: np.sum(smooth_l1(y_hat, y, 0.1)[0]), y_hat, 1e-7)
        assert grad == pytest.approx(num, abs=1e-6)


class TestCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = cross_entropy(np.zeros((1, 4)), [2])
        assert loss[0] == pytest.approx(np.log(4.0), abs=1e-12)

    def test_confident_correct(self):
        logits = np.array([[100.0, 0.0, 0.0]])
        loss, _ = cross_entropy(logits, [0])
        assert loss[0] < 1e-12

    def test_large_logits_stable(self):
        loss, grad = cross_entropy(np.array([[1000.0, 999.0]]), [1])
        assert np.all(np.isfinite(loss)) and np.all(np.isfinite(grad))

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(6, 5)) * 3
        _, grad = cross_entropy(logits, rng.integers(0, 5, size=6))
        assert np.all(np.abs(grad.sum(axis=1)) < 1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=(1, 5))
        _, grad = cross_entropy(logits, [3])
        num = central_diff(lambda: cross_entropy(logits, [3])[0][0], logits, 1e-7)
        assert grad == pytest.approx(num, abs=1e-6)


class TestSGD:
    def test_plain_step(self):
        p = Param(np.array([1.0]))
        p.grad[...] = 0.1
        SGD(lr=0.1, momentum=0.0, weight_decay=0.0).step([p])
        assert p.value[0] == pytest.approx(0.99, abs=1e-15)

    def test_momentum_accumulates(self):
        p = Param(np.array([0.0]))
        opt = SGD(lr=0.1, momentum=0.9, weight_decay=0.0)
        p.grad[...] = 1.0
        opt.step([p])  # v = 1.0, w = -0.1
        p.grad[...] = 1.0
        opt.step([p])  # v = 1.9, w = -0.29
        assert p.value[0] == pytest.approx(-0.29, abs=1e-15)

    def test_weight_decay_couples_into_gradient(self):
        p = Param(np.array([1.0]))  # grad stays 0
        SGD(lr=0.1, momentum=0.0, weight_decay=1e-2).step([p])
        assert p.value[0] == pytest.approx(1.0 - 0.1 * 1e-2, abs=1e-15)

    def test_grad_cleared_after_step(self):
        p = Param(np.array([1.0]))
        p.grad[...] = 0.5
        SGD(lr=0.1, momentum=0.9, weight_decay=1e-4).step([p])
        assert np.array_equal(p.grad, [0.0])

    def test_non_finite_gradient_raises(self):
        p = Param(np.array([1.0]))
        p.grad[...] = np.nan
        with pytest.raises(NumericalError):
            SGD(lr=5e-2, momentum=0.9, weight_decay=1e-4).step([p])


def _scalar_smooth_l1(target):
    def loss_fn(out):
        loss, grad = smooth_l1(out, target, 0.1)
        return float(np.sum(loss)), grad
    return loss_fn


class TestGradCheck:
    def test_linear_stack_tight(self):
        rng = np.random.default_rng(10)
        net = Network([Linear(4, 8, rng), GELU(), Linear(8, 2, rng)])
        x = rng.normal(size=(3, 4))
        target = rng.normal(size=(3, 2))
        assert grad_check(net, x, _scalar_smooth_l1(target)) < 1e-6

    def test_conv_pool_dropout_stack(self):
        rng = np.random.default_rng(11)
        net = Network([
            Conv3x3(2, 3, rng), GELU(), Dropout(0.25), GlobalAvgPool(),
            Linear(3, 4, rng), GELU(), Dropout(0.25), Linear(4, 2, rng),
        ])
        x = rng.normal(size=(2, 2, 4, 4))
        target = rng.normal(size=(2, 2))
        assert grad_check(net, x, _scalar_smooth_l1(target), seed=3) < 1e-4

    def test_cross_entropy_head(self):
        rng = np.random.default_rng(12)
        net = Network([Linear(4, 6, rng), GELU(), Linear(6, 3, rng)])
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)

        def loss_fn(out):
            loss, grad = cross_entropy(out, labels)
            return float(np.sum(loss)), grad

        assert grad_check(net, x, loss_fn) < 1e-6

    def test_detects_corrupted_backward(self):
        class BrokenLinear(Linear):
            def backward(self, grad_out):
                dx = super().backward(grad_out)
                self.w.grad *= 1.05  # deliberate 5% error
                return dx

        rng = np.random.default_rng(13)
        net = Network([BrokenLinear(4, 3, rng)])
        x = rng.normal(size=(2, 4))
        target = rng.normal(size=(2, 3))
        assert grad_check(net, x, _scalar_smooth_l1(target)) > 1e-2

    def test_detects_corrupted_param_backward_of_input_conv(self):
        class BrokenConv(Conv3x3):
            def param_backward(self, grad_out):
                super().param_backward(grad_out)
                self.w.grad *= 1.05  # deliberate 5% error

        rng = np.random.default_rng(14)
        net = Network([BrokenConv(2, 3, rng), GELU(), GlobalAvgPool(), Linear(3, 2, rng)])
        x = rng.normal(size=(2, 2, 4, 4))
        target = rng.normal(size=(2, 2))
        assert grad_check(net, x, _scalar_smooth_l1(target)) > 1e-2

    def test_leaves_parameters_and_input_as_they_were(self):
        """Both helpers perturb in place: grad_check leaves every parameter with its
        prior bytes and every grad zero, whatever the grads held, and central_diff
        leaves x with its prior bytes."""
        rng = np.random.default_rng(15)
        net = Network([Conv3x3(2, 2, rng), GELU(), Conv3x3(2, 2, rng), GELU(), Dropout(0.25),
                       GlobalAvgPool(), Linear(2, 4, rng), GELU(), Dropout(0.25),
                       Linear(4, 2, rng)])
        x = rng.normal(size=(2, 2, 4, 4))
        target = rng.normal(size=(2, 2))
        before = [p.value.tobytes() for p in net.parameters()]
        for p in net.parameters():
            p.grad[...] = 1.0
        assert grad_check(net, x, _scalar_smooth_l1(target), seed=3) < 1e-4
        assert [p.value.tobytes() for p in net.parameters()] == before
        assert not any(np.any(p.grad) for p in net.parameters())

        x_before = x.tobytes()
        central_diff(lambda: float(np.sum(np.sin(x))), x, 1e-5)
        assert x.tobytes() == x_before


class _NoBackward(Layer):
    """Parameter-free identity layer whose gradient must never be asked for."""

    def forward(self, x, mode="eval", rng=None):
        return x

    def backward(self, grad_out):
        raise AssertionError("backward ran below the deepest layer with parameters")


class TestNetworkBackward:
    @staticmethod
    def _layers(conv, rng):
        front = [Conv3x3(2, 2, rng), GELU()] if conv else []
        return front + [Dropout(0.25), GlobalAvgPool(), Linear(2, 5, rng), GELU(),
                        Dropout(0.25), Linear(5, 2, rng)]

    @pytest.mark.parametrize("conv", [False, True], ids=["linear-only", "conv"])
    def test_gradients_equal_full_chain_and_stop_at_deepest_trained_layer(self, conv):
        x = np.random.default_rng(20).normal(size=(3, 2, 4, 5))
        dout = np.random.default_rng(21).normal(size=(3, 2))
        stopped = Network([_NoBackward()] + self._layers(conv, np.random.default_rng(22)))
        full = Network(self._layers(conv, np.random.default_rng(22)))
        stopped.forward(x, mode="train", rng=np.random.default_rng(23))
        full.forward(x, mode="train", rng=np.random.default_rng(23))

        assert stopped.backward(dout) is None
        g = dout
        for layer in reversed(full.layers):
            g = layer.backward(g)
        got, want = stopped.parameters(), full.parameters()
        assert len(got) == len(want)
        assert all(np.array_equal(a.grad, b.grad) for a, b in zip(got, want))
        assert any(np.any(p.grad != 0) for p in got)

    def test_deepest_conv_gives_parameter_gradients_without_backward(self):
        class ParamOnlyConv(Conv3x3):
            def backward(self, grad_out):
                raise AssertionError("input gradient of the deepest trained layer")

        x = np.random.default_rng(24).normal(size=(3, 2, 4, 5))
        dout = np.random.default_rng(25).normal(size=(3, 2))
        rng = np.random.default_rng(26)
        stopped = Network([ParamOnlyConv(2, 2, rng), GELU()] + self._layers(False, rng))
        full = Network(self._layers(True, np.random.default_rng(26)))
        stopped.forward(x, mode="train", rng=np.random.default_rng(28))
        full.forward(x, mode="train", rng=np.random.default_rng(28))

        stopped.backward(dout)
        g = dout
        for layer in reversed(full.layers):
            g = layer.backward(g)
        got, want = stopped.parameters(), full.parameters()
        assert len(got) == len(want)
        assert all(np.array_equal(a.grad, b.grad) for a, b in zip(got, want))
        assert np.any(got[0].grad != 0)


class TestDeterminism:
    def test_identical_trainings_bitwise_equal(self):
        def train_once():
            rng = np.random.default_rng(np.random.SeedSequence([42]))
            net = Network([Linear(3, 8, rng), GELU(), Dropout(0.25), Linear(8, 1, rng)])
            opt = SGD(lr=1e-2, momentum=0.9, weight_decay=1e-4)
            x = np.random.default_rng(0).normal(size=(64, 3))
            y = x.sum(axis=1, keepdims=True)
            for _ in range(50):
                idx = rng.integers(0, 64, size=8)
                out = net.forward(x[idx], mode="train", rng=rng)
                _, g = smooth_l1(out, y[idx], 0.1)
                net.backward(g / 8)
                opt.step(net.parameters())
            return [p.value.copy() for p in net.parameters()]

        a, b = train_once(), train_once()
        assert all(pa.tobytes() == pb.tobytes() for pa, pb in zip(a, b))
