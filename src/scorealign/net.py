"""Minimal trainable-network engine for the calibration heads.

Layers pass float64 batches ([N, C, H, W] for spatial layers, [N, F]
after pooling) and carry their own analytic backward. The only convolution
is 3x3 / stride 1 / zero padding 1, all the heads need; inside, it is one
2-D matrix product per kernel offset. `Network.backward` stops at the
deepest layer with parameters and asks it for its parameter gradients
only (`Layer.param_backward`): its input is data, so nothing reads its
input gradient. Training is bitwise reproducible on one host given (seed,
data order, hyperparameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf


class NumericalError(RuntimeError):
    """Non-finite value encountered during training."""


@dataclass
class Param:
    """A trainable array with its gradient and its SGD momentum, both zeros at first."""

    value: np.ndarray

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.velocity = np.zeros_like(self.value)


def _kaiming_uniform(rng, shape, fan_in):
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Forward/backward pair; `mode` is 'train' or 'eval'."""

    def params(self) -> list[Param]:
        return []

    def forward(self, x, mode="eval", rng=None):
        raise NotImplementedError

    def backward(self, grad_out):
        """Accumulate parameter gradients; return d loss / d input."""
        raise NotImplementedError

    def param_backward(self, grad_out):
        """Accumulate parameter gradients only; the input gradient may be skipped."""
        self.backward(grad_out)


class Conv3x3(Layer):
    """3x3 cross-correlation, stride 1, zero padding 1 (spatial size preserved).

    Contiguous NCHW in and out. Inside, each of the 9 kernel offsets is one
    2-D matrix product over the channels of a window copied from a zero-padded
    channel-major copy, summed into zeros in (di, dj) order, then the bias;
    trained bytes depend on it. Every forward keeps its 9 windows, which the
    weight gradient reads; the next forward drops them before it builds its own.
    """

    def __init__(self, in_channels, out_channels, rng):
        fan_in = in_channels * 9
        self.w = Param(_kaiming_uniform(rng, (out_channels, in_channels, 3, 3), fan_in))
        self.b = Param(np.zeros(out_channels))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, mode="eval", rng=None):
        n, c, h, w = x.shape
        self._windows = None  # no step holds two sets of windows
        xp = np.zeros((c, n, h + 2, w + 2))
        xp[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
        # the 9 [C, N*H*W] windows of the padded copy, in (di, dj) order
        self._windows = [(di, dj, xp[:, :, di : di + h, dj : dj + w].reshape(c, -1))
                         for di in range(3) for dj in range(3)]
        y = np.zeros((self.w.value.shape[0], n * h * w))
        for di, dj, window in self._windows:
            y += self.w.value[:, :, di, dj] @ window
        y += self.b.value[:, None]
        return np.ascontiguousarray(y.reshape(-1, n, h, w).transpose(1, 0, 2, 3))

    def param_backward(self, grad_out):
        g_rows = grad_out.transpose(0, 2, 3, 1).reshape(-1, grad_out.shape[1])  # [N*H*W, O]
        for di, dj, window in self._windows:
            self.w.grad[:, :, di, dj] += (window @ g_rows).T
        self.b.grad += grad_out.sum(axis=(0, 2, 3))

    def backward(self, grad_out):
        self.param_backward(grad_out)
        n, o, h, w = grad_out.shape
        g_cols = grad_out.transpose(1, 0, 2, 3).reshape(o, -1)  # [O, N*H*W]
        dxp = np.zeros((self.w.value.shape[1], n, h + 2, w + 2))
        for di in range(3):
            for dj in range(3):
                dxp[:, :, di : di + h, dj : dj + w] += (
                    self.w.value[:, :, di, dj].T @ g_cols).reshape(-1, n, h, w)
        return np.ascontiguousarray(dxp[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3))


class Linear(Layer):
    def __init__(self, in_dim, out_dim, rng):
        self.w = Param(_kaiming_uniform(rng, (out_dim, in_dim), in_dim))
        self.b = Param(np.zeros(out_dim))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, mode="eval", rng=None):
        self._x = x
        return x @ self.w.value.T + self.b.value

    def backward(self, grad_out):
        self.w.grad += grad_out.T @ self._x
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.w.value


class GELU(Layer):
    """Exact Gaussian-CDF GELU: x * Phi(x)."""

    def forward(self, x, mode="eval", rng=None):
        self._x = x
        # 0.5 * (1 + erf(x / sqrt(2))), each step in place in one array
        self._cdf = cdf = x / math.sqrt(2.0)
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        return x * cdf

    def backward(self, grad_out):
        # grad_out * (cdf + x * exp(-x^2 / 2) / sqrt(2 pi)), each step in place
        g = self._x**2
        g *= -0.5
        np.exp(g, out=g)
        g /= math.sqrt(2.0 * math.pi)
        g *= self._x
        g += self._cdf
        g *= grad_out
        return g


class Dropout(Layer):
    """Inverted dropout: train-time scaling by 1/(1-rate), identity in eval."""

    def __init__(self, rate):
        self.rate = rate

    def forward(self, x, mode="eval", rng=None):
        if mode == "eval" or self.rate == 0.0:
            self._scale = None
            return x
        self._scale = rng.random(x.shape)
        np.greater_equal(self._scale, self.rate, out=self._scale)
        self._scale *= 1.0 / (1.0 - self.rate)
        return x * self._scale

    def backward(self, grad_out):
        if self._scale is None:
            return grad_out
        return grad_out * self._scale


class GlobalAvgPool(Layer):
    """[N, C, H, W] -> [N, C] per-channel mean; bridges conv output to linears."""

    def forward(self, x, mode="eval", rng=None):
        self._shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_out):
        n, c, h, w = self._shape
        return np.broadcast_to(grad_out[:, :, None, None], self._shape) / (h * w)


class Network:
    def __init__(self, layers: list[Layer]):
        self.layers = layers

    def parameters(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x, mode="eval", rng=None):
        x = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            x = layer.forward(x, mode=mode, rng=rng)
        return x

    def backward(self, grad_out):
        """Backpropagate `grad_out` (d loss / d last forward output) into every
        parameter's grad. Returns nothing: the deepest layer with parameters
        runs `param_backward`, since nothing reads the input gradient below it."""
        deepest = next(i for i, layer in enumerate(self.layers) if layer.params())
        for layer in reversed(self.layers[deepest + 1 :]):
            grad_out = layer.backward(grad_out)
        self.layers[deepest].param_backward(grad_out)


def smooth_l1(y_hat, y, alpha):
    """Elementwise smooth-L1 loss and its gradient in y_hat.

    Quadratic (x^2 / 2a) inside |diff| < alpha, linear (|diff| - a/2)
    outside, for alpha > 0; C1 at the boundary, gradient magnitude capped at 1.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    diff = y_hat - np.asarray(y, dtype=np.float64)
    absd = np.abs(diff)
    quad = absd < alpha
    loss = np.where(quad, diff**2 / (2.0 * alpha), absd - alpha / 2.0)
    grad = np.where(quad, diff / alpha, np.sign(diff))
    return loss, grad


def cross_entropy(logits, true_class):
    """Softmax cross-entropy with max-shift stabilization over a batch of
    logits [N, k] and class indices [N] in [0, k); the gradient is softmax - onehot.
    """
    logits = np.asarray(logits, dtype=np.float64)
    true_class = np.asarray(true_class)
    n = len(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = -log_p[np.arange(n), true_class]
    grad = np.exp(log_p)
    grad[np.arange(n), true_class] -= 1.0
    return loss, grad


@dataclass
class SGD:
    """SGD with momentum and coupled L2 weight decay; each Param holds its own velocity."""

    lr: float
    momentum: float
    weight_decay: float

    def step(self, params: list[Param]):
        for p in params:
            if not np.all(np.isfinite(p.grad)):
                raise NumericalError("non-finite gradient in sgd_step")
            g = p.grad + self.weight_decay * p.value
            p.velocity *= self.momentum
            p.velocity += g
            p.value -= self.lr * p.velocity
            p.grad[...] = 0.0
