"""Minimal trainable-network engine for the calibration heads.

Layers pass float64 batches ([N, C, H, W] for spatial layers, [N, F]
after pooling) and carry their own analytic backward. The only convolution
is 3x3 / stride 1 / zero padding 1, all the heads need; inside, it is one
2-D matrix product per kernel offset. Training is bitwise reproducible on
one host given (seed, data order, hyperparameters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erf


class NumericalError(RuntimeError):
    """Non-finite value encountered during training."""


@dataclass
class Param:
    value: np.ndarray
    grad: np.ndarray = None

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)


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
        raise NotImplementedError


class Conv3x3(Layer):
    """3x3 cross-correlation, stride 1, zero padding 1 (spatial size preserved).

    Contiguous NCHW in and out. Inside, each of the 9 kernel offsets is one
    2-D matrix product over the channels of a zero-padded channel-major copy,
    summed into zeros in (di, dj) order, then the bias; trained bytes depend on it.
    """

    def __init__(self, in_channels, out_channels, rng):
        fan_in = in_channels * 9
        self.w = Param(_kaiming_uniform(rng, (out_channels, in_channels, 3, 3), fan_in))
        self.b = Param(np.zeros(out_channels))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, mode="eval", rng=None):
        n, c, h, w = x.shape
        if c != self.w.value.shape[1]:
            raise ValueError(f"expected {self.w.value.shape[1]} channels, got {c}")
        xp = self._xp = np.zeros((c, n, h + 2, w + 2))
        xp[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
        y = np.zeros((self.w.value.shape[0], n * h * w))
        for di in range(3):
            for dj in range(3):
                y += self.w.value[:, :, di, dj] @ xp[:, :, di : di + h, dj : dj + w].reshape(c, -1)
        y += self.b.value[:, None]
        return np.ascontiguousarray(y.reshape(-1, n, h, w).transpose(1, 0, 2, 3))

    def backward(self, grad_out):
        xp, (n, o, h, w) = self._xp, grad_out.shape
        g_rows = grad_out.transpose(0, 2, 3, 1).reshape(-1, o)  # [N*H*W, O]
        g_cols = grad_out.transpose(1, 0, 2, 3).reshape(o, -1)  # [O, N*H*W]
        dxp = np.zeros_like(xp)
        for di in range(3):
            for dj in range(3):
                window = xp[:, :, di : di + h, dj : dj + w].reshape(len(xp), -1)
                self.w.grad[:, :, di, dj] += (window @ g_rows).T
                dxp[:, :, di : di + h, dj : dj + w] += (
                    self.w.value[:, :, di, dj].T @ g_cols).reshape(-1, n, h, w)
        self.b.grad += grad_out.sum(axis=(0, 2, 3))
        return np.ascontiguousarray(dxp[:, :, 1:-1, 1:-1].transpose(1, 0, 2, 3))


class Linear(Layer):
    def __init__(self, in_dim, out_dim, rng):
        self.w = Param(_kaiming_uniform(rng, (out_dim, in_dim), in_dim))
        self.b = Param(np.zeros(out_dim))

    def params(self):
        return [self.w, self.b]

    def forward(self, x, mode="eval", rng=None):
        if x.shape[1] != self.w.value.shape[1]:
            raise ValueError(f"expected dim {self.w.value.shape[1]}, got {x.shape[1]}")
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
        self._cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
        return x * self._cdf

    def backward(self, grad_out):
        pdf = np.exp(-0.5 * self._x**2) / math.sqrt(2.0 * math.pi)
        return grad_out * (self._cdf + self._x * pdf)


class ReLU(Layer):
    def forward(self, x, mode="eval", rng=None):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out):
        return grad_out * self._mask


class Dropout(Layer):
    """Inverted dropout: train-time scaling by 1/(1-rate), identity in eval."""

    def __init__(self, rate):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, mode="eval", rng=None):
        if mode == "eval" or self.rate == 0.0:
            self._scale = None
            return x
        if mode != "train":
            raise ValueError(f"unknown mode {mode!r}")
        self._scale = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
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
        parameter's grad. Returns nothing: it stops at the deepest layer with
        parameters, since nothing reads the input gradient below it."""
        deepest = next((i for i, layer in enumerate(self.layers) if layer.params()),
                       len(self.layers))
        for layer in reversed(self.layers[deepest:]):
            grad_out = layer.backward(grad_out)

    def zero_grad(self):
        for p in self.parameters():
            p.grad[...] = 0.0


def smooth_l1(y_hat, y, alpha):
    """Elementwise smooth-L1 loss and its gradient in y_hat.

    Quadratic (x^2 / 2a) inside |diff| < alpha, linear (|diff| - a/2)
    outside; C1 at the boundary, gradient magnitude capped at 1.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    y_hat = np.asarray(y_hat, dtype=np.float64)
    diff = y_hat - np.asarray(y, dtype=np.float64)
    absd = np.abs(diff)
    quad = absd < alpha
    loss = np.where(quad, diff**2 / (2.0 * alpha), absd - alpha / 2.0)
    grad = np.where(quad, diff / alpha, np.sign(diff))
    return loss, grad


def cross_entropy(logits, true_class):
    """Softmax cross-entropy with max-shift stabilization over a batch of
    logits [N, k] and class indices [N]; the gradient is softmax - onehot.
    """
    logits = np.asarray(logits, dtype=np.float64)
    true_class = np.asarray(true_class)
    n, k = logits.shape
    if k < 2:
        raise ValueError(f"need at least 2 classes, got {k}")
    if np.any(true_class < 0) or np.any(true_class >= k):
        raise ValueError(f"class index out of range [0, {k})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    loss = -log_p[np.arange(n), true_class]
    grad = np.exp(log_p)
    grad[np.arange(n), true_class] -= 1.0
    return loss, grad


@dataclass
class SGD:
    """SGD with momentum and coupled L2 weight decay."""

    lr: float
    momentum: float
    weight_decay: float
    _velocity: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")

    def step(self, params: list[Param]):
        for p in params:
            if not np.all(np.isfinite(p.grad)):
                raise NumericalError("non-finite gradient in sgd_step")
            g = p.grad + self.weight_decay * p.value
            v = self._velocity.get(id(p))
            if v is None:
                v = np.zeros_like(p.value)
                self._velocity[id(p)] = v
            v *= self.momentum
            v += g
            p.value -= self.lr * v
            p.grad[...] = 0.0


def grad_check(net: Network, x, loss_fn, eps=1e-5, seed=0) -> float:
    """Max relative error of analytic parameter gradients vs central differences.

    Every forward runs in train mode with a fresh generator seeded by `seed`,
    so each one draws the same dropout masks and the analytic and numeric
    passes see the same function; everything runs in float64.
    """
    x = np.asarray(x, dtype=np.float64)

    def forward():
        return net.forward(x, mode="train", rng=np.random.default_rng(seed))

    net.zero_grad()
    _, dout = loss_fn(forward())
    net.backward(dout)

    max_rel = 0.0
    for p in net.parameters():
        flat = p.value.ravel()
        analytic = p.grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = loss_fn(forward())
            flat[i] = orig - eps
            lm, _ = loss_fn(forward())
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * eps)
            denom = max(abs(analytic[i]), abs(numeric), 1e-8)
            max_rel = max(max_rel, abs(analytic[i] - numeric) / denom)
    net.zero_grad()
    return max_rel
