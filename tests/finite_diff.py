"""The tests' one finite-difference reference for scorealign.net's analytic gradients.

`central_diff` is the central-difference loop; `grad_check` compares a
network's backprop with it (criterion 02 and tests/test_net.py).
"""

import numpy as np


def central_diff(f, x, eps):
    """Central-difference gradient of the scalar f() in the float64 array x that f reads.

    Element i of the result is (f() at x[i] + eps - f() at x[i] - eps) / (2 eps).
    Each element is perturbed in place and then restored, so x ends bitwise as
    it began.
    """
    grad = np.empty_like(x)
    for i in np.ndindex(x.shape):
        orig = x[i]
        x[i] = orig + eps
        plus = f()
        x[i] = orig - eps
        minus = f()
        x[i] = orig
        grad[i] = (plus - minus) / (2.0 * eps)
    return grad


def grad_check(net, x, loss_fn, eps=1e-5, seed=0) -> float:
    """Max relative error of net's analytic parameter gradients against
    central_diff, each denominator floored at 1e-8.

    loss_fn maps the network output to (scalar loss, d loss / d output). Every
    forward runs in train mode with a fresh generator seeded by `seed`, so each
    one draws the same dropout masks and the analytic and numeric passes see the
    same function; everything runs in float64. Grads are zero before and after.
    """
    x = np.asarray(x, dtype=np.float64)
    params = net.parameters()

    def forward():
        return net.forward(x, mode="train", rng=np.random.default_rng(seed))

    def zero_grad():
        for p in params:
            p.grad[...] = 0.0

    zero_grad()
    _, dout = loss_fn(forward())
    net.backward(dout)
    max_rel = 0.0
    for p in params:
        numeric = central_diff(lambda: loss_fn(forward())[0], p.value, eps)
        denom = np.maximum(np.maximum(np.abs(p.grad), np.abs(numeric)), 1e-8)
        max_rel = max(max_rel, float(np.max(np.abs(p.grad - numeric) / denom)))
    zero_grad()
    return max_rel
