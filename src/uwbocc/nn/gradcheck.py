"""Central finite-difference oracles for the analytic gradients.

Two granularities: exhaustive per-entry checks for individual layers (every
parameter entry and every input entry), and directional-derivative checks
for whole networks, where all parameters move along one random direction
and the measured slope is compared against the inner product of the
analytic gradient with that direction.  The directional form costs two
forward passes per probe regardless of parameter count, which is what
makes checking the million-parameter variants affordable.
"""

from __future__ import annotations

import numpy as np

from .layers import Layer
from .model import Network
from .training import bce_with_logits

__all__ = ["check_layer_gradients", "check_network_gradient"]


def relative_error(analytic: float, numeric: float) -> float:
    scale = max(abs(analytic), abs(numeric), 1e-10)
    return abs(analytic - numeric) / scale


def check_layer_gradients(layer: Layer, x: np.ndarray, eps: float = 1e-6,
                          rng=None) -> float:
    """Exhaustive per-entry check of one layer; returns the max relative error.

    The scalar objective is sum(forward(x) * R) for a fixed random R, so its
    gradient with respect to the output is exactly R.
    """
    rng = np.random.default_rng(rng)
    x = np.asarray(x, dtype=np.float64)
    y = layer.forward(x, train=True)
    r = rng.standard_normal(y.shape)

    for p in layer.params():
        p.zero_grad()
    y = layer.forward(x, train=True)
    dx = layer.backward(r * np.ones_like(y))
    worst = 0.0

    def loss_at(arr):
        return float(np.sum(layer.forward(arr, train=True) * r))

    for value, grad in [(p.value, p.grad) for p in layer.params()] + [(x, dx)]:
        flat, grad = value.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            up = loss_at(x)
            flat[i] = keep - eps
            down = loss_at(x)
            flat[i] = keep
            worst = max(worst, relative_error(grad[i], (up - down) / (2 * eps)))
    return worst


def check_network_gradient(network: Network, batch: np.ndarray, labels: np.ndarray,
                           n_directions: int = 3, eps: float = 1e-6, rng=None) -> float:
    """Directional-derivative check over all parameters; max relative error.

    Parameters and running statistics are restored afterwards, so the check
    leaves the network as it found it (gradients aside).
    """
    saved = [(arr, arr.copy()) for _, arr in network.named_state()]
    try:
        return _directional_error(network, batch, labels, n_directions, eps,
                                  np.random.default_rng(rng))
    finally:
        for arr, value in saved:
            arr[...] = value


def _directional_error(network, batch, labels, n_directions, eps, rng) -> float:
    params = network.params()
    network.zero_grads()
    logits = network.forward(batch, train=True)
    _, dlogits = bce_with_logits(logits, labels)
    network.backward(dlogits)
    grads = [p.grad.copy() for p in params]

    def loss():
        value, _ = bce_with_logits(network.forward(batch, train=True), labels)
        return value

    worst = 0.0
    for _ in range(n_directions):
        direction = [rng.standard_normal(p.value.shape) for p in params]
        norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
        direction = [d / norm for d in direction]
        analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))

        for p, d in zip(params, direction):
            p.value += eps * d
        up = loss()
        for p, d in zip(params, direction):
            p.value -= 2 * eps * d
        down = loss()
        for p, d in zip(params, direction):
            p.value += eps * d
        worst = max(worst, relative_error(analytic, (up - down) / (2 * eps)))
    return worst
