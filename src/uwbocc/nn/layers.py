"""Differentiable layers on numpy arrays, channels-first, double precision.

Every layer caches what its backward pass needs during forward and exposes
its trainable parameters as Param objects.  Batch layout: (batch, channels,
length) in 1D, (batch, channels, height, width) in 2D.

Convolutions (stride 1, same padding, odd kernel k, d spatial axes) share
one engine.  Its columns are channels-first: a (C*k**d, B*S) matrix whose
row c*k**d + t is channel c shifted by kernel tap t, built with k**d slice
copies, so one GEMM with the (c_out, C*k**d) weight matrix gives the output.
Columns are built one batch slice at a time, as many samples as fit in
_COLUMN_BUDGET_BYTES (one at least).  The budget is cache-sized: a slice's
columns stay in cache between being filled and being read by their GEMM,
and a buffer that small comes back from the heap on every call instead of
being mapped and page-faulted in afresh.  It is a constant, not a property
of the machine, so slices depend only on shapes and outputs stay
byte-deterministic.  In train mode a convolution keeps a reference to its
input, k**d times smaller than the columns, and rebuilds the columns in
backward, where the weight gradient accumulates over the slices.  This
relies on nothing mutating a layer's input between its forward and its
backward call.  The input gradient is a same-padded convolution of the
output gradient with the kernel flipped spatially and transposed in its
channel axes.

BatchNorm and ReLU are memory-bound, so they make as few full-size passes
and temporaries as their formulas allow.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import ConfigError, DataError

__all__ = [
    "Param",
    "Layer",
    "Conv1d",
    "Conv2d",
    "BatchNorm",
    "ReLU",
    "GlobalAvgPool",
    "Dense",
]


class Param:
    """One trainable array with its gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0


class Layer:
    """Base class; stateless layers keep the default empty parameter list."""

    def params(self) -> list[Param]:
        return []

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Non-trainable state that checkpoints must carry (running stats)."""
        return {}

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _he_scale(fan_in: int) -> float:
    return np.sqrt(2.0 / fan_in)


# Bytes of float64 columns built at once; a batch is split into slices that fit.
# Cache-sized, so a slice is still in cache when its GEMM reads it, and far
# below glibc's mmap threshold, so the buffer is reused from the heap.
_COLUMN_BUDGET_BYTES = 8 << 20


def _fill_columns(src: np.ndarray, kernel: int, out: np.ndarray) -> None:
    """Write the zero-padded windows of src (C, B, *S) into out (C, k**d, B, *S)."""
    pad, spatial = kernel // 2, src.shape[2:]
    for tap, offsets in enumerate(itertools.product(range(kernel), repeat=len(spatial))):
        dst, src_index, dst_index = out[:, tap], [slice(None)] * 2, [slice(None)] * 2
        for axis, (offset, size) in enumerate(zip(offsets, spatial)):
            shift = offset - pad
            lo = min(max(-shift, 0), size)
            hi = max(min(size - shift, size), lo)
            lead = (slice(None),) * (axis + 2)
            dst[lead + (slice(0, lo),)] = 0.0
            dst[lead + (slice(hi, size),)] = 0.0
            src_index.append(slice(lo + shift, hi + shift))
            dst_index.append(slice(lo, hi))
        dst[tuple(dst_index)] = src[tuple(src_index)]


def _column_slices(src: np.ndarray, kernel: int):
    """Per batch slice of src (C, B, *S), yield (lo, hi, the column matrix's [:, lo:hi]).

    All slices share one buffer, so each block is stale once the next is yielded.
    """
    channels, batch, spatial = src.shape[0], src.shape[1], src.shape[2:]
    rows, size = channels * kernel ** len(spatial), math.prod(spatial)
    step = max(1, min(batch, _COLUMN_BUDGET_BYTES // (8 * rows * size)))
    buffer = np.empty(rows * step * size)
    for start in range(0, batch, step):
        stop = min(start + step, batch)
        cols = buffer[:rows * (stop - start) * size]
        _fill_columns(src[:, start:stop], kernel,
                      cols.reshape((channels, -1, stop - start) + spatial))
        yield start * size, stop * size, cols.reshape(rows, -1)


def _convolve(src: np.ndarray, wmat: np.ndarray, kernel: int) -> np.ndarray:
    """Convolve src (C, B, *S) with wmat (c_out, C*k**d); returns (c_out, B, *S)."""
    out = np.empty((wmat.shape[0],) + src.shape[1:])
    flat = out.reshape(wmat.shape[0], -1)
    for lo, hi, cols in _column_slices(src, kernel):
        np.matmul(wmat, cols, out=flat[:, lo:hi])
    return out


class _Conv(Layer):
    """Stride-1 same-padded convolution over `rank` spatial axes; odd kernel size.

    There is no bias: every convolution feeds a BatchNorm, whose mean
    subtraction cancels any per-channel constant.
    """

    def __init__(self, c_in: int, c_out: int, kernel: int = 3, rng=None):
        if kernel < 1 or kernel % 2 == 0:
            raise ConfigError(f"kernel size must be odd and >= 1, got {kernel}")
        rng = np.random.default_rng(rng)
        self.c_in, self.c_out, self.kernel = c_in, c_out, kernel
        weight = rng.standard_normal((c_out, c_in) + (kernel,) * self.rank)
        self.weight = Param("weight", _he_scale(c_in * kernel ** self.rank) * weight)
        self._x = None

    def params(self):
        return [self.weight]

    def forward(self, x, train):
        if x.ndim != self.rank + 2 or x.shape[1] != self.c_in:
            raise DataError(f"conv{self.rank}d expects (B, {self.c_in}, {self.axes}), "
                            f"got {x.shape}")
        y = _convolve(x.swapaxes(0, 1), self.weight.value.reshape(self.c_out, -1), self.kernel)
        if train:
            self._x = x
        return y.swapaxes(0, 1)

    def backward(self, dy):
        x, self._x = self._x, None
        dy_t = np.ascontiguousarray(dy.swapaxes(0, 1))
        dy_flat = dy_t.reshape(self.c_out, -1)
        grad = sum(dy_flat[:, lo:hi] @ cols.T
                   for lo, hi, cols in _column_slices(x.swapaxes(0, 1), self.kernel))
        self.weight.grad += grad.reshape(self.weight.value.shape)
        flipped = np.flip(self.weight.value, tuple(range(2, self.rank + 2))).swapaxes(0, 1)
        return _convolve(dy_t, flipped.reshape(self.c_in, -1), self.kernel).swapaxes(0, 1)


class Conv1d(_Conv):
    """Stride-1 same-padded 1D convolution; odd kernel size."""

    rank, axes = 1, "L"


class Conv2d(_Conv):
    """Stride-1 same-padded 2D convolution; odd square kernel."""

    rank, axes = 2, "H, W"


class BatchNorm(Layer):
    """Per-channel batch normalization over batch and spatial axes.

    Training uses batch statistics (eps 1e-5): the mean, then the biased
    variance as the mean square of the centred values, two passes that stay
    accurate under a large common offset.  It updates the running statistics
    with momentum (running variance kept unbiased) once per train forward.
    Inference standardizes with the running statistics and caches nothing.
    A train forward caches the standardized input xhat and the per-channel
    inverse standard deviation; backward releases both and returns the
    input gradient in xhat's buffer.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Param("gamma", np.ones(channels))
        self.beta = Param("beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._xhat = None
        self._inv_std = None

    def params(self):
        return [self.gamma, self.beta]

    def state_arrays(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    @staticmethod
    def _channel_sums(a, b=None):
        """Per-channel sum of a, or of a * b, over (B, C, S) views.

        einsum forms the products without a temporary and, unlike a BLAS
        dot, sums in an order that does not depend on the BLAS threads.
        """
        rows = a.sum(axis=2) if b is None else np.einsum("bcs,bcs->bc", a, b)
        return rows.sum(axis=0)

    def forward(self, x, train):
        if x.shape[1] != self.channels:
            raise DataError(f"batchnorm expects {self.channels} channels, got {x.shape}")
        if train and x.shape[0] < 2:
            raise DataError("batch normalization needs batch size >= 2 in train mode")
        # Merging the spatial axes is a view for both layouts layers hand
        # over: (B, C, *S) and the (C, B, *S) transposed by a convolution.
        view = x.reshape(x.shape[0], self.channels, -1)
        gamma, beta = self.gamma.value[:, None], self.beta.value[:, None]
        if not train:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            out = np.subtract(view, self.running_mean[:, None])
            out *= inv_std[:, None]
            out *= gamma
            out += beta
            return out.reshape(x.shape)
        count = view.shape[0] * view.shape[2]
        mean = self._channel_sums(view) / count
        xhat = np.subtract(view, mean[:, None])
        var = self._channel_sums(xhat, xhat) / count
        self.running_mean += self.momentum * (mean - self.running_mean)
        unbiased = var * count / (count - 1)
        self.running_var += self.momentum * (unbiased - self.running_var)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv_std[:, None]
        self._xhat, self._inv_std = xhat, inv_std
        out = np.multiply(xhat, gamma)
        out += beta
        return out.reshape(x.shape)

    def backward(self, dy):
        xhat, inv_std = self._xhat, self._inv_std
        self._xhat = self._inv_std = None
        view = dy.reshape(xhat.shape)
        count = xhat.shape[0] * xhat.shape[2]
        d_beta = self._channel_sums(view)
        d_gamma = self._channel_sums(view, xhat)
        self.gamma.grad += d_gamma
        self.beta.grad += d_beta
        # inv_std * gamma * (dy - mean(dy) - xhat * mean(dy * xhat)), built in xhat.
        dx = xhat
        dx *= -d_gamma[:, None] / count
        dx += view
        dx -= d_beta[:, None] / count
        dx *= (inv_std * self.gamma.value)[:, None]
        return dx.reshape(dy.shape)


class ReLU(Layer):
    """Elementwise max(x, 0).

    A train forward maps NaN to 0 and caches its output y, which is the next
    layer's input anyway; backward passes dy where y > 0, exactly where
    x > 0, and releases y.  Inference caches nothing and lets NaN through.
    """

    def __init__(self):
        self._y = None

    def forward(self, x, train):
        if train:
            self._y = np.fmax(x, 0.0)
            return self._y
        return np.maximum(x, 0.0)

    def backward(self, dy):
        y, self._y = self._y, None
        return np.multiply(dy, y > 0)


class GlobalAvgPool(Layer):
    """Mean over all spatial axes: (B, C, ...) -> (B, C)."""

    def __init__(self):
        self._x_shape = None

    def forward(self, x, train):
        if train:
            self._x_shape = x.shape
        return x.mean(axis=tuple(range(2, x.ndim)))

    def backward(self, dy):
        shape = self._x_shape
        self._x_shape = None
        spatial = int(np.prod(shape[2:]))
        expanded = dy.reshape(dy.shape + (1,) * (len(shape) - 2))
        return np.broadcast_to(expanded / spatial, shape).copy()


class Dense(Layer):
    def __init__(self, c_in: int, c_out: int, rng=None):
        rng = np.random.default_rng(rng)
        self.c_in, self.c_out = c_in, c_out
        self.weight = Param("weight", _he_scale(c_in) * rng.standard_normal((c_out, c_in)))
        self.bias = Param("bias", np.zeros(c_out))
        self._x = None

    def params(self):
        return [self.weight, self.bias]

    def forward(self, x, train):
        if x.ndim != 2 or x.shape[1] != self.c_in:
            raise DataError(f"dense expects (B, {self.c_in}), got {x.shape}")
        if train:
            self._x = x
        return x @ self.weight.value.T + self.bias.value

    def backward(self, dy):
        self.weight.grad += dy.T @ self._x
        self.bias.grad += dy.sum(axis=0)
        self._x = None
        return dy @ self.weight.value
