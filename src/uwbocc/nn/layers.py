"""Differentiable layers on numpy arrays, channels-first, double precision.

Every layer caches what its backward pass needs during forward and exposes
its trainable parameters as Param objects.  Batch layout: (batch, channels,
length) in 1D, (batch, channels, height, width) in 2D.

Convolutions (stride 1, same padding, odd kernel k, d spatial axes) share
one engine.  Its columns are channels-first: a (C*k**d, B*S) matrix whose
row c*k**d + t is channel c shifted by kernel tap t, built with k**d slice
copies, so one GEMM with the (c_out, C*k**d) weight matrix gives the output.
Columns are built one batch slice at a time, as many samples as fit in
_COLUMN_BUDGET_BYTES (one at least), so slices depend only on shapes.  In train
mode a convolution keeps a reference to its input, k**d times smaller than
the columns, and rebuilds the columns in backward, where the weight
gradient accumulates over the slices.  This relies on nothing mutating a
layer's input between its forward and its backward call.  The input
gradient is a same-padded convolution of the output gradient with the
kernel flipped spatially and transposed in its channel axes.
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
_COLUMN_BUDGET_BYTES = 64 << 20


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

    Training uses batch statistics (biased variance, eps 1e-5) and updates
    the running statistics with momentum (running variance kept unbiased);
    inference standardizes with the running statistics.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = Param("gamma", np.ones(channels))
        self.beta = Param("beta", np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self._cache = None

    def params(self):
        return [self.gamma, self.beta]

    def state_arrays(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def _axes_and_shape(self, x):
        axes = (0,) + tuple(range(2, x.ndim))
        shape = (1, self.channels) + (1,) * (x.ndim - 2)
        return axes, shape

    def forward(self, x, train):
        if x.shape[1] != self.channels:
            raise DataError(f"batchnorm expects {self.channels} channels, got {x.shape}")
        axes, shape = self._axes_and_shape(x)
        if train:
            if x.shape[0] < 2:
                raise DataError("batch normalization needs batch size >= 2 in train mode")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            count = x.size // self.channels
            self.running_mean += self.momentum * (mean - self.running_mean)
            unbiased = var * count / (count - 1)
            self.running_var += self.momentum * (unbiased - self.running_var)
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
        if train:
            self._cache = (xhat, inv_std)
        return self.gamma.value.reshape(shape) * xhat + self.beta.value.reshape(shape)

    def backward(self, dy):
        xhat, inv_std = self._cache
        self._cache = None
        axes, shape = self._axes_and_shape(dy)
        count = dy.size // self.channels
        self.gamma.grad += np.sum(dy * xhat, axis=axes)
        self.beta.grad += np.sum(dy, axis=axes)
        g = self.gamma.value.reshape(shape)
        dxhat = dy * g
        mean_dxhat = dxhat.mean(axis=axes).reshape(shape)
        mean_dxhat_xhat = (dxhat * xhat).mean(axis=axes).reshape(shape)
        return inv_std.reshape(shape) * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat)


class ReLU(Layer):
    def __init__(self):
        self._mask = None

    def forward(self, x, train):
        if train:
            self._mask = x > 0
            return np.where(self._mask, x, 0.0)
        return np.maximum(x, 0.0)

    def backward(self, dy):
        dx = np.where(self._mask, dy, 0.0)
        self._mask = None
        return dx


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
