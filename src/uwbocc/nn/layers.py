"""Differentiable layers on numpy arrays, channels-first.

Every layer caches what its backward pass needs during forward and exposes
its trainable parameters as Param objects.  Batch layout: (batch, channels,
length) in 1D, (batch, channels, height, width) in 2D.

Layers compute in their input's dtype: a float32 batch gives float32
activations and input gradients, a float64 batch float64 ones.  Parameters
are float64 masters.  Each forward and backward casts them to the input's
dtype, and parameter gradients are added into their float64 Param.grad, so
the optimizer and the running statistics never leave double precision.

Convolutions (stride 1, same padding, odd kernel k, d spatial axes) share
one engine.  Its columns are channels-first: a (C*k**d, B*S) matrix whose
row c*k**d + t is channel c shifted by kernel tap t, built with k**d slice
copies, so one GEMM with the (c_out, C*k**d) weight matrix gives the output.
Columns are built one batch slice at a time.  The slice plan is a function
of shapes and dtype alone: each slice holds as many samples as fit in
_COLUMN_BUDGET_BYTES // _WORKERS (one at least), and both are constants,
not properties of the machine, so outputs stay byte-deterministic.  The
budget is cache-sized, so a slice's columns are still in cache when its
GEMM reads them.  The zeros of the same padding are written apart from the
windows: a worker zeroes each tap's border strips in its part of the buffer
when it starts a call and again only when its slice width changes (the
ragged last slice moves the strips), and a slice's fill copies only the
window interiors, which never overlap the strips.  Each tap's interior and
strip indices are computed once per kernel and spatial shape.

_WORKERS threads run the slices: worker w fills and multiplies slices
w, w + _WORKERS, ..., and its GEMMs write disjoint columns of the output.
Every call makes one buffer, split into one part per worker.  glibc sets its trim
threshold from the largest block it has handed out, so one buffer per
worker, freed together at the top of the heap, would exceed it, go back to
the OS and be page-faulted in afresh on the next call; a single buffer of
the same size stays in the heap.  The executor is made on the first
convolution, which also pins numpy's bundled OpenBLAS to one thread through
its C API: the workers are the parallelism, and one-thread GEMMs give the
same bits whatever OPENBLAS_NUM_THREADS says.  A call runs its slices
inline, with the same plan and bits, when it has one slice, when the process
may use fewer than two CPUs, or when that OpenBLAS is not found.  An error
in a slice reaches the caller once every worker has stopped: the first in
slice order.

Those two "uwbocc-conv" workers, made once and kept, are the only threads
the library keeps.  It starts two more kinds for the length of one call:
pipeline.run_training's "uwbocc-data" thread, which draws the next training
batch, and evaluate's --threads pool.  Each of them allocates batch-sized
arrays, and glibc would give each its own malloc arena.  run_training runs
_single_malloc_arena first, which caps the process at the main arena;
evaluate does not, because the shared arena's lock slowed a two-thread
2D-E evaluate more than its memory saving was worth.

In train mode a convolution keeps a reference to its input, k**d times
smaller than the columns, and rebuilds the columns in backward.  This
relies on nothing mutating a layer's input between its forward and its
backward call.  The input gradient is a same-padded convolution of the
output gradient with the kernel flipped spatially and transposed in its
channel axes.

The weight gradient is reduced per sample: one batched GEMM per slice
gives each sample's (c_out, C*k**d) product, and these are summed over the
samples of a slice, then over the slices in slice order.  A single GEMM
over a slice's B*S columns gives bits that change with OPENBLAS_NUM_THREADS
(seen in float32 for 1D-E at B=64), and so would every trained checkpoint;
the per-sample products give the same bits for 1 and 2 threads.

BatchNorm and ReLU are memory-bound, so they make as few full-size passes
and temporaries as their formulas allow.  To that end, layers share buffers
under these aliasing rules:
- ReLU's cached output is the next convolution's cached input;
- BatchNorm backward builds its input gradient in xhat's buffer;
- ReLU backward overwrites the gradient it is given and returns it;
- ResidualBlock adds the skip into its branch sum and its gradient in place;
- nothing mutates a layer's input between its forward and its backward.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

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


# Bytes of columns built at once, shared by the workers: a batch is split
# into slices that fit in one worker's share.  Cache-sized, so a slice is
# still in cache when its GEMM reads it, and far below glibc's mmap
# threshold, so the buffer is reused from the heap.
_COLUMN_BUDGET_BYTES = 8 << 20

# Threads that fill and multiply batch slices at once.  A constant, never the
# CPU count, so the slice plan does not depend on the machine.
_WORKERS = 2

_POOL: list = []  # [the workers' executor, or None to run inline], set by _pool
_POOL_LOCK = threading.Lock()


@functools.lru_cache(maxsize=64)
def _taps(kernel: int, spatial: tuple) -> tuple:
    """Per kernel tap over spatial axes S: (window interior, source, border strips).

    The interior and the strips index columns (C, k**d, B, *S); the source
    indexes src (C, B, *S) and has the interior's shape.
    """
    pad, taps = kernel // 2, []
    for tap, offsets in enumerate(itertools.product(range(kernel), repeat=len(spatial))):
        dst_index, src_index, strips = [slice(None), tap, slice(None)], [slice(None)] * 2, []
        for axis, (offset, size) in enumerate(zip(offsets, spatial)):
            shift = offset - pad
            lo = min(max(-shift, 0), size)
            hi = max(min(size - shift, size), lo)
            lead = (slice(None), tap) + (slice(None),) * (axis + 1)
            strips += [lead + (edge,) for edge in (slice(0, lo), slice(hi, size))
                       if edge.stop > edge.start]
            src_index.append(slice(lo + shift, hi + shift))
            dst_index.append(slice(lo, hi))
        taps.append((tuple(dst_index), tuple(src_index), tuple(strips)))
    return tuple(taps)


def _pad_columns(kernel: int, out: np.ndarray) -> None:
    """Zero the border strips of every tap's window in out (C, k**d, B, *S)."""
    for _, _, strips in _taps(kernel, out.shape[3:]):
        for strip in strips:
            out[strip] = 0.0


def _fill_columns(src: np.ndarray, kernel: int, out: np.ndarray) -> None:
    """Copy the windows of src (C, B, *S) into out (C, k**d, B, *S), interiors only.

    The border strips are left as they are: zero once _pad_columns has run
    on out.
    """
    for dst_index, src_index, _ in _taps(kernel, src.shape[2:]):
        out[dst_index] = src[src_index]


def _column_buffer(size: int, dtype) -> np.ndarray:
    """Uninitialized storage for one call's columns: every worker's part."""
    return np.empty(size, dtype=dtype)


def _openblas_thread_setter():
    """numpy's bundled OpenBLAS thread-count setter, or None if it cannot be found."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
        for path in paths:
            setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter
    except OSError:
        pass
    return None


# glibc's mallopt parameter number for the arena count cap.
_M_ARENA_MAX = -8


@functools.cache
def _single_malloc_arena() -> None:
    """Cap glibc malloc at one arena, once per process; a no-op where mallopt is not found.

    glibc gives each thread that mallocs an arena of its own, up to eight
    per core, and keeps what an arena frees for that arena, so a thread
    that allocates batch-sized arrays holds a second heap's worth of
    resident memory.  Call this before starting such a thread.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)


def _pool():
    """The workers' executor, or None to run inline; the first call pins OpenBLAS to one thread."""
    with _POOL_LOCK:
        if not _POOL:
            setter = _openblas_thread_setter()
            if setter is not None:
                setter(1)
            usable = setter is not None and len(os.sched_getaffinity(0)) >= _WORKERS
            _POOL.append(ThreadPoolExecutor(_WORKERS, thread_name_prefix="uwbocc-conv")
                         if usable else None)
        return _POOL[0]


def _map_slices(src: np.ndarray, kernel: int, work) -> list:
    """Return work(lo, hi, the column matrix's [:, lo:hi]) for each batch slice of src (C, B, *S).

    Results come in slice order.  A slice's columns are valid only until
    work returns: the worker's next slice overwrites them.
    """
    channels, batch, spatial = src.shape[0], src.shape[1], src.shape[2:]
    rows, size = channels * kernel ** len(spatial), math.prod(spatial)
    step = max(1, min(batch, _COLUMN_BUDGET_BYTES // _WORKERS // (src.itemsize * rows * size)))
    starts = range(0, batch, step)
    workers = min(_WORKERS, len(starts))
    part = rows * step * size
    buffer = _column_buffer(workers * part, src.dtype)

    def run(worker):
        """Slices worker, worker + workers, ...; returns (results, (slice, error) or None)."""
        results, padded_width = [], None
        for index in range(worker, len(starts), workers):
            start, stop = starts[index], min(starts[index] + step, batch)
            cols = buffer[worker * part:worker * part + rows * (stop - start) * size]
            windows = cols.reshape((channels, -1, stop - start) + spatial)
            try:
                # A slice's fill writes only interiors, and the strips sit
                # elsewhere in the part once the width changes.
                if stop - start != padded_width:
                    _pad_columns(kernel, windows)
                    padded_width = stop - start
                _fill_columns(src[:, start:stop], kernel, windows)
                results.append(work(start * size, stop * size, cols.reshape(rows, -1)))
            except Exception as error:
                return results, (index, error)
        return results, None

    pool = _pool()
    outcomes = list((pool.map if pool is not None and workers > 1 else map)(run, range(workers)))
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [outcomes[index % workers][0][index // workers] for index in range(len(starts))]


def _convolve(src: np.ndarray, wmat: np.ndarray, kernel: int) -> np.ndarray:
    """Convolve src (C, B, *S) with wmat (c_out, C*k**d); returns (c_out, B, *S), src's dtype."""
    wmat = wmat.astype(src.dtype, copy=False)
    out = np.empty((wmat.shape[0],) + src.shape[1:], dtype=src.dtype)
    flat = out.reshape(wmat.shape[0], -1)
    _map_slices(src, kernel, lambda lo, hi, cols: np.matmul(wmat, cols, out=flat[:, lo:hi]))
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
        dy_t = self._weight_backward(dy)
        flipped = np.flip(self.weight.value, tuple(range(2, self.rank + 2))).swapaxes(0, 1)
        return _convolve(dy_t, flipped.reshape(self.c_in, -1), self.kernel).swapaxes(0, 1)

    def _weight_backward(self, dy):
        """Add the weight gradient for dy and release the input; returns dy as (c_out, B, *S).

        A network's first convolution calls only this: nothing reads the
        gradient of the input batch.
        """
        x, self._x = self._x, None
        dy_t = np.ascontiguousarray(dy.swapaxes(0, 1))
        dy_flat = dy_t.reshape(self.c_out, -1)
        size = math.prod(x.shape[2:])

        def sample_sum(lo, hi, cols):
            # (n, c_out, S) @ (n, S, C*k**d): one product per sample.
            return np.matmul(dy_flat[:, lo:hi].reshape(self.c_out, -1, size).swapaxes(0, 1),
                             cols.reshape(len(cols), -1, size).transpose(1, 2, 0)).sum(axis=0)

        grad = self.weight.grad.reshape(self.c_out, -1)
        for part in _map_slices(x.swapaxes(0, 1), self.kernel, sample_sum):
            grad += part
        return dy_t


class Conv1d(_Conv):
    """Stride-1 same-padded 1D convolution; odd kernel size."""

    rank, axes = 1, "L"


class Conv2d(_Conv):
    """Stride-1 same-padded 2D convolution; odd square kernel."""

    rank, axes = 2, "H, W"


# BatchNorm's variance floor and running-statistics momentum.
_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1


class BatchNorm(Layer):
    """Per-channel batch normalization over batch and spatial axes.

    Training uses batch statistics (eps _BN_EPS): the mean, then the biased
    variance as the mean square of the centred values, two passes that stay
    accurate under a large common offset.  It updates the running statistics
    with momentum _BN_MOMENTUM (running variance kept unbiased) once per
    train forward.
    Inference standardizes with the running statistics and caches nothing.
    A train forward caches the standardized input xhat and the per-channel
    inverse standard deviation; backward releases both and returns the
    input gradient in xhat's buffer.
    """

    def __init__(self, channels: int):
        self.channels = channels
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
        gamma, beta = (p.value.astype(x.dtype, copy=False)[:, None]
                       for p in (self.gamma, self.beta))
        if not train:
            mean, var = (a.astype(x.dtype, copy=False)
                         for a in (self.running_mean, self.running_var))
            inv_std = 1.0 / np.sqrt(var + _BN_EPS)
            out = np.subtract(view, mean[:, None])
            out *= inv_std[:, None]
            out *= gamma
            out += beta
            return out.reshape(x.shape)
        count = view.shape[0] * view.shape[2]
        mean = self._channel_sums(view) / count
        xhat = np.subtract(view, mean[:, None])
        var = self._channel_sums(xhat, xhat) / count
        self.running_mean += _BN_MOMENTUM * (mean - self.running_mean)
        unbiased = var * count / (count - 1)
        self.running_var += _BN_MOMENTUM * (unbiased - self.running_var)
        inv_std = 1.0 / np.sqrt(var + _BN_EPS)
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
        dx *= (inv_std * self.gamma.value.astype(dx.dtype, copy=False))[:, None]
        return dx.reshape(dy.shape)


class ReLU(Layer):
    """Elementwise max(x, 0).

    A train forward maps NaN to 0 and caches its output y, which is the next
    layer's input anyway; backward multiplies dy in place by the mask y > 0,
    which holds exactly where x > 0, releases y and returns dy itself.  It
    overwrites the gradient it is given, so a caller hands it one that
    nothing reads afterwards.  Inference caches nothing and lets NaN through.
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
        return np.multiply(dy, y > 0, out=dy)


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
        weight, bias = (p.value.astype(x.dtype, copy=False) for p in (self.weight, self.bias))
        return x @ weight.T + bias

    def backward(self, dy):
        self.weight.grad += dy.T @ self._x
        self.bias.grad += dy.sum(axis=0)
        self._x = None
        return dy @ self.weight.value.astype(dy.dtype, copy=False)
