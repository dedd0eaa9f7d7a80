"""Residual network assembly, complexity accounting, and checkpoints.

A network is a stem (convolution, batch normalization, ReLU), a chain of
residual blocks whose channel count doubles every n_double blocks, a global
average pool, and a dense layer producing one logit per sample.  Each block
holds two lists of layers: the main branch (convolution, batch
normalization, ReLU, convolution, batch normalization) and the skip branch,
empty for the identity or a 1x1 convolution plus batch normalization when
the block changes the channel count; a ReLU follows the branch sum.

Complexity convention (fixed, used by every reported count): convolutions
and dense layers cost 2 operations per multiply-accumulate, bias additions
are not counted, batch normalization and activations cost 2 operations per
element, branch sums 1 per element, and average pooling 1 per pooled
element.  Parameter counts include biases and the batch-normalization
affine pairs; running statistics are state, not parameters.
"""

from __future__ import annotations

import json
import math
import operator
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ConfigError, DataError, DivergenceError
from .layers import BatchNorm, Conv1d, Conv2d, Dense, GlobalAvgPool, Layer, Param, ReLU

__all__ = [
    "ArchitectureVariant",
    "VARIANTS",
    "lookup_variant",
    "channel_plan",
    "layout_2d",
    "batch_input",
    "ResidualBlock",
    "Network",
    "build_network",
    "param_count",
    "flop_count",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class ArchitectureVariant:
    """A network family member: dimensionality, width, and depth knobs."""

    name: str
    dimensionality: int  # 1 or 2
    initial_filters: int
    n_double: int
    n_total: int

    def __post_init__(self):
        if self.dimensionality not in (1, 2):
            raise ConfigError("dimensionality must be 1 or 2")
        if self.n_total < 1 or self.n_double < 1 or self.initial_filters < 1:
            raise ConfigError("initial_filters, n_double, n_total must all be >= 1")


# The ten published rows: five 1D and five 2D variants ordered largest to
# smallest within each family.
VARIANTS: dict[str, ArchitectureVariant] = {
    v.name: v
    for v in (
        ArchitectureVariant("1D-A", 1, 32, 3, 12),
        ArchitectureVariant("1D-B", 1, 16, 3, 9),
        ArchitectureVariant("1D-C", 1, 16, 2, 6),
        ArchitectureVariant("1D-D", 1, 16, 1, 3),
        ArchitectureVariant("1D-E", 1, 8, 1, 3),
        ArchitectureVariant("2D-A", 2, 16, 3, 9),
        ArchitectureVariant("2D-B", 2, 16, 2, 6),
        ArchitectureVariant("2D-C", 2, 8, 2, 6),
        ArchitectureVariant("2D-D", 2, 8, 2, 4),
        ArchitectureVariant("2D-E", 2, 4, 2, 4),
    )
}


def lookup_variant(name: str) -> ArchitectureVariant:
    """The published variant of this name; an unknown name is a ConfigError."""
    try:
        return VARIANTS[name]
    except KeyError:
        raise ConfigError(f"unknown variant {name!r}; known: {', '.join(sorted(VARIANTS))}") from None


def _blocks(variant: ArchitectureVariant):
    """Yield each residual block's (input, output) channels, lazily.

    The stem gives initial_filters channels, and the width doubles every
    n_double blocks.
    """
    c_in = variant.initial_filters
    for b in range(variant.n_total):
        c_out = variant.initial_filters * 2 ** (b // variant.n_double)
        yield c_in, c_out
        c_in = c_out


def channel_plan(variant: ArchitectureVariant) -> list[int]:
    """Output channels of each block: width doubles every n_double blocks."""
    return [c_out for _, c_out in _blocks(variant)]


def layout_2d(residuals) -> np.ndarray:
    """B complex (N, M) residuals -> (B, 2, N, M) real and imaginary planes.

    The one input layout: plane 0 of each sample holds the real part, plane
    1 the imaginary part, written into one buffer in the residuals' real
    dtype.  Every residual must have the first one's shape; batch_input
    turns the planes into either family's network input.
    """
    first = residuals[0]
    planes = np.empty((len(residuals), 2, *first.shape), dtype=first.real.dtype)
    for sample, residual in zip(planes, residuals):
        if residual.shape != first.shape:
            raise DataError(f"residual of shape {residual.shape} in a batch of {first.shape}")
        sample[0] = residual.real
        sample[1] = residual.imag
    return planes


def batch_input(planes: np.ndarray, dimensionality: int) -> np.ndarray:
    """A (B, 2, N, M) batch of real and imaginary planes as network input.

    The planes are the 2D input as they are.  Merging the plane and
    fast-time axes, a view, gives the 1D input (B, 2N, M): fast-time rows
    become channels, real rows on top and imaginary below; energy is
    preserved exactly.
    """
    if dimensionality == 1:
        b, _, n, m = planes.shape
        return planes.reshape(b, 2 * n, m)
    return planes


class ResidualBlock(Layer):
    """A main branch and a parallel skip, summed and joined by a final ReLU.

    main is [conv, bn, relu, conv, bn]; skip is [] for the identity, or
    [1x1 conv, bn] when the block changes the channel count.
    """

    def __init__(self, dim: int, c_in: int, c_out: int, kernel: int, rng):
        conv = Conv1d if dim == 1 else Conv2d
        self.main = [conv(c_in, c_out, kernel, rng), BatchNorm(c_out), ReLU(),
                     conv(c_out, c_out, kernel, rng), BatchNorm(c_out)]
        self.skip = [] if c_in == c_out else [conv(c_in, c_out, 1, rng), BatchNorm(c_out)]
        self.relu_out = ReLU()

    def sublayers(self) -> list[Layer]:
        return self.main + self.skip + [self.relu_out]

    def params(self):
        return [p for layer in self.sublayers() for p in layer.params()]

    def forward(self, x, train):
        out = skip = x
        for layer in self.main:
            out = layer.forward(out, train)
        for layer in self.skip:
            skip = layer.forward(skip, train)
        out += skip  # the last BatchNorm's output is fresh and cached by no one
        return self.relu_out.forward(out, train)

    def backward(self, dy):
        dx = d_skip = self.relu_out.backward(dy)
        for layer in reversed(self.main):
            dx = layer.backward(dx)  # the first conv's is fresh, so the skip adds in place
        for layer in reversed(self.skip):
            d_skip = layer.backward(d_skip)
        dx += d_skip
        return dx


class Network:
    """A built detector network; scores batches and exposes its parameters."""

    def __init__(self, variant: ArchitectureVariant, input_shape: tuple,
                 kernel: int, layers: list[Layer], seed: int):
        self.variant = variant
        self.input_shape = tuple(input_shape)
        self.kernel = kernel
        self.layers = layers
        self.seed = seed
        self._train_dtype = None

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def named_state(self) -> list[tuple[str, np.ndarray]]:
        """Checkpoint payload order: every parameter, then every running stat."""
        leaves = []
        for i, layer in enumerate(self.layers):
            if isinstance(layer, ResidualBlock):
                leaves += [(f"layer{i:03d}.sub{j}", sub) for j, sub in enumerate(layer.sublayers())]
            else:
                leaves.append((f"layer{i:03d}", layer))
        return ([(f"{name}.{p.name}", p.value) for name, leaf in leaves for p in leaf.params()]
                + [(f"{name}.{key}", arr) for name, leaf in leaves
                   for key, arr in leaf.state_arrays().items()])

    def forward(self, batch: np.ndarray, train: bool = False) -> np.ndarray:
        """Batch of stacked inputs -> one real logit per sample.

        A float32 or float64 batch is computed in its own dtype; any other
        is converted to float64.
        """
        x = np.asarray(batch)
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float64)
        if x.shape[1:] != self.input_shape:
            raise DataError(
                f"network expects batches shaped (B, {', '.join(map(str, self.input_shape))}), "
                f"got {x.shape}")
        # ReLU in train mode maps nan to zero, so a poisoned batch must be
        # caught at the door rather than at the logits.
        if not np.all(np.isfinite(x)):
            raise DivergenceError("non-finite values in the input batch")
        if train:
            self._train_dtype = x.dtype
        for layer in self.layers:
            x = layer.forward(x, train)
        logits = x[:, 0]
        if not np.all(np.isfinite(logits)):
            raise DivergenceError("network produced non-finite logits")
        return logits

    def backward(self, dlogits: np.ndarray) -> None:
        """Add the parameter gradients of the last train forward for dlogits.

        The gradient of the input batch is not computed: the stem
        convolution adds only its weight gradient.
        """
        dy = np.asarray(dlogits, dtype=self._train_dtype)[:, None]
        stem, *rest = self.layers
        for layer in reversed(rest):
            dy = layer.backward(dy)
        stem._weight_backward(dy)

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()


# The most state values (weights and batch-norm statistics) build_network
# builds: over 15 times the 4,406,657 of 1D-A at kernel 9 on 64 x 100 inputs,
# the largest the tests, demos and benchmark build.  Training holds each in
# float64 with its gradient and two Adam moments, 2 GiB at the cap.
MAX_STATE_VALUES = 2**26


def build_network(variant: ArchitectureVariant | str, input_shape: tuple,
                  kernel: int = 3, seed: int = 0) -> Network:
    """Assemble the full layer stack for a variant.

    input_shape excludes the batch axis: (channels, length) for 1D variants,
    (channels, height, width) for 2D.  Weights are seeded deterministically.
    A network of more than MAX_STATE_VALUES state values is refused before
    any layer is allocated.
    """
    if isinstance(variant, str):
        variant = lookup_variant(variant)
    expected_ndim = variant.dimensionality + 1
    if len(input_shape) != expected_ndim:
        raise ConfigError(
            f"{variant.name} needs a {expected_ndim}-d input shape "
            f"(channels first), got {input_shape}")
    if _state_size(variant, input_shape[0], kernel, MAX_STATE_VALUES) > MAX_STATE_VALUES:
        raise ConfigError(f"{variant.name} at kernel {kernel} on {input_shape[0]} input channels "
                          f"is over the cap of {MAX_STATE_VALUES} state values")

    seeds = np.random.SeedSequence(seed).spawn(variant.n_total + 2)
    conv = Conv1d if variant.dimensionality == 1 else Conv2d

    layers: list[Layer] = [
        conv(input_shape[0], variant.initial_filters, kernel, seeds[0]),
        BatchNorm(variant.initial_filters),
        ReLU(),
    ]
    channels = variant.initial_filters
    for b, (c_in, channels) in enumerate(_blocks(variant)):
        layers.append(ResidualBlock(variant.dimensionality, c_in, channels, kernel, seeds[b + 1]))
    layers.append(GlobalAvgPool())
    layers.append(Dense(channels, 1, seeds[-1]))
    return Network(variant, input_shape, kernel, layers, seed)


def param_count(network: Network) -> int:
    return int(sum(p.value.size for p in network.params()))


def _layer_plan(variant: ArchitectureVariant, c_in: int, kernel: int):
    """Yield (kind, c_in, c_out, taps) for each layer a sample passes through, lazily.

    In build_network's order, with each block's branch sum just before its output ReLU.
    """
    taps = kernel ** variant.dimensionality
    width = variant.initial_filters
    yield "conv", c_in, width, taps
    yield "bn", width, width, 1
    yield "relu", width, width, 1
    for block_in, width in _blocks(variant):
        yield "conv", block_in, width, taps
        yield "bn", width, width, 1
        yield "relu", width, width, 1
        yield "conv", width, width, taps
        yield "bn", width, width, 1
        if block_in != width:
            yield "conv", block_in, width, 1
            yield "bn", width, width, 1
        yield "sum", width, width, 1
        yield "relu", width, width, 1
    yield "pool", width, width, 1
    yield "dense", width, 1, 1


def flop_count(network: Network) -> int:
    """Forward-pass operation count of one sample under the documented convention."""
    spatial = math.prod(network.input_shape[1:])
    total = 0
    for kind, c_in, c_out, taps in _layer_plan(network.variant, network.input_shape[0],
                                               network.kernel):
        if kind == "conv":
            total += 2 * c_in * c_out * taps * spatial
        elif kind == "dense":
            total += 2 * c_in * c_out  # on the pooled features
        else:  # bn and relu cost 2 per element, sum and pool 1
            total += (2 if kind in ("bn", "relu") else 1) * c_out * spatial
    return int(total)


_CKPT_MAGIC = b"UWBN"


def save_checkpoint(network: Network, path, extra: dict | None = None) -> None:
    """Write variant, shapes, metadata, and all state as float32 payload.

    The file is written beside path under a temporary name, then renamed
    onto it, so path holds either its previous bytes or the whole new
    checkpoint; a failed write removes the temporary file.
    """
    entries = network.named_state()
    header = {
        "magic": "UWBN",
        "variant": asdict(network.variant),
        "input_shape": list(network.input_shape),
        "kernel": network.kernel,
        "seed": network.seed,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in entries],
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    directory, name = os.path.split(os.fspath(path))
    temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as handle:
            handle.write(_CKPT_MAGIC)
            handle.write(struct.pack("<I", len(blob)))
            handle.write(blob)
            for _, arr in entries:
                handle.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise


def _state_size(variant: ArchitectureVariant, c_in: int, kernel: int, limit: int) -> int:
    """Values in the named_state of this spec's network, unbuilt; stops once past limit."""
    total = 0
    for kind, c_in, c_out, taps in _layer_plan(variant, c_in, kernel):
        if not total <= limit:
            return total
        if kind == "conv":
            total += c_in * c_out * taps
        elif kind == "bn":
            total += 4 * c_out  # gamma, beta, running mean and variance
        elif kind == "dense":
            total += c_in * c_out + c_out
    return total


def load_checkpoint(path) -> tuple[Network, dict]:
    """Rebuild a network from a checkpoint; returns (network, extra metadata).

    The payload must hold exactly the values of the network the header
    describes, checked before the build so a garbled header cannot allocate
    more than the file holds; the header's array shapes must be the network's.
    """
    try:
        with open(path, "rb") as handle:
            magic = handle.read(4)
            if magic != _CKPT_MAGIC:
                raise DataError(f"{path}: not a checkpoint file (magic {magic!r})")
            (header_len,) = struct.unpack("<I", handle.read(4))
            rest = handle.read()  # a garbled header_len must not size a read of its own
        header = json.loads(rest[:header_len].decode("utf-8"))
        payload = rest[header_len:]
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    except (ValueError, struct.error) as exc:
        raise DataError(f"corrupt checkpoint {path}: {exc}") from None

    try:
        variant = ArchitectureVariant(**header["variant"])
        # operator.index: the count would repeat a string or list, not multiply it
        c_in, kernel = operator.index(header["input_shape"][0]), operator.index(header["kernel"])
        n_bytes = 4 * _state_size(variant, c_in, kernel, len(payload) // 4)
        if not n_bytes <= len(payload):  # a payload cut inside a value is truncated too
            raise DataError(f"checkpoint {path} payload truncated for its {variant.name} network")
        if n_bytes != len(payload):
            raise DataError(f"checkpoint {path} payload has {len(payload) - n_bytes} trailing bytes")
        network = build_network(variant, tuple(header["input_shape"]),
                                kernel=kernel, seed=header["seed"])
        entries = network.named_state()
        if [meta["shape"] for meta in header["arrays"]] != [list(a.shape) for _, a in entries]:
            raise DataError(f"checkpoint {path}: header array shapes are not {variant.name}'s")
        extra = header.get("extra", {})
        if not isinstance(extra, dict):
            raise DataError(f"checkpoint {path} has a malformed header: extra must be an object")
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"checkpoint {path} has a malformed header: "
                        f"{type(exc).__name__} {exc}") from None

    values = np.frombuffer(payload, "<f4")
    for _, target in entries:
        target[...], values = values[:target.size].reshape(target.shape), values[target.size:]
    return network, extra
