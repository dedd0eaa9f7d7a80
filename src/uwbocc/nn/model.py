"""Residual network assembly, complexity accounting, and checkpoints.

A network is a stem (convolution, batch normalization, ReLU), a chain of
residual blocks whose channel count doubles every n_double blocks, a global
average pool, and a dense layer producing one logit per sample.  Each block
runs convolution, batch normalization, ReLU, convolution, batch
normalization on its main branch; the skip branch is the identity, or a
1x1 convolution plus batch normalization when the block changes the channel
count; a ReLU follows the branch sum.

Complexity convention (fixed, used by every reported count): convolutions
and dense layers cost 2 operations per multiply-accumulate, bias additions
are not counted, batch normalization and activations cost 2 operations per
element, branch sums 1 per element, and average pooling 1 per pooled
element.  Parameter counts include biases and the batch-normalization
affine pairs; running statistics are state, not parameters.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError, DivergenceError
from .layers import BatchNorm, Conv1d, Conv2d, Dense, GlobalAvgPool, Layer, Param, ReLU

__all__ = [
    "ArchitectureVariant",
    "VARIANTS",
    "channel_plan",
    "stack_real_imag_1d",
    "layout_2d",
    "network_input",
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


def _v(name, dim, filters, double, total):
    return ArchitectureVariant(name, dim, filters, double, total)


# The ten published rows: five 1D and five 2D variants ordered largest to
# smallest within each family.
VARIANTS: dict[str, ArchitectureVariant] = {
    v.name: v
    for v in (
        _v("1D-A", 1, 32, 3, 12),
        _v("1D-B", 1, 16, 3, 9),
        _v("1D-C", 1, 16, 2, 6),
        _v("1D-D", 1, 16, 1, 3),
        _v("1D-E", 1, 8, 1, 3),
        _v("2D-A", 2, 16, 3, 9),
        _v("2D-B", 2, 16, 2, 6),
        _v("2D-C", 2, 8, 2, 6),
        _v("2D-D", 2, 8, 2, 4),
        _v("2D-E", 2, 4, 2, 4),
    )
}


def channel_plan(variant: ArchitectureVariant) -> list[int]:
    """Output channels of each block: width doubles every n_double blocks."""
    return [
        variant.initial_filters * 2 ** ((b - 1) // variant.n_double)
        for b in range(1, variant.n_total + 1)
    ]


def stack_real_imag_1d(residual: np.ndarray) -> np.ndarray:
    """(N, M) complex -> (2N, M) real: real rows on top, imaginary below.

    Fast-time rows become input channels; the remaining axis is slow time.
    Energy is preserved exactly.
    """
    return np.concatenate([residual.real, residual.imag], axis=-2)


def layout_2d(residual: np.ndarray) -> np.ndarray:
    """(N, M) complex -> (2, N, M) real: a real and an imaginary channel."""
    return np.stack([residual.real, residual.imag], axis=-3)


def network_input(residual: np.ndarray, dimensionality: int) -> np.ndarray:
    """One residual's channels-first network input: (2N, M) for 1D, (2, N, M) for 2D.

    Callers lay out one sample at a time and stack the results into a batch.
    """
    if dimensionality == 1:
        return stack_real_imag_1d(residual)
    return layout_2d(residual)


class ResidualBlock(Layer):
    """conv-bn-relu-conv-bn plus a parallel skip, joined by a final ReLU."""

    def __init__(self, dim: int, c_in: int, c_out: int, kernel: int, rng):
        conv = Conv1d if dim == 1 else Conv2d
        self.conv1 = conv(c_in, c_out, kernel, rng)
        self.bn1 = BatchNorm(c_out)
        self.relu1 = ReLU()
        self.conv2 = conv(c_out, c_out, kernel, rng)
        self.bn2 = BatchNorm(c_out)
        if c_in == c_out:
            self.projection = None
            self.proj_bn = None
        else:
            self.projection = conv(c_in, c_out, 1, rng)
            self.proj_bn = BatchNorm(c_out)
        self.relu_out = ReLU()

    @property
    def has_projection(self) -> bool:
        return self.projection is not None

    def sublayers(self) -> list[Layer]:
        layers = [self.conv1, self.bn1, self.relu1, self.conv2, self.bn2]
        if self.has_projection:
            layers += [self.projection, self.proj_bn]
        return layers + [self.relu_out]

    def params(self):
        return [p for layer in self.sublayers() for p in layer.params()]

    def forward(self, x, train):
        main = self.bn2.forward(
            self.conv2.forward(
                self.relu1.forward(self.bn1.forward(self.conv1.forward(x, train), train), train),
                train),
            train)
        skip = x
        if self.has_projection:
            skip = self.proj_bn.forward(self.projection.forward(x, train), train)
        main += skip  # bn2's output is fresh and cached by no one
        return self.relu_out.forward(main, train)

    def backward(self, dy):
        d_sum = self.relu_out.backward(dy)
        d_main = self.bn2.backward(d_sum)
        d_main = self.conv2.backward(d_main)
        d_main = self.relu1.backward(d_main)
        d_main = self.bn1.backward(d_main)
        dx = self.conv1.backward(d_main)  # fresh, so the skip gradient adds in place
        if self.has_projection:
            dx += self.projection.backward(self.proj_bn.backward(d_sum))
        else:
            dx += d_sum
        return dx


class Network:
    """A built detector network; scores batches and exposes its parameters."""

    def __init__(self, variant: ArchitectureVariant, input_shape: tuple,
                 kernel: int, layers: list[Layer], blocks: list[ResidualBlock], seed: int):
        self.variant = variant
        self.input_shape = tuple(input_shape)
        self.kernel = kernel
        self.layers = layers
        self.blocks = blocks
        self.seed = seed

    def params(self) -> list[Param]:
        return [p for layer in self.layers for p in layer.params()]

    def named_state(self) -> list[tuple[str, np.ndarray]]:
        """Checkpoint payload order: every parameter, then every running stat."""
        out = []
        for i, layer in enumerate(self.layers):
            for sub_name, sub in self._leaves(layer):
                for p in sub.params():
                    out.append((f"layer{i:03d}{sub_name}.{p.name}", p.value))
        for i, layer in enumerate(self.layers):
            for sub_name, sub in self._leaves(layer):
                for key, arr in sub.state_arrays().items():
                    out.append((f"layer{i:03d}{sub_name}.{key}", arr))
        return out

    @staticmethod
    def _leaves(layer: Layer):
        if isinstance(layer, ResidualBlock):
            for j, sub in enumerate(layer.sublayers()):
                yield f".sub{j}", sub
        else:
            yield "", layer

    def forward(self, batch: np.ndarray, train: bool = False) -> np.ndarray:
        """Batch of stacked inputs -> one real logit per sample."""
        x = np.asarray(batch, dtype=np.float64)
        expected = (self.input_shape[0],)
        if x.shape[1:2] != expected or x.ndim != len(self.input_shape) + 1:
            raise DataError(
                f"network expects batches shaped (B, {', '.join(map(str, self.input_shape))}), "
                f"got {x.shape}")
        # ReLU in train mode maps nan to zero, so a poisoned batch must be
        # caught at the door rather than at the logits.
        if not np.all(np.isfinite(x)):
            raise DivergenceError("non-finite values in the input batch")
        for layer in self.layers:
            x = layer.forward(x, train)
        logits = x[:, 0]
        if not np.all(np.isfinite(logits)):
            raise DivergenceError("network produced non-finite logits")
        return logits

    def backward(self, dlogits: np.ndarray):
        dy = np.asarray(dlogits, dtype=np.float64)[:, None]
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def zero_grads(self):
        for p in self.params():
            p.zero_grad()


def build_network(variant: ArchitectureVariant | str, input_shape: tuple,
                  kernel: int = 3, seed: int = 0) -> Network:
    """Assemble the full layer stack for a variant.

    input_shape excludes the batch axis: (channels, length) for 1D variants,
    (channels, height, width) for 2D.  Weights are seeded deterministically.
    """
    if isinstance(variant, str):
        try:
            variant = VARIANTS[variant]
        except KeyError:
            raise ConfigError(
                f"unknown variant {variant!r}; known: {', '.join(sorted(VARIANTS))}") from None
    expected_ndim = variant.dimensionality + 1
    if len(input_shape) != expected_ndim:
        raise ConfigError(
            f"{variant.name} needs a {expected_ndim}-d input shape "
            f"(channels first), got {input_shape}")

    seeds = np.random.SeedSequence(seed).spawn(variant.n_total + 2)
    conv = Conv1d if variant.dimensionality == 1 else Conv2d
    c_in = input_shape[0]
    plan = channel_plan(variant)

    layers: list[Layer] = [
        conv(c_in, variant.initial_filters, kernel, seeds[0]),
        BatchNorm(variant.initial_filters),
        ReLU(),
    ]
    blocks: list[ResidualBlock] = []
    channels = variant.initial_filters
    for b, c_out in enumerate(plan):
        block = ResidualBlock(variant.dimensionality, channels, c_out, kernel, seeds[b + 1])
        blocks.append(block)
        layers.append(block)
        channels = c_out
    layers.append(GlobalAvgPool())
    layers.append(Dense(channels, 1, seeds[-1]))
    return Network(variant, input_shape, kernel, layers, blocks, seed)


def param_count(network: Network) -> int:
    return int(sum(p.value.size for p in network.params()))


def _conv_flops(c_in, c_out, kernel_elems, spatial) -> int:
    return 2 * c_in * c_out * kernel_elems * spatial


def flop_count(network: Network, input_shape: tuple | None = None) -> int:
    """Forward-pass operation count under the documented convention."""
    shape = tuple(input_shape) if input_shape is not None else network.input_shape
    variant = network.variant
    spatial = int(np.prod(shape[1:]))
    kernel_elems = network.kernel ** variant.dimensionality
    total = 0

    def bn_relu(channels):
        return 2 * channels * spatial + 2 * channels * spatial

    c_in = shape[0]
    total += _conv_flops(c_in, variant.initial_filters, kernel_elems, spatial)
    total += bn_relu(variant.initial_filters)

    channels = variant.initial_filters
    for c_out in channel_plan(variant):
        total += _conv_flops(channels, c_out, kernel_elems, spatial)  # conv1
        total += 2 * c_out * spatial + 2 * c_out * spatial  # bn1 + relu1
        total += _conv_flops(c_out, c_out, kernel_elems, spatial)  # conv2
        total += 2 * c_out * spatial  # bn2
        if channels != c_out:
            total += _conv_flops(channels, c_out, 1, spatial)  # 1x1 projection
            total += 2 * c_out * spatial  # projection bn
        total += c_out * spatial  # branch sum
        total += 2 * c_out * spatial  # output relu
        channels = c_out

    total += channels * spatial  # global average pool
    total += 2 * channels  # dense layer on pooled features
    return int(total)


_CKPT_MAGIC = b"UWBN"


def save_checkpoint(network: Network, path, extra: dict | None = None) -> None:
    """Write variant, shapes, metadata, and all state as float32 payload."""
    entries = network.named_state()
    header = {
        "magic": "UWBN",
        "variant": {
            "name": network.variant.name,
            "dimensionality": network.variant.dimensionality,
            "initial_filters": network.variant.initial_filters,
            "n_double": network.variant.n_double,
            "n_total": network.variant.n_total,
        },
        "input_shape": list(network.input_shape),
        "kernel": network.kernel,
        "seed": network.seed,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in entries],
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(_CKPT_MAGIC)
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        for _, arr in entries:
            handle.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def load_checkpoint(path) -> tuple[Network, dict]:
    """Rebuild a network from a checkpoint; returns (network, extra metadata)."""
    try:
        with open(path, "rb") as handle:
            magic = handle.read(4)
            if magic != _CKPT_MAGIC:
                raise DataError(f"{path}: not a checkpoint file (magic {magic!r})")
            (header_len,) = struct.unpack("<I", handle.read(4))
            header = json.loads(handle.read(header_len).decode("utf-8"))
            payload = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    except (ValueError, struct.error) as exc:
        raise DataError(f"corrupt checkpoint {path}: {exc}") from None

    try:
        spec = header["variant"]
        variant = ArchitectureVariant(spec["name"], spec["dimensionality"],
                                      spec["initial_filters"], spec["n_double"], spec["n_total"])
        network = build_network(variant, tuple(header["input_shape"]),
                                kernel=header["kernel"], seed=header["seed"])
        layout = [(meta["name"], meta["shape"]) for meta in header["arrays"]]
    except (KeyError, TypeError, ConfigError) as exc:
        raise DataError(f"checkpoint {path} has a malformed header: "
                        f"{type(exc).__name__} {exc}") from None
    offset = 0  # in bytes; a payload cut inside a value is truncated, not malformed
    arrays = []
    for name, shape in layout:
        size = int(np.prod(shape)) if shape else 1
        if offset + 4 * size > len(payload):
            raise DataError(f"checkpoint {path} payload truncated at {name}")
        arrays.append(np.frombuffer(payload, "<f4", size, offset).astype(np.float64).reshape(shape))
        offset += 4 * size
    if offset != len(payload):
        raise DataError(f"checkpoint {path} payload has {len(payload) - offset} trailing bytes")

    entries = network.named_state()
    if len(entries) != len(arrays):
        raise DataError(f"checkpoint {path} carries {len(arrays)} arrays, network has {len(entries)}")
    for (name, target), value in zip(entries, arrays):
        if target.shape != value.shape:
            raise DataError(f"checkpoint {path}: array {name} shape {value.shape} != {target.shape}")
        target[...] = value
    return network, header.get("extra", {})
