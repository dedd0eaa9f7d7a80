"""End-to-end orchestration: residuals, scorers, and the training driver.

This module owns the glue that the library pieces deliberately avoid:
computing residuals for whole datasets, deriving the SNR reference from the
training split, wrapping networks and classical detectors behind one scorer
interface, building augmented minibatches from epoch plans, and running the
training loop.  Everything is seeded through numpy SeedSequence tuples
(seed, epoch, draw, ...) so results never depend on scheduling or iteration
order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .augment import SnrReference, compute_reference_energy, corrupt_batch
from .baselines import DEFAULT_ENERGY_WINDOW, energy_detector, fft_detector
from .core import ActivityLabel, check_seed, mean_remove
from .dataset import Split, SplitAssignment, build_epoch_plan
from .errors import ConfigError, DataError
from .evaluate import roc_auc
from .nn.layers import _single_malloc_arena
from .nn.model import VARIANTS, Network, batch_input, build_network, flop_count, layout_2d
from .nn.training import OptimizerConfig, TrainingHistory, train_network

__all__ = [
    "ResidualSample",
    "residual_samples",
    "reference_from_training",
    "NetworkScorer",
    "BaselineScorer",
    "TrainSettings",
    "run_training",
]


@dataclass(frozen=True)
class ResidualSample:
    """A mean-removed sample ready for augmentation and scoring."""

    label: ActivityLabel
    residual: np.ndarray


def residual_samples(records) -> list[ResidualSample]:
    """Mean-remove every record once; downstream draws reuse the residuals.

    Each residual is kept as a read-only complex64 array.  This is where the
    package chooses its working precision: noise planes take the residuals'
    real dtype, so every draw, and with it training and scoring, runs in
    float32.
    """
    out = []
    for rec in records:
        _, residual = mean_remove(rec.cir)
        residual = residual.astype(np.complex64)
        residual.setflags(write=False)
        out.append(ResidualSample(rec.label, residual))
    return out


def reference_from_training(train_samples) -> SnrReference:
    """The SNR anchor: median residual energy of the breathing residual samples."""
    residuals = [s.residual for s in train_samples if s.label is ActivityLabel.BREATHING]
    if not residuals:
        raise DataError("training split has no breathing samples to anchor the SNR reference")
    return compute_reference_energy(residuals)


# Samples per inference forward call: bounds the activations one call holds.
_INFERENCE_CHUNK = 256


def _logits(network: Network, planes: np.ndarray) -> np.ndarray:
    """Inference logits of (B, 2, N, M) planes, _INFERENCE_CHUNK samples per forward call."""
    batch = batch_input(planes, network.variant.dimensionality)
    chunk = _INFERENCE_CHUNK
    return np.concatenate([network.forward(batch[start:start + chunk], train=False)
                           for start in range(0, len(batch), chunk)])


class NetworkScorer:
    """Scores (B, 2, N, M) batches of planes with a trained network (inference mode)."""

    def __init__(self, network: Network):
        self.network = network
        self.name = network.variant.name
        self.flops = flop_count(network)

    def __call__(self, planes: np.ndarray) -> np.ndarray:
        return _logits(self.network, planes)


class BaselineScorer:
    """Scores (B, 2, N, M) batches of planes with a classical detector function."""

    KINDS = ("energy", "fft")

    def __init__(self, kind: str, window_cols: int = DEFAULT_ENERGY_WINDOW):
        if kind not in self.KINDS:
            raise ConfigError(f"unknown baseline {kind!r}; choose from {self.KINDS}")
        self.kind = kind
        self.name = kind
        self.window_cols = window_cols
        self.flops = 0  # estimated from the input shape on the first call

    def __call__(self, planes: np.ndarray) -> np.ndarray:
        if len(planes) and not self.flops:
            n, m = planes.shape[-2:]
            self.flops = (4 * n * m + 2 * m if self.kind == "energy"
                          else int(5 * n * m * max(np.log2(m), 1.0)))
        if self.kind == "energy":
            return energy_detector(planes, self.window_cols)
        return fft_detector(planes)


@dataclass(frozen=True)
class TrainSettings:
    """The training recipe: everything run_training needs beyond the data.

    Each field is the `uwbocc train` option of the same name, and its default.
    """

    variant: str = "1D-E"
    kernel: int = 3
    snr_lo: float = -30.0
    snr_hi: float = 0.0
    exact_snr_scaling: bool = False
    reuse_occupied: int = 200
    reuse_empty: int = 3000
    batch_size: int = OptimizerConfig.batch_size
    learning_rate: float = OptimizerConfig.learning_rate
    patience: int = 10
    max_epochs: int = 200
    validation_snr: float = -15.0
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; known: {', '.join(sorted(VARIANTS))}")
        if not math.isfinite(self.snr_hi - self.snr_lo):  # also false for a non-finite bound
            raise ConfigError("training SNR bounds and their range must be finite")
        if self.snr_lo > self.snr_hi:
            raise ConfigError(f"snr_lo {self.snr_lo} exceeds snr_hi {self.snr_hi}")
        if not (math.isfinite(self.validation_snr) or self.validation_snr == math.inf):
            raise ConfigError(
                f"validation SNR must be finite or +inf (noise-free), got {self.validation_snr}")
        check_seed(self.seed)


def _epoch_batches(plan, samples, ref, settings, dim, epoch):
    """Yield (inputs, labels) minibatches for one epoch, deterministically.

    plan holds positions in samples, in draw order (see build_epoch_plan).

    Each batch is corrupted in one corrupt_batch call, in the residuals'
    precision (float32), and laid out by batch_input, so the train forward
    and backward passes run in float32.  Each draw's generator is keyed by
    (seed, epoch, draw position) and gives the draw's SNR first, then its
    noise, so a draw's bytes do not depend on the batch size or on any
    worker arrangement: run_training advances this generator on its data
    thread, one batch ahead of the step that trains on it.  A trailing
    partial batch below 2 samples is dropped because batch statistics are
    undefined for it.
    """
    size = settings.batch_size
    for start in range(0, len(plan), size):
        drawn = [samples[i] for i in plan[start:start + size]]
        if len(drawn) < 2:
            return
        rngs = [np.random.default_rng((settings.seed, epoch, position))
                for position in range(start, start + len(drawn))]
        snrs = [float(rng.uniform(settings.snr_lo, settings.snr_hi)) for rng in rngs]
        planes = corrupt_batch([sample.residual for sample in drawn], ref,
                               snrs, rngs, exact=settings.exact_snr_scaling)
        labels = np.asarray([1.0 if sample.label.occupied else 0.0 for sample in drawn])
        yield batch_input(planes, dim), labels


def _one_ahead(items, executor):
    """Yield what items yields, in order, while executor computes the next item.

    Only executor's thread advances items, one item at a time, so exactly
    one item is in flight; an error raised there is raised here, in place
    of the item it stopped.  A caller that stops early drops the item in
    flight, and its error with it.
    """
    items, end = iter(items), object()
    pending = executor.submit(next, items, end)
    while (item := pending.result()) is not end:
        pending = executor.submit(next, items, end)
        yield item


# Stream tags keeping validation-corruption seeds disjoint from the
# (seed, epoch, position) tuples that drive training draws.
_VALIDATION_STREAM = 0x5EED_A11


def _validation_scorer(val_samples, ref, settings):
    """Corrupt the validation set once, at a fixed SNR, in one call; score it each epoch.

    Freezing the corruption keeps the early-stopping signal comparable
    across epochs; draw i's generator is keyed (seed, _VALIDATION_STREAM, i).
    """
    rngs = [np.random.default_rng((settings.seed, _VALIDATION_STREAM, i))
            for i in range(len(val_samples))]
    planes = corrupt_batch([sample.residual for sample in val_samples], ref,
                           [settings.validation_snr] * len(val_samples), rngs)
    labels = np.asarray([1.0 if sample.label.occupied else 0.0 for sample in val_samples])
    if labels.min() == labels.max():
        raise DataError("validation split needs both classes for AUC-based early stopping")

    def score(network: Network) -> float:
        return roc_auc(_logits(network, planes), labels)

    return score


def run_training(samples, split: SplitAssignment, settings: TrainSettings | None = None,
                 log=None) -> tuple[Network, TrainingHistory, SnrReference]:
    """Train one variant on a split dataset; returns (network, history, ref).

    samples are the residual samples aligned with split.manifest.records,
    as residual_samples returns them.  The SNR reference comes from the
    breathing training residuals; training minibatches follow a fresh seeded
    epoch plan every epoch; early stopping monitors AUC on the
    fixed-corruption validation set.

    One "uwbocc-data" thread, alive only during the call, draws each batch
    while the previous one trains; the bytes are those of drawing inline.
    It allocates from the main malloc arena (see nn.layers), so it adds
    the one batch in flight to the memory a step holds, not a heap.
    """
    settings = settings or TrainSettings()
    variant = VARIANTS[settings.variant]
    if len(samples) != len(split.manifest.records):
        raise DataError(
            f"manifest has {len(split.manifest.records)} records but {len(samples)} samples given")
    train_samples = [samples[i] for i in split.positions[Split.TRAIN]]
    if not train_samples:
        raise DataError("training split is empty")

    ref = reference_from_training(train_samples)

    val_samples = [samples[i] for i in split.positions[Split.VALIDATION]]
    if not val_samples:
        raise DataError("validation split is empty")
    scorer = _validation_scorer(val_samples, ref, settings)

    first_residual = train_samples[0].residual
    input_shape = batch_input(layout_2d([first_residual]), variant.dimensionality).shape[1:]
    network = build_network(variant, input_shape, kernel=settings.kernel, seed=settings.seed)

    def batches(epoch: int):
        plan = build_epoch_plan(split, seed=int(np.random.SeedSequence(
            (settings.seed, epoch)).generate_state(1)[0]),
            reuse_occupied=settings.reuse_occupied, reuse_empty=settings.reuse_empty)
        return _one_ahead(_epoch_batches(plan, samples, ref, settings, variant.dimensionality,
                                         epoch), drawer)

    _single_malloc_arena()
    with ThreadPoolExecutor(1, thread_name_prefix="uwbocc-data") as drawer:
        history = train_network(network, batches, scorer,
                                OptimizerConfig(settings.learning_rate, settings.batch_size),
                                patience=settings.patience, max_epochs=settings.max_epochs,
                                log=log)
    return network, history, ref
