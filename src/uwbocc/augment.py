"""SNR-referenced noise augmentation and unit-energy normalization.

The SNR of an augmented sample is defined against one fixed reference
energy, the median residual energy of the breathing class in the training
set, rather than against each sample's own energy.  A single reference
keeps the noise level identical across activity classes, so classes with
stronger motion stay easier to detect at the same nominal SNR.  The
processing order is fixed: remove the slow-time mean, add noise, normalize
to unit energy, then hand the result to a detector.

One path follows that order for every draw: training batches, the frozen
validation set and each grid SNR of a sweep or ablation.  corrupt_batch is
normalize_unit_energy(add_noise(...)) over a batch, with Box-Muller noise
from one generator per draw, written into the channels-first (B, 2, N, M)
real/imaginary planes that nn.model.layout_2d lays residuals out in.  The
planes take the residuals' real dtype, as layout_2d does: float32 for the
complex64 residuals pipeline.residual_samples makes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import frobenius_energy
from .errors import ConfigError, DataError
from .nn.model import layout_2d

__all__ = [
    "SnrReference",
    "compute_reference_energy",
    "noise_sigma",
    "add_noise",
    "normalize_unit_energy",
    "corrupt_batch",
]


@dataclass(frozen=True)
class SnrReference:
    """Reference signal energy e_s that anchors every SNR in the pipeline."""

    e_s: float

    def __post_init__(self):
        if not (math.isfinite(self.e_s) and self.e_s > 0):
            raise ConfigError(f"reference energy must be positive and finite, got {self.e_s}")


def compute_reference_energy(residuals) -> SnrReference:
    """Median residual energy; the lower of the two middle values for even counts."""
    energies = sorted(frobenius_energy(r) for r in residuals)
    if not energies:
        raise DataError("cannot compute a reference energy from zero residuals")
    return SnrReference(energies[(len(energies) - 1) // 2])


def noise_sigma(ref: SnrReference, snr_db: float, n: int, m: int) -> float:
    """Per-component noise variance sigma^2 = e_s / (2*m*n*10^(snr/10))."""
    if n < 1 or m < 1:
        raise ConfigError("matrix dimensions must be >= 1")
    return ref.e_s / (2.0 * m * n * 10.0 ** (snr_db / 10.0))


def _sample_energies(planes: np.ndarray) -> np.ndarray:
    """Float64 energy of each sample of a (B, ...) batch.

    einsum reduces without BLAS, one sample at a time, so each sum depends
    only on its own sample: not on the batch around it or the thread count.
    """
    flat = planes.reshape(len(planes), -1)
    return np.einsum("ij,ij->i", flat, flat, dtype=np.float64)


def _box_muller(planes: np.ndarray) -> None:
    """Turn (..., 2, N, M) uniforms in [0, 1) into standard normals, in place.

    Plane 0 supplies the radius sqrt(-2 log(1 - u)), plane 1 the angle
    2 pi u; they become the real (r cos) and imaginary (r sin) parts of a
    unit-variance-per-component circular Gaussian.  log1p(-u) stays finite
    at u = 0.  Uniforms are multiples of eps/2 of their dtype (2**-24 in
    float32), so 1 - u >= eps/2 and the radius never exceeds
    sqrt(-2 ln(eps/2)), about 5.77 in float32 and 8.57 in float64.
    """
    radius, angle = planes[..., 0, :, :], planes[..., 1, :, :]
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * math.pi
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= radius
    radius *= cos


def add_noise(residuals, ref: SnrReference, snrs, rngs, *, exact: bool = False) -> np.ndarray:
    """Circularly-symmetric white Gaussian noise at each SNR, plus the residuals.

    residuals are B complex (N, M) matrices, snrs their SNRs in dB and rngs
    one numpy Generator per draw; the result is (B, 2, N, M) planes in the
    residuals' real dtype.  Each generator fills its own draw's uniforms,
    which become Box-Muller normals scaled by sqrt(noise_sigma): the
    variance depends only on the reference energy and matrix size, never
    on the sample being corrupted.  With exact=True each draw is rescaled
    so e_s/||V||^2 equals 10^(snr/10) up to the planes' rounding.  An SNR
    of +inf adds no noise.  Each residual, laid out by layout_2d, is added
    one draw at a time, so no second batch-sized buffer is made.
    """
    if not len(residuals) == len(snrs) == len(rngs):
        raise DataError(f"{len(residuals)} residuals, {len(snrs)} SNRs, {len(rngs)} "
                        "generators: add_noise needs one SNR and generator per residual")
    first = residuals[0]
    n, m = first.shape
    planes = np.empty((len(rngs), 2, n, m), dtype=first.real.dtype)
    for draw, rng in zip(planes, rngs):
        rng.random(dtype=planes.dtype, out=draw)
    _box_muller(planes)
    # Noise too strong for the planes' dtype overflows quietly here;
    # normalize_unit_energy rejects it as a ConfigError.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        sigma2 = noise_sigma(ref, np.asarray(snrs, dtype=np.float64), n, m)
        if exact:
            drawn = _sample_energies(planes)
            if np.any(drawn == 0.0):
                raise DataError("drawn noise has zero energy; cannot scale exactly")
            # Unit normals scaled by sqrt(sigma2 * 2mn / drawn) have energy
            # 2mn * sigma2 = e_s * 10^(-snr/10).
            sigma2 = sigma2 * (2.0 * m * n / drawn)
        planes *= np.sqrt(sigma2).astype(planes.dtype)[:, None, None, None]
    for draw, residual in zip(planes, residuals):
        if residual.shape != first.shape:
            raise DataError(f"residual of shape {residual.shape} in a batch of {first.shape}")
        draw += layout_2d([residual])[0]
    return planes


def normalize_unit_energy(planes: np.ndarray) -> np.ndarray:
    """Scale each sample of a (B, ...) batch to unit energy, in place; returns planes.

    Energies are float64 sums over one sample each, so a sample's bytes
    depend only on itself, never on the batch around it.  A non-finite
    energy is a ConfigError: the noise of an SNR too low for the planes'
    dtype overflowed it.
    """
    energy = _sample_energies(planes)
    if not np.isfinite(energy).all():
        raise ConfigError(f"SNR too low for {planes.dtype} planes: the noise overflows")
    if np.any(energy <= 0.0):
        raise DataError("cannot normalize a zero-energy sample")
    planes *= (1.0 / np.sqrt(energy)).astype(planes.dtype)[:, None, None, None]
    return planes


def corrupt_batch(residuals, ref: SnrReference, snrs, rngs, *,
                  exact: bool = False) -> np.ndarray:
    """Detector inputs: add_noise at each draw's SNR, then normalize_unit_energy.

    Every draw in the package goes through here.  A draw's bytes depend
    only on its residual, SNR and generator, never on how draws are
    grouped into batches.
    """
    return normalize_unit_energy(add_noise(residuals, ref, snrs, rngs, exact=exact))
