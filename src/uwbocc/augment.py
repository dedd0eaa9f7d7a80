"""SNR-referenced noise augmentation and unit-energy normalization.

The SNR of an augmented sample is defined against one fixed reference
energy, the median residual energy of the breathing class in the training
set, rather than against each sample's own energy.  A single reference
keeps the noise level identical across activity classes, so classes with
stronger motion stay easier to detect at the same nominal SNR.  The
processing order is fixed: remove the slow-time mean, add noise, normalize
to unit energy, then hand the result to a detector.

Two paths follow that order.  add_noise, normalize_unit_energy and corrupt
work on one complex float64 sample with numpy's Gaussian sampler; scoring
and validation use them.  corrupt_batch corrupts a whole training batch in
float32 with Box-Muller normals, in the channels-first (B, 2, N, M)
real/imaginary planes that nn.model.layout_2d lays residuals out in.
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
    "corrupt",
    "corrupt_batch",
    "TRAIN_DTYPE",
]

# Dtype of the training batches corrupt_batch writes.  Layers compute in
# their input's dtype, so training runs in float32 on the network's float64
# master weights, while validation and scoring batches, laid out from
# corrupt's complex128 output, stay float64 and score in float64.
TRAIN_DTYPE = np.float32


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


def add_noise(residual: np.ndarray, ref: SnrReference, snr_db: float,
              rng=None, *, exact: bool = False) -> np.ndarray:
    """Add circularly-symmetric white Gaussian noise at the requested SNR.

    The variance comes from noise_sigma, so it depends only on the reference
    energy and matrix size, never on the sample being corrupted.  With
    exact=True the drawn noise is rescaled so e_s/||V||^2 equals
    10^(snr_db/10) exactly.  snr_db = +inf is a noise-free passthrough.
    Deterministic per seed.  The noise is built in place in one complex
    buffer: the real half is drawn first, then the imaginary half.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return residual
    rng = np.random.default_rng(rng)
    shape = residual.shape
    sigma2 = noise_sigma(ref, snr_db, *shape)
    noise = np.empty(shape, dtype=np.complex128)
    noise.real = rng.standard_normal(shape)
    noise.imag = rng.standard_normal(shape)
    noise *= math.sqrt(sigma2)
    if exact:
        target = ref.e_s * 10.0 ** (-snr_db / 10.0)
        got = frobenius_energy(noise)
        if got == 0.0:
            raise DataError("drawn noise has zero energy; cannot scale exactly")
        noise *= math.sqrt(target / got)
    noise += residual
    return noise


def normalize_unit_energy(residual: np.ndarray) -> np.ndarray:
    """Scale so the Frobenius-squared energy is 1; direction unchanged."""
    energy = frobenius_energy(residual)
    if energy <= 0.0:
        raise DataError("cannot normalize a zero-energy sample")
    return residual / math.sqrt(energy)


def corrupt(residual: np.ndarray, ref: SnrReference, snr_db: float,
            rng=None, *, exact: bool = False) -> np.ndarray:
    """A detector input: add_noise at snr_db, then normalize_unit_energy."""
    return normalize_unit_energy(add_noise(residual, ref, snr_db, rng, exact=exact))


def _sample_energies(planes: np.ndarray) -> np.ndarray:
    """Float64 energy of each sample of a (B, ...) batch.

    einsum reduces without BLAS, one sample at a time, so each sum depends
    only on its own sample: not on the batch around it or the thread count.
    """
    flat = planes.reshape(len(planes), -1)
    return np.einsum("ij,ij->i", flat, flat, dtype=np.float64)


def _box_muller(planes: np.ndarray) -> None:
    """Turn (..., 2, N, M) float32 uniforms in [0, 1) into standard normals, in place.

    Plane 0 supplies the radius sqrt(-2 log(1 - u)), plane 1 the angle
    2 pi u; they become the real (r cos) and imaginary (r sin) parts of a
    unit-variance-per-component circular Gaussian.  log1p(-u) stays finite
    at u = 0.  Float32 uniforms are multiples of 2**-24, so 1 - u >= 2**-24
    and the radius never exceeds sqrt(-2 ln 2**-24) ~ 5.77.
    """
    radius, angle = planes[..., 0, :, :], planes[..., 1, :, :]
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= np.float32(2.0 * math.pi)
    cos = np.cos(angle)
    np.sin(angle, out=angle)
    angle *= radius
    radius *= cos


def _noise_planes(shape, ref: SnrReference, snrs, rngs, exact: bool) -> np.ndarray:
    """Float32 (B, 2, N, M) noise: add_noise's calibration with Box-Muller normals.

    Each generator fills its own draw's uniforms.  Each draw is scaled by
    sqrt(noise_sigma), or with exact=True so that its energy is
    e_s * 10^(-snr/10) up to float32 rounding.
    """
    n, m = shape
    planes = np.empty((len(rngs), 2, n, m), dtype=TRAIN_DTYPE)
    for draw, rng in zip(planes, rngs):
        rng.random(dtype=TRAIN_DTYPE, out=draw)
    _box_muller(planes)
    sigma2 = noise_sigma(ref, np.asarray(snrs, dtype=np.float64), n, m)
    if exact:
        drawn = _sample_energies(planes)
        if np.any(drawn == 0.0):
            raise DataError("drawn noise has zero energy; cannot scale exactly")
        # Unit normals scaled by sqrt(sigma2 * 2mn / drawn) have energy
        # 2mn * sigma2 = e_s * 10^(-snr/10).
        sigma2 = sigma2 * (2.0 * m * n / drawn)
    planes *= np.sqrt(sigma2).astype(TRAIN_DTYPE)[:, None, None, None]
    return planes


def corrupt_batch(residuals, ref: SnrReference, snrs, rngs, *,
                  exact: bool = False) -> np.ndarray:
    """corrupt for a batch, in float32: (B, 2, N, M) real and imaginary planes.

    residuals are B complex (N, M) matrices, snrs their SNRs in dB and rngs
    one numpy Generator per draw.  Noise is drawn as add_noise calibrates it
    but from float32 Box-Muller normals, so its radius is capped near
    5.77 sigma; the residuals, laid out by layout_2d, are added and each
    sample is normalized to unit energy.  Energies are float64 sums over
    one sample each, so a draw's bytes depend only on its residual, SNR and
    generator, never on how draws are grouped into batches.
    """
    if not len(residuals) == len(snrs) == len(rngs):
        raise DataError(f"{len(residuals)} residuals, {len(snrs)} SNRs, {len(rngs)} "
                        "generators: corrupt_batch needs one SNR and generator per residual")
    planes = _noise_planes(residuals[0].shape, ref, snrs, rngs, exact)
    planes += layout_2d(residuals)
    energy = _sample_energies(planes)
    if np.any(energy <= 0.0):
        raise DataError("cannot normalize a zero-energy sample")
    planes *= (1.0 / np.sqrt(energy)).astype(TRAIN_DTYPE)[:, None, None, None]
    return planes
