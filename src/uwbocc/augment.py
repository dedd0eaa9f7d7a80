"""SNR-referenced noise augmentation and unit-energy normalization.

The SNR of an augmented sample is defined against one fixed reference
energy, the median residual energy of the breathing class in the training
set, rather than against each sample's own energy.  A single reference
keeps the noise level identical across activity classes, so classes with
stronger motion stay easier to detect at the same nominal SNR.  The
processing order is fixed: remove the slow-time mean, add noise, normalize
to unit energy, then hand the result to a detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import frobenius_energy
from .errors import ConfigError, DataError

__all__ = [
    "SnrReference",
    "compute_reference_energy",
    "noise_sigma",
    "add_noise",
    "normalize_unit_energy",
    "corrupt",
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

