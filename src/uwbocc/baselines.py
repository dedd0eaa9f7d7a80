"""Classical reference detectors: windowed energy and slow-time FFT peak.

Representative implementations of the standard alternatives, not
reproductions of any specific published detector.  Both score the same
(B, 2, N, M) batches of augmented, unit-normalized planes as the networks,
one score per sample in one pass, so AUC comparisons are like for like;
note that unit normalization removes the raw-energy cue the energy
detector would otherwise get for free.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["energy_detector", "fft_detector", "DEFAULT_ENERGY_WINDOW"]

# 2 s of slow time at the default 0.1 s repetition interval: roughly half a
# breathing cycle, long enough to integrate motion energy above the noise.
DEFAULT_ENERGY_WINDOW = 20


def energy_detector(planes: np.ndarray, window_cols: int = DEFAULT_ENERGY_WINDOW) -> np.ndarray:
    """Largest per-column-window energy of each sample, normalized by the window length.

    planes is a (B, 2, N, M) batch of real and imaginary planes.  A window
    of window_cols consecutive slow-time columns slides across each sample;
    its score is max(window energy)/window_cols.  Column energies are
    float64 sums over one sample each, so a score does not depend on the
    batch around its sample.
    """
    m = planes.shape[-1]
    if not 1 <= window_cols <= m:
        raise ConfigError(f"window of {window_cols} columns does not fit {m} slow-time columns")
    cumulative = np.zeros((len(planes), m + 1))
    np.cumsum(np.einsum("bcnm,bcnm->bm", planes, planes, dtype=np.float64), axis=1,
              out=cumulative[:, 1:])
    windows = cumulative[:, window_cols:] - cumulative[:, :-window_cols]
    return windows.max(axis=1) / window_cols


def fft_detector(planes: np.ndarray) -> np.ndarray:
    """Largest slow-time spectral magnitude of each sample across rows, over sqrt(M).

    planes is a (B, 2, N, M) batch of real and imaginary planes.  Periodic
    motion concentrates energy in a few slow-time frequency bins of one
    fast-time row; white noise spreads it evenly.  The DC bin is excluded
    since mean removal already nulls it for the signal part.  The spectra
    are computed in place, in the planes' precision, one row at a time: the
    "ortho" norm applies the 1/sqrt(M) in the planes' real dtype, where
    numpy's default norm would run a float32 batch through a complex128
    copy.
    """
    b, _, n, m = planes.shape
    if m < 4:
        raise ConfigError(f"need at least 4 slow-time columns, got {m}")
    rows = np.empty((b, n, m), dtype=np.result_type(planes.dtype, np.complex64))
    rows.real = planes[:, 0]
    rows.imag = planes[:, 1]
    np.fft.fft(rows, axis=-1, norm="ortho", out=rows)
    return np.abs(rows[..., 1:]).max(axis=(1, 2))
