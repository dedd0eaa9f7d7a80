"""Classical reference detectors: windowed energy and slow-time FFT peak.

Representative implementations of the standard alternatives, not
reproductions of any specific published detector.  Both consume the same
augmented, unit-normalized residuals as the networks, so AUC comparisons
are like for like; note that unit normalization removes the raw-energy cue
the energy detector would otherwise get for free.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["energy_detector", "fft_detector", "DEFAULT_ENERGY_WINDOW"]

# 2 s of slow time at the default 0.1 s repetition interval: roughly half a
# breathing cycle, long enough to integrate motion energy above the noise.
DEFAULT_ENERGY_WINDOW = 20


def energy_detector(residual: np.ndarray, window_cols: int = DEFAULT_ENERGY_WINDOW) -> float:
    """Largest per-column-window energy, normalized by the window length.

    Slides a window of window_cols consecutive slow-time columns across the
    residual and returns max(window energy)/window_cols.
    """
    m = residual.shape[1]
    if not 1 <= window_cols <= m:
        raise ConfigError(f"window of {window_cols} columns does not fit {m} slow-time columns")
    col_energy = np.sum(residual.real**2 + residual.imag**2, axis=0)
    cumulative = np.concatenate([[0.0], np.cumsum(col_energy)])
    windows = cumulative[window_cols:] - cumulative[:-window_cols]
    return float(windows.max() / window_cols)


def fft_detector(residual: np.ndarray) -> float:
    """Largest slow-time spectral magnitude across rows, normalized by sqrt(M).

    Periodic motion concentrates energy in a few slow-time frequency bins of
    one fast-time row; white noise spreads it evenly.  The DC bin is excluded
    since mean removal already nulls it for the signal part.
    """
    m = residual.shape[1]
    if m < 4:
        raise ConfigError(f"need at least 4 slow-time columns, got {m}")
    spectrum = np.abs(np.fft.fft(residual, axis=1))
    return float(spectrum[:, 1:].max() / np.sqrt(m))
