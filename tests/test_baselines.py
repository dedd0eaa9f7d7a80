"""Classical detector scores: sliding-window energy and slow-time FFT peak."""

import numpy as np
import pytest

from uwbocc.baselines import DEFAULT_ENERGY_WINDOW, energy_detector, fft_detector
from uwbocc.errors import ConfigError


class TestEnergyDetector:
    def test_zero_matrix_scores_zero(self):
        assert energy_detector(np.zeros((8, 25), dtype=complex)) == 0.0

    def test_full_window_is_total_energy_over_m(self):
        rng = np.random.default_rng(0)
        res = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
        score = energy_detector(res, window_cols=12)
        total = np.sum(np.abs(res) ** 2)
        assert score == pytest.approx(total / 12, rel=1e-12)

    def test_window_picks_peak_columns(self):
        res = np.zeros((3, 4), dtype=complex)
        res[0, 2] = 2.0  # energy 4 in column 2
        assert energy_detector(res, window_cols=2) == pytest.approx(2.0)  # 4 / 2
        assert energy_detector(res, window_cols=1) == pytest.approx(4.0)

    def test_concentrated_beats_spread(self):
        spread = np.full((1, 8), 1.0, dtype=complex)
        burst = np.zeros((1, 8), dtype=complex)
        burst[0, :2] = 2.0
        assert energy_detector(burst, window_cols=2) > energy_detector(spread, window_cols=2)

    def test_scale_equivariance_quadratic(self):
        rng = np.random.default_rng(1)
        res = rng.standard_normal((5, 30)) + 1j * rng.standard_normal((5, 30))
        assert energy_detector(3.0 * res) == pytest.approx(9.0 * energy_detector(res), rel=1e-12)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(2)
        res = rng.standard_normal((7, 25)) + 1j * rng.standard_normal((7, 25))
        perm = rng.permutation(7)
        assert energy_detector(res[perm]) == pytest.approx(energy_detector(res), rel=1e-12)

    def test_default_window(self):
        assert DEFAULT_ENERGY_WINDOW == 20

    def test_bad_windows_rejected(self):
        res = np.zeros((3, 10), dtype=complex)
        with pytest.raises(ConfigError):
            energy_detector(res, window_cols=0)
        with pytest.raises(ConfigError):
            energy_detector(res, window_cols=11)
        with pytest.raises(ConfigError):
            energy_detector(res)  # default window wider than 10 columns


class TestFftDetector:
    def test_zero_matrix_scores_zero(self):
        assert fft_detector(np.zeros((4, 16), dtype=complex)) == 0.0

    def test_single_tone_magnitude(self):
        m = 32
        t = np.arange(m)
        res = np.exp(2j * np.pi * 5 * t / m)[None, :]  # one row, tone in bin 5
        assert fft_detector(res) == pytest.approx(np.sqrt(m), rel=1e-12)

    def test_dc_excluded_by_default(self):
        res = np.full((2, 16), 7.0, dtype=complex)  # DC only
        assert fft_detector(res) == pytest.approx(0.0, abs=1e-12)

    def test_tone_beats_white_noise(self):
        rng = np.random.default_rng(3)
        m = 64
        t = np.arange(m)
        noise = (rng.standard_normal((8, m)) + 1j * rng.standard_normal((8, m))) / np.sqrt(2)
        tone = 0.8 * np.exp(2j * np.pi * 7 * t / m)[None, :] + 0.2 * noise[:1]
        assert fft_detector(tone) > fft_detector(noise)

    def test_scale_equivariance_linear(self):
        rng = np.random.default_rng(4)
        res = rng.standard_normal((5, 20)) + 1j * rng.standard_normal((5, 20))
        assert fft_detector(2.5 * res) == pytest.approx(2.5 * fft_detector(res), rel=1e-12)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        res = rng.standard_normal((6, 24)) + 1j * rng.standard_normal((6, 24))
        perm = rng.permutation(6)
        assert fft_detector(res[perm]) == pytest.approx(fft_detector(res), rel=1e-12)

    def test_too_few_columns_rejected(self):
        with pytest.raises(ConfigError):
            fft_detector(np.zeros((3, 3), dtype=complex))

    def test_periodic_beats_aperiodic_drift(self):
        m = 60
        t = np.arange(m)
        periodic = np.sin(2 * np.pi * 6 * t / m)[None, :].astype(complex)
        drift = np.linspace(-1, 1, m)[None, :].astype(complex)
        # both unit-normalized so the comparison is about spectral shape
        periodic /= np.sqrt(np.sum(np.abs(periodic) ** 2))
        drift /= np.sqrt(np.sum(np.abs(drift) ** 2))
        assert fft_detector(periodic) > fft_detector(drift)
