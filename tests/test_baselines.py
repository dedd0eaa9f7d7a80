"""Classical detector scores: sliding-window energy and slow-time FFT peak.

The detectors score (B, 2, N, M) batches of planes; each property below
runs on a batch of one residual laid out by layout_2d.
"""

import numpy as np
import pytest

from uwbocc.baselines import DEFAULT_ENERGY_WINDOW, energy_detector, fft_detector
from uwbocc.errors import ConfigError
from uwbocc.nn.model import layout_2d


def energy(residual, **kwargs):
    """energy_detector's score of one residual, as a batch of one."""
    scores = energy_detector(layout_2d([residual]), **kwargs)
    assert scores.shape == (1,)
    return scores[0]


def fft(residual):
    """fft_detector's score of one residual, as a batch of one."""
    scores = fft_detector(layout_2d([residual]))
    assert scores.shape == (1,)
    return scores[0]


class TestEnergyDetector:
    def test_zero_matrix_scores_zero(self):
        assert energy(np.zeros((8, 25), dtype=complex)) == 0.0

    def test_full_window_is_total_energy_over_m(self):
        rng = np.random.default_rng(0)
        res = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
        score = energy(res, window_cols=12)
        total = np.sum(np.abs(res) ** 2)
        assert score == pytest.approx(total / 12, rel=1e-12)

    def test_window_picks_peak_columns(self):
        res = np.zeros((3, 4), dtype=complex)
        res[0, 2] = 2.0  # energy 4 in column 2
        assert energy(res, window_cols=2) == pytest.approx(2.0)  # 4 / 2
        assert energy(res, window_cols=1) == pytest.approx(4.0)

    def test_concentrated_beats_spread(self):
        spread = np.full((1, 8), 1.0, dtype=complex)
        burst = np.zeros((1, 8), dtype=complex)
        burst[0, :2] = 2.0
        assert energy(burst, window_cols=2) > energy(spread, window_cols=2)

    def test_scale_equivariance_quadratic(self):
        rng = np.random.default_rng(1)
        res = rng.standard_normal((5, 30)) + 1j * rng.standard_normal((5, 30))
        assert energy(3.0 * res) == pytest.approx(9.0 * energy(res), rel=1e-12)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(2)
        res = rng.standard_normal((7, 25)) + 1j * rng.standard_normal((7, 25))
        perm = rng.permutation(7)
        assert energy(res[perm]) == pytest.approx(energy(res), rel=1e-12)

    def test_default_window(self):
        assert DEFAULT_ENERGY_WINDOW == 20

    def test_bad_windows_rejected(self):
        res = np.zeros((3, 10), dtype=complex)
        with pytest.raises(ConfigError):
            energy(res, window_cols=0)
        with pytest.raises(ConfigError):
            energy(res, window_cols=11)
        with pytest.raises(ConfigError):
            energy(res)  # default window wider than 10 columns


class TestFftDetector:
    def test_zero_matrix_scores_zero(self):
        assert fft(np.zeros((4, 16), dtype=complex)) == 0.0

    def test_single_tone_magnitude(self):
        m = 32
        t = np.arange(m)
        res = np.exp(2j * np.pi * 5 * t / m)[None, :]  # one row, tone in bin 5
        assert fft(res) == pytest.approx(np.sqrt(m), rel=1e-12)

    def test_dc_excluded_by_default(self):
        res = np.full((2, 16), 7.0, dtype=complex)  # DC only
        assert fft(res) == pytest.approx(0.0, abs=1e-12)

    def test_tone_beats_white_noise(self):
        rng = np.random.default_rng(3)
        m = 64
        t = np.arange(m)
        noise = (rng.standard_normal((8, m)) + 1j * rng.standard_normal((8, m))) / np.sqrt(2)
        tone = 0.8 * np.exp(2j * np.pi * 7 * t / m)[None, :] + 0.2 * noise[:1]
        assert fft(tone) > fft(noise)

    def test_scale_equivariance_linear(self):
        rng = np.random.default_rng(4)
        res = rng.standard_normal((5, 20)) + 1j * rng.standard_normal((5, 20))
        assert fft(2.5 * res) == pytest.approx(2.5 * fft(res), rel=1e-12)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        res = rng.standard_normal((6, 24)) + 1j * rng.standard_normal((6, 24))
        perm = rng.permutation(6)
        assert fft(res[perm]) == pytest.approx(fft(res), rel=1e-12)

    def test_too_few_columns_rejected(self):
        with pytest.raises(ConfigError):
            fft(np.zeros((3, 3), dtype=complex))

    def test_periodic_beats_aperiodic_drift(self):
        m = 60
        t = np.arange(m)
        periodic = np.sin(2 * np.pi * 6 * t / m)[None, :].astype(complex)
        drift = np.linspace(-1, 1, m)[None, :].astype(complex)
        # both unit-normalized so the comparison is about spectral shape
        periodic /= np.sqrt(np.sum(np.abs(periodic) ** 2))
        drift /= np.sqrt(np.sum(np.abs(drift) ** 2))
        assert fft(periodic) > fft(drift)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
def test_each_score_is_the_same_alone_and_inside_a_mixed_batch(dtype):
    # Each sample's score depends on that sample alone, so a sweep row and
    # an ablation row scored in different batches agree bit for bit.
    rng = np.random.default_rng(6)
    m = 40
    tone = np.tile(np.exp(2j * np.pi * 3 * np.arange(m) / m), (6, 1))
    residuals = [(rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m)))
                 * 10.0 ** int(rng.integers(-3, 3)) for _ in range(9)]
    residuals += [tone, np.zeros((6, m))]
    planes = layout_2d([r.astype(dtype) for r in residuals])
    order = rng.permutation(len(planes))
    for detector in (lambda p: energy_detector(p, window_cols=8), fft_detector):
        alone = np.concatenate([detector(planes[i:i + 1]) for i in range(len(planes))])
        assert np.array_equal(detector(planes), alone)
        assert np.array_equal(detector(planes[order]), alone[order])
        assert np.array_equal(detector(planes[order[:4]]), alone[order[:4]])
