"""Noise calibration, normalization, and the input pipeline."""

import math
import tracemalloc

import numpy as np
import pytest

from uwbocc.augment import (
    SnrReference,
    _box_muller,
    add_noise,
    compute_reference_energy,
    corrupt_batch,
    noise_sigma,
    normalize_unit_energy,
)
from uwbocc.core import CirMatrix, frobenius_energy, mean_remove
from uwbocc.errors import ConfigError, DataError
from uwbocc.nn.model import batch_input, layout_2d

DT = (0.5e-9, 0.1)


def spectral_flatness(residual):
    """Geometric over arithmetic mean of the pooled per-row slow-time periodograms.

    White noise scores e^(-gamma) ~ 0.5615 in expectation; strongly
    structured signals score near 0.
    """
    power = np.abs(np.fft.fft(residual, axis=1)) ** 2
    power = power[power > 0]
    return float(np.exp(np.mean(np.log(power))) / np.mean(power))


def residual_of_energy(energy, n=4, m=8):
    data = np.zeros((n, m), dtype=np.complex128)
    data[0, 0] = math.sqrt(energy)
    return data


def one_draw(residual, ref, snr_db, seed, exact=False):
    """add_noise on a batch of one: the (2, N, M) planes of one noisy residual."""
    return add_noise([residual], ref, [snr_db], [np.random.default_rng(seed)], exact=exact)[0]


def as_complex(planes):
    """(2, N, M) real and imaginary planes back to one complex128 matrix."""
    return planes[0].astype(np.float64) + 1j * planes[1]


class TestReferenceEnergy:
    def test_single_matrix(self):
        ref = compute_reference_energy([residual_of_energy(7.0)])
        assert ref.e_s == pytest.approx(7.0)

    def test_odd_count_median(self):
        ref = compute_reference_energy([residual_of_energy(e) for e in (9, 1, 2)])
        assert ref.e_s == pytest.approx(2.0)

    def test_even_count_takes_lower_median(self):
        ref = compute_reference_energy([residual_of_energy(e) for e in (3, 100, 1, 2)])
        assert ref.e_s == pytest.approx(2.0)

    def test_empty_input(self):
        with pytest.raises(DataError):
            compute_reference_energy([])

    def test_reference_must_be_positive(self):
        with pytest.raises(ConfigError):
            SnrReference(0.0)


class TestNoiseSigma:
    def test_reference_point(self):
        assert noise_sigma(SnrReference(1.0), 0.0, 64, 100) == pytest.approx(1.0 / 12800.0, rel=1e-12)

    def test_ten_db_steps_scale_by_ten(self):
        ref = SnrReference(3.7)
        for snr in (-30.0, -12.5, 0.0, 6.0):
            assert noise_sigma(ref, snr - 10.0, 64, 100) == pytest.approx(
                10.0 * noise_sigma(ref, snr, 64, 100), rel=1e-12)

    def test_inversion(self):
        assert noise_sigma(SnrReference(2 * 100 * 64), 0.0, 64, 100) == pytest.approx(1.0)

    def test_independent_of_sample(self):
        # sigma is a function of the reference, never of the sample; equal
        # seeds therefore inject the identical noise into different samples
        ref = SnrReference(5.0)
        a = residual_of_energy(1.0)
        b = residual_of_energy(400.0)
        noisy = add_noise([a, b], ref, [-10.0] * 2, [np.random.default_rng(42) for _ in "ab"])
        added = noisy - layout_2d([a, b])
        assert np.allclose(added[0], added[1], atol=1e-12, rtol=0)


class TestAddNoise:
    def test_infinite_snr_is_passthrough(self):
        res = residual_of_energy(2.0)
        assert np.array_equal(one_draw(res, SnrReference(1.0), math.inf, 0), layout_2d([res])[0])

    def test_planes_take_the_residuals_real_dtype(self):
        for dtype, real in ((np.complex64, np.float32), (np.complex128, np.float64)):
            noisy = one_draw(residual_of_energy(2.0).astype(dtype), SnrReference(1.0), -10.0, 0)
            assert noisy.dtype == real and noisy.shape == (2, 4, 8)

    def test_mean_noise_energy_calibrated(self):
        # E||V||^2 = 2*M*N*sigma^2 = e_s * 10^(-snr/10)
        ref = SnrReference(1.0)
        base = np.zeros((64, 100), dtype=np.complex128)
        total = 0.0
        n_draws = 2000
        for i in range(n_draws):
            total += frobenius_energy(one_draw(base, ref, -20.0, (7, i)))
        assert total / n_draws == pytest.approx(100.0, rel=0.02)

    def test_exact_scaling_hits_ratio_exactly(self):
        ref = SnrReference(3.0)
        base = np.zeros((16, 20), dtype=np.complex128)
        for seed, snr in ((0, -20.0), (1, -5.5), (2, 0.0)):
            noisy = one_draw(base, ref, snr, seed, exact=True)
            ratio = ref.e_s / frobenius_energy(noisy)
            assert ratio == pytest.approx(10.0 ** (snr / 10.0), rel=1e-12)

    def test_deterministic_per_seed(self):
        res = residual_of_energy(1.0)
        a = one_draw(res, SnrReference(1.0), -15.0, 99)
        b = one_draw(res, SnrReference(1.0), -15.0, 99)
        assert np.array_equal(a, b)

    def test_noise_is_circularly_symmetric(self):
        base = np.zeros((64, 100), dtype=np.complex128)
        noisy = one_draw(base, SnrReference(1.0), -20.0, 3)
        re, im = noisy[0].ravel(), noisy[1].ravel()
        sigma2 = noise_sigma(SnrReference(1.0), -20.0, 64, 100)
        assert re.var() == pytest.approx(sigma2, rel=0.1)
        assert im.var() == pytest.approx(sigma2, rel=0.1)
        assert abs(np.corrcoef(re, im)[0, 1]) < 0.05

    def test_residuals_of_another_shape_rejected(self):
        residuals = [np.zeros((4, 6), complex), np.zeros((1, 6), complex)]
        with pytest.raises(DataError, match="shape"):
            add_noise(residuals, SnrReference(1.0), [-10.0] * 2,
                      [np.random.default_rng(k) for k in range(2)])


class TestNormalize:
    def test_energy_four_halves_entries(self):
        res = residual_of_energy(4.0)
        planes = layout_2d([res])
        out = normalize_unit_energy(planes)
        assert out is planes  # in place
        assert np.array_equal(out, layout_2d([res / 2.0]))
        assert frobenius_energy(out) == pytest.approx(1.0, rel=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        res = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        once = normalize_unit_energy(layout_2d([res]))
        twice = normalize_unit_energy(once.copy())
        assert np.abs(twice - once).max() < 1e-15

    def test_direction_preserved(self):
        rng = np.random.default_rng(1)
        res = rng.standard_normal((4, 6)) + 0j
        out = normalize_unit_energy(layout_2d([res]))
        quotient = out[0, 0] / res.real
        assert np.abs(quotient - quotient.flat[0]).max() < 1e-12

    def test_each_sample_scaled_by_its_own_energy(self):
        residuals = [residual_of_energy(e) for e in (4.0, 9.0, 1.0)]
        out = normalize_unit_energy(layout_2d(residuals))
        assert np.array_equal(out, layout_2d([residuals[0] / 2.0, residuals[1] / 3.0,
                                              residuals[2]]))

    def test_zero_energy_rejected(self):
        with pytest.raises(DataError):
            normalize_unit_energy(layout_2d([residual_of_energy(1.0),
                                             np.zeros((4, 8), dtype=np.complex128)]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_sample_is_an_snr_too_low_for_the_dtype(self, value):
        planes = layout_2d([residual_of_energy(1.0)] * 2).astype(np.float32)
        planes[1, 1, 2, 3] = value
        with pytest.raises(ConfigError, match="SNR too low for float32 planes"):
            normalize_unit_energy(planes)


class TestPipeline:
    def test_pipeline_is_mean_remove_then_noise_then_normalize(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((8, 10)) + 1j * rng.standard_normal((8, 10))
        cir = CirMatrix(data, *DT)
        ref = SnrReference(2.0)
        _, residual = mean_remove(cir)
        for exact in (False, True):
            out = corrupt_batch([residual], ref, [-12.0], [np.random.default_rng(77)],
                                exact=exact)
            expected = normalize_unit_energy(add_noise([residual], ref, [-12.0],
                                                       [np.random.default_rng(77)], exact=exact))
            assert np.array_equal(out, expected)
            assert frobenius_energy(out) == pytest.approx(1.0, rel=1e-12)

    def test_stacking_does_not_change_energy(self):
        # normalization before or after a real/imag split is the same thing
        rng = np.random.default_rng(2)
        arr = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        stacked = np.concatenate([arr.real, arr.imag], axis=0)
        assert np.sum(stacked**2) == pytest.approx(frobenius_energy(arr), rel=1e-12)

    def test_heavily_corrupted_empty_sample_looks_white(self):
        # at -30 dB an empty-cabin residual is noise-dominated; its pooled
        # per-row periodogram flatness sits in the white-noise band around
        # e^(-gamma) ~ 0.5615
        from uwbocc.simulate import PathComponent, RadarConfig, Scene, simulate_received

        cfg = RadarConfig()
        scene = Scene(clutter_paths=(PathComponent(1.0, 5e-9),), noise_sigma=1e-4)
        ref = SnrReference(1.0)
        for seed in range(5):
            cir = simulate_received(scene, cfg, rng=seed)
            _, residual = mean_remove(cir)
            out = one_draw(residual, ref, -30.0, seed + 100)
            flatness = spectral_flatness(as_complex(out))
            assert 0.53 < flatness < 0.59

    def test_structured_signal_is_not_white(self):
        m = np.arange(100)
        row = np.exp(2j * np.pi * 0.1 * m)
        res = np.tile(row, (4, 1))
        assert spectral_flatness(res) < 0.1


def keyed_draws(count, seed=0, snr_lo=-30.0, snr_hi=0.0):
    """One generator per draw keyed (seed, k), each giving its SNR first, as training does."""
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, k))) for k in range(count)]
    return rngs, [float(rng.uniform(snr_lo, snr_hi)) for rng in rngs]


def random_residuals(count, n=64, m=100, seed=0):
    """Complex64 residuals, as pipeline.residual_samples keeps them."""
    rng = np.random.default_rng(seed)
    return [(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))).astype(np.complex64)
            for _ in range(count)]


def zero_residuals(count, n=64, m=100):
    """Adding a zero residual leaves the noise planes as they were drawn."""
    return [np.zeros((n, m), dtype=np.complex64)] * count


def batch_energies(planes):
    return np.array([np.sum(np.square(p, dtype=np.float64)) for p in planes])


# Largest radius of a float32 Box-Muller pair, in units of sigma: float32
# uniforms are multiples of 2**-24, so 1 - u >= 2**-24.
RADIUS_CAP = math.sqrt(-2.0 * math.log(2.0 ** -24))


class ZeroGenerator:
    """Stands in for a Generator whose uniforms are all zero (radius 0)."""

    def random(self, dtype, out):
        out[...] = 0


class TestCorruptBatch:
    @pytest.mark.parametrize("exact", [False, True])
    def test_any_split_of_a_batch_gives_the_same_bytes(self, exact):
        residuals = random_residuals(8)
        ref = SnrReference(12800.0)
        inputs = [residuals[k % 8] for k in range(64)]

        def corrupted(lo, hi):
            rngs, snrs = keyed_draws(64)
            return corrupt_batch(inputs[lo:hi], ref, snrs[lo:hi], rngs[lo:hi], exact=exact)

        whole = corrupted(0, 64)
        assert whole.shape == (64, 2, 64, 100) and whole.dtype == np.float32
        assert np.concatenate([corrupted(0, 20), corrupted(20, 64)]).tobytes() == whole.tobytes()
        assert np.concatenate([corrupted(k, k + 1) for k in range(64)]).tobytes() == whole.tobytes()

    def test_noise_variance_and_circular_symmetry_match_noise_sigma(self):
        # The float64 bounds of TestAddNoise: per-component variance within
        # 10% of sigma^2, real/imaginary correlation below 0.05, mean
        # energy over 2000 draws within 2% of e_s * 10^(-snr/10).
        ref = SnrReference(1.0)
        sigma2 = noise_sigma(ref, -20.0, 64, 100)
        rngs, _ = keyed_draws(2000, seed=3)
        energies = []
        for start in range(0, 2000, 100):  # 100 draws at a time keeps memory small
            noise = add_noise(zero_residuals(100), ref, [-20.0] * 100, rngs[start:start + 100])
            energies.extend(batch_energies(noise))
            if start == 0:
                re, im = noise[0, 0].ravel(), noise[0, 1].ravel()
                assert re.var() == pytest.approx(sigma2, rel=0.1)
                assert im.var() == pytest.approx(sigma2, rel=0.1)
                assert abs(np.corrcoef(re, im)[0, 1]) < 0.05
        assert np.mean(energies) == pytest.approx(100.0, rel=0.02)

    def test_corrupted_zero_residuals_look_white(self):
        # The white-noise flatness band of the float64 pipeline test.
        rngs, snrs = keyed_draws(5, seed=4)
        planes = corrupt_batch(zero_residuals(5), SnrReference(1.0), snrs, rngs)
        assert planes.dtype == np.float32
        for draw in planes:
            flatness = spectral_flatness(as_complex(draw))
            assert 0.53 < flatness < 0.59

    def test_exact_scaling_hits_the_target_to_float32_precision(self):
        ref = SnrReference(3.0)
        rngs, snrs = keyed_draws(32, seed=5, snr_lo=-40.0, snr_hi=10.0)
        noise = add_noise(zero_residuals(32, 16, 20), ref, snrs, rngs, exact=True)
        target = ref.e_s * 10.0 ** (-np.asarray(snrs) / 10.0)
        np.testing.assert_allclose(batch_energies(noise), target,
                                   rtol=2 * np.finfo(np.float32).eps, atol=0)

    @pytest.mark.parametrize("exact", [False, True])
    def test_every_sample_has_unit_energy(self, exact):
        rngs, snrs = keyed_draws(64, seed=6)
        planes = corrupt_batch(random_residuals(64, 16, 24), SnrReference(700.0), snrs, rngs,
                               exact=exact)
        assert np.abs(batch_energies(planes) - 1.0).max() <= 2e-7

    def test_normals_are_finite_and_their_radius_is_capped(self):
        edges = np.float32([0.0, 2.0 ** -24, 0.5, 1.0 - 2.0 ** -24])
        uniforms = np.random.default_rng(7).random((64, 2, 16, 25), dtype=np.float32)
        uniforms[:, 0, 0, :4] = edges
        uniforms[:, 1, 0, :4] = edges[::-1]
        _box_muller(uniforms)
        assert np.all(np.isfinite(uniforms))
        radius = np.hypot(uniforms[:, 0].astype(np.float64), uniforms[:, 1])
        assert radius[:, 0, 0] == pytest.approx(0.0, abs=0)
        assert radius.max() <= RADIUS_CAP * (1 + 1e-6)
        assert radius[:, 0, 3] == pytest.approx(RADIUS_CAP, rel=1e-6)

    def test_corrupted_batches_are_finite(self):
        rngs, snrs = keyed_draws(64, seed=8, snr_lo=-60.0, snr_hi=60.0)
        planes = corrupt_batch(random_residuals(64, 16, 24), SnrReference(1.0), snrs, rngs)
        assert np.all(np.isfinite(planes))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_noise_free_limit_is_the_normalized_residual_in_network_layout(self, dim):
        residuals = random_residuals(6, 16, 24, seed=9)
        rngs, _ = keyed_draws(6)
        planes = corrupt_batch(residuals, SnrReference(1.0), [200.0] * 6, rngs)
        lay_out = np.concatenate if dim == 1 else np.stack
        normalized = [r / math.sqrt(frobenius_energy(r)) for r in residuals]
        expected = np.stack([lay_out([r.real, r.imag]) for r in normalized])
        np.testing.assert_allclose(batch_input(planes, dim), expected.astype(np.float32),
                                   rtol=0, atol=1e-6)

    @pytest.mark.parametrize("draws", [(1, 4, 4), (4, 3, 4), (4, 4, 5)])
    def test_one_residual_snr_and_generator_per_draw(self, draws):
        # One residual would otherwise broadcast over every draw.
        n_residuals, n_snrs, n_rngs = draws
        rngs, snrs = keyed_draws(n_rngs)
        with pytest.raises(DataError, match="per residual"):
            corrupt_batch(random_residuals(n_residuals, 4, 6), SnrReference(1.0),
                          (snrs * 2)[:n_snrs], rngs)

    def test_zero_energy_sample_rejected(self):
        rngs, _ = keyed_draws(2)
        with pytest.raises(DataError, match="zero-energy"):
            corrupt_batch(zero_residuals(2, 4, 6), SnrReference(1.0), [math.inf] * 2, rngs)

    @pytest.mark.parametrize("snr", [-800.0, -4000.0])
    def test_noise_that_overflows_float32_is_a_config_error(self, snr):
        # At -800 dB the noise scale fits a float64 but not a float32; at
        # -4000 dB it overflows both.
        rngs, _ = keyed_draws(2)
        with pytest.raises(ConfigError, match="SNR too low for float32 planes"):
            corrupt_batch(random_residuals(2, 4, 6), SnrReference(1.0), [snr] * 2, rngs)

    def test_noise_that_fits_float64_planes_is_drawn(self):
        rngs, _ = keyed_draws(2)
        residuals = [r.astype(np.complex128) for r in random_residuals(2, 4, 6)]
        planes = corrupt_batch(residuals, SnrReference(1.0), [-800.0] * 2, rngs)
        assert planes.dtype == np.float64
        assert np.allclose(batch_energies(planes), 1.0)

    def test_zero_noise_energy_rejected_in_exact_mode(self):
        residuals = random_residuals(2, 4, 6)
        with pytest.raises(DataError, match="zero energy"):
            corrupt_batch(residuals, SnrReference(1.0), [-10.0] * 2,
                          [ZeroGenerator()] * 2, exact=True)

    def test_peak_memory_is_the_planes_and_half_a_planes_temporary(self):
        # A grid point of 150 draws at 64 x 100.  Box-Muller's cosine is the
        # one batch-sized temporary (half the planes); each residual is added
        # one draw at a time.  Laying out the whole batch's residuals before
        # adding them would hold a second planes-sized buffer (2.0x).
        residuals = random_residuals(150)
        rngs, snrs = keyed_draws(150, seed=10)
        tracemalloc.start()
        try:
            planes = corrupt_batch(residuals, SnrReference(12800.0), snrs, rngs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert planes.dtype == np.float32
        assert peak <= 1.6 * planes.nbytes, f"peak {peak / planes.nbytes:.2f}x the planes"
