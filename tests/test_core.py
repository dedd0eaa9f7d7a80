"""Mean removal, energy accounting, and the core data model."""

import math

import numpy as np
import pytest

from uwbocc.core import (
    ActivityLabel,
    CirMatrix,
    SampleRecord,
    check_seed,
    frobenius_energy,
    mean_remove,
    read_counts,
)
from uwbocc.errors import ConfigError

DT_FAST = 0.5e-9
DT_SLOW = 0.1


def make_cir(data):
    return CirMatrix(np.asarray(data, dtype=np.complex128), DT_FAST, DT_SLOW)


def random_cir(rng, n=8, m=16, scale=1.0):
    data = scale * (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
    return make_cir(data)


class TestMeanRemove:
    def test_identical_columns_leave_exactly_zero_residual(self):
        # static scene: every repetition sees the same response
        rng = np.random.default_rng(7)
        col = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        cir = make_cir(np.tile(col[:, None], (1, 10)))
        mean_profile, residual = mean_remove(cir)
        assert np.array_equal(residual, np.zeros((16, 10), dtype=np.complex128))
        assert np.array_equal(mean_profile, col)

    def test_single_row_two_columns(self):
        cir = make_cir([[1.0 + 0j, 3.0 + 0j]])
        mean_profile, residual = mean_remove(cir)
        assert mean_profile.shape == (1,)
        assert mean_profile[0] == pytest.approx(2.0 + 0j)
        assert residual[0, 0] == pytest.approx(-1.0 + 0j)
        assert residual[0, 1] == pytest.approx(1.0 + 0j)

    def test_row_means_of_residual_vanish(self):
        rng = np.random.default_rng(123)
        for trial in range(20):
            cir = random_cir(rng, n=8, m=16, scale=10.0 ** rng.integers(-3, 4))
            _, residual = mean_remove(cir)
            row_means = residual.mean(axis=1)
            scale = np.abs(cir.data).max()
            assert np.abs(row_means).max() < 1e-12 * max(scale, 1.0)

    def test_mean_plus_residual_reconstructs_input(self):
        rng = np.random.default_rng(42)
        cir = random_cir(rng, n=12, m=25)
        mean_profile, residual = mean_remove(cir)
        recon = residual + mean_profile[:, None]
        err = np.abs(recon - cir.data).max()
        assert err <= 1e-12 * np.abs(cir.data).max()

    def test_energy_splits_into_mean_and_residual_parts(self):
        # ||R||^2 = M*||mean||^2 + ||residual||^2 (orthogonality of the
        # per-row mean and the zero-mean remainder)
        rng = np.random.default_rng(99)
        for _ in range(10):
            cir = random_cir(rng, n=16, m=32)
            mean_profile, residual = mean_remove(cir)
            total = frobenius_energy(cir)
            m = cir.data.shape[1]
            split = m * float(np.sum(np.abs(mean_profile) ** 2)) + frobenius_energy(residual)
            assert split == pytest.approx(total, rel=1e-10)

    def test_mean_removal_is_idempotent(self):
        rng = np.random.default_rng(5)
        cir = random_cir(rng)
        _, residual = mean_remove(cir)
        second_mean, second = mean_remove(CirMatrix(residual.copy(), DT_FAST, DT_SLOW))
        assert np.abs(second - residual).max() < 1e-12
        assert np.abs(second_mean).max() < 1e-12

    def test_residual_is_a_read_only_complex_array(self):
        rng = np.random.default_rng(3)
        _, residual = mean_remove(random_cir(rng))
        assert type(residual) is np.ndarray and residual.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            residual[0, 0] = 1.0

    def test_rejects_single_column(self):
        with pytest.raises(ConfigError):
            mean_remove(make_cir([[1.0], [2.0]]))


class TestFrobeniusEnergy:
    def test_ones_matrix(self):
        assert frobenius_energy(make_cir(np.ones((2, 2)))) == pytest.approx(4.0)

    def test_zero_matrix(self):
        assert frobenius_energy(make_cir(np.zeros((3, 5)))) == 0.0

    def test_complex_entry(self):
        # |3+4j|^2 = 25, computed without the square root
        data = np.zeros((1, 2), dtype=np.complex128)
        data[0, 0] = 3.0 + 4.0j
        assert frobenius_energy(make_cir(data)) == pytest.approx(25.0)

    def test_accepts_bare_arrays_and_wrappers(self):
        arr = np.full((2, 3), 2.0 + 0j)
        assert frobenius_energy(arr) == frobenius_energy(make_cir(arr)) == pytest.approx(24.0)

    def test_complex64_accumulates_in_float64(self):
        # Squares of float32 values are exact in float64, so fsum gives the
        # correctly rounded energy; summing in float32 misses it here by 5e-8.
        rng = np.random.default_rng(11)
        wide = (rng.standard_normal((64, 100)) + 1j * rng.standard_normal((64, 100))) * 1e3
        arr = wide.astype(np.complex64)
        parts = np.concatenate([arr.real.ravel(), arr.imag.ravel()]).astype(np.float64)
        reference = math.fsum(parts**2)
        assert frobenius_energy(arr) == pytest.approx(reference, rel=1e-13, abs=0)
        # complex128 keeps the bits of squaring and summing each part.
        assert frobenius_energy(wide) == float(np.sum(wide.real**2) + np.sum(wide.imag**2))


class TestDataModel:
    def test_cir_requires_2d(self):
        with pytest.raises(ConfigError):
            CirMatrix(np.zeros(4, dtype=np.complex128), DT_FAST, DT_SLOW)

    def test_cir_requires_two_columns(self):
        with pytest.raises(ConfigError):
            CirMatrix(np.zeros((4, 1), dtype=np.complex128), DT_FAST, DT_SLOW)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    def test_cir_rejects_non_finite_samples(self, value):
        data = np.ones((4, 4), dtype=complex)
        data[2, 1] = value
        with pytest.raises(ConfigError, match="NaN or infinite sample"):
            CirMatrix(data, DT_FAST, DT_SLOW)

    def test_cir_data_is_read_only(self):
        cir = make_cir(np.zeros((2, 2)))
        with pytest.raises((ValueError, RuntimeError)):
            cir.data[0, 0] = 1.0

    def test_label_occupancy(self):
        assert ActivityLabel.BREATHING.occupied
        assert ActivityLabel.TALKING.occupied
        assert ActivityLabel.MOVING.occupied
        assert not ActivityLabel.EMPTY.occupied

    def test_label_round_trip(self):
        for label in ActivityLabel:
            assert ActivityLabel.from_string(label.value) is label
        with pytest.raises(ConfigError):
            ActivityLabel.from_string("sleeping")

    def test_empty_sample_cannot_have_participant(self):
        cir = make_cir(np.zeros((2, 2)))
        with pytest.raises(ConfigError):
            SampleRecord(cir, ActivityLabel.EMPTY, "car2", participant="p000")

    def test_negative_segment_index_rejected(self):
        with pytest.raises(ConfigError, match="segment_index"):
            SampleRecord(make_cir(np.zeros((2, 2))), ActivityLabel.BREATHING, "car1",
                         segment_index=-1)

    def test_sample_defaults(self):
        cir = make_cir(np.zeros((2, 2)))
        rec = SampleRecord(cir, ActivityLabel.BREATHING, "car1", "front", "p007")
        assert rec.segment_index == 0
        assert rec.label.occupied


class TestReadCounts:
    def test_labels_and_names_in_any_case(self):
        counts = {ActivityLabel.BREATHING: 2, "Talking": np.int64(3), " MOVING ": 0, "empty": 1}
        assert read_counts(counts, "counts") == {
            ActivityLabel.BREATHING: 2, ActivityLabel.TALKING: 3, ActivityLabel.MOVING: 0,
            ActivityLabel.EMPTY: 1}
        assert all(type(n) is int for n in read_counts(counts, "counts").values())

    @pytest.mark.parametrize("counts, message", [
        ({"breathing": 1.7}, "the breathing count must be an integer, got 1.7"),
        ({"breathing": 2.0}, "the breathing count must be an integer, got 2.0"),
        ({"breathing": "x"}, "the breathing count must be an integer, got 'x'"),
        ({"breathing": "3"}, "the breathing count must be an integer, got '3'"),
        ({"breathing": None}, "the breathing count must be an integer, got None"),
        ({"breathing": True}, "the breathing count must be an integer, got True"),
        ({"breathing": -1}, "negative count for breathing: -1"),
        ({"breathing": 1, "Breathing": 2}, "breathing given more than once"),
        ({ActivityLabel.EMPTY: 1, "empty": 2}, "empty given more than once"),
        ({"sleeping": 1}, "unknown activity label 'sleeping'"),
        ([("empty", 2), ("empty", 3)], "empty given more than once"),
    ])
    def test_refusals_name_the_argument(self, counts, message):
        with pytest.raises(ConfigError) as caught:
            read_counts(counts, "wanted")
        assert str(caught.value).startswith(f"wanted: {message}")


def test_check_seed_refuses_only_a_negative_seed():
    for seed in (0, 2**40, np.int64(7)):
        check_seed(seed)
    for seed in (-1, np.int64(-2**40)):
        with pytest.raises(ConfigError, match=f"^seed must be >= 0, got {seed}$"):
            check_seed(seed)


def test_a_single_column_matrix_is_refused_before_mean_removal():
    # mean_remove relies on CirMatrix for its two-column rule.
    with pytest.raises(ConfigError, match="at least 2 slow-time columns for mean removal, got 1"):
        make_cir(np.ones((4, 1)))
