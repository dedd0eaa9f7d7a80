"""End-to-end wiring: residual prep, scorers, and the training driver."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import uwbocc.pipeline as pipeline
from uwbocc.augment import compute_reference_energy, corrupt_batch
from uwbocc.baselines import energy_detector, fft_detector
from uwbocc.core import ActivityLabel, frobenius_energy, mean_remove
from uwbocc.dataset import Split, build_epoch_plan, make_split, memory_manifest
from uwbocc.errors import ConfigError, DataError, DivergenceError
from uwbocc.nn import build_network, flop_count, layout_2d, load_checkpoint, save_checkpoint
from uwbocc.pipeline import (
    BaselineScorer,
    NetworkScorer,
    TrainSettings,
    _epoch_batches,
    _one_ahead,
    _validation_scorer,
    reference_from_training,
    residual_samples,
    run_training,
)
from uwbocc.simulate import RadarConfig, synth_dataset

SMALL = RadarConfig(n_fast=16, m_slow=24)


def small_records(counts, seed):
    return synth_dataset(counts, SMALL, rng=seed)


class TestResidualPrep:
    def test_residuals_match_direct_mean_removal(self):
        records = small_records({"breathing": 2, "empty": 1}, seed=0)
        samples = residual_samples(records)
        assert [s.label for s in samples] == [r.label for r in records]
        for rec, sample in zip(records, samples):
            _, expected = mean_remove(rec.cir)
            assert sample.residual.dtype == np.complex64
            assert not sample.residual.flags.writeable
            assert np.array_equal(sample.residual, expected.astype(np.complex64))

    def test_memory_manifest_mirrors_records(self):
        records = small_records({"breathing": 3, "empty": 2}, seed=1)
        manifest = memory_manifest(records)
        assert len(manifest.records) == 5
        assert len({r.file for r in manifest.records}) == 5
        assert manifest.radar.n_fast == SMALL.n_fast
        assert manifest.radar.m_slow == SMALL.m_slow
        assert [r.label for r in manifest.records] == [r.label for r in records]

    def test_memory_manifest_rejects_empty(self):
        with pytest.raises(DataError):
            memory_manifest([])


class TestReference:
    def test_median_of_breathing_residual_energies(self):
        records = small_records({"breathing": 5, "empty": 3}, seed=4)
        ref = reference_from_training(residual_samples(records))
        breathing = [mean_remove(r.cir)[1].astype(np.complex64)
                     for r in records if r.label is ActivityLabel.BREATHING]
        energies = sorted(frobenius_energy(residual) for residual in breathing)
        assert ref.e_s == pytest.approx(energies[(len(energies) - 1) // 2], rel=1e-12)
        direct = compute_reference_energy(breathing)
        assert ref.e_s == direct.e_s

    def test_requires_breathing_samples(self):
        records = small_records({"talking": 2, "empty": 2}, seed=5)
        with pytest.raises(DataError, match="breathing"):
            reference_from_training(residual_samples(records))


class TestScorers:
    def residuals(self, n=5):
        records = small_records({"breathing": n}, seed=6)
        return [s.residual for s in residual_samples(records)]

    def planes(self):
        return layout_2d(self.residuals())

    def test_network_scorer_matches_direct_forward(self):
        net = build_network("1D-E", (2 * SMALL.n_fast, SMALL.m_slow), seed=0)
        scorer = NetworkScorer(net)
        residuals = self.residuals()
        scores = scorer(layout_2d(residuals))
        batch = np.stack([np.concatenate([r.real, r.imag]) for r in residuals])
        assert np.array_equal(scores, net.forward(batch, train=False))
        assert scorer.name == "1D-E"
        assert scorer.flops == flop_count(net)

    def test_network_scorer_chunking_equivalence(self, monkeypatch):
        from uwbocc import pipeline

        net = build_network("1D-E", (2 * SMALL.n_fast, SMALL.m_slow), seed=1)
        planes = self.planes().astype(np.float64)
        whole = NetworkScorer(net)(planes)
        monkeypatch.setattr(pipeline, "_INFERENCE_CHUNK", 2)
        chunked = NetworkScorer(net)(planes)
        # matmul summation order varies with the slice height, so last-bit
        # drift is expected; a fixed chunk size keeps real runs bit-stable
        assert np.allclose(whole, chunked, rtol=1e-12, atol=0)

    def test_network_scorer_2d_layout(self):
        net = build_network("2D-E", (2, SMALL.n_fast, SMALL.m_slow), seed=2)
        scores = NetworkScorer(net)(self.planes())
        assert scores.shape == (5,)
        assert np.all(np.isfinite(scores))

    def test_baseline_scorer_delegates(self):
        planes = self.planes()
        energy_scores = BaselineScorer("energy", window_cols=4)(planes)
        assert np.array_equal(energy_scores, energy_detector(planes, window_cols=4))
        fft_scores = BaselineScorer("fft")(planes)
        assert np.array_equal(fft_scores, fft_detector(planes))

    def test_baseline_scorer_estimates_flops_on_first_call(self):
        scorer = BaselineScorer("energy", window_cols=4)
        assert scorer.flops == 0
        scorer(self.planes())
        assert scorer.flops == 4 * SMALL.n_fast * SMALL.m_slow + 2 * SMALL.m_slow

    def test_baseline_scorer_unknown_kind(self):
        with pytest.raises(ConfigError):
            BaselineScorer("matched-filter")


def quick_settings(**overrides):
    base = dict(variant="1D-E", reuse_occupied=2, reuse_empty=2, batch_size=8,
                patience=1, max_epochs=2, learning_rate=1e-3, seed=5)
    base.update(overrides)
    return TrainSettings(**base)


class TestTrainSettings:
    def test_snr_bounds_validated(self):
        with pytest.raises(ConfigError, match="exceeds"):
            TrainSettings(snr_lo=-5.0, snr_hi=-10.0)
        for lo, hi in ((np.nan, 0.0), (-30.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)):
            with pytest.raises(ConfigError, match="finite"):
                TrainSettings(snr_lo=lo, snr_hi=hi)
        assert TrainSettings(snr_lo=-15.0, snr_hi=-15.0).snr_hi == -15.0


class TestEpochBatches:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_each_plan_position_gets_the_same_bytes_at_any_batch_size(self, dim):
        records = small_records({"breathing": 12, "empty": 12}, seed=3)
        split = make_split(memory_manifest(records), test_per_class=0, empty_test=0)
        samples = residual_samples(records)
        ref = reference_from_training([samples[i] for i in split.positions[Split.TRAIN]])
        plan = build_epoch_plan(split, seed=4, reuse_occupied=6, reuse_empty=6)
        assert len(plan) == 78  # 64 + 14 at B=64; 11 * 7 + 1 at B=7, whose last is dropped

        def per_position(batch_size):
            settings = quick_settings(batch_size=batch_size, exact_snr_scaling=True)
            batches = list(_epoch_batches(plan, samples, ref, settings, dim, epoch=2))
            assert all(inputs.dtype == np.float32 for inputs, _ in batches)
            return (np.concatenate([inputs for inputs, _ in batches]),
                    np.concatenate([labels for _, labels in batches]))

        inputs64, labels64 = per_position(64)
        inputs7, labels7 = per_position(7)
        assert inputs7.shape[1:] == ((2 * SMALL.n_fast, SMALL.m_slow) if dim == 1
                                     else (2, SMALL.n_fast, SMALL.m_slow))
        assert len(inputs64) == 78 and len(inputs7) == 77
        assert inputs7.tobytes() == inputs64[:77].tobytes()
        assert np.array_equal(labels64, [1.0 if samples[i].label.occupied else 0.0
                                         for i in plan])
        assert np.array_equal(labels7, labels64[:77])


def data_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("uwbocc-data")]


class TestOneAhead:
    def test_yields_the_plain_items_in_order(self):
        records = small_records({"breathing": 12, "empty": 12}, seed=3)
        split = make_split(memory_manifest(records), test_per_class=0, empty_test=0)
        samples = residual_samples(records)
        ref = reference_from_training([samples[i] for i in split.positions[Split.TRAIN]])
        plan = build_epoch_plan(split, seed=4, reuse_occupied=6, reuse_empty=6)
        settings = quick_settings(batch_size=7)
        plain = list(_epoch_batches(plan, samples, ref, settings, 1, epoch=2))
        with ThreadPoolExecutor(1) as executor:
            ahead = list(_one_ahead(_epoch_batches(plan, samples, ref, settings, 1, epoch=2),
                                    executor))
        assert len(ahead) == len(plain) == 11
        for (inputs, labels), (want_inputs, want_labels) in zip(ahead, plain):
            assert inputs.tobytes() == want_inputs.tobytes()
            assert np.array_equal(labels, want_labels)

    def test_keeps_one_item_in_flight_on_the_executor(self):
        made = []

        def items():
            for k in range(4):
                made.append((k, threading.current_thread().name))
                yield k

        with ThreadPoolExecutor(1, thread_name_prefix="drawer") as executor:
            ahead = _one_ahead(items(), executor)
            assert next(ahead) == 0
            executor.submit(lambda: None).result(timeout=10)  # the draw in flight is done
            assert [k for k, _ in made] == [0, 1]
            assert list(ahead) == [1, 2, 3]
        assert all(name.startswith("drawer") for _, name in made)

    def test_an_error_on_the_executor_is_raised_in_place_of_its_item(self):
        def items():
            yield 0
            raise DataError("poisoned batch")

        with ThreadPoolExecutor(1) as executor:
            ahead = _one_ahead(items(), executor)
            assert next(ahead) == 0
            with pytest.raises(DataError, match="poisoned batch"):
                next(ahead)


class TestRunTraining:
    def fixture(self, seed=7):
        records = small_records({"breathing": 12, "empty": 12}, seed=seed)
        split = make_split(memory_manifest(records), test_per_class=0, empty_test=0)
        return residual_samples(records), split

    def test_smoke(self):
        samples, split = self.fixture()
        net, history, ref = run_training(samples, split, quick_settings())
        assert net.variant.name == "1D-E"
        assert 1 <= len(history.val_auc) <= 2
        assert len(history.train_loss) == len(history.val_auc)
        assert ref.e_s > 0
        assert history.best_epoch >= 0  # epochs are 0-indexed
        assert 0.0 <= history.best_val_auc <= 1.0
        assert data_threads() == []  # the batch-drawing thread ends with the call

    def test_same_seed_reproduces_weights_and_history(self):
        samples, split = self.fixture()
        net1, hist1, _ = run_training(samples, split, quick_settings())
        net2, hist2, _ = run_training(samples, split, quick_settings())
        assert hist1.train_loss == hist2.train_loss
        assert hist1.val_auc == hist2.val_auc
        for (_, a), (_, b) in zip(net1.named_state(), net2.named_state()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_early_stopped_network_scores_its_best_validation_auc(self, seed):
        samples, split = self.fixture()
        settings = quick_settings(max_epochs=6, seed=seed)
        net, history, ref = run_training(samples, split, settings)
        assert history.stopped_early and history.best_epoch < len(history.val_auc) - 1
        val_samples = [samples[i] for i in split.positions[Split.VALIDATION]]
        score = _validation_scorer(val_samples, ref, settings)
        # BatchNorm running statistics are restored with the parameters.
        assert score(net) == history.best_val_auc

    def test_reloaded_checkpoint_scores_like_the_trained_network(self, tmp_path):
        # Checkpoints store float32.  Over seeds 0-7 of this setup the reloaded
        # logits moved by at most 1.6e-7 (|logit| up to 1.2), so 1e-6 bounds
        # float32 rounding with margin while any real loss of state exceeds it.
        samples, split = self.fixture(seed=5)
        net, _, ref = run_training(samples, split,
                                   quick_settings(max_epochs=3, patience=3))
        path = tmp_path / "trained.ckpt"
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
        inputs = corrupt_batch([s.residual for s in samples], ref, [-10.0] * len(samples),
                               [np.random.default_rng((5, k)) for k in range(len(samples))])
        np.testing.assert_allclose(NetworkScorer(loaded)(inputs), NetworkScorer(net)(inputs),
                                   rtol=0, atol=1e-6)

    def test_different_seed_differs(self):
        samples, split = self.fixture()
        _, hist1, _ = run_training(samples, split, quick_settings(seed=5))
        _, hist2, _ = run_training(samples, split, quick_settings(seed=6))
        assert hist1.train_loss != hist2.train_loss

    def test_unknown_variant(self):
        samples, split = self.fixture()
        with pytest.raises(ConfigError, match="unknown variant"):
            run_training(samples, split, quick_settings(variant="9D-Z"))

    def test_no_breathing_anchor_fails(self):
        records = small_records({"talking": 12, "empty": 12}, seed=8)
        split = make_split(memory_manifest(records), test_per_class=0, empty_test=0)
        with pytest.raises(DataError, match="breathing"):
            run_training(residual_samples(records), split, quick_settings())

    @pytest.mark.parametrize("error", [DataError, DivergenceError])
    def test_an_error_drawing_a_batch_reaches_the_caller(self, monkeypatch, error):
        samples, split = self.fixture()
        calls = []

        def poisoned(*args, **kwargs):
            calls.append(threading.current_thread().name)
            if len(calls) == 3:  # the second training batch; the first call is validation
                raise error("poisoned batch")
            return corrupt_batch(*args, **kwargs)

        monkeypatch.setattr(pipeline, "corrupt_batch", poisoned)
        with pytest.raises(error, match="poisoned batch"):
            run_training(samples, split, quick_settings())
        assert calls[0] == threading.current_thread().name
        assert all(name.startswith("uwbocc-data") for name in calls[1:])
        assert data_threads() == []

    def test_sample_count_mismatch(self):
        samples, split = self.fixture()
        with pytest.raises(DataError, match="24 records but 23 samples"):
            run_training(samples[:-1], split, quick_settings())
