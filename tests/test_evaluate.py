"""AUC computation, SNR sweeps, ablation assembly, report serialization."""

import json
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbocc import evaluate
from uwbocc.augment import SnrReference
from uwbocc.baselines import energy_detector
from uwbocc.core import ActivityLabel
from uwbocc.errors import ConfigError, DataError
from uwbocc.evaluate import (
    ACTIVITY_SNR_ANCHORS,
    DEFAULT_EVAL_GRID,
    EvalReport,
    EvalRow,
    ablation,
    emit_report,
    plot_series,
    read_report,
    roc_auc,
    snr_sweep,
    _test_groups,
)


def pairwise_auc(scores, labels):
    """O(n^2) counting oracle: wins + half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def looped_auc(scores, labels):
    """Average ranks from a Python loop over tie groups: the reference roc_auc must equal."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average 1-based rank
        i = j + 1
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestRocAuc:
    @pytest.mark.parametrize("n", [2, 3, 17, 1000, 20_000])
    def test_equals_the_tie_loop_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for levels in (1, 2, 7, max(n // 3, 1), 10 * n):
            scores = rng.integers(0, levels, n) * 0.37 - 1.0
            labels = rng.integers(0, 2, n)
            labels[:2] = (1, 0)
            assert roc_auc(scores, labels) == looped_auc(scores, labels), levels

    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_perfectly_wrong(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_hand_worked_example(self):
        # pairs: (3,1) win, (3,2) win, (1,1) tie, (1,2) loss -> 2.5/4
        assert roc_auc([3.0, 1.0, 1.0, 2.0], [1, 1, 0, 0]) == pytest.approx(0.625)

    def test_matches_pairwise_oracle_with_ties(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(2, 60))
            # coarse quantization forces frequent ties
            scores = np.round(rng.standard_normal(n), 1)
            labels = np.zeros(n, dtype=int)
            n_pos = int(rng.integers(1, n))
            labels[rng.permutation(n)[:n_pos]] = 1
            assert roc_auc(scores, labels) == pytest.approx(
                pairwise_auc(scores, labels), abs=1e-12), f"trial {trial}"

    # Few distinct values, both signed zeros among them, so most pairs tie.
    @given(st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 1e-300, 0.5, 3.0, -7.25, 1e300]),
                              st.sampled_from([0, 1])), min_size=2, max_size=80)
           .filter(lambda pairs: len({label for _, label in pairs}) == 2))
    def test_equals_pairwise_oracle_under_heavy_ties(self, pairs):
        scores, labels = zip(*pairs)
        assert roc_auc(scores, labels) == pairwise_auc(scores, labels)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.standard_normal(80)
        labels = (rng.uniform(size=80) > 0.6).astype(int)
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(3 * scores - 7, labels) == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc([0.1, 0.2], [1, 1])
        with pytest.raises(DataError):
            roc_auc([0.1, 0.2], [0, 0])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            roc_auc([0.1, 0.2, 0.3], [1, 0])

    def test_non_finite_scores_rejected(self):
        with pytest.raises(DataError):
            roc_auc([0.1, np.nan], [1, 0])

    def test_null_distribution_width(self):
        rng = np.random.default_rng(2)
        n_pos, n_neg = 60, 140
        labels = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
        sigma = np.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg))  # no-skill null, no ties
        aucs = [roc_auc(rng.standard_normal(n_pos + n_neg), labels) for _ in range(200)]
        assert abs(np.mean(aucs) - 0.5) < 4 * sigma / np.sqrt(200)
        assert np.std(aucs) == pytest.approx(sigma, rel=0.25)


class TestReportTypes:
    def test_row_validation(self):
        with pytest.raises(DataError):
            EvalRow("net", "breathing", -20.0, 1.2, 0, 10, 10)
        with pytest.raises(DataError):
            EvalRow("net", "breathing", -20.0, 0.9, 0, 0, 10)

    def test_config_hash_tracks_content(self):
        row = EvalRow("net", "breathing", -20.0, 0.9, 100, 10, 10)
        a = EvalReport((row,), 0, {"grid": [-20.0]})
        b = EvalReport((row,), 0, {"grid": [-20.0]})
        c = EvalReport((row,), 0, {"grid": [-25.0]})
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash


@dataclass
class FakeSample:
    label: ActivityLabel
    residual: np.ndarray


class SpikeScorer:
    """Scores concentration of energy in one slow-time column."""

    name = "spike"
    flops = 1234

    def __call__(self, planes):
        return energy_detector(planes, window_cols=1)


def sweep_samples(n_pos=6, n_neg=6, n=16, m=24):
    rng = np.random.default_rng(7)
    samples = []
    for _ in range(n_pos):
        data = np.zeros((n, m), dtype=complex)
        data[int(rng.integers(n)), int(rng.integers(m))] = 10.0  # one hot column
        samples.append(FakeSample(ActivityLabel.BREATHING, data))
    for _ in range(n_neg):
        data = np.zeros((n, m), dtype=complex)
        samples.append(FakeSample(ActivityLabel.EMPTY, data))
    return samples


class TestSnrSweep:
    def test_concentration_oracle_wins_at_mild_snr(self):
        report = snr_sweep(SpikeScorer(), sweep_samples(), SnrReference(100.0),
                           grid=[0.0], seed=0)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.auc == 1.0
        assert row.activity == "breathing"
        assert row.n_pos == 6 and row.n_neg == 6
        assert row.name == "spike" and row.flops == 1234

    def test_auc_degrades_toward_chance_at_deep_snr(self):
        report = snr_sweep(SpikeScorer(), sweep_samples(), SnrReference(100.0),
                           grid=[0.0, -40.0], seed=0)
        by_snr = {row.snr_db: row.auc for row in report.rows}
        assert by_snr[0.0] > by_snr[-40.0]
        assert by_snr[-40.0] < 0.9

    def test_needs_negatives(self):
        samples = [s for s in sweep_samples() if s.label is not ActivityLabel.EMPTY]
        with pytest.raises(DataError, match="negative"):
            snr_sweep(SpikeScorer(), samples, SnrReference(100.0), grid=[0.0])

    def test_needs_positives(self):
        samples = [s for s in sweep_samples() if s.label is ActivityLabel.EMPTY]
        with pytest.raises(DataError, match="occupied"):
            snr_sweep(SpikeScorer(), samples, SnrReference(100.0), grid=[0.0])

    def test_synthetic_negatives_fill_in(self):
        samples = [s for s in sweep_samples() if s.label is not ActivityLabel.EMPTY]
        report = snr_sweep(SpikeScorer(), samples, SnrReference(100.0),
                           grid=[0.0], synthetic_negatives=8)
        assert report.rows[0].n_neg == 8
        assert report.config["synthetic_negatives"] == 8

    def test_synthetic_negatives_share_one_read_only_zero_residual(self):
        samples = sweep_samples(n_neg=2)
        _, negatives = _test_groups(samples, 5)
        assert all(a is b.residual for a, b in zip(negatives, samples[-2:]))
        zero = negatives[2].base
        assert len(negatives) == 7 and all(z.base is zero for z in negatives[2:])
        assert len({id(z) for z in negatives}) == 7  # each negative is drawn as its own sample
        assert not zero.flags.writeable and not negatives[2].flags.writeable and not zero.any()
        assert zero.shape == samples[0].residual.shape and zero.dtype == samples[0].residual.dtype

    def test_synthetic_negatives_capped_by_grid_point_bytes(self, monkeypatch):
        samples = sweep_samples()  # 12 samples; a plane takes a residual's bytes
        nbytes = samples[0].residual.nbytes
        monkeypatch.setattr(evaluate, "MAX_GRID_POINT_BYTES", (12 + 4) * nbytes)
        report = snr_sweep(SpikeScorer(), samples, SnrReference(100.0), grid=[0.0],
                           synthetic_negatives=4)
        assert report.rows[0].n_neg == 6 + 4
        with pytest.raises(ConfigError, match=f"synthetic_negatives 5 makes each grid point "
                                              f"17 planes of {nbytes} bytes, over the cap"):
            snr_sweep(SpikeScorer(), samples, SnrReference(100.0), grid=[0.0],
                      synthetic_negatives=5)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            snr_sweep(SpikeScorer(), sweep_samples(), SnrReference(100.0), grid=[])

    def test_non_finite_grid_rejected(self):
        for grid in ([np.nan], [-10.0, np.inf], [-np.inf]):
            with pytest.raises(ConfigError, match="finite"):
                snr_sweep(SpikeScorer(), sweep_samples(), SnrReference(100.0), grid=grid)

    def test_repeated_grid_snr_rejected(self):
        # Two draws of one SNR would write two rows that disagree.
        for grid, value in (([-10.0, -10.0], "-10.0"), ([-5.0, -20.0, -5.0, -20.0], "-20.0"),
                            ([0.0, -0.0], "0.0")):
            with pytest.raises(ConfigError, match=f"grid SNR {value} dB given more than once"):
                snr_sweep(SpikeScorer(), sweep_samples(), SnrReference(100.0), grid=grid)

    def test_deterministic_across_runs_and_threads(self):
        kwargs = dict(grid=[-5.0, -15.0], seed=3)
        ref = SnrReference(100.0)
        a = snr_sweep(SpikeScorer(), sweep_samples(), ref, threads=1, **kwargs)
        b = snr_sweep(SpikeScorer(), sweep_samples(), ref, threads=1, **kwargs)
        c = snr_sweep(SpikeScorer(), sweep_samples(), ref, threads=4, **kwargs)
        assert a.rows == b.rows == c.rows

    def test_seed_changes_results(self):
        ref = SnrReference(100.0)
        a = snr_sweep(SpikeScorer(), sweep_samples(), ref, grid=[-25.0], seed=0)
        b = snr_sweep(SpikeScorer(), sweep_samples(), ref, grid=[-25.0], seed=1)
        assert a.rows != b.rows

    def test_default_grid_shape(self):
        assert len(DEFAULT_EVAL_GRID) == 31
        assert DEFAULT_EVAL_GRID[0] == -10.0 and DEFAULT_EVAL_GRID[-1] == -40.0


class CountingScorer(SpikeScorer):
    """SpikeScorer that records the size of every batch it is called on."""

    def __init__(self):
        self.batches = []

    def __call__(self, batch):
        self.batches.append(len(batch))
        return super().__call__(batch)


class TestDrawsPerGridPoint:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n_empty,synthetic", [(5, 0), (5, 2), (0, 4)])
    def test_negatives_drawn_once_per_grid_snr(self, monkeypatch, threads, n_empty, synthetic):
        import uwbocc.augment as augment

        drawn, calls = [], []
        add_noise = augment.add_noise

        def counted(residuals, *args, **kwargs):
            calls.append(len(residuals))
            drawn.extend(id(residual) for residual in residuals)
            return add_noise(residuals, *args, **kwargs)

        monkeypatch.setattr(augment, "add_noise", counted)
        samples = [s for s in three_activity_samples()
                   if s.label in (ActivityLabel.BREATHING, ActivityLabel.TALKING)]
        samples += [FakeSample(ActivityLabel.EMPTY, np.zeros((12, 20), dtype=complex))
                    for _ in range(n_empty)]
        grid = [-5.0, -10.0, -15.0]
        scorer = CountingScorer()
        report = snr_sweep(scorer, samples, SnrReference(100.0), grid=grid, seed=2,
                           synthetic_negatives=synthetic, threads=threads)

        n_pos, n_neg = 3 + 3, n_empty + synthetic
        assert len(report.rows) == 2 * len(grid)
        assert {(r.n_pos, r.n_neg) for r in report.rows} == {(3, n_neg)}
        assert len(drawn) == len(grid) * (n_pos + n_neg)
        # One noise call per grid SNR draws the whole grid point.
        assert calls == [n_pos + n_neg] * len(grid)
        # Every sample, the synthetic negatives included, is drawn once per grid SNR.
        assert len(set(drawn)) == n_pos + n_neg
        assert all(drawn.count(key) == len(grid) for key in set(drawn))
        assert scorer.batches == [n_pos + n_neg] * len(grid)


def named_scorer(name, flops):
    scorer = SpikeScorer()
    scorer.name = name
    scorer.flops = flops
    return scorer


def three_activity_samples():
    rng = np.random.default_rng(8)
    samples = []
    for label in (ActivityLabel.BREATHING, ActivityLabel.TALKING, ActivityLabel.MOVING):
        for _ in range(3):
            data = np.zeros((12, 20), dtype=complex)
            data[int(rng.integers(12)), int(rng.integers(20))] = 5.0
            samples.append(FakeSample(label, data))
    for _ in range(3):
        samples.append(FakeSample(ActivityLabel.EMPTY, np.zeros((12, 20), dtype=complex)))
    return samples


def three_scorers():
    from uwbocc.pipeline import BaselineScorer

    return {"spike": named_scorer("spike-scorer", 7), "fft": BaselineScorer("fft"),
            "energy": BaselineScorer("energy", window_cols=4)}


def anchor_rows_of_sweeps(samples, ref, anchors, **kwargs):
    """Per fresh scorer, its sweep over the sorted anchor SNRs, kept at each anchor.

    This is the ablation as it was first written; rows are renamed to the
    scorer's key and come in sorted key order.
    """
    used = dict(anchors) if anchors is not None else dict(ACTIVITY_SNR_ANCHORS)
    sub_grid = sorted({float(v) for v in used.values()})
    wanted = {(lab.value, float(snr)) for lab, snr in used.items()}
    expected = []
    for name, scorer in sorted(three_scorers().items()):
        sweep = snr_sweep(scorer, samples, ref, grid=sub_grid, **kwargs)
        expected += [replace(row, name=name) for row in sweep.rows
                     if (row.activity, row.snr_db) in wanted]
    return tuple(expected)


class TestAblation:
    def test_missing_variants_listed(self, tmp_path, capsys):
        """ablation scores a partial set; `uwbocc ablate` is what lists the missing variants."""
        from uwbocc.cli import main
        from uwbocc.nn import build_network, save_checkpoint

        scorers = {"1D-E": named_scorer("1D-E", 10)}
        report = ablation(scorers, three_activity_samples(), SnrReference(100.0))
        assert {row.name for row in report.rows} == {"1D-E"}

        data, models = tmp_path / "data", tmp_path / "models"
        assert main(["simulate", "--count", "breathing=6", "--count", "empty=6",
                     "--n-fast", "16", "--m-slow", "24", "--seed", "3", "--out", str(data)]) == 0
        models.mkdir()
        save_checkpoint(build_network("1D-E", (32, 24), seed=0), models / "1D-E.ckpt")
        assert main(["ablate", "--data", str(data), "--models", str(models),
                     "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert "missing trained checkpoints for: 1D-A, 1D-B, 1D-C, 1D-D, 2D-A" in err

    def test_full_grid_of_rows(self):
        from uwbocc.nn import VARIANTS

        scorers = {name: named_scorer(name, i + 1) for i, name in enumerate(VARIANTS)}
        report = ablation(scorers, three_activity_samples(), SnrReference(100.0), seed=0)
        assert len(report.rows) == 30  # ten detectors, three anchored activities
        assert {r.name for r in report.rows} == set(VARIANTS)
        for row in report.rows:
            anchor = ACTIVITY_SNR_ANCHORS[ActivityLabel(row.activity)]
            assert row.snr_db == anchor

    def test_partial_set_allowed_when_not_required(self):
        scorers = {"custom-a": named_scorer("custom-a", 10),
                   "custom-b": named_scorer("custom-b", 20)}
        report = ablation(scorers, three_activity_samples(), SnrReference(100.0))
        assert len(report.rows) == 6
        assert report.config["detectors"] == {"custom-a": 10, "custom-b": 20}

    def test_lazy_baseline_flops_reach_the_rows(self):
        from uwbocc.pipeline import BaselineScorer

        scorers = {kind: BaselineScorer(kind, window_cols=4) for kind in BaselineScorer.KINDS}
        report = ablation(scorers, three_activity_samples(), SnrReference(100.0))
        assert all(report.config["detectors"].values())
        for row in report.rows:
            assert row.flops == report.config["detectors"][row.name]
        sweep = snr_sweep(BaselineScorer("fft"), three_activity_samples(), SnrReference(100.0),
                          grid=[-10.0])
        assert {row.flops for row in sweep.rows} == {report.config["detectors"]["fft"]}

    def test_non_finite_anchor_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            ablation({"x": named_scorer("x", 10)}, three_activity_samples(), SnrReference(100.0),
                     anchors={ActivityLabel.BREATHING: np.nan})

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", ["default", "subset"])
    def test_rows_equal_anchor_rows_of_per_scorer_sweeps(self, threads, case):
        samples = three_activity_samples()
        anchors = None
        if case == "subset":
            # talking is anchored but absent, breathing present but not
            # anchored (moving keeps act_idx 1), and empty adds an SNR to the grid
            samples = [s for s in samples if s.label is not ActivityLabel.TALKING]
            anchors = {ActivityLabel.MOVING: -10.0, ActivityLabel.EMPTY: -12.0,
                       ActivityLabel.TALKING: -10.0}
        ref = SnrReference(100.0)
        for exact in (False, True):
            report = ablation(three_scorers(), samples, ref, anchors=anchors, seed=4,
                              exact_scaling=exact, threads=threads)
            assert report.rows == anchor_rows_of_sweeps(samples, ref, anchors, seed=4,
                                                        exact_scaling=exact, threads=threads)
            assert len(report.rows) == 3 * (3 if case == "default" else 1)

    @pytest.mark.parametrize("threads", [1, 2])
    @settings(max_examples=15, deadline=None)
    @given(present=st.sets(st.sampled_from([ActivityLabel.BREATHING, ActivityLabel.TALKING,
                                            ActivityLabel.MOVING]), min_size=1),
           anchors=st.dictionaries(st.sampled_from(list(ActivityLabel)),
                                   st.sampled_from([0, -10, -10.0, "-12.5", -12.5, -20, -20.0]),
                                   min_size=1),
           exact=st.booleans(), seed=st.integers(0, 2**32))
    def test_rows_equal_anchor_rows_of_sweeps_for_any_anchor_map(self, threads, present,
                                                                 anchors, exact, seed):
        # Anchors may name empty or absent activities, share one SNR, or be ints
        # or numeric strings.
        samples = [s for s in three_activity_samples()
                   if s.label in present or s.label is ActivityLabel.EMPTY]
        ref = SnrReference(100.0)
        report = ablation(three_scorers(), samples, ref, anchors=anchors, seed=seed,
                          exact_scaling=exact, threads=threads)
        assert report.rows == anchor_rows_of_sweeps(samples, ref, anchors, seed=seed,
                                                    exact_scaling=exact, threads=threads)
        assert len(report.rows) == 3 * len(present & set(anchors))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_draw_and_one_call_per_scorer_per_anchor_snr(self, monkeypatch, threads):
        import uwbocc.augment as augment

        draws = []
        add_noise = augment.add_noise

        def counted(residuals, *args, **kwargs):
            draws.append(sorted(id(residual) for residual in residuals))
            return add_noise(residuals, *args, **kwargs)

        monkeypatch.setattr(augment, "add_noise", counted)
        samples = three_activity_samples()
        # Empty's anchor adds a grid SNR where no occupied activity is scored.
        anchors = {ActivityLabel.BREATHING: -10.0, ActivityLabel.TALKING: -20.0,
                   ActivityLabel.MOVING: -10, ActivityLabel.EMPTY: -30.0}
        scorers = {name: CountingScorer() for name in ("a", "b", "c")}
        report = ablation(scorers, samples, SnrReference(100.0), anchors=anchors, threads=threads)

        def ids(*labels):
            return sorted(id(s.residual) for s in samples
                          if s.label in labels or s.label is ActivityLabel.EMPTY)

        # -20 dB draws talking and the negatives; -10 dB breathing, moving and the negatives.
        assert sorted(draws) == sorted([ids(ActivityLabel.TALKING),
                                        ids(ActivityLabel.BREATHING, ActivityLabel.MOVING)])
        for scorer in scorers.values():
            assert sorted(scorer.batches) == [3 + 3, 3 + 3 + 3]
        assert [(r.name, r.activity, r.snr_db) for r in report.rows] == [
            (name, activity, snr) for name in ("a", "b", "c")
            for activity, snr in (("breathing", -10.0), ("talking", -20.0), ("moving", -10.0))]

    def test_custom_anchor_subset(self):
        scorers = {"x": named_scorer("x", 10)}
        anchors = {ActivityLabel.BREATHING: -18.0}
        report = ablation(scorers, three_activity_samples(), SnrReference(100.0), anchors=anchors)
        assert len(report.rows) == 1
        assert report.rows[0].snr_db == -18.0


finite = st.floats(allow_nan=False, allow_infinity=False)
ROWS = st.builds(EvalRow, name=st.text(max_size=8), activity=st.text(max_size=8), snr_db=finite,
                 auc=st.floats(0.0, 1.0), flops=st.integers(0, 2**64), n_pos=st.integers(1, 10**9),
                 n_neg=st.integers(1, 10**9))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)


class TestReportIo:
    def make_report(self):
        rows = (
            EvalRow("net", "breathing", -10.0, 0.97, 2038000, 50, 50),
            EvalRow("net", "breathing", -20.0, 0.81, 2038000, 50, 50),
            EvalRow("energy", "breathing", -10.0, 0.66, 9000, 50, 50),
        )
        return EvalReport(rows, 7, {"kind": "snr_sweep", "grid": [-10.0, -20.0]})

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(self.make_report(), "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,activity,snr_db,auc,flops,n_pos,n_neg,seed"
        assert lines[1] == "net,breathing,-10.0,0.97,2038000,50,50,7"
        assert len(lines) == 4

    def test_csv_bytes_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(self.make_report(), "csv", p1)
        emit_report(self.make_report(), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        report = self.make_report()
        emit_report(report, "json", path)
        loaded = read_report(path)
        assert loaded.rows == report.rows
        assert loaded.seed == report.seed
        assert loaded.config == report.config
        assert json.loads(path.read_text())["config_hash"] == report.config_hash

    def test_json_bytes_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(self.make_report(), "json", p1)
        emit_report(self.make_report(), "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_errors(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_report(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError, match="not valid JSON"):
            read_report(bad)
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"rows": [{"name": "x"}], "seed": 0, "config": {}}')
        with pytest.raises(DataError, match="malformed"):
            read_report(malformed)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(ROWS, max_size=4), seed=st.integers(-2**63, 2**63),
           config=st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4))
    def test_json_round_trip_of_generated_reports(self, rows, seed, config):
        report = EvalReport(rows, seed, config)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            emit_report(report, "json", path)
            assert read_report(path) == report

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_replaced_byte_loads_or_raises_data_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "report.json"
            emit_report(self.make_report(), "json", path)
            blob = path.read_bytes()
            at = data.draw(st.integers(0, len(blob) - 1))
            path.write_bytes(blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:])
            try:
                read_report(path)
            except DataError:
                pass

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="csv"):
            emit_report(self.make_report(), "xml", tmp_path / "report.xml")

    def test_plot_series_sorted_by_x(self):
        series = plot_series(self.make_report())
        assert set(series) == {"net/breathing", "energy/breathing"}
        assert series["net/breathing"]["x"] == [-20.0, -10.0]
        assert series["net/breathing"]["y"] == [0.81, 0.97]

    def test_plot_series_flops_axis(self):
        series = plot_series(self.make_report(), x_field="flops")
        assert series["net/breathing"]["x"] == [2038000, 2038000]
        with pytest.raises(ConfigError):
            plot_series(self.make_report(), x_field="auc")
