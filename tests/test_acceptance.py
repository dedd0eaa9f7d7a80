"""Acceptance gate: one test per shipped criterion, tolerances pinned.

Each test prints a single `criterion N (<name>): PASS` line (visible with
`pytest -s` or in verbose test names) and enforces its stated tolerance and
runtime budget.  Criterion 7 needs the recorded cabin dataset; point
UWBOCC_RECORDED_DATA at its manifest to enable it, otherwise it is waived
by design and criteria 1-6 constitute acceptance.
"""

import os
import time

import numpy as np
import pytest

from uwbocc.augment import SnrReference, add_noise
from uwbocc.baselines import energy_detector
from uwbocc.cli import main as cli_main
from uwbocc.core import ActivityLabel, frobenius_energy, mean_remove
from uwbocc.dataset import Split, make_split, memory_manifest, read_dataset
from uwbocc.errors import DataError
from uwbocc.evaluate import snr_sweep, roc_auc
from uwbocc.nn import (
    VARIANTS,
    BatchNorm,
    Conv1d,
    Conv2d,
    Dense,
    GlobalAvgPool,
    ReLU,
    build_network,
    channel_plan,
    flop_count,
    param_count,
)
from uwbocc.nn.model import ResidualBlock
from uwbocc.pipeline import (
    BaselineScorer,
    NetworkScorer,
    TrainSettings,
    residual_samples,
    run_training,
)
from uwbocc.simulate import (
    MotionModel,
    PathComponent,
    RadarConfig,
    Scene,
    simulate_received,
    synth_dataset,
)

from gradcheck import check_layer_gradients, check_network_gradient

PUBLISHED_COMPLEXITY = {
    "1D-A": (1.5e6, 3.0e8), "1D-B": (1.0e5, 2.0e7), "1D-C": (6.8e4, 1.3e7),
    "1D-D": (3.5e4, 6.9e6), "1D-E": (1.0e4, 2.1e6), "2D-A": (2.7e5, 4.0e9),
    "2D-B": (1.7e5, 2.6e9), "2D-C": (4.4e4, 6.5e8), "2D-D": (1.1e4, 1.6e8),
    "2D-E": (2.9e3, 4.1e7),
}
PUBLISHED_FLOP_ORDER = ["1D-E", "1D-D", "1D-C", "1D-B", "2D-E",
                        "2D-D", "1D-A", "2D-C", "2D-B", "2D-A"]


def test_criterion_1_gradient_correctness():
    """Every layer type and every variant passes central-difference checks."""
    start = time.monotonic()
    tol = 1e-5
    rng = np.random.default_rng(0)

    layer_cases = [
        ("Conv1d", Conv1d(3, 4, 3, rng=1), rng.standard_normal((2, 3, 6))),
        ("Conv2d", Conv2d(2, 3, 3, rng=1), rng.standard_normal((2, 2, 4, 5))),
        ("BatchNorm", BatchNorm(3), 2.0 * rng.standard_normal((4, 3, 5)) + 1.0),
        ("ReLU", ReLU(), rng.standard_normal((3, 2, 7)) + 0.2),
        ("GlobalAvgPool", GlobalAvgPool(), rng.standard_normal((3, 4, 6))),
        ("Dense", Dense(5, 2, rng=1), rng.standard_normal((4, 5))),
        ("ResidualBlock", ResidualBlock(dim=1, c_in=3, c_out=3, kernel=3, rng=1),
         rng.standard_normal((3, 3, 5))),
        ("ResidualBlock+projection",
         ResidualBlock(dim=1, c_in=2, c_out=4, kernel=3, rng=1),
         rng.standard_normal((3, 2, 5))),
    ]
    for name, layer, x in layer_cases:
        err = check_layer_gradients(layer, x, rng=2)
        assert err < tol, f"{name}: max relative error {err:.3e} >= {tol}"

    labels = np.array([1.0, 0.0, 1.0])
    for name, variant in VARIANTS.items():
        if variant.dimensionality == 1:
            shape, batch = (8, 12), rng.standard_normal((3, 8, 12))
        else:
            shape, batch = (2, 6, 8), rng.standard_normal((3, 2, 6, 8))
        net = build_network(variant, shape, seed=3)
        err = check_network_gradient(net, batch, labels, n_directions=2, rng=4)
        assert err < tol, f"{name}: max relative error {err:.3e} >= {tol}"

    elapsed = time.monotonic() - start
    assert elapsed < 120, f"gradient checks took {elapsed:.1f} s (budget 120 s)"
    print(f"criterion 1 (gradient correctness): PASS "
          f"({len(layer_cases)} layer types, {len(VARIANTS)} variants, {elapsed:.1f} s)")


def test_criterion_2_auc_oracle_equivalence():
    """roc_auc equals O(n^2) pairwise counting to 1e-12 on 1,000 instances."""
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        scores = rng.standard_normal(n)
        if trial % 2 == 0:
            scores = np.round(scores, 1)  # quantize to force ties
        labels = np.zeros(n, dtype=int)
        labels[rng.permutation(n)[:int(rng.integers(1, n))]] = 1

        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        oracle = float((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.size * neg.size)

        diff = abs(roc_auc(scores, labels) - oracle)
        worst = max(worst, diff)
        assert diff <= 1e-12, f"trial {trial}: |fast - oracle| = {diff:.3e}"

    elapsed = time.monotonic() - start
    assert elapsed < 60, f"oracle comparison took {elapsed:.1f} s (budget 60 s)"
    print(f"criterion 2 (AUC oracle equivalence): PASS "
          f"(1000 instances, worst |diff| {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_3_snr_calibration():
    """Mean noise energy within 2% of the -20 dB target; exact mode to 1e-12."""
    ref = SnrReference(1.0)
    zero = np.zeros((64, 100), dtype=complex)
    target = 100.0  # e_s * 10^(20/10)

    # Calibration draws in float32, the working precision of every draw in the
    # package; float64 calibration is TestAddNoise's, on the first 2000 seeds.
    zero32 = zero.astype(np.complex64)
    energies = np.empty(10_000)
    for i in range(energies.size):
        noisy = add_noise([zero32], ref, [-20.0], [np.random.default_rng((7, i))])
        energies[i] = frobenius_energy(noisy)
    mean = float(energies.mean())
    assert abs(mean / target - 1.0) <= 0.02, f"mean noise energy {mean:.3f} vs {target}"

    worst = 0.0
    for i in range(200):
        noisy = add_noise([zero], ref, [-20.0], [np.random.default_rng((8, i))], exact=True)
        worst = max(worst, abs(frobenius_energy(noisy) / target - 1.0))
    assert worst <= 1e-12, f"exact-scaling relative error {worst:.3e}"

    print(f"criterion 3 (SNR calibration): PASS "
          f"(mean {mean:.2f} of target {target:.0f}, exact-mode error {worst:.1e})")


def test_criterion_4_signal_model_invariants():
    """Static scenes vanish; paths superpose; amplitude-only motion is rank-1."""
    cfg = RadarConfig()

    static = Scene(clutter_paths=(PathComponent(1.0 + 0.4j, 6e-9),
                                  PathComponent(-0.3 + 0.2j, 14e-9)))
    _, residual = mean_remove(simulate_received(static, cfg, rng=0))
    static_energy = frobenius_energy(residual)
    assert static_energy == 0.0, f"static residual energy {static_energy} != 0"

    p1 = PathComponent(0.8 + 0.1j, 5e-9)
    p2 = PathComponent(-0.5 + 0.7j, 19.5e-9)
    both = simulate_received(Scene(clutter_paths=(p1, p2)), cfg, rng=0).data
    parts = (simulate_received(Scene(clutter_paths=(p1,)), cfg, rng=0).data
             + simulate_received(Scene(clutter_paths=(p2,)), cfg, rng=0).data)
    superposition = float(np.abs(both - parts).max() / np.abs(both).max())
    assert superposition <= 1e-10, f"superposition deviation {superposition:.3e}"

    motion = MotionModel(ActivityLabel.BREATHING, rate=0.25, delay_excursion=0.0,
                         amp_excursion=0.1, jitter=0.0, phase=0.6)
    scene = Scene(target_paths=((PathComponent(1.0, 10e-9), motion),),
                  clutter_paths=(PathComponent(0.5, 4e-9),))
    _, residual = mean_remove(simulate_received(scene, cfg, rng=1))
    singulars = np.linalg.svd(residual, compute_uv=False)
    ratio = float(singulars[1] / singulars[0])
    assert ratio < 0.05, f"amplitude-only residual sigma2/sigma1 = {ratio:.4f}"

    print(f"criterion 4 (signal-model invariants): PASS "
          f"(static 0, superposition {superposition:.1e}, rank ratio {ratio:.1e})")


def test_criterion_5_architecture_conformance():
    """Channel plans match the doubling rule; complexity matches the published
    ordering and lands within one order of magnitude, deviations reported."""
    for name, variant in VARIANTS.items():
        plan = channel_plan(variant)
        closed_form = [variant.initial_filters * 2 ** (b // variant.n_double)
                       for b in range(variant.n_total)]
        assert plan == closed_form, f"{name}: plan {plan} != closed form {closed_form}"

    measured = {}
    deviations = []
    for name, variant in VARIANTS.items():
        shape = (128, 100) if variant.dimensionality == 1 else (2, 64, 100)
        net = build_network(variant, shape, seed=0)
        params, flops = param_count(net), flop_count(net)
        measured[name] = flops
        pub_params, pub_flops = PUBLISHED_COMPLEXITY[name]
        param_ratio, flop_ratio = params / pub_params, flops / pub_flops
        deviations.append(f"{name} params x{param_ratio:.2f} flops x{flop_ratio:.2f}")
        assert 0.1 < param_ratio < 10.0, f"{name}: params {params} vs published {pub_params}"
        assert 0.1 < flop_ratio < 10.0, f"{name}: flops {flops} vs published {pub_flops}"

    our_order = sorted(measured, key=measured.__getitem__)
    assert our_order == PUBLISHED_FLOP_ORDER, (
        f"FLOP ordering {our_order} != published {PUBLISHED_FLOP_ORDER}")

    print("criterion 5 (architecture conformance): PASS "
          f"(ordering exact; {'; '.join(deviations)})")


def test_criterion_6_end_to_end_synthetic():
    """1D-E trained on 400 synthetic samples beats the bar on 200 held out."""
    start = time.monotonic()
    train_records = synth_dataset({"breathing": 200, "empty": 200}, rng=100)
    test_records = synth_dataset({"breathing": 100, "empty": 100}, rng=200)

    split = make_split(memory_manifest(train_records), test_per_class=0, empty_test=0)
    settings = TrainSettings(variant="1D-E", reuse_occupied=6, reuse_empty=9,
                             batch_size=64, patience=8, max_epochs=50,
                             learning_rate=2e-3, seed=3)
    network, history, ref = run_training(residual_samples(train_records), split, settings)

    samples = residual_samples(test_records)
    grid = (-10.0, -20.0, -40.0)
    net_report = snr_sweep(NetworkScorer(network), samples, ref, grid=grid, seed=9)
    net_auc = {row.snr_db: row.auc for row in net_report.rows}
    energy_report = snr_sweep(BaselineScorer("energy"), samples, ref, grid=grid, seed=9)
    energy_auc = {row.snr_db: row.auc for row in energy_report.rows}

    elapsed = time.monotonic() - start
    assert net_auc[-10.0] >= 0.95, f"AUC at -10 dB = {net_auc[-10.0]:.4f} < 0.95"
    assert net_auc[-40.0] <= net_auc[-10.0], (
        f"AUC should not improve with more noise: {net_auc[-40.0]:.4f} at -40 dB "
        f"vs {net_auc[-10.0]:.4f} at -10 dB")
    assert net_auc[-20.0] >= energy_auc[-20.0], (
        f"network {net_auc[-20.0]:.4f} below energy detector {energy_auc[-20.0]:.4f} at -20 dB")
    assert elapsed <= 600, f"end-to-end run took {elapsed:.0f} s (budget 600 s)"

    print(f"criterion 6 (end-to-end synthetic): PASS "
          f"(AUC {net_auc[-10.0]:.4f} at -10 dB, {net_auc[-40.0]:.4f} at -40 dB, "
          f"network {net_auc[-20.0]:.4f} vs energy {energy_auc[-20.0]:.4f} at -20 dB, "
          f"{elapsed:.0f} s, best val AUC {history.best_val_auc:.4f} "
          f"at epoch {history.best_epoch})")


def test_criterion_7_recorded_data_reproduction():
    """Headline operating point on the recorded cabin corpus, when present.

    Needs UWBOCC_RECORDED_DATA pointing at an imported dataset manifest; the
    2D-A variant trained on the standard split must reach breathing AUC
    0.91 +/- 0.05 at -20 dB.  Without the corpus this criterion is waived
    and criteria 1-6 constitute acceptance.
    """
    location = os.environ.get("UWBOCC_RECORDED_DATA")
    if not location:
        pytest.skip("criterion 7 (recorded-data reproduction): WAIVED - no recorded "
                    "dataset (set UWBOCC_RECORDED_DATA to enable); criteria 1-6 "
                    "constitute acceptance")

    manifest_path = location if location.endswith(".json") else os.path.join(
        location, "manifest.json")
    manifest, records = read_dataset(manifest_path)
    samples = residual_samples(records)
    del records
    split = make_split(manifest, test_per_class=150, empty_test=20,
                       car1_validation={"breathing": 144, "talking": 145, "moving": 161})
    network, _, ref = run_training(samples, split, TrainSettings(variant="2D-A"))

    test_samples = [samples[i] for i in split.positions[Split.TEST]]
    report = snr_sweep(NetworkScorer(network), test_samples, ref, grid=(-20.0,), seed=0)
    breathing = [r.auc for r in report.rows if r.activity == "breathing"]
    if not breathing:
        raise DataError("recorded test split has no breathing samples")
    auc = breathing[0]
    assert abs(auc - 0.91) <= 0.05, f"breathing AUC {auc:.4f} not within 0.91 +/- 0.05"
    print(f"criterion 7 (recorded-data reproduction): PASS (breathing AUC {auc:.4f})")


def test_criterion_8_cli_determinism(tmp_path):
    """Re-running every CLI workflow with one seed/config is byte-identical,
    independent of --threads."""

    def run(*argv):
        code = cli_main([str(a) for a in argv])
        assert code == 0, f"command {argv} exited {code}"

    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    sim = ["simulate", "--count", "breathing=6", "--count", "empty=6",
           "--n-fast", "16", "--m-slow", "24", "--seed", "3"]
    datasets = [tmp_path / "data-a", tmp_path / "data-b"]
    for out in datasets:
        run(*sim, "--out", out)
    assert tree(datasets[0]) == tree(datasets[1]), "simulate is not byte-deterministic"

    train = ["train", "--data", datasets[0], "--test-per-class", "0",
             "--empty-test", "0", "--reuse-occupied", "2", "--reuse-empty", "2",
             "--batch-size", "8", "--max-epochs", "2", "--patience", "1",
             "--seed", "5", "--quiet"]
    checkpoints = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for out in checkpoints:
        run(*train, "--out", out)
    assert checkpoints[0].read_bytes() == checkpoints[1].read_bytes(), (
        "train is not byte-deterministic")

    evaluate = ["evaluate", "--data", datasets[0], "--model", checkpoints[0],
                "--eval-grid=-10,-20,-30", "--seed", "2"]
    reports = []
    for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
        json_out = tmp_path / f"report-{tag}.json"
        csv_out = tmp_path / f"report-{tag}.csv"
        run(*evaluate, "--threads", threads, "--out", json_out, "--csv", csv_out)
        reports.append(json_out.read_bytes() + csv_out.read_bytes())
    assert reports[0] == reports[1], "evaluate is not byte-deterministic"
    assert reports[0] == reports[2], "evaluate results depend on --threads"

    models = tmp_path / "models"
    models.mkdir()
    (models / "1D-E.ckpt").write_bytes(checkpoints[0].read_bytes())
    ablate = ["ablate", "--data", datasets[0], "--models", models,
              "--allow-missing", "--include-baselines", "--energy-window", "4",
              "--seed", "2"]
    ablations = [tmp_path / "abl-a.json", tmp_path / "abl-b.json"]
    for out in ablations:
        run(*ablate, "--out", out)
    assert ablations[0].read_bytes() == ablations[1].read_bytes(), (
        "ablate is not byte-deterministic")

    conversions = [tmp_path / "conv-a.csv", tmp_path / "conv-b.csv"]
    for out in conversions:
        run("report", tmp_path / "report-a.json", "--format", "csv", "--out", out)
    assert conversions[0].read_bytes() == conversions[1].read_bytes(), (
        "report conversion is not byte-deterministic")

    print("criterion 8 (CLI determinism): PASS "
          "(simulate, train, evaluate x threads, ablate, report all byte-identical)")
