"""Sweep a trained network and the classical baselines across noise levels.

Trains a quick 1D-E model, then measures AUC on held-out samples at SNRs
from -5 dB down to -35 dB, next to the energy detector and the slow-time
FFT detector.  Writes the network's curve as CSV and JSON and shows that
re-running the sweep reproduces the report byte for byte.

Run: python demos/04_snr_sweep.py
"""

import tempfile
from pathlib import Path

from uwbocc.dataset import make_split, memory_manifest
from uwbocc.evaluate import emit_report, plot_series, snr_sweep
from uwbocc.pipeline import (
    BaselineScorer,
    NetworkScorer,
    TrainSettings,
    residual_samples,
    run_training,
)
from uwbocc.simulate import synth_dataset

train_records = synth_dataset({"breathing": 60, "empty": 60}, rng=21)
test_records = synth_dataset({"breathing": 40, "empty": 40}, rng=22)

train_samples = residual_samples(train_records)
split = make_split(memory_manifest(train_records), test_per_class=0, empty_test=0)
settings = TrainSettings(variant="1D-E", reuse_occupied=4, reuse_empty=4,
                         batch_size=32, patience=5, max_epochs=16,
                         learning_rate=2e-3, seed=13)
print(f"training {settings.variant} on {len(train_records)} samples...")
network, history, ref = run_training(train_samples, split, settings)
print(f"best validation AUC {history.best_val_auc:.4f}\n")

samples = residual_samples(test_records)
grid = (-5.0, -10.0, -15.0, -20.0, -25.0, -30.0, -35.0)
scorers = [NetworkScorer(network), BaselineScorer("energy"), BaselineScorer("fft")]
reports = {s.name: snr_sweep(s, samples, ref, grid=grid, seed=4) for s in scorers}

header = "  SNR dB   " + "".join(f"{name:>10}" for name in reports)
print(header)
for snr_db in grid:
    cells = []
    for report in reports.values():
        (auc,) = [row.auc for row in report.rows if row.snr_db == snr_db]
        cells.append(f"{auc:10.4f}")
    print(f"  {snr_db:+6.1f}  {''.join(cells)}")

# The energy detector ignores temporal structure and collapses first.
# The slow-time FFT is a hard baseline here because synthetic breathing
# is cleanly periodic, exactly what it keys on; the learned detector
# clearly beats energy and narrows on the FFT as training size grows
# (this quick run uses 120 samples and 16 epochs).  All of them drift
# toward 0.5 once noise buries the residual.

net_report = reports["1D-E"]
with tempfile.TemporaryDirectory() as tmp:
    csv_path, json_path = Path(tmp) / "sweep.csv", Path(tmp) / "sweep.json"
    emit_report(net_report, "csv", csv_path)
    emit_report(net_report, "json", json_path)
    print(f"\nwrote {csv_path.name} ({csv_path.stat().st_size} bytes) "
          f"and {json_path.name} ({json_path.stat().st_size} bytes)")

    rerun = snr_sweep(NetworkScorer(network), samples, ref, grid=grid, seed=4)
    emit_report(rerun, "csv", Path(tmp) / "again.csv")
    same = (Path(tmp) / "again.csv").read_bytes() == csv_path.read_bytes()
    print(f"re-run report byte-identical: {same}")
    print(f"report config hash: {net_report.config_hash}")

series = plot_series(net_report)
print(f"\nplot-ready series keys: {sorted(series)}")
