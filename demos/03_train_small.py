"""Train the smallest 1D variant on a synthetic occupancy problem.

Generates 80 labeled samples (40 breathing, 40 empty), splits them with the
standard car-disjoint logic, trains 1D-E with noise augmentation, and saves
a checkpoint that round-trips bit-for-bit.  Finishes in a few seconds; the
same path scaled to 400 samples is what the end-to-end acceptance test runs.

Run: python demos/03_train_small.py
"""

import tempfile
from pathlib import Path

import numpy as np

from uwbocc.dataset import make_split, memory_manifest
from uwbocc.nn import load_checkpoint, save_checkpoint
from uwbocc.pipeline import TrainSettings, residual_samples, run_training
from uwbocc.simulate import synth_dataset

records = synth_dataset({"breathing": 40, "empty": 40}, rng=11)
samples = residual_samples(records)  # mean-removed once, aligned with records
split = make_split(memory_manifest(records), test_per_class=0, empty_test=0)

settings = TrainSettings(variant="1D-E", reuse_occupied=3, reuse_empty=3,
                         batch_size=16, patience=4, max_epochs=10,
                         learning_rate=2e-3, seed=7)
print(f"training {settings.variant} on {len(records)} samples "
      f"(augmented x{settings.reuse_occupied} per epoch)\n")
network, history, ref = run_training(samples, split, settings, log=print)

print(f"\nbest validation AUC {history.best_val_auc:.4f} at epoch "
      f"{history.best_epoch} (epochs are 0-indexed), "
      f"stopped early: {history.stopped_early}")
print(f"SNR reference from the training breathing residuals: e_s = {ref.e_s:.4f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.ckpt"
    save_checkpoint(network, path, extra={"reference_energy": ref.e_s})
    print(f"\ncheckpoint: {path.stat().st_size} bytes")

    loaded, extra = load_checkpoint(path)
    drift = max(float(np.abs(a.value - b.value).max())
                for a, b in zip(network.params(), loaded.params()))
    print(f"reload weight drift (float32 storage): {drift:.2e}")
    print(f"metadata round-trip: reference_energy = {extra['reference_energy']}")

    # Same seed, same data, same bytes: training is fully deterministic.
    rerun, _, _ = run_training(samples, split, settings)
    identical = all(np.array_equal(a.value, b.value)
                    for a, b in zip(network.params(), rerun.params()))
    print(f"identical weights on re-run with the same seed: {identical}")
