"""Check the SNR arithmetic behind the noise augmentation.

The augmentation stage defines SNR as reference energy over total noise
energy, with the reference pinned to the median breathing-class residual.
This script verifies the calibration empirically: at -20 dB with reference
energy 1 the added noise should average 100 units of energy on a 64 x 100
matrix, every draw should hit that exactly in exact-scaling mode, and the
noise level must not depend on the sample being corrupted.  Residuals are
plain complex arrays, so an all-zero array stands in for a silent cabin.
add_noise draws a batch at once, one generator per draw, and returns the
noisy residuals as (B, 2, N, M) real and imaginary planes.

Run: python demos/02_noise_calibration.py
"""

import numpy as np

from uwbocc.augment import SnrReference, add_noise, compute_reference_energy
from uwbocc.core import frobenius_energy
from uwbocc.nn.model import layout_2d
from uwbocc.simulate import synth_dataset
from uwbocc.pipeline import residual_samples


def noisy_energies(residual, ref, snr_db, seed, draws, exact=False):
    """Energy of each of `draws` noisy copies of one residual, 100 draws per call."""
    energies = []
    for start in range(0, draws, 100):
        count = min(100, draws - start)
        rngs = [np.random.default_rng((seed, i)) for i in range(start, start + count)]
        planes = add_noise([residual] * count, ref, [snr_db] * count, rngs, exact=exact)
        energies.extend(frobenius_energy(draw) for draw in planes)
    return np.asarray(energies)


ref = SnrReference(1.0)
zero = np.zeros((64, 100), dtype=np.complex64)

print("default mode, 2000 draws per SNR (energy is exact only in expectation):")
for snr_db in (0.0, -10.0, -20.0):
    target = ref.e_s * 10 ** (-snr_db / 10)
    mean = float(np.mean(noisy_energies(zero, ref, snr_db, 1, 2000)))
    print(f"  {snr_db:+6.1f} dB: mean noise energy {mean:8.3f}  "
          f"(target {target:7.1f}, off by {100 * (mean / target - 1):+.2f}%)")

print("\nexact-scaling mode, per-draw relative error (float32 planes):")
errors = np.abs(noisy_energies(zero, ref, -20.0, 2, 200, exact=True) / 100.0 - 1.0)
print(f"  worst over 200 draws: {errors.max():.2e}")

# The sigma comes from the reference alone, so a strong and a weak sample
# get the same noise floor.  That is the point: the label must not leak
# through the corruption level.
records = synth_dataset({"breathing": 8, "empty": 8}, rng=5)
samples = residual_samples(records)
residuals = [s.residual for s in samples]
data_ref = compute_reference_energy([s.residual for s in samples
                                     if s.label.value == "breathing"])
print(f"\nreference from 8 breathing residuals: e_s = {data_ref.e_s:.4f}")
for name, sample in (("breathing", residuals[0]), ("empty", residuals[-1])):
    added = noisy_energies(sample, data_ref, -20.0, 3, 500) - frobenius_energy(sample)
    print(f"  mean added energy, {name} sample: {np.mean(added):9.3f}")
print(f"  (both should sit near {data_ref.e_s * 100:.1f}, regardless of content)")

# +inf adds no noise: a clean evaluation point.
clean = add_noise([residuals[0]], data_ref, [float("inf")], [np.random.default_rng(0)])
print(f"\n+inf dB passthrough unchanged: {np.array_equal(clean, layout_2d([residuals[0]]))}")
