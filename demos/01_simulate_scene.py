"""Build cabin scenes and look at what mean removal leaves behind.

Walkthrough: simulate an empty cabin and a breathing occupant, split each
received matrix into its static profile and residual, and check the three
properties everything downstream relies on: a static scene leaves exactly
zero residual, paths superpose linearly, and a slow amplitude-modulated
reflection produces a near-rank-1 residual.

Run: python demos/01_simulate_scene.py
"""

import numpy as np

from uwbocc.core import ActivityLabel, frobenius_energy, mean_remove
from uwbocc.simulate import MotionModel, PathComponent, RadarConfig, Scene, simulate_received

cfg = RadarConfig()
print(f"radar: {cfg.n_fast} fast-time bins x {cfg.m_slow} slow-time columns, "
      f"{cfg.bandwidth / 1e6:.0f} MHz at {cfg.center_freq / 1e9:.1f} GHz")

# An empty cabin is clutter only: seats and body panels do not move.
empty = Scene(clutter_paths=(PathComponent(1.0 + 0.4j, 6e-9),
                             PathComponent(-0.3 + 0.2j, 14e-9),
                             PathComponent(0.1 - 0.5j, 21e-9)))
received = simulate_received(empty, cfg, rng=0)
profile, residual = mean_remove(received)
print(f"\nempty cabin: received energy {frobenius_energy(received):.3f}, "
      f"residual energy {frobenius_energy(residual):.3e}")
assert frobenius_energy(residual) == 0.0

# Paths add linearly, so a multi-reflector cabin is just a sum of templates.
p1 = PathComponent(0.8 + 0.1j, 5e-9)
p2 = PathComponent(-0.5 + 0.7j, 19.5e-9)
both = simulate_received(Scene(clutter_paths=(p1, p2)), cfg, rng=0).data
parts = (simulate_received(Scene(clutter_paths=(p1,)), cfg, rng=0).data
         + simulate_received(Scene(clutter_paths=(p2,)), cfg, rng=0).data)
print(f"superposition deviation: {np.abs(both - parts).max():.2e}")

# A breathing occupant modulates one path slowly.  With the delay pinned
# and only the amplitude swinging, every residual column is a scaled copy
# of the same fast-time template, hence (numerically) rank one.
motion = MotionModel(ActivityLabel.BREATHING, rate=0.25, delay_excursion=0.0,
                     amp_excursion=0.1, jitter=0.0, phase=0.6)
occupied = Scene(target_paths=((PathComponent(1.0, 10e-9), motion),),
                 clutter_paths=empty.clutter_paths)
_, residual = mean_remove(simulate_received(occupied, cfg, rng=1))
s = np.linalg.svd(residual, compute_uv=False)
print(f"\nbreathing occupant: residual energy {frobenius_energy(residual):.4f}")
print(f"top singular values: {s[0]:.4f}, {s[1]:.2e}  (ratio {s[1] / s[0]:.1e})")

# The realistic motion default keeps a small delay excursion as well, which
# spreads energy into a second component; detection still only needs the
# residual to stand out against noise, not to be exactly rank one.
realistic = MotionModel(ActivityLabel.BREATHING, phase=0.6)
occupied = Scene(target_paths=((PathComponent(1.0, 10e-9), realistic),),
                 clutter_paths=empty.clutter_paths)
_, residual = mean_remove(simulate_received(occupied, cfg, rng=1))
s = np.linalg.svd(residual, compute_uv=False)
print(f"with delay excursion {realistic.delay_excursion * 1e12:.0f} ps: "
      f"ratio {s[1] / s[0]:.3f}")
