"""Walk the ten-variant family from heaviest to cheapest.

Prints each variant's channel plan, parameter count, and FLOPs per forward
pass at the standard input size, then trains the three cheapest variants on
a reduced problem to show the accuracy-for-compute trade at -20 dB.  The
full ten-variant study with properly trained checkpoints is what the
`uwbocc ablate` command produces.

Run: python demos/05_complexity_ladder.py  (about a minute)
"""

from uwbocc.core import ActivityLabel
from uwbocc.dataset import make_split, memory_manifest
from uwbocc.evaluate import ablation
from uwbocc.nn import VARIANTS, build_network, channel_plan, flop_count, param_count
from uwbocc.pipeline import (
    NetworkScorer,
    TrainSettings,
    residual_samples,
    run_training,
)
from uwbocc.simulate import RadarConfig, synth_dataset

print(f"{'variant':>8} {'params':>10} {'flops':>12}  blocks x channel plan")
ladder = []
for name in sorted(VARIANTS):
    variant = VARIANTS[name]
    shape = (128, 100) if variant.dimensionality == 1 else (2, 64, 100)
    net = build_network(variant, shape, seed=0)
    ladder.append((flop_count(net), param_count(net), name, channel_plan(variant)))
for flops, params, name, plan in sorted(ladder):
    compact = f"{len(plan)} x [{plan[0]}..{plan[-1]}]"
    print(f"{name:>8} {params:>10,} {flops:>12,.0f}  {compact}")

# Three orders of magnitude separate the ends of the family; the question
# an ablation answers is how much detection quality each step down costs.

cfg = RadarConfig(n_fast=32, m_slow=50)  # smaller matrices keep this quick
train_records = synth_dataset({"breathing": 60, "empty": 60}, cfg, rng=31)
test_records = synth_dataset({"breathing": 40, "empty": 40}, cfg, rng=32)
train_samples = residual_samples(train_records)
split = make_split(memory_manifest(train_records), test_per_class=0, empty_test=0)

scorers = {}
ref = None
for name in ("1D-E", "1D-D", "2D-E"):
    settings = TrainSettings(variant=name, reuse_occupied=4, reuse_empty=4,
                             batch_size=32, patience=4, max_epochs=12,
                             learning_rate=2e-3, seed=17)
    print(f"\ntraining {name}...", end=" ", flush=True)
    network, history, ref = run_training(train_samples, split, settings)
    print(f"best validation AUC {history.best_val_auc:.4f}")
    scorers[name] = NetworkScorer(network)

samples = residual_samples(test_records)
# The standard anchor sits at -20 dB; these lightly trained models are only
# separable at a friendlier noise level, so anchor the demo at -10 dB.
anchors = {ActivityLabel.BREATHING: -10.0}
report = ablation(scorers, samples, ref, anchors=anchors, seed=6)
print(f"\n{'variant':>8} {'flops':>12} {'activity':>10} {'snr':>7} {'auc':>8}")
for row in sorted(report.rows, key=lambda r: r.flops):
    print(f"{row.name:>8} {row.flops:>12,} {row.activity:>10} "
          f"{row.snr_db:>7.1f} {row.auc:>8.4f}")
