"""The four benchmark workloads and the checks on their outputs.

Each workload is one `uwbocc` command run in a fresh process.  Set-up
simulates its inputs with `uwbocc simulate` (and, for `ablate`, writes
seeded random-init checkpoints); the timed region is the command itself.
Sizes come in two scales: `full` for measurement and `tiny` for the
harness self-test.
"""

from __future__ import annotations

import json
import math
import re

# Simulated class counts and command flags per workload and scale.
#   train-1d: criterion-6 data and flags, two fixed epochs (patience >= epochs).
#   train-2d: one epoch of two B=64 steps; a small split keeps validation short.
#   sweep-energy: the default 31-point grid over breathing and talking.
#   ablate: 1D-E and 2D-E checkpoints plus both baselines at the three anchors.
SIZES = {
    "full": {
        "train-1d": {"counts": {"breathing": 200, "empty": 200}},
        "train-2d": {"counts": {"breathing": 40, "empty": 40}},
        "sweep-energy": {"counts": {"breathing": 50, "talking": 50, "empty": 50}},
        "ablate": {"counts": {"breathing": 10, "talking": 10, "moving": 10, "empty": 10}},
    },
    "tiny": {
        "train-1d": {"counts": {"breathing": 20, "empty": 20}},
        "train-2d": {"counts": {"breathing": 40, "empty": 40}},
        "sweep-energy": {"counts": {"breathing": 4, "talking": 4, "empty": 4}},
        "ablate": {"counts": {"breathing": 3, "talking": 3, "moving": 3, "empty": 3}},
    },
}

# Radar shape per scale: the standard 64 x 100 input, or a small one.
SHAPES = {"full": (64, 100), "tiny": (8, 20)}

WORKLOADS = ("train-1d", "train-2d", "sweep-energy", "ablate")
ABLATE_VARIANTS = ("1D-E", "2D-E")
ANCHOR_ACTIVITIES = ("breathing", "talking", "moving")
GRID_POINTS = 31


def simulate_argv(workload: str, scale: str, seed: int, data_dir: str) -> list:
    n_fast, m_slow = SHAPES[scale]
    argv = ["simulate", "--out", data_dir, "--seed", str(seed),
            "--n-fast", str(n_fast), "--m-slow", str(m_slow)]
    for label, count in SIZES[scale][workload]["counts"].items():
        argv += ["--count", f"{label}={count}"]
    return argv


# Training runs: split flags, reuse factors and fixed epoch count (patience >= epochs).
TRAIN = {
    "train-1d": {"variant": "1D-E", "reuse_occupied": 6, "reuse_empty": 9,
                 "test_per_class": 0, "empty_test": 0, "empty_train": None, "epochs": 2},
    # 24 car1 breathing + 8 empty records train; 4 + 12 validate.
    "train-2d": {"variant": "2D-E", "reuse_occupied": 4, "reuse_empty": 4,
                 "test_per_class": 12, "empty_test": 20, "empty_train": 8, "epochs": 1},
}
BATCH_SIZE = 64


def command_argv(workload: str, seed: int, data_dir: str, out: str, models_dir: str) -> list:
    """The timed `uwbocc` command; `out` is the checkpoint or report it writes."""
    base = ["--data", data_dir, "--seed", str(seed)]
    if workload in TRAIN:
        t = TRAIN[workload]
        argv = ["train", *base, "--variant", t["variant"], "--out", out,
                "--reuse-occupied", str(t["reuse_occupied"]),
                "--reuse-empty", str(t["reuse_empty"]), "--learning-rate", "2e-3",
                "--batch-size", str(BATCH_SIZE),
                "--test-per-class", str(t["test_per_class"]), "--empty-test", str(t["empty_test"]),
                "--max-epochs", str(t["epochs"]), "--patience", str(t["epochs"])]
        if t["empty_train"] is not None:
            argv += ["--empty-train", str(t["empty_train"])]
        return argv
    if workload == "sweep-energy":
        return ["evaluate", *base, "--detector", "energy", "--out", out]
    if workload == "ablate":
        return ["ablate", *base, "--models", models_dir, "--allow-missing",
                "--include-baselines", "--out", out]
    raise ValueError(f"unknown workload {workload!r}")


def training_draws(workload: str, manifest) -> int:
    """Draws one training request consumes: plan length per epoch, times epochs.

    A trailing partial batch below two samples is dropped by the trainer.
    """
    from uwbocc.dataset import build_epoch_plan, make_split

    t = TRAIN[workload]
    split = make_split(manifest, t["test_per_class"], t["empty_test"],
                       empty_train=t["empty_train"])
    per_epoch = len(build_epoch_plan(split, seed=0, reuse_occupied=t["reuse_occupied"],
                                     reuse_empty=t["reuse_empty"]))
    tail = per_epoch % BATCH_SIZE
    return t["epochs"] * (per_epoch - (tail if tail < 2 else 0))


# ----------------------------------------------------------------- checks

_EPOCH_LINE = re.compile(r"^epoch (\d+): loss (\S+), validation AUC (\S+)$", re.M)


def epoch_losses(stdout: str) -> list:
    return [float(m.group(2)) for m in _EPOCH_LINE.finditer(stdout)]


def check_losses(losses, expected_epochs: int) -> list:
    """Every epoch's loss is finite; on runs of >= 2 epochs the last is below the first."""
    problems = []
    if len(losses) != expected_epochs:
        problems.append(f"expected {expected_epochs} epoch losses, got {len(losses)}")
    if not all(math.isfinite(v) for v in losses):
        problems.append(f"non-finite epoch loss in {losses}")
    elif len(losses) >= 2 and not losses[-1] < losses[0]:
        problems.append(f"loss did not fall: {losses[0]} -> {losses[-1]}")
    return problems


def expected_rows(workload: str, scale: str) -> list:
    """(name, activity, n_pos, n_neg) for every row the report must hold, in any order."""
    counts = SIZES[scale][workload]["counts"]
    n_neg = counts["empty"]
    if workload == "sweep-energy":
        return [("energy", act, counts[act], n_neg)
                for act in ("breathing", "talking") for _ in range(GRID_POINTS)]
    if workload == "ablate":
        names = sorted(ABLATE_VARIANTS + ("energy", "fft"))
        return [(name, act, counts[act], n_neg) for name in names for act in ANCHOR_ACTIVITIES]
    return []


def check_report(doc, workload: str, scale: str) -> list:
    """Row counts, class counts and AUC range of a JSON report document."""
    problems = []
    try:
        rows = doc["rows"]
        got = sorted((r["name"], r["activity"], r["n_pos"], r["n_neg"]) for r in rows)
        aucs = [r["auc"] for r in rows]
    except (KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    want = sorted(expected_rows(workload, scale))
    if got != want:
        problems.append(f"report rows differ from the simulated classes: {len(got)} rows, "
                        f"{len(want)} expected")
    bad = [a for a in aucs if not (isinstance(a, (int, float)) and 0.0 <= a <= 1.0)]
    if bad:
        problems.append(f"{len(bad)} AUC values outside [0, 1], e.g. {bad[0]!r}")
    if workload == "sweep-energy":
        snrs = sorted({r["snr_db"] for r in rows})
        if snrs != [float(s) for s in range(-40, -9)]:
            problems.append("sweep grid is not the default -10..-40 dB in 1 dB steps")
    return problems


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def baseline_row_flops(doc) -> int:
    """Largest `flops` written on a baseline row (0 while the baseline-flops defect stands)."""
    return max((r["flops"] for r in doc.get("rows", ()) if r["name"] in ("energy", "fft")),
               default=0)
