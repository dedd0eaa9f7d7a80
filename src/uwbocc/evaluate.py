"""Threshold-free scoring, SNR sweeps, complexity ablations, and reports.

AUC is computed exactly from tied average ranks (the Mann-Whitney statistic
with half credit for ties).  The sweep corrupts held-out samples at each
grid SNR, scores them with a detector, and records one AUC per (detector,
activity, SNR); the ablation evaluates many detectors at one fixed SNR per
activity and pairs each AUC with the detector's operation count, producing
quality-versus-complexity curves.

Reports serialize to CSV and JSON deterministically: stable column order,
repr() float formatting, sorted JSON keys, no timestamps.  Reference
operating points reported for this task in the literature are kept as
constants so report footers can show them next to fresh results.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .augment import SnrReference, corrupt_batch
from .core import ActivityLabel, check_seed, read_json
from .errors import ConfigError, DataError

__all__ = [
    "DEFAULT_EVAL_GRID",
    "REFERENCE_NETWORK_AUC",
    "REFERENCE_MESSAGE_PASSING_AUC",
    "REFERENCE_OPERATING_POINT",
    "roc_auc",
    "EvalRow",
    "EvalReport",
    "snr_sweep",
    "ablation",
    "emit_report",
    "read_report",
    "plot_series",
]

# Evaluation grid: one pass per integer SNR from -10 dB down to -40 dB.
DEFAULT_EVAL_GRID: tuple = tuple(float(s) for s in range(-10, -41, -1))

# Fixed per-activity SNR operating points for the complexity ablation:
# roughly where each activity's detection starts to degrade, harder
# activities probed at milder SNR.
ACTIVITY_SNR_ANCHORS: dict = {
    ActivityLabel.BREATHING: -20.0,
    ActivityLabel.TALKING: -24.0,
    ActivityLabel.MOVING: -30.0,
}

# Reference comparison values for report footers: on recorded cabin data at
# -20 dB (breathing), a large trained 2D network reaches AUC 0.91 while a
# variational message-passing detector reaches 0.87.
REFERENCE_NETWORK_AUC = 0.91
REFERENCE_MESSAGE_PASSING_AUC = 0.87
REFERENCE_OPERATING_POINT = (ActivityLabel.BREATHING, -20.0)


def roc_auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative (ties half).

    Computed from average ranks in O(n log n); exactly equals pairwise
    counting and trapezoidal ROC integration.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ConfigError(f"scores {scores.shape} and labels {labels.shape} must be equal-length 1-d")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DataError(f"AUC needs both classes; got {n_pos} positives, {n_neg} negatives")

    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # 1-based rank of each tie group's last member
    average = last - 0.5 * (counts - 1)  # exact half-integers
    rank_sum = float(average[group[pos]].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class EvalRow:
    name: str
    activity: str
    snr_db: float
    auc: float
    flops: int
    n_pos: int
    n_neg: int

    def __post_init__(self):
        if not 0.0 <= self.auc <= 1.0:
            raise DataError(f"AUC {self.auc} outside [0, 1]")
        if self.n_pos < 1 or self.n_neg < 1:
            raise DataError("rows need at least one sample of each class")


@dataclass(frozen=True)
class EvalReport:
    rows: tuple
    seed: int
    config: dict

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.config, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def _check_grid(grid) -> tuple:
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise ConfigError("empty SNR grid")
    if not all(math.isfinite(v) for v in grid):
        raise ConfigError("grid SNR values must be finite")
    repeated = sorted(v for v, n in Counter(grid).items() if n > 1)
    if repeated:
        raise ConfigError(f"grid SNR {repeated[0]!r} dB given more than once")
    return grid


# The most bytes one grid point's planes may take once synthetic negatives are
# added: over 100 times the largest set the tests, demos and benchmark score
# (400 samples of 64 x 100 complex64 values).
MAX_GRID_POINT_BYTES = 2**31


def _test_groups(samples, synthetic_negatives: int = 0) -> tuple[list, list]:
    """([(activity, positive residuals)], negative residuals) of a test set.

    Activities are the occupied labels present, in label order; their
    position is the act_idx of every seed drawn for them.
    """
    groups: dict = {}
    for item in samples:
        groups.setdefault(item.label, []).append(item.residual)
    negatives = groups.get(ActivityLabel.EMPTY, [])
    if not negatives and synthetic_negatives < 1:
        raise DataError("sweep needs empty-class samples as negatives")
    activities = [(lab, groups[lab]) for lab in ActivityLabel if lab.occupied and lab in groups]
    if not activities:
        raise DataError("sweep needs at least one occupied activity in the test samples")
    if synthetic_negatives:
        template = (negatives or activities[0][1])[0]
        # A sample's planes take its residual's bytes: (2, N, M) of its real dtype.
        n_planes = sum(map(len, groups.values())) + synthetic_negatives
        if n_planes * template.nbytes > MAX_GRID_POINT_BYTES:
            raise ConfigError(
                f"synthetic_negatives {synthetic_negatives} makes each grid point {n_planes} "
                f"planes of {template.nbytes} bytes, over the cap of {MAX_GRID_POINT_BYTES} bytes")
        # One read-only zero residual; each negative is a view of it, an array
        # object of its own like every other sample.
        zero = np.zeros_like(template)
        zero.setflags(write=False)
        negatives = negatives + [zero.view() for _ in range(synthetic_negatives)]
    return activities, negatives


def _score_grid_point(scorer, planes, sizes) -> list:
    """[(auc, n_pos, n_neg)] per positive group, from one scorer call.

    planes is one grid point's (B, 2, N, M) batch: each activity's
    positives in turn, sizes[i] of them for activity i, then the negatives.
    The scorer sees the whole batch at once, and each activity's slice is
    ranked against the same negative scores.
    """
    scores = np.asarray(scorer(planes), dtype=np.float64)
    if scores.shape != (len(planes),):
        raise ConfigError(f"scorer returned {scores.shape} scores for {len(planes)} inputs")
    negative_scores = scores[sum(sizes):]
    n_neg = len(negative_scores)
    results, start = [], 0
    for size in sizes:
        labels = np.concatenate([np.ones(size), np.zeros(n_neg)])
        auc = roc_auc(np.concatenate([scores[start:start + size], negative_scores]), labels)
        results.append((auc, size, n_neg))
        start += size
    return results


# Version of the corruption seed scheme, written into every report config.
# 3: every draw is float32 Box-Muller noise from augment.corrupt_batch on
# complex64 residuals, and detectors score float32 planes; schema 2 drew
# float64 noise with numpy's Gaussian sampler, one residual at a time.
# 2: negatives drawn once per grid SNR; reports without the field drew them
# once per activity.
_REPORT_SCHEMA = 3

# Seed tag of the negatives' draws, in place of an act_idx: act_idx counts
# occupied activities, so it never reaches this value.
_NEGATIVE_STREAM = 2**16


def _score_rows(scorers: dict, samples, ref, grid, wanted, seed, exact, threads,
                synthetic_negatives: int = 0) -> list:
    """EvalRows of each scorer at the (occupied activity, grid SNR) pairs wanted.

    scorers maps row names to scorers, and wanted(activity, snr_db) picks
    the pairs; rows come in (name, activity, grid position) order.  Each
    grid SNR with a wanted pair makes one corrupt_batch call: the wanted
    activities' positives in activity order, draw k keyed (seed, act_idx,
    snr_idx, k), then the negatives, keyed (seed, _NEGATIVE_STREAM, snr_idx,
    k).  Every scorer gets that one (B, 2, N, M) array, so results depend
    neither on threads nor on which scorers share a run.
    """
    activities, negatives = _test_groups(samples, synthetic_negatives)
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    check_seed(seed)
    kept = [[i for i, (activity, _) in enumerate(activities) if wanted(activity, snr_db)]
            for snr_db in grid]

    def run(snr_idx):
        groups = [(i, activities[i][1]) for i in kept[snr_idx]] + [(_NEGATIVE_STREAM, negatives)]
        residuals = [residual for _, group in groups for residual in group]
        rngs = [np.random.default_rng((seed, stream, snr_idx, k))
                for stream, group in groups for k in range(len(group))]
        planes = corrupt_batch(residuals, ref, [grid[snr_idx]] * len(residuals), rngs, exact=exact)
        sizes = [len(activities[i][1]) for i in kept[snr_idx]]
        return {(j, i, snr_idx): result for j, scorer in enumerate(scorers.values())
                for i, result in zip(kept[snr_idx], _score_grid_point(scorer, planes, sizes))}

    points = [snr_idx for snr_idx, wanted_here in enumerate(kept) if wanted_here]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            scored = list(pool.map(run, points))
    else:
        scored = [run(snr_idx) for snr_idx in points]
    # Read after scoring: a baseline scorer learns its count from its first input.
    names, flops = list(scorers), [int(getattr(s, "flops", 0)) for s in scorers.values()]
    return [EvalRow(names[j], activities[i][0].value, grid[snr_idx], auc, flops[j], n_pos, n_neg)
            for (j, i, snr_idx), (auc, n_pos, n_neg)
            in sorted(item for results in scored for item in results.items())]


def snr_sweep(scorer, samples, ref: SnrReference, grid=DEFAULT_EVAL_GRID,
              seed: int = 0, *, exact_scaling: bool = False,
              synthetic_negatives: int = 0, threads: int = 1) -> EvalReport:
    """AUC of one detector at every grid SNR, per occupied activity.

    samples carry residuals with labels (any object with .label and
    .residual attributes, see pipeline.residual_samples); the empty class
    provides negatives at every grid point, optionally topped up with
    synthetic_negatives pure-noise samples (flagged in the report config).
    Every (sample, grid SNR) draw has its own derived seed, so results
    are independent of threading and iteration order; the negatives are
    drawn once per grid SNR and shared by every activity.
    """
    grid = _check_grid(grid)
    if synthetic_negatives < 0:
        raise ConfigError(f"synthetic_negatives must be >= 0, got {synthetic_negatives}")
    name = getattr(scorer, "name", scorer.__class__.__name__)
    rows = _score_rows({name: scorer}, samples, ref, grid, lambda activity, snr_db: True,
                       seed, exact_scaling, threads, synthetic_negatives)
    config = {
        "schema": _REPORT_SCHEMA,
        "kind": "snr_sweep",
        "detector": name,
        "grid": list(grid),
        "exact_scaling": exact_scaling,
        "synthetic_negatives": synthetic_negatives,
        "reference_energy": ref.e_s,
    }
    return EvalReport(tuple(rows), seed, config)


def ablation(scorers: dict, samples, ref: SnrReference,
             anchors: dict | None = None, seed: int = 0, *,
             exact_scaling: bool = False, threads: int = 1) -> EvalReport:
    """One (flops, auc) point per detector per activity at its anchor SNR.

    scorers maps a detector name to a scorer carrying .flops.  The rows
    come from the function that builds snr_sweep's, run over the sorted
    distinct anchor SNRs and kept at each activity's anchor, so the seeds
    are that sweep's.  A row equals the sweep's row only for a scorer
    that scores each input independently of the others in its batch, which
    network scorers do not yet do.
    """
    anchors = dict(anchors) if anchors is not None else dict(ACTIVITY_SNR_ANCHORS)
    anchored = {activity: float(snr) for activity, snr in anchors.items()}
    grid = _check_grid(sorted(set(anchored.values())))
    rows = _score_rows(dict(sorted(scorers.items())), samples, ref, grid,
                       lambda activity, snr_db: anchored.get(activity) == snr_db,
                       seed, exact_scaling, threads)
    config = {
        "schema": _REPORT_SCHEMA,
        "kind": "ablation",
        "anchors": {lab.value: snr for lab, snr in anchors.items()},
        "detectors": {name: int(getattr(scorers[name], "flops", 0)) for name in sorted(scorers)},
        "exact_scaling": exact_scaling,
        "reference_energy": ref.e_s,
    }
    return EvalReport(tuple(rows), seed, config)


_CSV_COLUMNS = ("name", "activity", "snr_db", "auc", "flops", "n_pos", "n_neg", "seed")


def emit_report(report: EvalReport, fmt: str, path) -> None:
    """Write a report as fmt "csv" or "json"; equal reports give equal bytes."""
    if fmt == "csv":
        lines = [",".join(_CSV_COLUMNS)]
        for row in report.rows:
            lines.append(",".join([
                row.name, row.activity, repr(row.snr_db), repr(row.auc),
                str(row.flops), str(row.n_pos), str(row.n_neg), str(report.seed),
            ]))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        doc = {
            "config": report.config,
            "config_hash": report.config_hash,
            "seed": report.seed,
            "rows": [asdict(r) for r in report.rows],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"report format must be 'csv' or 'json', got {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def read_report(path) -> EvalReport:
    """Load the JSON form back into an EvalReport (CSV is export-only)."""
    doc = read_json(path, "report", DataError)
    try:
        rows = tuple(
            EvalRow(r["name"], r["activity"], float(r["snr_db"]), float(r["auc"]),
                    int(r["flops"]), int(r["n_pos"]), int(r["n_neg"]))
            for r in doc["rows"])
        return EvalReport(rows, int(doc["seed"]), doc["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"report {path} is malformed: {exc}") from None


def plot_series(report: EvalReport, x_field: str = "snr_db") -> dict:
    """Per-(detector, activity) x/y series for external plotting tools."""
    if x_field not in ("snr_db", "flops"):
        raise ConfigError("x_field must be snr_db or flops")
    series: dict = {}
    for row in report.rows:
        key = f"{row.name}/{row.activity}"
        entry = series.setdefault(key, {"x": [], "y": []})
        entry["x"].append(getattr(row, x_field))
        entry["y"].append(row.auc)
    for entry in series.values():
        order = np.argsort(np.asarray(entry["x"]))
        entry["x"] = [entry["x"][i] for i in order]
        entry["y"] = [entry["y"][i] for i in order]
    return series
