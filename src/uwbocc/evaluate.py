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

import enum
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .augment import AugmentPolicy, SnrReference, add_noise, normalize_unit_energy
from .core import ActivityLabel, MeanRemovedMatrix
from .errors import ConfigError, DataError

__all__ = [
    "DEFAULT_EVAL_GRID",
    "ACTIVITY_SNR_ANCHORS",
    "REFERENCE_NETWORK_AUC",
    "REFERENCE_MESSAGE_PASSING_AUC",
    "REFERENCE_OPERATING_POINT",
    "SMALL_VARIANT_FLOP_TARGET",
    "roc_auc",
    "mann_whitney_null_std",
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

# Complexity talking point for the second-smallest 1D variant: under 1e7
# operations per forward pass.
SMALL_VARIANT_FLOP_TARGET = 10_000_000


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


def mann_whitney_null_std(n_pos: int, n_neg: int) -> float:
    """Standard deviation of AUC under the no-skill null (no ties)."""
    return float(np.sqrt((n_pos + n_neg + 1) / (12.0 * n_pos * n_neg)))


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

    def merged_with(self, other: "EvalReport") -> "EvalReport":
        if other.seed != self.seed:
            raise ConfigError("cannot merge reports with different seeds")
        config = dict(self.config)
        config.update(other.config)
        return EvalReport(self.rows + other.rows, self.seed, config)


def _residuals_by_label(samples) -> dict:
    groups: dict = {}
    for item in samples:
        label = item.label
        groups.setdefault(label, []).append(item)
    return groups


def _score_grid_point(scorer, positives, negatives, ref, snr_db, seeds,
                      exact_policy) -> tuple[float, int, int]:
    corrupted = []
    for sample_seed, residual in zip(seeds, positives + negatives):
        noisy = add_noise(residual, ref, snr_db, exact_policy,
                          rng=np.random.default_rng(sample_seed))
        corrupted.append(normalize_unit_energy(noisy))
    scores = np.asarray(scorer(corrupted), dtype=np.float64)
    labels = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
    return roc_auc(scores, labels), len(positives), len(negatives)


def _synthetic_negatives(template: MeanRemovedMatrix, count: int) -> list:
    zero = np.zeros_like(template.data)
    return [MeanRemovedMatrix(zero.copy(), template.dt_fast, template.dt_slow)
            for _ in range(count)]


def snr_sweep(scorer, samples, ref: SnrReference, grid=DEFAULT_EVAL_GRID,
              seed: int = 0, *, exact_scaling: bool = False,
              synthetic_negatives: int = 0, threads: int = 1) -> EvalReport:
    """AUC of one detector at every grid SNR, per occupied activity.

    samples carry residuals with labels (any object with .label and
    .residual attributes, see pipeline.residual_samples); the empty class
    provides negatives at every grid point, optionally topped up with
    synthetic_negatives pure-noise samples (flagged in the report config).
    Each (sample, grid point) pair gets its own derived seed, so results
    are independent of threading and iteration order.
    """
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise ConfigError("empty SNR grid")
    groups = _residuals_by_label(samples)
    negatives = [s.residual for s in groups.get(ActivityLabel.EMPTY, [])]
    if not negatives and synthetic_negatives < 1:
        raise DataError("sweep needs empty-class samples as negatives")
    if synthetic_negatives:
        template = (negatives or [s.residual for g in groups.values() for s in g])[0]
        negatives = negatives + _synthetic_negatives(template, synthetic_negatives)
    activities = [lab for lab in ActivityLabel if lab.occupied and lab in groups]
    if not activities:
        raise DataError("sweep needs at least one occupied activity in the test samples")

    policy = AugmentPolicy.fixed_grid(grid, exact_scaling=exact_scaling)
    name = getattr(scorer, "name", scorer.__class__.__name__)

    jobs = []
    for act_idx, activity in enumerate(activities):
        positives = [s.residual for s in groups[activity]]
        for snr_idx, snr_db in enumerate(grid):
            n_draws = len(positives) + len(negatives)
            seeds = [np.random.SeedSequence((seed, act_idx, snr_idx, k)) for k in range(n_draws)]
            jobs.append((activity, snr_db, positives, seeds))

    def run(job):
        activity, snr_db, positives, seeds = job
        return _score_grid_point(scorer, positives, negatives, ref, snr_db, seeds, policy)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]
    # Read after scoring: a baseline scorer learns its count from its first input.
    flops = int(getattr(scorer, "flops", 0))
    rows = [EvalRow(name, activity.value, snr_db, auc, flops, n_pos, n_neg)
            for (activity, snr_db, _, _), (auc, n_pos, n_neg) in zip(jobs, results)]

    config = {
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
             require_all_variants: bool = True, exact_scaling: bool = False,
             threads: int = 1) -> EvalReport:
    """One (flops, auc) point per detector per activity at its anchor SNR.

    scorers maps a variant name to a scorer carrying .flops; when
    require_all_variants is set, all ten standard variant names must be
    present (a missing trained checkpoint is an error, not a silent gap).
    """
    from .nn.model import VARIANTS

    anchors = dict(anchors) if anchors is not None else dict(ACTIVITY_SNR_ANCHORS)
    if require_all_variants:
        missing = sorted(set(VARIANTS) - set(scorers))
        if missing:
            raise DataError(f"ablation is missing trained checkpoints for: {', '.join(missing)}")

    rows = []
    config_detectors = {}
    for name in sorted(scorers):
        scorer = scorers[name]
        sub_grid = sorted({float(v) for v in anchors.values()})
        report = snr_sweep(scorer, samples, ref, grid=sub_grid, seed=seed,
                           exact_scaling=exact_scaling, threads=threads)
        wanted = {(lab.value, float(snr)) for lab, snr in anchors.items()}
        for row in report.rows:
            if (row.activity, row.snr_db) in wanted:
                rows.append(replace(row, name=name))
        config_detectors[name] = int(getattr(scorer, "flops", 0))

    config = {
        "kind": "ablation",
        "anchors": {lab.value: snr for lab, snr in anchors.items()},
        "detectors": config_detectors,
        "exact_scaling": exact_scaling,
        "reference_energy": ref.e_s,
    }
    return EvalReport(tuple(rows), seed, config)


_CSV_COLUMNS = ("name", "activity", "snr_db", "auc", "flops", "n_pos", "n_neg", "seed")


class ReportFormat(enum.Enum):
    CSV = "csv"
    JSON = "json"


def emit_report(report: EvalReport, fmt: ReportFormat | str, path) -> None:
    """Write a report deterministically; equal reports give equal bytes."""
    fmt = ReportFormat(fmt) if not isinstance(fmt, ReportFormat) else fmt
    if fmt is ReportFormat.CSV:
        lines = [",".join(_CSV_COLUMNS)]
        for row in report.rows:
            lines.append(",".join([
                row.name, row.activity, repr(row.snr_db), repr(row.auc),
                str(row.flops), str(row.n_pos), str(row.n_neg), str(report.seed),
            ]))
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "config": report.config,
            "config_hash": report.config_hash,
            "seed": report.seed,
            "rows": [
                {
                    "name": r.name, "activity": r.activity, "snr_db": r.snr_db,
                    "auc": r.auc, "flops": r.flops, "n_pos": r.n_pos, "n_neg": r.n_neg,
                }
                for r in report.rows
            ],
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def read_report(path) -> EvalReport:
    """Load the JSON form back into an EvalReport (CSV is export-only)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read report {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"report {path} is not valid JSON: {exc}") from None
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
