"""Command line workflows: simulate, import, train, evaluate, ablate, report.

Every command reads a dataset directory (or its manifest.json directly),
defaulting to the UWBOCC_DATA_DIR environment variable when --data/--out is
omitted.  Options can also come from a JSON config file via --config; its
values go through the same parser, types and choices as flags, values given
on the command line win over the file, and the file wins over built-in
defaults.  All file outputs (datasets, checkpoints, reports) are
byte-deterministic for a fixed seed and configuration, independent of
--threads.

Exit codes: 0 success, 2 configuration or usage errors, 3 missing or
corrupt data, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .augment import SnrReference
from .baselines import DEFAULT_ENERGY_WINDOW
from .core import ActivityLabel, CirMatrix, check_seed, read_counts, read_json
from .dataset import make_split, read_cir, read_dataset, segment_recording, write_dataset
from .errors import ConfigError, DataError, UwboccError
from .evaluate import (
    DEFAULT_EVAL_GRID,
    REFERENCE_MESSAGE_PASSING_AUC,
    REFERENCE_NETWORK_AUC,
    REFERENCE_OPERATING_POINT,
    ablation,
    emit_report,
    plot_series,
    read_report,
    snr_sweep,
)
from .nn import VARIANTS, load_checkpoint, save_checkpoint
from .pipeline import (
    BaselineScorer,
    NetworkScorer,
    TrainSettings,
    reference_from_training,
    residual_samples,
    run_training,
)
from .simulate import RadarConfig, load_scene, synth_dataset

__all__ = ["main", "build_parser"]

DATA_DIR_ENV = "UWBOCC_DATA_DIR"


def _resolve_data_dir(value) -> Path:
    if value is None:
        value = os.environ.get(DATA_DIR_ENV)
    if not value:
        raise ConfigError(f"no dataset location: pass --data or set {DATA_DIR_ENV}")
    return Path(value)


def _manifest_path(location: Path) -> Path:
    return location if location.suffix == ".json" else location / "manifest.json"


def _defaults(function, *names) -> dict:
    """{name: default} of the named keyword parameters of a library function."""
    parameters = inspect.signature(function).parameters
    return {name: parameters[name].default for name in names}


def _output_path(value) -> Path:
    path = Path(value)
    if path.parent != Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _parse_counts(values) -> list:
    """(label, N) pairs from repeated 'label=N[,label=N]' strings, none for None.

    core.read_counts checks the labels and the counts.
    """
    pairs = []
    for piece in ",".join(values).split(",") if values is not None else ():
        label, eq, number = piece.partition("=")
        if not eq:
            raise ConfigError(f"counts look like label=N, got {piece!r}")
        label = label.strip()
        try:
            pairs.append((label, int(number)))
        except ValueError:
            raise ConfigError(f"bad count for {label!r}: {number!r} is not an integer") from None
    return pairs


# The largest start:stop:count count; the default grid has 31 points.
MAX_GRID_COUNT = 10_000

# Sizes simulate refuses before it allocates anything, each over 100 times the
# largest the tests, demos and benchmark use (64 x 100 values per sample, 400
# samples, 4 clutter paths).
MAX_SAMPLE_VALUES = 2**20  # --n-fast x --m-slow
MAX_RUN_VALUES = 2**28  # every sample of one run together
MAX_CLUTTER_PATHS = 1024


def _parse_grid(spec) -> tuple:
    """SNR grid: comma-separated dB values, or start:stop:count (inclusive)."""
    if spec is None:
        return DEFAULT_EVAL_GRID
    parts = spec.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"bad --eval-grid {spec!r}: expected start:stop:count")
    try:
        if len(parts) == 1:
            return tuple(float(v) for v in spec.split(","))
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad --eval-grid {spec!r}: {exc}") from None
    if not 1 <= count <= MAX_GRID_COUNT:
        raise ConfigError(f"bad --eval-grid {spec!r}: count {count} is not in 1..{MAX_GRID_COUNT}")
    return tuple(float(v) for v in np.linspace(start, stop, count))


def _residual_dataset(data) -> tuple:
    """The dataset at --data as (manifest, residual samples aligned with its records).

    The records go out of scope on return, so a command holds the data once.
    """
    manifest, records = read_dataset(_manifest_path(_resolve_data_dir(data)))
    return manifest, residual_samples(records)


def _reference(ns, samples, checkpoints) -> SnrReference:
    """Resolve the SNR anchor: the flag, then the checkpoints, then the data itself.

    checkpoints holds (path, extra) of each checkpoint the command loaded, in
    load order.  Those that store a reference energy must all store the same
    positive, finite number, unless --reference-energy chooses; with none
    stored, the anchor is the breathing median of the scored samples.
    """
    if ns.reference_energy is not None:
        return SnrReference(ns.reference_energy)
    stored: dict = {}  # each stored reference energy: the first checkpoint that stores it
    for path, extra in checkpoints:
        if "reference_energy" in extra:
            energy = extra["reference_energy"]
            # type(), not isinstance: a JSON true is a bool, which is an int.
            if not (type(energy) in (int, float) and 0 < energy <= sys.float_info.max):
                raise DataError(f"checkpoint {path} stores reference_energy "
                                f"{json.dumps(energy)}, not a positive finite number")
            stored.setdefault(energy, path)
    if len(stored) > 1:
        (energy, path), (other, other_path), *_ = stored.items()
        raise DataError(f"checkpoints {path} and {other_path} store different reference "
                        f"energies ({energy} and {other}); pass --reference-energy to choose one")
    if stored:
        return SnrReference(float(*stored))
    try:
        return reference_from_training(samples)
    except DataError:
        raise DataError(
            "cannot anchor SNR: the dataset has no breathing samples and no "
            "--reference-energy was given") from None


# ---------------------------------------------------------------- commands


def cmd_simulate(ns) -> int:
    if ns.count is None:
        raise ConfigError("simulate needs at least one --count label=N")
    counts = read_counts(_parse_counts(ns.count), "--count")
    check_seed(ns.seed)
    out = _resolve_data_dir(ns.out)
    if ns.scene and ns.replaced_by_scene:
        raise ConfigError(f"{ns.replaced_by_scene[0]} has no effect with --scene {ns.scene}: "
                          "the scene sets the clutter and the noise level")
    scene = load_scene(ns.scene) if ns.scene else None
    cfg = RadarConfig(n_fast=ns.n_fast, m_slow=ns.m_slow)
    values = cfg.n_fast * cfg.m_slow
    if values > MAX_SAMPLE_VALUES:
        raise ConfigError(f"--n-fast {cfg.n_fast} x --m-slow {cfg.m_slow} is over the cap of "
                          f"{MAX_SAMPLE_VALUES} values per sample")
    total = sum(counts.values())
    if total * values > MAX_RUN_VALUES:
        raise ConfigError(f"--count asks for {total} samples of {values} values, over the cap "
                          f"of {MAX_RUN_VALUES} values per run")
    if ns.clutter_paths > MAX_CLUTTER_PATHS:
        raise ConfigError(f"--clutter-paths {ns.clutter_paths} is over the cap of "
                          f"{MAX_CLUTTER_PATHS}")
    try:
        records = synth_dataset(counts, cfg, rng=ns.seed, scene=scene,
                                sensor_noise=ns.sensor_noise, clutter_paths=ns.clutter_paths)
    except ConfigError as exc:
        if scene is None:
            raise
        # The counts, the seed, the radar shape and the sizes are checked above, so the
        # scene is at fault.
        raise ConfigError(f"scene {ns.scene}: {exc}") from None
    if not records:
        raise ConfigError("all requested counts are zero")
    out.mkdir(parents=True, exist_ok=True)
    manifest = write_dataset(records, _manifest_path(out))
    print(f"wrote {len(manifest.records)} samples to {out}")
    return 0


def cmd_import(ns) -> int:
    if not (ns.dt_fast > 0 and ns.dt_slow > 0):
        raise ConfigError(f"--dt-fast {ns.dt_fast} and --dt-slow {ns.dt_slow} must be positive")
    label = ActivityLabel.from_string(ns.label)
    try:
        stream = CirMatrix(read_cir(ns.recording), ns.dt_fast, ns.dt_slow)
    except ConfigError as exc:
        raise DataError(f"{ns.recording}: unusable recording: {exc}") from None
    segments = segment_recording(stream, ns.window, label, car=ns.car,
                                 seat=ns.seat, participant=ns.participant)
    if not segments:
        raise DataError(
            f"{ns.recording}: {stream.m_slow} columns are shorter than one "
            f"{ns.window} s window")
    out = _resolve_data_dir(ns.out)
    manifest_path = _manifest_path(out)
    radar = None
    records = segments
    if manifest_path.exists():
        if not ns.append:
            raise ConfigError(f"{manifest_path} already holds a dataset: "
                              "pass --append to add to it")
        manifest, existing = read_dataset(manifest_path)
        radar, cir = manifest.radar, segments[0].cir
        shape, got = (radar.n_fast, radar.m_slow), (cir.n_fast, cir.m_slow)
        if (shape, radar.dt_slow, radar.dt_fast) != (got, cir.dt_slow, cir.dt_fast):
            raise DataError(
                f"{ns.recording}: windows of shape {got} sampled every {cir.dt_slow} s "
                f"(slow time) and {cir.dt_fast} s (fast time) do not match the existing "
                f"dataset's {shape} every {radar.dt_slow} s and {radar.dt_fast} s")
        records = existing + segments
    out.mkdir(parents=True, exist_ok=True)
    manifest = write_dataset(records, manifest_path, radar)
    print(f"imported {len(segments)} segments ({len(manifest.records)} total) into {out}")
    return 0


def cmd_train(ns) -> int:
    manifest, samples = _residual_dataset(ns.data)
    car1_validation = read_counts(_parse_counts(ns.car1_validation), "--car1-validation")
    split = make_split(manifest, ns.test_per_class, ns.empty_test,
                       empty_train=ns.empty_train, car1_validation=car1_validation)
    settings = TrainSettings(**{f.name: getattr(ns, f.name) for f in fields(TrainSettings)})
    log = None if ns.quiet else print
    network, history, ref = run_training(samples, split, settings, log=log)
    extra = {
        "best_epoch": history.best_epoch,
        "best_val_auc": history.best_val_auc,
        "epochs_run": len(history.val_auc),
        "reference_energy": ref.e_s,
        "stopped_early": history.stopped_early,
        "train_dtype": samples[0].residual.real.dtype.name,
        "train_seed": settings.seed,
    }
    save_checkpoint(network, _output_path(ns.out), extra=extra)
    print(f"saved {ns.out}: best validation AUC {history.best_val_auc:.4f} "
          f"at epoch {history.best_epoch}")
    return 0


def _write_report(ns, report, detectors: str) -> int:
    """Write the report to --out as JSON and, with --csv, as CSV; say what was written."""
    emit_report(report, "json", _output_path(ns.out))
    if ns.csv:
        emit_report(report, "csv", _output_path(ns.csv))
    print(f"wrote {ns.out} ({len(report.rows)} rows, {detectors})")
    return 0


def cmd_evaluate(ns) -> int:
    _, samples = _residual_dataset(ns.data)
    if ns.detector == "resnet":
        if not ns.model:
            raise ConfigError("--detector resnet needs --model CHECKPOINT")
        network, extra = load_checkpoint(ns.model)
        scorer, checkpoints = NetworkScorer(network), [(ns.model, extra)]
    elif ns.model:
        raise ConfigError(f"--model is for --detector resnet, not --detector {ns.detector}")
    else:
        scorer, checkpoints = BaselineScorer(ns.detector, window_cols=ns.energy_window), []
    report = snr_sweep(scorer, samples, _reference(ns, samples, checkpoints),
                       grid=_parse_grid(ns.eval_grid), seed=ns.seed,
                       exact_scaling=ns.exact_snr_scaling,
                       synthetic_negatives=ns.synthetic_negatives, threads=ns.threads)
    return _write_report(ns, report, f"detector {scorer.name}")


def cmd_ablate(ns) -> int:
    _, samples = _residual_dataset(ns.data)
    models_dir = Path(ns.models)
    if not models_dir.is_dir():
        raise DataError(f"{models_dir} is not a directory of checkpoints")
    scorers, checkpoints = {}, []
    for path in sorted(models_dir.glob("*.ckpt")):
        network, extra = load_checkpoint(path)
        name = network.variant.name
        if name in scorers:
            raise ConfigError(f"two checkpoints in {models_dir} both claim variant {name}")
        scorers[name] = NetworkScorer(network)
        checkpoints.append((path, extra))
    if not scorers:
        raise DataError(f"no .ckpt files in {models_dir}")
    if ns.include_baselines:
        scorers["energy"] = BaselineScorer("energy", window_cols=ns.energy_window)
        scorers["fft"] = BaselineScorer("fft")
    ref = _reference(ns, samples, checkpoints)
    missing = sorted(set(VARIANTS) - set(scorers))
    if missing and not ns.allow_missing:
        raise DataError(f"ablation is missing trained checkpoints for: {', '.join(missing)}")
    report = ablation(scorers, samples, ref, seed=ns.seed,
                      exact_scaling=ns.exact_snr_scaling, threads=ns.threads)
    return _write_report(ns, report, f"{len(scorers)} detectors")


def _print_text_report(report) -> None:
    header = f"{'detector':<12} {'activity':<10} {'snr_db':>7} {'auc':>8} {'flops':>12}"
    print(header)
    print("-" * len(header))
    for row in report.rows:
        print(f"{row.name:<12} {row.activity:<10} {row.snr_db:>7.1f} "
              f"{row.auc:>8.4f} {row.flops:>12d}")
    anchor_activity, anchor_snr = REFERENCE_OPERATING_POINT
    at_anchor = [r for r in report.rows
                 if r.activity == anchor_activity.value and r.snr_db == anchor_snr]
    if at_anchor:
        print(f"reference points at {anchor_activity.value}/{anchor_snr:+.0f} dB: "
              f"large trained network {REFERENCE_NETWORK_AUC:.2f}, "
              f"message-passing detector {REFERENCE_MESSAGE_PASSING_AUC:.2f}")


def cmd_report(ns) -> int:
    report = read_report(ns.report)
    if ns.series:
        print(json.dumps(plot_series(report, ns.series), sort_keys=True))
        return 0
    if ns.format == "text":
        _print_text_report(report)
        return 0
    if not ns.out:
        raise ConfigError(f"--format {ns.format} needs --out FILE")
    emit_report(report, ns.format, _output_path(ns.out))
    print(f"wrote {ns.out}")
    return 0


# ------------------------------------------------------------------ parser


class _ReplacedByScene(argparse.Action):
    """Stores the option's value and notes that it was given: simulate refuses it with --scene."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.replaced_by_scene += (option_string,)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwbocc",
        description="Ultra-wideband radar car-occupancy detection workflows.")
    parser.add_argument("--version", action="version", version=f"uwbocc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_eval(p):
        p.add_argument("--data",
                       help=f"dataset directory or manifest.json (default ${DATA_DIR_ENV})")
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int,
                       help="worker threads for the sweep (results are identical for any value)")
        p.add_argument("--exact-snr-scaling", action="store_true",
                       help="rescale each noise draw so the per-sample SNR is exact")
        p.add_argument("--reference-energy", type=float,
                       help="signal energy anchoring the SNR scale "
                            "(default: checkpoint metadata, else the data's breathing median)")
        p.add_argument("--energy-window", type=int, default=DEFAULT_ENERGY_WINDOW,
                       help="slow-time columns per energy-detector window")
        p.add_argument("--csv", help="also write the report as CSV here")
        p.add_argument("--config", help="JSON file of option defaults (explicit flags win)")

    p = sub.add_parser("simulate", help="generate a labeled synthetic dataset")
    p.add_argument("--out", help=f"output dataset directory (default ${DATA_DIR_ENV})")
    p.add_argument("--count", action="append", metavar="LABEL=N",
                   help="samples per class, repeatable (breathing/talking/moving/empty)")
    p.add_argument("--scene", help="scene configuration file")
    p.add_argument("--n-fast", type=int, default=RadarConfig.n_fast,
                   help="fast-time bins per column")
    p.add_argument("--m-slow", type=int, default=RadarConfig.m_slow,
                   help="slow-time columns per sample")
    p.add_argument("--sensor-noise", type=float, action=_ReplacedByScene)
    p.add_argument("--clutter-paths", type=int, action=_ReplacedByScene)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON file of option defaults (explicit flags win)")
    p.set_defaults(func=cmd_simulate, replaced_by_scene=(),
                   **_defaults(synth_dataset, "sensor_noise", "clutter_paths"))

    p = sub.add_parser("import", help="segment an external recording into a dataset")
    p.add_argument("recording", help="continuous recording in .cir container format")
    p.add_argument("--label", required=True,
                   choices=[lab.value for lab in ActivityLabel])
    p.add_argument("--car", required=True, help="acquisition car id (split logic "
                   "holds out car2 for testing)")
    p.add_argument("--seat")
    p.add_argument("--participant")
    p.add_argument("--window", type=float, default=10.0,
                   help="segment length in seconds (integer multiple of the repetition interval)")
    p.add_argument("--dt-fast", type=float, default=RadarConfig.dt_fast,
                   help="fast-time sample spacing of the recording, seconds")
    p.add_argument("--dt-slow", type=float, default=RadarConfig.dt_slow,
                   help="pulse repetition interval of the recording, seconds")
    p.add_argument("--out", help=f"dataset directory (default ${DATA_DIR_ENV})")
    p.add_argument("--append", action="store_true",
                   help="add to an existing dataset instead of requiring a fresh one")
    p.set_defaults(func=cmd_import)

    # Every TrainSettings field is an option of the same name; its default is the field's.
    # The split counts default to make_split's.
    p = sub.add_parser("train", help="train one network variant on a dataset")
    p.add_argument("--data", help=f"dataset directory or manifest.json (default ${DATA_DIR_ENV})")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    p.add_argument("--variant", choices=sorted(VARIANTS))
    p.add_argument("--kernel", type=int)
    p.add_argument("--snr-lo", type=float, help="lower edge of the training SNR range, dB")
    p.add_argument("--snr-hi", type=float, help="upper edge of the training SNR range, dB")
    p.add_argument("--exact-snr-scaling", action="store_true")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--validation-snr", type=float)
    p.add_argument("--reuse-occupied", type=int,
                   help="noise draws per occupied training sample per epoch")
    p.add_argument("--reuse-empty", type=int,
                   help="noise draws per empty training sample per epoch")
    p.add_argument("--test-per-class", type=int,
                   help="held-out car2 records per occupied class")
    p.add_argument("--empty-test", type=int)
    p.add_argument("--empty-train", type=int)
    p.add_argument("--car1-validation", action="append", metavar="LABEL=N",
                   help="move the last N car1 records per class to validation")
    p.add_argument("--seed", type=int)
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--config", help="JSON file of option defaults (explicit flags win)")
    p.set_defaults(func=cmd_train, **asdict(TrainSettings()),
                   **_defaults(make_split, "test_per_class", "empty_test"))

    p = sub.add_parser("evaluate", help="AUC of one detector across an SNR grid")
    add_common_eval(p)
    p.add_argument("--detector", default="resnet", choices=["resnet", "energy", "fft"])
    p.add_argument("--model", help="checkpoint for --detector resnet")
    p.add_argument("--eval-grid", metavar="SPEC",
                   help="dB values: '-10,-20,-40' or 'start:stop:count'; use the "
                        "--eval-grid=SPEC form since values start with a dash "
                        f"(default {DEFAULT_EVAL_GRID[0]:g} to {DEFAULT_EVAL_GRID[-1]:g}, "
                        f"{len(DEFAULT_EVAL_GRID)} points)")
    p.add_argument("--synthetic-negatives", type=int,
                   help="pure-noise negatives to add (flagged in the report)")
    p.add_argument("--out", required=True, help="JSON report to write")
    p.set_defaults(func=cmd_evaluate,
                   **_defaults(snr_sweep, "seed", "threads", "synthetic_negatives"))

    p = sub.add_parser("ablate", help="AUC versus complexity at fixed SNR anchors")
    add_common_eval(p)
    p.add_argument("--models", required=True,
                   help="directory of trained checkpoints, one per variant")
    p.add_argument("--allow-missing", action="store_true",
                   help="run even if some of the ten standard variants lack checkpoints")
    p.add_argument("--include-baselines", action="store_true",
                   help="also score the energy and FFT detectors")
    p.add_argument("--out", required=True, help="JSON report to write")
    p.set_defaults(func=cmd_ablate, **_defaults(ablation, "seed", "threads"))

    p = sub.add_parser("report", help="render or convert a stored report")
    p.add_argument("report", help="report JSON produced by evaluate or ablate")
    p.add_argument("--format", default="text", choices=["text", "csv", "json"])
    p.add_argument("--out", help="output file for csv/json")
    p.add_argument("--series", nargs="?", const="snr_db", choices=["snr_db", "flops"],
                   help="print per-detector x/y series as JSON instead "
                        "(axis defaults to snr_db)")
    p.set_defaults(func=cmd_report)

    return parser


def _config_args(ns: argparse.Namespace) -> list:
    """The --config file's values as (key, --option=value token) pairs for the same parser.

    true/false make a switch present/absent, null leaves the default, and a
    list or {label: N} object becomes one comma-joined value.  A repeatable
    option given on the command line replaces the file's value.
    """
    path = getattr(ns, "config", None)
    if not path:
        return []
    doc = read_json(path, "config", ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object of option values")
    valid = set(vars(ns)) - {"func", "command", "config", "replaced_by_scene"}
    tokens = []
    for key in sorted(doc):
        dest = key.replace("-", "_")
        if dest not in valid:
            raise ConfigError(f"config {path}: unknown option {key!r} for this command")
        value, given = doc[key], getattr(ns, dest)
        if isinstance(value, bool) and not isinstance(given, bool):  # only switches hold a bool
            raise ConfigError(f"config {path}: {key!r} takes a value, not {json.dumps(value)}")
        if value is None or value is False or isinstance(given, list):
            continue
        if isinstance(value, dict):
            value = [f"{label}={item}" for label, item in value.items()]
        if isinstance(value, list):
            value = ",".join(map(str, value))
        option = "--" + dest.replace("_", "-")
        tokens.append((key, option if value is True else f"{option}={value}"))
    return tokens


def _parse_with_config(parser, head: list, tail: list, path, tokens: list) -> argparse.Namespace:
    """Parse head + the config tokens + tail, so a flag in tail wins over the file.

    The command line alone has parsed already, so a token that fails next to
    it is at fault: argparse's message then also names the file and the key.
    """
    for key, token in tokens:
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                parser.parse_args(head + [token] + tail)
        except SystemExit:
            usage, _, message = stderr.getvalue().rpartition(": error: ")
            sys.stderr.write(f"{usage}: error: config {path}, key {key!r}: {message}")
            raise
    return parser.parse_args(head + [token for _, token in tokens] + tail)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    ns = parser.parse_args(args)
    try:
        tokens = _config_args(ns)
        if tokens:
            at = args.index(ns.command) + 1
            ns = _parse_with_config(parser, args[:at], args[at:], ns.config, tokens)
        return ns.func(ns)
    except (UwboccError, OSError) as exc:
        # An OSError is filesystem trouble the library did not anticipate
        # (permissions, disk full): a data error rather than a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, UwboccError) else DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
