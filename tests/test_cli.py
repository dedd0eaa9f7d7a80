"""CLI workflows: every subcommand, config precedence, byte-determinism."""

import inspect
import json
import os
import resource
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uwbocc
from uwbocc import cli
from uwbocc.cli import MAX_GRID_COUNT, _parse_counts, _parse_grid, main
from uwbocc.core import read_counts
from uwbocc.dataset import make_split, read_dataset, read_manifest, write_cir
from uwbocc.errors import ConfigError, DataError, DivergenceError
from uwbocc.evaluate import ablation, read_report, snr_sweep
from uwbocc.nn import VARIANTS, build_network, load_checkpoint, save_checkpoint
from uwbocc.pipeline import TrainSettings
from uwbocc.simulate import Scene, load_scene, simulate_received, synth_dataset

SIM = ["simulate", "--count", "breathing=6", "--count", "empty=6",
       "--n-fast", "16", "--m-slow", "24", "--seed", "3"]
TRAIN_FAST = ["--test-per-class", "0", "--empty-test", "0",
              "--reuse-occupied", "2", "--reuse-empty", "2", "--batch-size", "8",
              "--max-epochs", "2", "--patience", "1", "--quiet"]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def dataset(tmp_path):
    data = tmp_path / "data"
    assert run(*SIM, "--out", data) == 0
    return data


@pytest.fixture()
def checkpoint(dataset, tmp_path):
    path = tmp_path / "model.ckpt"
    assert run("train", "--data", dataset, "--out", path, *TRAIN_FAST) == 0
    return path


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestSimulate:
    def test_writes_dataset(self, dataset):
        manifest = read_manifest(dataset / "manifest.json")
        assert len(manifest.records) == 12
        labels = [r.label.value for r in manifest.records]
        assert labels.count("breathing") == 6 and labels.count("empty") == 6

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*SIM, "--out", a) == 0
        assert run(*SIM, "--out", b) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_seed_changes_payload(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(*SIM[:-1], "1", "--out", a) == 0
        assert run(*SIM[:-1], "2", "--out", b) == 0
        assert tree_bytes(a) != tree_bytes(b)

    def test_scene_from_the_format_docs(self, tmp_path):
        docs = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        scene = tmp_path / "cabin.txt"
        scene.write_text(docs.split("```ini\n", 1)[1].split("```", 1)[0])
        out = tmp_path / "d"
        assert run("simulate", "--count", "breathing=2", "--count", "empty=2",
                   "--m-slow", "20", "--scene", scene, "--out", out) == 0
        manifest, records = read_dataset(out / "manifest.json")
        # The empty samples are the scene's two reflectors plus its noise level.
        clutter = Scene(clutter_paths=load_scene(scene).clutter_paths)
        static = simulate_received(clutter, manifest.radar).data
        noise = np.stack([r.cir.data - static for r in records if not r.label.occupied])
        assert np.std(noise.real) == pytest.approx(0.01, rel=0.1)
        breathing = [r for r in records if r.label.occupied]
        assert len(breathing) == 2 and not np.array_equal(breathing[0].cir.data, static)

    def test_requires_counts(self, tmp_path, capsys):
        assert run("simulate", "--out", tmp_path / "x") == 2
        assert "--count" in capsys.readouterr().err

    def test_env_var_supplies_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("UWBOCC_DATA_DIR", str(target))
        assert run(*SIM) == 0
        assert (target / "manifest.json").exists()

    def test_missing_out_dir_is_config_error(self, monkeypatch, capsys):
        monkeypatch.delenv("UWBOCC_DATA_DIR", raising=False)
        assert run(*SIM) == 2
        assert "UWBOCC_DATA_DIR" in capsys.readouterr().err


class TestImport:
    def make_recording(self, tmp_path, m=96):
        rng = np.random.default_rng(0)
        rec = tmp_path / "session.cir"
        data = rng.standard_normal((16, m)) + 1j * rng.standard_normal((16, m))
        write_cir(rec, data)
        return rec

    def test_segments_into_dataset(self, tmp_path):
        rec = self.make_recording(tmp_path)
        out = tmp_path / "imported"
        assert run("import", rec, "--label", "talking", "--car", "car1",
                   "--participant", "p01", "--seat", "front",
                   "--window", "2.4", "--out", out) == 0
        manifest = read_manifest(out / "manifest.json")
        assert len(manifest.records) == 4  # 96 columns, 24 per 2.4 s window
        assert all(r.label.value == "talking" for r in manifest.records)
        assert [r.segment_index for r in manifest.records] == list(range(4))

    def test_append_grows_dataset(self, tmp_path):
        rec = self.make_recording(tmp_path)
        out = tmp_path / "imported"
        common = ["--window", "2.4", "--out", out]
        assert run("import", rec, "--label", "talking", "--car", "car1",
                   "--participant", "p01", *common) == 0
        assert run("import", rec, "--label", "empty", "--car", "car2",
                   "--append", *common) == 0
        manifest = read_manifest(out / "manifest.json")
        assert len(manifest.records) == 8
        assert {r.label.value for r in manifest.records} == {"talking", "empty"}

    def test_window_mismatch_on_append(self, tmp_path, capsys):
        rec = self.make_recording(tmp_path)
        out = tmp_path / "imported"
        assert run("import", rec, "--label", "talking", "--car", "car1",
                   "--participant", "p01", "--window", "2.4", "--out", out) == 0
        assert run("import", rec, "--label", "empty", "--car", "car2",
                   "--window", "4.8", "--out", out, "--append") == 3
        assert "do not match" in capsys.readouterr().err

    def test_coarse_fast_time_sampling_imports(self, tmp_path):
        # 2 ns sampling puts the simulator's pulse band above Nyquist; a
        # recording's radar section only describes it, so it imports and reads.
        rec = self.make_recording(tmp_path)
        out = tmp_path / "imported"
        assert run("import", rec, "--label", "empty", "--car", "car2", "--dt-fast", "2e-9",
                   "--window", "2.4", "--out", out) == 0
        manifest, records = read_dataset(out / "manifest.json")
        assert manifest.radar.dt_fast == 2e-9 and len(records) == 4
        assert all(r.cir.dt_fast == 2e-9 for r in records)

    def test_fractional_window_rejected(self, tmp_path):
        rec = self.make_recording(tmp_path)
        assert run("import", rec, "--label", "empty", "--car", "car2",
                   "--window", "2.45", "--out", tmp_path / "x") == 2

    def test_corrupt_recording(self, tmp_path):
        bad = tmp_path / "bad.cir"
        bad.write_bytes(b"nonsense")
        assert run("import", bad, "--label", "empty", "--car", "car2",
                   "--out", tmp_path / "x") == 3


class TestTrain:
    def test_writes_checkpoint_with_metadata(self, checkpoint):
        network, extra = load_checkpoint(checkpoint)
        assert network.variant.name == "1D-E"
        assert extra["reference_energy"] > 0
        assert 0.0 <= extra["best_val_auc"] <= 1.0
        assert extra["epochs_run"] <= 2
        assert extra["train_dtype"] == "float32"

    def test_byte_identical_reruns(self, dataset, tmp_path):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        assert run("train", "--data", dataset, "--out", a, *TRAIN_FAST) == 0
        assert run("train", "--data", dataset, "--out", b, *TRAIN_FAST) == 0
        assert a.read_bytes() == b.read_bytes()

    # 1D-E at B=64 on 64x100 inputs: shapes where one GEMM over a whole
    # column slice gives float32 weight gradients whose bits change with the
    # OpenBLAS thread count.  2D-E at B=16 on 16x24 checks the other layout.
    @pytest.mark.parametrize("variant, n_fast, m_slow, batch", [
        ("1D-E", 64, 100, 64), ("2D-E", 16, 24, 16)])
    def test_byte_identical_across_blas_threads(self, tmp_path, variant, n_fast, m_slow, batch):
        data = tmp_path / "data"
        assert run("simulate", "--out", data, "--count", "breathing=8", "--count", "empty=8",
                   "--n-fast", str(n_fast), "--m-slow", str(m_slow), "--seed", "5") == 0
        checkpoints = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas-{threads}.ckpt"
            proc = run_cli(["train", "--data", data, "--out", out, "--variant", variant,
                            "--test-per-class", "0", "--empty-test", "0",
                            "--batch-size", str(batch), "--reuse-occupied", "8",
                            "--reuse-empty", "8", "--max-epochs", "1",
                            "--quiet"], OPENBLAS_NUM_THREADS=threads)
            assert proc.returncode == 0, proc.stderr
            checkpoints.append(out.read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_creates_missing_output_directory(self, dataset, tmp_path):
        out = tmp_path / "models" / "nested" / "m.ckpt"
        assert run("train", "--data", dataset, "--out", out, *TRAIN_FAST) == 0
        assert out.exists()

    def test_insufficient_split_is_data_error(self, dataset, capsys):
        assert run("train", "--data", dataset, "--out", "/tmp/never.ckpt",
                   "--test-per-class", "150") == 3
        assert "insufficient" in capsys.readouterr().err

    def test_parser_defaults_are_the_train_settings(self):
        parse = cli.build_parser().parse_args
        ns = parse(["train", "--out", "x"])
        assert {f.name: getattr(ns, f.name) for f in fields(TrainSettings)} == \
            asdict(TrainSettings())
        # Every other option that passes a library keyword defaults to that keyword's default.
        for argv, function, names in [
                (["train", "--out", "x"], make_split, ("test_per_class", "empty_test")),
                (["simulate"], synth_dataset, ("sensor_noise", "clutter_paths")),
                (["evaluate", "--out", "x"], snr_sweep,
                 ("seed", "threads", "synthetic_negatives")),
                (["ablate", "--out", "x", "--models", "m"], ablation, ("seed", "threads"))]:
            ns, keywords = parse(argv), inspect.signature(function).parameters
            assert {name: getattr(ns, name) for name in names} == \
                {name: keywords[name].default for name in names}, argv

    def test_default_flags_train_with_the_default_settings(self, dataset, monkeypatch):
        class Captured(Exception):
            pass

        def capture(samples, split, settings, log=None):
            raise Captured(settings)

        monkeypatch.setattr(cli, "run_training", capture)
        with pytest.raises(Captured) as caught:
            run("train", "--data", dataset, "--out", "never.ckpt",
                "--test-per-class", "0", "--empty-test", "0")
        assert caught.value.args == (TrainSettings(),)

    def test_negative_patience_is_config_error(self, dataset, tmp_path, capsys):
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", dataset, "--out", out, *TRAIN_FAST, "--patience=-1") == 2
        assert "patience must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_variant_rejected_by_parser(self, dataset):
        with pytest.raises(SystemExit) as exc:
            run("train", "--data", dataset, "--out", "/tmp/never.ckpt",
                "--variant", "9D-Z", *TRAIN_FAST)
        assert exc.value.code == 2

    def test_config_file_supplies_defaults_and_flags_win(self, dataset, tmp_path):
        config = tmp_path / "train.json"
        config.write_text(json.dumps({
            "test-per-class": 0, "empty-test": 0, "reuse-occupied": 2,
            "reuse-empty": 2, "batch-size": 8, "max-epochs": 5,
            "patience": 1, "quiet": True}))
        out = tmp_path / "cfg.ckpt"
        assert run("train", "--data", dataset, "--out", out,
                   "--config", config, "--max-epochs", "1") == 0
        _, extra = load_checkpoint(out)
        assert extra["epochs_run"] == 1  # the explicit flag beat the config's 5

    def test_unknown_config_key(self, dataset, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"max-epoch": 1}))
        assert run("train", "--data", dataset, "--out", "/tmp/never.ckpt",
                   "--config", config) == 2
        assert "max-epoch" in capsys.readouterr().err


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestConfigValues:
    def test_string_seed_becomes_an_integer(self, dataset, tmp_path):
        out = tmp_path / "r.json"
        config = write_config(tmp_path, {"seed": "3", "eval-grid": "-10"})
        assert run("evaluate", "--data", dataset, "--detector", "energy",
                   "--config", config, "--out", out) == 0
        assert json.loads(out.read_text())["seed"] == 3
        assert read_report(out).seed == 3

    def test_count_flag_replaces_config_count(self, tmp_path):
        config = write_config(tmp_path, {"count": {"breathing": 6, "empty": 6},
                                         "n-fast": 16, "m-slow": 24})
        out = tmp_path / "data"
        assert run("simulate", "--config", config, "--count", "empty=4", "--out", out) == 0
        labels = [r.label.value for r in read_manifest(out / "manifest.json").records]
        assert labels == ["empty"] * 4

    def test_config_writes_the_same_bytes_as_flags(self, dataset, tmp_path):
        config = write_config(tmp_path, {
            "count": {"breathing": 6, "empty": 6}, "n_fast": 16, "m-slow": 24,
            "seed": 3, "scene": None})
        assert run("simulate", "--config", config, "--out", tmp_path / "cfg") == 0
        assert tree_bytes(tmp_path / "cfg") == tree_bytes(dataset)

        flags = ["evaluate", "--data", dataset, "--detector", "energy"]
        assert run(*flags, "--eval-grid=-10,-30.5", "--energy-window", "4",
                   "--exact-snr-scaling", "--out", tmp_path / "flags.json") == 0
        config = write_config(tmp_path, {
            "eval-grid": [-10, -30.5], "energy_window": 4, "exact-snr-scaling": True,
            "reference-energy": None, "threads": 2, "detector": "fft"})
        assert run(*flags, "--config", config, "--out", tmp_path / "cfg.json") == 0
        assert (tmp_path / "cfg.json").read_bytes() == (tmp_path / "flags.json").read_bytes()


class TestEvaluate:
    def test_resnet_report(self, dataset, checkpoint, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "report.csv"
        assert run("evaluate", "--data", dataset, "--model", checkpoint,
                   "--eval-grid=-10,-30", "--out", out, "--csv", csv) == 0
        report = read_report(out)
        assert len(report.rows) == 2
        assert {r.snr_db for r in report.rows} == {-10.0, -30.0}
        assert report.rows[0].name == "1D-E"
        assert csv.read_text().splitlines()[0].startswith("name,activity")

    def test_resnet_needs_model(self, dataset, tmp_path):
        assert run("evaluate", "--data", dataset,
                   "--out", tmp_path / "r.json") == 2

    def test_baseline_detectors(self, dataset, tmp_path):
        for detector in ("energy", "fft"):
            out = tmp_path / f"{detector}.json"
            assert run("evaluate", "--data", dataset, "--detector", detector,
                       "--eval-grid=-10", "--energy-window", "4",
                       "--out", out) == 0
            assert read_report(out).rows[0].name == detector

    def test_byte_identical_across_threads(self, dataset, checkpoint, tmp_path):
        outs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 4)):
            out = tmp_path / f"{tag}.json"
            assert run("evaluate", "--data", dataset, "--model", checkpoint,
                       "--eval-grid=-10,-20,-30", "--threads", threads,
                       "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_grid_colon_syntax(self, dataset, checkpoint, tmp_path):
        out = tmp_path / "grid.json"
        assert run("evaluate", "--data", dataset, "--model", checkpoint,
                   "--eval-grid=-10:-20:3", "--out", out) == 0
        assert {r.snr_db for r in read_report(out).rows} == {-10.0, -15.0, -20.0}

    def test_bad_grid(self, dataset, checkpoint, tmp_path, capsys):
        assert run("evaluate", "--data", dataset, "--model", checkpoint,
                   "--eval-grid=lots", "--out", tmp_path / "r.json") == 2
        assert "eval-grid" in capsys.readouterr().err

    def test_reference_energy_flag_changes_report(self, dataset, checkpoint, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("evaluate", "--data", dataset, "--model", checkpoint,
                   "--eval-grid", "-20", "--out", a) == 0
        assert run("evaluate", "--data", dataset, "--model", checkpoint,
                   "--eval-grid", "-20", "--reference-energy", "1e6", "--out", b) == 0
        assert read_report(a).config["reference_energy"] != \
            read_report(b).config["reference_energy"]

    def test_each_record_is_mean_removed_once(self, dataset, tmp_path, monkeypatch):
        from uwbocc import pipeline

        calls = []
        mean_remove = pipeline.mean_remove
        monkeypatch.setattr(pipeline, "mean_remove",
                            lambda cir: calls.append(cir) or mean_remove(cir))
        assert run("evaluate", "--data", dataset, "--detector", "energy",
                   "--eval-grid=-10", "--out", tmp_path / "r.json") == 0
        assert len(calls) == 12
        calls.clear()
        assert run("train", "--data", dataset, "--out", tmp_path / "m.ckpt", *TRAIN_FAST) == 0
        assert len(calls) == 12

    def test_missing_dataset(self, tmp_path, checkpoint):
        assert run("evaluate", "--data", tmp_path / "nowhere",
                   "--model", checkpoint, "--out", tmp_path / "r.json") == 3


class TestAblate:
    def write_models(self, tmp_path, references):
        """Random-init 1D-E and 2D-E checkpoints for SIM's 16 x 24 inputs."""
        models = tmp_path / "models"
        models.mkdir()
        for name, shape, ref in zip(("1D-E", "2D-E"), ((32, 24), (2, 16, 24)), references):
            extra = {} if ref is None else {"reference_energy": ref}
            save_checkpoint(build_network(name, shape, seed=1), models / f"{name}.ckpt", extra)
        return models

    def test_uses_checkpoint_reference_and_flag_wins(self, dataset, tmp_path):
        models = self.write_models(tmp_path, (None, 2.5))
        out = tmp_path / "r.json"
        assert run("ablate", "--data", dataset, "--models", models,
                   "--allow-missing", "--out", out) == 0
        assert read_report(out).config["reference_energy"] == 2.5
        assert run("ablate", "--data", dataset, "--models", models, "--allow-missing",
                   "--reference-energy", "7.0", "--out", out) == 0
        assert read_report(out).config["reference_energy"] == 7.0

    def test_disagreeing_checkpoint_references(self, dataset, tmp_path, capsys):
        models = self.write_models(tmp_path, (2.5, 4.0))
        args = ["ablate", "--data", dataset, "--models", models, "--allow-missing",
                "--out", tmp_path / "r.json"]
        assert run(*args) == 3
        err = capsys.readouterr().err
        assert "1D-E.ckpt" in err and "2D-E.ckpt" in err
        assert run(*args, "--reference-energy", "3.0") == 0

    def test_checkpoints_that_agree_give_their_reference(self, dataset, tmp_path):
        models = self.write_models(tmp_path, (2.5, 2.5))
        out = tmp_path / "r.json"
        assert run("ablate", "--data", dataset, "--models", models,
                   "--allow-missing", "--out", out) == 0
        assert read_report(out).config["reference_energy"] == 2.5

    def test_disagreement_names_the_first_checkpoint_and_the_one_that_differs(
            self, dataset, tmp_path, capsys):
        models = tmp_path / "models"
        models.mkdir()
        for name, ref in (("1D-D", 2.5), ("1D-E", 2.5), ("2D-E", 4.0)):
            shape = (2, 16, 24) if name.startswith("2D") else (32, 24)
            save_checkpoint(build_network(name, shape, seed=1), models / f"{name}.ckpt",
                            {"reference_energy": ref})
        out = tmp_path / "r.json"
        assert run("ablate", "--data", dataset, "--models", models, "--allow-missing",
                   "--out", out) == 3
        assert capsys.readouterr().err == (
            f"error: checkpoints {models / '1D-D.ckpt'} and {models / '2D-E.ckpt'} store "
            "different reference energies (2.5 and 4.0); pass --reference-energy to choose one\n")
        assert not out.exists()

    def test_missing_variants_without_flag(self, dataset, checkpoint, tmp_path, capsys):
        models = tmp_path / "models"
        models.mkdir()
        (models / "1D-E.ckpt").write_bytes(checkpoint.read_bytes())
        assert run("ablate", "--data", dataset, "--models", models, "--include-baselines",
                   "--out", tmp_path / "r.json") == 3
        err = capsys.readouterr().err
        assert ("missing trained checkpoints for: "
                "1D-A, 1D-B, 1D-C, 1D-D, 2D-A, 2D-B, 2D-C, 2D-D, 2D-E\n") in err
        assert not (tmp_path / "r.json").exists()

    def test_allow_missing_with_baselines(self, dataset, checkpoint, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        (models / "1D-E.ckpt").write_bytes(checkpoint.read_bytes())
        out = tmp_path / "ablation.json"
        assert run("ablate", "--data", dataset, "--models", models,
                   "--allow-missing", "--include-baselines",
                   "--energy-window", "4", "--out", out) == 0
        report = read_report(out)
        names = {r.name for r in report.rows}
        assert names == {"1D-E", "energy", "fft"}
        # breathing is the only occupied activity here, so one anchor each
        assert len(report.rows) == 3

    def test_empty_models_dir(self, dataset, tmp_path):
        models = tmp_path / "models"
        models.mkdir()
        assert run("ablate", "--data", dataset, "--models", models,
                   "--allow-missing", "--out", tmp_path / "r.json") == 3


class TestReport:
    def make_report(self, dataset, checkpoint, tmp_path):
        out = tmp_path / "report.json"
        assert run("evaluate", "--data", dataset, "--model", checkpoint,
                   "--eval-grid=-10,-20", "--out", out) == 0
        return out

    def test_text_table(self, dataset, checkpoint, tmp_path, capsys):
        path = self.make_report(dataset, checkpoint, tmp_path)
        assert run("report", path) == 0
        output = capsys.readouterr().out
        assert "detector" in output and "1D-E" in output
        assert "reference points" in output  # the -20 dB row triggers the footer

    def test_csv_conversion_round_trip(self, dataset, checkpoint, tmp_path):
        path = self.make_report(dataset, checkpoint, tmp_path)
        csv1, csv2 = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run("report", path, "--format", "csv", "--out", csv1) == 0
        assert run("evaluate", "--data", dataset, "--model", checkpoint,
                   "--eval-grid=-10,-20", "--out", tmp_path / "again.json",
                   "--csv", csv2) == 0
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_csv_needs_out(self, dataset, checkpoint, tmp_path):
        path = self.make_report(dataset, checkpoint, tmp_path)
        assert run("report", path, "--format", "csv") == 2

    def test_series_output(self, dataset, checkpoint, tmp_path, capsys):
        path = self.make_report(dataset, checkpoint, tmp_path)
        capsys.readouterr()  # drop the evaluate command's progress line
        assert run("report", path, "--series", "snr_db") == 0
        series = json.loads(capsys.readouterr().out)
        assert series["1D-E/breathing"]["x"] == [-20.0, -10.0]

    def test_malformed_report(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run("report", bad) == 3


def recording(tmp_path, shape=(16, 96)):
    path = tmp_path / "session.cir"
    write_cir(path, np.ones(shape, dtype=complex))
    return path


def edited_checkpoint(tmp_path, edit):
    """A 1D-E checkpoint whose JSON header went through edit(header)."""
    path = tmp_path / "edited.ckpt"
    save_checkpoint(build_network("1D-E", (32, 24), seed=0), path)
    blob = path.read_bytes()
    (size,) = struct.unpack("<I", blob[4:8])
    header = json.loads(blob[8:8 + size])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:4] + struct.pack("<I", len(new)) + new + blob[8 + size:])
    return path


def truncated_checkpoint(tmp_path):
    """A 1D-E checkpoint cut three bytes short, inside its last float32 value."""
    path = tmp_path / "truncated.ckpt"
    save_checkpoint(build_network("1D-E", (32, 24), seed=0), path)
    path.write_bytes(path.read_bytes()[:-3])
    return path


def models_dir(tmp_path, extra=None):
    """A directory holding 1D-E.ckpt, a random-init 1D-E checkpoint for SIM's 16 x 24
    inputs that stores extra as its metadata."""
    models = tmp_path / "models"
    models.mkdir()
    save_checkpoint(build_network("1D-E", (32, 24), seed=0), models / "1D-E.ckpt", extra=extra)
    return models


def twin_checkpoints(tmp_path):
    """models_dir(tmp_path) with a second copy of its 1D-E checkpoint."""
    models = models_dir(tmp_path)
    (models / "copy.ckpt").write_bytes((models / "1D-E.ckpt").read_bytes())
    return models


def scoring_one_checkpoint(command, extra):
    """USER_MISTAKES argv: evaluate or ablate scoring one checkpoint that stores extra."""
    def argv(data, tmp):
        models = models_dir(tmp, extra)
        given = (["--model", models / "1D-E.ckpt"] if command == "evaluate"
                 else ["--models", models, "--allow-missing"])
        return [command, "--data", data, *given, "--out", tmp / "r.json"]
    return argv


def non_utf8(path, text):
    """Write text with one 0xff byte, which no UTF-8 text holds, replacing its second byte."""
    blob = text.encode("utf-8")
    path.write_bytes(blob[:1] + b"\xff" + blob[2:])
    return path


def edited_manifest(data, edit):
    """The dataset at data, its manifest's JSON document gone through edit(doc)."""
    doc = json.loads((data / "manifest.json").read_text())
    edit(doc)
    (data / "manifest.json").write_text(json.dumps(doc))
    return data


def first_of(kind, **fields):
    """A manifest edit setting fields on the first record labelled kind."""
    def edit(doc):
        next(r for r in doc["records"] if r["label"] == kind).update(fields)
    return edit


def scene_file(tmp_path, text, clutter="[clutter]\namplitude = 1\ndelay = 4e-9\n"):
    path = tmp_path / "scene.txt"
    path.write_text(clutter + text)
    return path


def poisoned_cir(data):
    """The dataset at data, the first sample of its first .cir file now NaN.

    write_cir refuses a NaN, so the sample's bytes, just after the 16-byte
    header, are replaced in place.
    """
    path = data / read_manifest(data / "manifest.json").records[0].file
    raw = path.read_bytes()
    path.write_bytes(raw[:16] + np.array(np.nan, dtype="<c8").tobytes() + raw[24:])
    return path


def relabelled(data, old, new):
    """The dataset at data, its records labelled old now labelled new."""
    def edit(doc):
        for record in doc["records"]:
            if record["label"] == old:
                record["label"] = new
    return edited_manifest(data, edit)


def garbled_manifest(data):
    """The dataset at data, its manifest.json now holding a 0xff byte."""
    non_utf8(data / "manifest.json", (data / "manifest.json").read_text())
    return data


# Scenes that parse but cannot be simulated: (simulate flags, scene text
# with no clutter, words of the cause the error must give after the path).
SCENE_CONTENT_MISTAKES = {
    "scene without clutter for empty samples": (
        ["simulate", "--n-fast", "16", "--m-slow", "24", "--count", "empty=2"],
        "[target]\namplitude = 1\ndelay = 3e-9\n", "at least one [clutter] section"),
    "scene with two breathing targets": (
        ["simulate", "--n-fast", "16", "--m-slow", "24", "--count", "breathing=2"],
        "[target]\namplitude = 1\ndelay = 3e-9\n[target]\namplitude = 0.5\ndelay = 5e-9\n",
        "two breathing targets"),
    "scene target outside the fast-time window": (
        ["simulate", "--n-fast", "16", "--m-slow", "24", "--count", "breathing=2"],
        "[target]\namplitude = 1\ndelay = 10e-9\n", "outside the fast-time window"),
    "scene amplitude beyond single precision": (
        ["simulate", "--n-fast", "16", "--m-slow", "24", "--count", "empty=4",
         "--count", "breathing=4"],
        "[clutter]\namplitude = 1e300\ndelay = 4e-9\n", "overflows single precision"),
}

# Checkpoint metadata that evaluate and ablate cannot use: {name: extra}.
UNUSABLE_EXTRAS = {
    "reference energy a string": {"reference_energy": "abc"},
    "reference energy null": {"reference_energy": None},
    "reference energy a list": {"reference_energy": [1]},
    "reference energy negative": {"reference_energy": -1.0},
    "reference energy zero": {"reference_energy": 0},
    "reference energy NaN": {"reference_energy": float("nan")},
    "reference energy true": {"reference_energy": True},
    "extra a number": 5,
    "extra a list": [1],
    "extra a string": "abc",
}

USER_MISTAKES = {
    "class count not an integer": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--car1-validation", "breathing=x"], 2),
    "non-positive repetition interval": (
        lambda data, tmp: ["import", recording(tmp), "--label", "empty",
                           "--car", "car2", "--dt-slow", "0", "--out", tmp / "x"], 2),
    "checkpoint header without variant": (
        lambda data, tmp: ["evaluate", "--data", data, "--model",
                           edited_checkpoint(tmp, lambda h: h.pop("variant")),
                           "--out", tmp / "r.json"], 3),
    "checkpoint header with an even kernel": (
        lambda data, tmp: ["evaluate", "--data", data, "--model",
                           edited_checkpoint(tmp, lambda h: h.update(kernel=2)),
                           "--out", tmp / "r.json"], 3),
    "truncated checkpoint": (
        lambda data, tmp: ["evaluate", "--data", data, "--model", truncated_checkpoint(tmp),
                           "--out", tmp / "r.json"], 3),
    "even kernel": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--kernel", "2", *TRAIN_FAST], 2),
    "true for an option that takes a value": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--config", write_config(tmp, {"csv": True}),
                           "--out", tmp / "r.json"], 2),
    "negative synthetic negatives": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--synthetic-negatives", "-3", "--out", tmp / "r.json"], 2),
    "repeated grid SNR": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--eval-grid=-10,-10", "--out", tmp / "r.json"], 2),
    "range grid that repeats one SNR": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--eval-grid=-10:-10:3", "--out", tmp / "r.json"], 2),
    # A header that asks for far more weights than the payload holds is
    # rejected before the network is built (n_total 93 would allocate GBs).
    "checkpoint header deeper than its payload": (
        lambda data, tmp: ["evaluate", "--data", data, "--model",
                           edited_checkpoint(tmp, lambda h: h["variant"].update(n_total=93)),
                           "--out", tmp / "r.json"], 3),
    "checkpoint array shape with a negative size": (
        lambda data, tmp: ["evaluate", "--data", data, "--model",
                           edited_checkpoint(tmp, lambda h: h["arrays"][0].update(
                               shape=[8, -32, 3])),
                           "--out", tmp / "r.json"], 3),
    "checkpoint shape differs from the dataset": (
        lambda data, tmp: ["evaluate", "--data", data, "--model",
                           edited_checkpoint(tmp, lambda h: h.update(input_shape=[32, 20])),
                           "--out", tmp / "r.json"], 3),
    "report not UTF-8": (
        lambda data, tmp: ["report", non_utf8(tmp / "bad.json", '{"rows": []}')], 3),
    "manifest not UTF-8": (
        lambda data, tmp: ["evaluate", "--data", garbled_manifest(data), "--detector", "energy",
                           "--out", tmp / "r.json"], 3),
    "config not UTF-8": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--config", non_utf8(tmp / "bad.json", '{"seed": 1}'),
                           "--out", tmp / "r.json"], 2),
    "scene file not UTF-8": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--out", tmp / "x",
                           "--scene", non_utf8(tmp / "bad.txt", "noise_sigma = 0\n")], 2),
    "validation SNR -inf": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--validation-snr=-inf", *TRAIN_FAST], 2),
    "validation SNR nan": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--validation-snr", "nan", *TRAIN_FAST], 2),
    "negative empty-train": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--empty-train=-5", *TRAIN_FAST], 2),
    "negative car1-validation": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--car1-validation", "breathing=-2", *TRAIN_FAST], 2),
    "misspelled car1-validation label": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--car1-validation", "breething=3", *TRAIN_FAST], 2),
    "car1-validation for a class the dataset lacks": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--car1-validation", "moving=1", *TRAIN_FAST], 2),
    "learning rate nan": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--learning-rate", "nan", *TRAIN_FAST], 2),
    "learning rate inf": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--learning-rate", "inf", *TRAIN_FAST], 2),
    # Occupied samples have a target path, so no clutter at all is a valid scene.
    "negative clutter paths": (
        lambda data, tmp: ["simulate", "--count", "breathing=2", "--out", tmp / "x",
                           "--clutter-paths=-1"], 2),
    "zero threads": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--eval-grid=-10", "--threads", "0", "--out", tmp / "r.json"], 2),
    "negative threads": (
        lambda data, tmp: ["ablate", "--data", data, "--models", models_dir(tmp),
                           "--allow-missing", "--threads=-2", "--out", tmp / "r.json"], 2),
    "NaN sensor noise": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--out", tmp / "x",
                           "--sensor-noise", "nan"], 2),
    "simulate count label given twice": (
        lambda data, tmp: ["simulate", "--count", "empty=2,empty=3", "--out", tmp / "x"], 2),
    "simulate count label given twice in another case": (
        lambda data, tmp: ["simulate", "--count", "Empty=2", "--count", "empty=3",
                           "--out", tmp / "x"], 2),
    "car1-validation label given twice": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--car1-validation", "breathing=1,Breathing=2", *TRAIN_FAST], 2),
    "misspelled simulate count label": (
        lambda data, tmp: ["simulate", "--count", "breething=3", "--out", tmp / "x"], 2),
    "empty-cabin import with a seat": (
        lambda data, tmp: ["import", recording(tmp), "--label", "empty", "--car", "car2",
                           "--seat", "front", "--window", "2.4", "--out", tmp / "x"], 2),
    "recording with one slow-time column": (
        lambda data, tmp: ["import", recording(tmp, (16, 1)), "--label", "empty",
                           "--car", "car2", "--out", tmp / "x"], 3),
    "recording with zero rows": (
        lambda data, tmp: ["import", recording(tmp, (0, 96)), "--label", "empty",
                           "--car", "car2", "--out", tmp / "x"], 3),
    "manifest label not a string": (
        lambda data, tmp: ["evaluate", "--data", edited_manifest(data, first_of(
            "breathing", label=5)), "--detector", "energy", "--out", tmp / "r.json"], 3),
    "manifest file not a string": (
        lambda data, tmp: ["evaluate", "--data", edited_manifest(data, first_of(
            "breathing", file=5)), "--detector", "energy", "--out", tmp / "r.json"], 3),
    "manifest empty record with a seat": (
        lambda data, tmp: ["evaluate", "--data", edited_manifest(data, first_of(
            "empty", seat="front")), "--detector", "energy", "--out", tmp / "r.json"], 3),
    "manifest negative segment index": (
        lambda data, tmp: ["evaluate", "--data", edited_manifest(data, first_of(
            "breathing", segment_index=-1)), "--detector", "energy", "--out", tmp / "r.json"], 3),
    "manifest car null": (
        lambda data, tmp: ["evaluate", "--data", edited_manifest(data, first_of(
            "breathing", car=None)), "--detector", "energy", "--out", tmp / "r.json"], 3),
    "manifest fast-time interval NaN": (
        lambda data, tmp: ["evaluate", "--data", edited_manifest(
            data, lambda doc: doc["radar"].update(dt_fast=float("nan"))),
            "--detector", "energy", "--out", tmp / "r.json"], 3),
    "scene key given twice": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--out", tmp / "x", "--scene",
                           scene_file(tmp, "[clutter]\namplitude = 1\ndelay = 4e-9\n"
                                           "delay = 8e-9\n")], 2),
    "scene activity unknown": (
        lambda data, tmp: ["simulate", "--count", "breathing=2", "--out", tmp / "x", "--scene",
                           scene_file(tmp, "[target]\namplitude = 1\ndelay = 9e-9\n"
                                           "activity = sleeping\n")], 2),
    "scene target activity empty": (
        lambda data, tmp: ["simulate", "--count", "breathing=2", "--out", tmp / "x", "--scene",
                           scene_file(tmp, "[target]\namplitude = 1\ndelay = 9e-9\n"
                                           "activity = empty\n")], 2),
    "scene rate not a number": (
        lambda data, tmp: ["simulate", "--count", "breathing=2", "--out", tmp / "x", "--scene",
                           scene_file(tmp, "[target]\namplitude = 1\ndelay = 9e-9\n"
                                           "rate = fast\n")], 2),
    "scene rate nan": (
        lambda data, tmp: ["simulate", "--count", "breathing=2", "--out", tmp / "x", "--scene",
                           scene_file(tmp, "[target]\namplitude = 1\ndelay = 9e-9\n"
                                           "rate = nan\n")], 2),
    "scene delay not a number": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--out", tmp / "x", "--scene",
                           scene_file(tmp, "[clutter]\namplitude = 1\ndelay = soon\n")], 2),
    "scene with two targets of one activity": (
        lambda data, tmp: ["simulate", "--count", "breathing=2", "--out", tmp / "x", "--scene",
                           scene_file(tmp, "[target]\namplitude = 1\ndelay = 9e-9\n"
                                           "[target]\namplitude = 0.5\ndelay = 20e-9\n")], 2),
    **{name: (lambda data, tmp, argv=argv, text=text: [
        *argv, "--out", tmp / "x", "--scene", scene_file(tmp, text, clutter="")], 2)
       for name, (argv, text, _) in SCENE_CONTENT_MISTAKES.items()},
    "sensor noise beyond single precision": (
        lambda data, tmp: ["simulate", "--count", "empty=4", "--count", "breathing=4",
                           "--n-fast", "16", "--m-slow", "24", "--sensor-noise", "1e300",
                           "--out", tmp / "x"], 2),
    "sensor noise beyond double precision": (
        lambda data, tmp: ["simulate", "--count", "empty=4", "--count", "breathing=4",
                           "--n-fast", "16", "--m-slow", "24", "--sensor-noise=1e308",
                           "--out", tmp / "x"], 2),
    "negative simulate count": (
        lambda data, tmp: ["simulate", "--count", "empty=-1", "--out", tmp / "x"], 2),
    # A scene sets the clutter and the noise level, so these options would do nothing.
    "scene with --sensor-noise": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--out", tmp / "x",
                           "--scene", scene_file(tmp, ""), "--sensor-noise", "5"], 2),
    "scene with --clutter-paths": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--out", tmp / "x",
                           "--scene", scene_file(tmp, ""), "--clutter-paths=9"], 2),
    "scene with --sensor-noise from the config file": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--out", tmp / "x",
                           "--scene", scene_file(tmp, ""),
                           "--config", write_config(tmp, {"sensor-noise": 0.001})], 2),
    "synthetic negatives for a dataset with no records": (
        lambda data, tmp: ["evaluate", "--data", edited_manifest(
            data, lambda doc: doc.update(records=[])), "--detector", "energy",
            "--reference-energy", "1", "--synthetic-negatives", "3", "--out", tmp / "r.json"], 3),
    # Empty samples are clutter and noise only.
    "empty samples with no clutter paths": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--out", tmp / "x",
                           "--clutter-paths", "0"], 2),
    "--model with a baseline detector": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--model", tmp / "nowhere.ckpt", "--out", tmp / "r.json"], 2),
    "--model with a baseline detector from the config file": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "fft",
                           "--config", write_config(tmp, {"model": str(tmp / "nowhere.ckpt")}),
                           "--out", tmp / "r.json"], 2),
    "negative simulate seed": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--out", tmp / "x",
                           "--seed=-1"], 2),
    "negative train seed": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--seed=-1", *TRAIN_FAST], 2),
    "negative evaluate seed": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--eval-grid=-10", "--seed=-1", "--out", tmp / "r.json"], 2),
    "negative ablate seed": (
        lambda data, tmp: ["ablate", "--data", data, "--models", models_dir(tmp),
                           "--allow-missing", "--seed=-1", "--out", tmp / "r.json"], 2),
    "grid count too large to allocate": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--eval-grid=-10:-20:100000000000", "--out", tmp / "r.json"], 2),
    "training SNR range wider than a float": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--snr-lo=-1e308", "--snr-hi=1e308", *TRAIN_FAST], 2),
    # Noise at -4000 dB overflows the float32 planes every draw is made in.
    "grid SNR whose noise overflows": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--eval-grid=-4000", "--out", tmp / "r.json"], 2),
    "validation SNR whose noise overflows": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--validation-snr=-4000", *TRAIN_FAST], 2),
    "training SNRs whose noise overflows": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt",
                           "--snr-lo=-4000", "--snr-hi=-3000", *TRAIN_FAST], 2),
    "NaN sample in a .cir file, train": (
        lambda data, tmp: ["train", "--data", poisoned_cir(data).parent,
                           "--out", tmp / "m.ckpt", *TRAIN_FAST], 3),
    "NaN sample in a .cir file, evaluate": (
        lambda data, tmp: ["evaluate", "--data", poisoned_cir(data).parent,
                           "--detector", "energy", "--out", tmp / "r.json"], 3),
    "NaN sample in a .cir file, import": (
        lambda data, tmp: ["import", poisoned_cir(data), "--label", "empty", "--car", "car2",
                           "--out", tmp / "x"], 3),
    "import into an existing dataset without --append": (
        lambda data, tmp: ["import", recording(tmp), "--label", "empty", "--car", "car2",
                           "--window", "2.4", "--out", data], 2),
    # 1.2 s at 0.05 s is 24 columns, the dataset's shape at 0.1 s.
    "import --append at other sampling intervals": (
        lambda data, tmp: ["import", recording(tmp), "--label", "empty", "--car", "car2",
                           "--window", "1.2", "--dt-slow", "0.05", "--dt-fast", "1e-9",
                           "--out", data, "--append"], 3),
    **{f"import window {window}": (
        lambda data, tmp, window=window: ["import", recording(tmp), "--label", "empty",
                                          "--car", "car2", f"--window={window}",
                                          "--out", tmp / "x"], 2)
       for window in ("nan", "inf", "-inf", "1e308")},
    **{f"checkpoint {name}, {command}": (scoring_one_checkpoint(command, extra), 3)
       for name, extra in UNUSABLE_EXTRAS.items() for command in ("evaluate", "ablate")},
    "count item without a count": (
        lambda data, tmp: ["simulate", "--count", "empty", "--out", tmp / "x"], 2),
    "range grid without a count": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--eval-grid=-10:-20", "--out", tmp / "r.json"], 2),
    "no draws of occupied samples": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt", *TRAIN_FAST,
                           "--reuse-occupied", "0"], 2),
    "batch of one sample": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt", *TRAIN_FAST,
                           "--batch-size", "1"], 2),
    "--models is a file": (
        lambda data, tmp: ["ablate", "--data", data, "--models", recording(tmp),
                           "--allow-missing", "--out", tmp / "r.json"], 3),
    "two checkpoints of one variant": (
        lambda data, tmp: ["ablate", "--data", data, "--models", twin_checkpoints(tmp),
                           "--allow-missing", "--out", tmp / "r.json"], 2),
    "energy detector with no breathing samples to anchor the SNR": (
        lambda data, tmp: ["evaluate", "--data", relabelled(data, "breathing", "talking"),
                           "--detector", "energy", "--eval-grid=-10", "--out", tmp / "r.json"],
        3),
    "config file holding a list": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--config", write_config(tmp, [1, 2]), "--out", tmp / "r.json"], 2),
    # The default 10 s window at 0.1 s is 100 columns.
    "recording shorter than one window": (
        lambda data, tmp: ["import", recording(tmp, (16, 50)), "--label", "empty",
                           "--car", "car2", "--out", tmp / "x"], 3),
    # Options are checked before the dataset is read.
    "negative train seed, no dataset": (
        lambda data, tmp: ["train", "--data", tmp / "nowhere", "--out", tmp / "m.ckpt",
                           "--seed=-1"], 2),
    "resnet detector without --model, no dataset": (
        lambda data, tmp: ["evaluate", "--data", tmp / "nowhere", "--out", tmp / "r.json"], 2),
    "two checkpoints of one variant, no dataset": (
        lambda data, tmp: ["ablate", "--data", tmp / "nowhere", "--models",
                           twin_checkpoints(tmp), "--allow-missing", "--out", tmp / "r.json"], 2),
}

# Config values argparse itself rejects, as it would the same flag: exit 2
# with its usage message naming the option, the config file and the key.
CONFIG_MISTAKES = {
    "fractional seed": ("evaluate", {"seed": 1.5}, "--seed"),
    "threads not a number": ("evaluate", {"threads": "two"}, "--threads"),
    "switch given a string": ("train", {"quiet": "no"}, "--quiet"),
    "unknown variant": ("train", {"variant": "9D-Z"}, "--variant"),
}


def dataset_files(root):
    return {p for p in Path(root).rglob("*") if p.suffix == ".cir" or p.name == "manifest.json"}


def run_cli(argv, **env_vars):
    env = dict(os.environ, PYTHONPATH=str(Path(uwbocc.__file__).parents[1]), **env_vars)
    return subprocess.run([sys.executable, "-m", "uwbocc.cli", *[str(a) for a in argv]],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("mistake", sorted(USER_MISTAKES))
def test_user_mistakes_exit_with_documented_code(mistake, dataset, tmp_path):
    argv, code = USER_MISTAKES[mistake]
    args = argv(dataset, tmp_path)
    before = dataset_files(tmp_path)
    proc = run_cli(args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert dataset_files(tmp_path) == before  # a refused command writes no dataset


@pytest.mark.parametrize("flags, code, message", [
    ([], 2, "error: {manifest} already holds a dataset: pass --append to add to it\n"),
    # 1.2 s at 0.05 s is 24 columns, the dataset's shape at 0.1 s.
    (["--window", "1.2", "--dt-slow", "0.05", "--dt-fast", "1e-9", "--append"], 3,
     "error: {rec}: windows of shape (16, 24) sampled every 0.05 s (slow time) and 1e-09 s "
     "(fast time) do not match the existing dataset's (16, 24) every 0.1 s and 5e-10 s\n"),
])
def test_import_leaves_an_existing_dataset_as_it_was(flags, code, message, dataset, tmp_path):
    before = tree_bytes(dataset)
    rec = recording(tmp_path)
    proc = run_cli(["import", rec, "--label", "empty", "--car", "car2", "--window", "2.4",
                    *flags, "--out", dataset])
    assert proc.returncode == code
    assert proc.stderr == message.format(manifest=dataset / "manifest.json", rec=rec)
    assert tree_bytes(dataset) == before


def run_cli_capped(argv, limit=2**30):
    """run_cli with the child's address space capped, so a size that is not refused
    fails with a MemoryError (or the timeout) instead of exhausting the machine."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=str(Path(uwbocc.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "uwbocc.cli", *[str(a) for a in argv]],
                          capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=cap)


# Sizes refused before anything is allocated: (argv, what the message names).
SIZE_MISTAKES = {
    "simulate --m-slow too large to hold": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--m-slow=1000000000000",
                           "--out", tmp / "x"], "--m-slow 1000000000000"),
    "simulate --m-slow too large to hold, with a scene": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--m-slow=1000000000000",
                           "--scene", scene_file(tmp, ""), "--out", tmp / "x"],
        "--m-slow 1000000000000"),
    "simulate --clutter-paths too many to hold": (
        lambda data, tmp: ["simulate", "--count", "empty=2", "--clutter-paths=1000000000000",
                           "--out", tmp / "x"], "--clutter-paths 1000000000000"),
    "simulate --count too many to hold": (
        lambda data, tmp: ["simulate", "--count", "empty=1000000000000", "--out", tmp / "x"],
        "--count asks for 1000000000000 samples"),
    "simulate --count too many to hold, with a scene": (
        lambda data, tmp: ["simulate", "--count", "empty=1000000000000",
                           "--scene", scene_file(tmp, ""), "--out", tmp / "x"],
        "--count asks for 1000000000000 samples"),
    "evaluate --synthetic-negatives too many to hold": (
        lambda data, tmp: ["evaluate", "--data", data, "--detector", "energy",
                           "--eval-grid=-10", "--synthetic-negatives=100000000",
                           "--out", tmp / "r.json"], "synthetic_negatives 100000000"),
    "train --kernel too large to build": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt", *TRAIN_FAST,
                           "--kernel", "1000001"], "1D-E at kernel 1000001"),
    "train --reuse-occupied too many draws to hold": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt", *TRAIN_FAST,
                           "--reuse-occupied", "1000000000000"],
        "reuse_occupied 1000000000000 and reuse_empty 2"),
    "train --reuse-empty too many draws to hold": (
        lambda data, tmp: ["train", "--data", data, "--out", tmp / "m.ckpt", *TRAIN_FAST,
                           "--reuse-empty", "1000000000000"],
        "reuse_occupied 2 and reuse_empty 1000000000000"),
}


@pytest.mark.parametrize("mistake", sorted(SIZE_MISTAKES))
def test_sizes_are_refused_before_they_are_allocated(mistake, dataset, tmp_path):
    argv, named = SIZE_MISTAKES[mistake]
    args = argv(dataset, tmp_path)
    before = {p for p in tmp_path.rglob("*")}
    proc = run_cli_capped(args)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and named in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "scene" not in proc.stderr
    assert {p for p in tmp_path.rglob("*")} == before


@pytest.mark.parametrize("argv, refused", [
    (["--n-fast", "1024", "--m-slow", "1024"], False),
    (["--n-fast", "1024", "--m-slow", "1025"], True),
    (["--clutter-paths", "1024"], False),
    (["--clutter-paths", "1025"], True),
])
def test_simulate_size_caps_are_inclusive(argv, refused, tmp_path, capsys):
    # Zero samples pass every cap but the per-sample one, then stop before writing.
    assert run("simulate", "--count", "empty=0", *argv, "--out", tmp_path / "x") == 2
    err = capsys.readouterr().err
    assert ("is over the cap" in err) == refused
    assert refused or err == "error: all requested counts are zero\n"


def test_simulate_run_cap_counts_every_sample(tmp_path):
    # 2**27 samples of 2 values are the cap; one sample more is refused.
    proc = run_cli_capped(["simulate", "--count", f"empty={2**27},breathing=1", "--n-fast", "1",
                           "--m-slow", "2", "--out", tmp_path / "x"])
    assert proc.returncode == 2
    assert proc.stderr == (f"error: --count asks for {2**27 + 1} samples of 2 values, "
                           f"over the cap of {2**28} values per run\n")
    assert not (tmp_path / "x").exists()


def test_sensor_noise_overflowing_double_precision_is_named(tmp_path):
    # 1e308 overflows the complex128 noise draw itself, before the
    # single-precision check that 1e300 reaches.
    proc = run_cli(["simulate", "--count", "empty=2", "--count", "breathing=2",
                    "--n-fast", "16", "--m-slow", "24", "--sensor-noise=1e308",
                    "--out", tmp_path / "x"])
    assert proc.returncode == 2
    assert proc.stderr == ("error: breathing sample 0 overflows single precision: "
                           "lower the noise level or the path amplitudes\n")
    assert not (tmp_path / "x").exists()


def test_training_noise_overflow_on_the_data_thread(dataset, tmp_path):
    # The batches are drawn on a worker thread; its error ends the command
    # with the error's own message and exit code, and no checkpoint.
    proc = run_cli(["train", "--data", dataset, "--out", tmp_path / "m.ckpt",
                    "--snr-lo=-900", "--snr-hi=-890", *TRAIN_FAST])
    assert proc.returncode == 2
    assert proc.stderr == "error: SNR too low for float32 planes: the noise overflows\n"
    assert [p.name for p in tmp_path.iterdir()] == ["data"]


@pytest.mark.parametrize("values", [["empty=2,empty=3"], ["Empty=2", " empty =3"]])
def test_repeated_count_label_is_named(values):
    with pytest.raises(ConfigError, match="--count: empty given more than once"):
        read_counts(_parse_counts(values), "--count")


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--count", "empty=2,empty=3"], "--count: empty given more than once"),
    (["simulate", "--count", "empty=-1"], "--count: negative count for empty: -1"),
    (["simulate", "--count", "foo=1"], "--count: unknown activity label 'foo' "
                                       "(valid: breathing, talking, moving, empty)"),
    (["train", "--car1-validation", "breathing=1,Breathing=2"],
     "--car1-validation: breathing given more than once"),
    (["simulate", "--count", "empty"], "--count: counts look like label=N, got 'empty'"),
    (["train", "--car1-validation", "breathing=x"],
     "--car1-validation: bad count for 'breathing': 'x' is not an integer"),
])
def test_count_list_errors_name_the_option(argv, message, dataset, tmp_path, capsys):
    command, *flags = argv
    out = tmp_path / ("x" if command == "simulate" else "m.ckpt")
    rest = [] if command == "simulate" else ["--data", dataset, *TRAIN_FAST]
    assert run(command, *flags, *rest, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, code, message", [
    (["train", "--seed=-1"], 2, "seed must be >= 0, got -1"),
    (["train", "--kernel", "2"], 2, "kernel size must be odd and >= 1, got 2"),
    (["train", "--batch-size", "1"], 2, "batch size must be >= 2 (batch statistics)"),
    (["train", "--learning-rate", "0"], 2,
     "learning rate must be finite and positive, got 0.0"),
    (["train", "--snr-lo=-5", "--snr-hi=-10"], 2, "snr_lo -5.0 exceeds snr_hi -10.0"),
    (["train", "--car1-validation", "breathing=-1"], 2,
     "--car1-validation: negative count for breathing: -1"),
    (["evaluate"], 2, "--detector resnet needs --model CHECKPOINT"),
    (["evaluate", "--detector", "fft", "--model", "m.ckpt"], 2,
     "--model is for --detector resnet, not --detector fft"),
    (["evaluate", "--model", "{models}/1D-E.ckpt", "--eval-grid=-10:-20"], 2,
     "bad --eval-grid '-10:-20': expected start:stop:count"),
    (["evaluate", "--model", "{tmp}/none.ckpt"], 3,
     "cannot read checkpoint {tmp}/none.ckpt: [Errno 2] No such file or directory: "
     "'{tmp}/none.ckpt'"),
    (["ablate", "--models", "{tmp}/none"], 3, "{tmp}/none is not a directory of checkpoints"),
    (["ablate", "--models", "{tmp}"], 3, "no .ckpt files in {tmp}"),
    (["ablate", "--models", "{models}"], 3, "ablation is missing trained checkpoints for: "
                                            "1D-A, 1D-B, 1D-C, 1D-D, 2D-A, 2D-B, 2D-C, 2D-D, 2D-E"),
])
def test_option_mistakes_are_named_before_the_data_is_read(argv, code, message, tmp_path,
                                                           capsys):
    # --data points nowhere, so a check that waited for the data would report
    # the missing manifest instead.
    models = models_dir(tmp_path)
    argv = [arg.format(tmp=tmp_path, models=models) for arg in argv]
    assert run(*argv, "--data", tmp_path / "nowhere", "--out", tmp_path / "out") == code
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "out").exists()


def test_recipe_is_checked_before_the_split(dataset, tmp_path, capsys):
    # The 12-sample dataset cannot give the default split's 150 test records
    # per class, and the negative seed is still the error named.
    assert run("train", "--data", dataset, "--out", tmp_path / "m.ckpt", "--seed=-1") == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("error, code", [
    (ConfigError, 2), (DataError, 3), (DivergenceError, 4), (OSError, 3)])
def test_exit_code_comes_from_the_error_class(error, code, monkeypatch, capsys):
    def fail(ns):
        raise error("the command failed")

    monkeypatch.setattr(cli, "cmd_report", fail)
    assert run("report", "r.json") == code
    assert capsys.readouterr().err == "error: the command failed\n"


@pytest.mark.parametrize("command", ["evaluate", "ablate"])
@pytest.mark.parametrize("extra, cause", [
    ({"reference_energy": float("nan")}, "stores reference_energy NaN, not a positive finite number"),
    ({"reference_energy": True}, "stores reference_energy true, not a positive finite number"),
    ({"reference_energy": "abc"}, 'stores reference_energy "abc", not a positive finite number'),
    ([1], "has a malformed header: extra must be an object"),
])
def test_unusable_checkpoint_metadata_names_the_checkpoint(command, extra, cause, dataset,
                                                           tmp_path, capsys):
    argv = scoring_one_checkpoint(command, extra)(dataset, tmp_path)
    assert run(*argv) == 3
    path = tmp_path / "models" / "1D-E.ckpt"
    assert capsys.readouterr().err == f"error: checkpoint {path} {cause}\n"
    assert not (tmp_path / "r.json").exists()


def test_grid_count_is_capped_before_anything_is_allocated():
    assert len(_parse_grid(f"-10:-20:{MAX_GRID_COUNT}")) == MAX_GRID_COUNT
    for count in (MAX_GRID_COUNT + 1, 10**18):
        with pytest.raises(ConfigError, match=f"count {count} is not in 1..{MAX_GRID_COUNT}"):
            _parse_grid(f"-10:-20:{count}")


@pytest.mark.parametrize("mistake", sorted(SCENE_CONTENT_MISTAKES))
def test_scene_content_errors_name_the_scene_file(mistake, tmp_path):
    argv, text, cause = SCENE_CONTENT_MISTAKES[mistake]
    scene = scene_file(tmp_path, text, clutter="")
    proc = run_cli([*argv, "--out", tmp_path / "x", "--scene", scene])
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: scene {scene}: ")
    assert cause in proc.stderr


@pytest.mark.parametrize("flags, option", [
    (["--sensor-noise", "5"], "--sensor-noise"),
    (["--clutter-paths=9"], "--clutter-paths"),
    # Given at its default value, the option is still refused: the scene replaces it.
    (["--sensor-noise=0.001", "--clutter-paths", "4"], "--sensor-noise"),
])
def test_scene_refuses_the_options_it_replaces(flags, option, tmp_path):
    scene = scene_file(tmp_path, "")
    out = tmp_path / "x"
    proc = run_cli(["simulate", "--count", "empty=2", "--count", "breathing=2", "--n-fast", "16",
                    "--m-slow", "24", "--scene", scene, *flags, "--out", out])
    assert proc.returncode == 2
    assert proc.stderr == (f"error: {option} has no effect with --scene {scene}: "
                           "the scene sets the clutter and the noise level\n")
    assert not out.exists()


def test_synthetic_negatives_need_an_occupied_activity(dataset, tmp_path):
    data = edited_manifest(dataset, lambda doc: doc.update(records=[]))
    out = tmp_path / "r.json"
    proc = run_cli(["evaluate", "--data", data, "--detector", "energy", "--reference-energy", "1",
                    "--synthetic-negatives", "3", "--out", out])
    assert proc.returncode == 3
    assert proc.stderr == "error: sweep needs at least one occupied activity in the test samples\n"
    assert not out.exists()


def test_empty_samples_need_clutter_paths(tmp_path):
    out = tmp_path / "x"
    proc = run_cli(["simulate", "--count", "empty=2", "--clutter-paths", "0", "--out", out])
    assert proc.returncode == 2
    assert proc.stderr == ("error: empty samples are clutter and noise only, so they need "
                           "clutter_paths >= 1, got 0\n")
    assert not out.exists()
    # Occupied samples have a target path, so they need no clutter.
    assert run("simulate", "--count", "breathing=2", "--clutter-paths", "0", "--out", out) == 0


@pytest.mark.parametrize("detector, as_config", [("energy", False), ("fft", True)])
def test_model_is_refused_with_a_baseline_detector(detector, as_config, dataset, tmp_path):
    model = tmp_path / "m.ckpt"
    given = (["--config", write_config(tmp_path, {"model": str(model)})] if as_config
             else ["--model", model])
    out = tmp_path / "r.json"
    proc = run_cli(["evaluate", "--data", dataset, "--detector", detector, *given, "--out", out])
    assert proc.returncode == 2
    assert proc.stderr == f"error: --model is for --detector resnet, not --detector {detector}\n"
    assert not out.exists()


# How each JSON input is refused: (file content or None for a missing file,
# the message's cause after the path).
JSON_FILE_FAULTS = {
    "missing": (None, "[Errno 2] No such file or directory: '{path}'"),
    "not JSON": (b"not json", "Expecting value: line 1 column 1 (char 0)"),
    "not UTF-8": (b'{\xff"seed": 1}',
                  "'utf-8' codec can't decode byte 0xff in position 1: invalid start byte"),
}


@pytest.mark.parametrize("what", ["config", "manifest", "report"])
@pytest.mark.parametrize("fault", sorted(JSON_FILE_FAULTS))
def test_json_inputs_name_the_file_and_the_fault(what, fault, dataset, tmp_path, capsys):
    content, cause = JSON_FILE_FAULTS[fault]
    path = dataset / "manifest.json" if what == "manifest" else tmp_path / f"{what}.json"
    path.unlink(missing_ok=True)
    if content is not None:
        path.write_bytes(content)
    argv = {
        "config": ["evaluate", "--data", dataset, "--detector", "energy", "--config", path,
                   "--out", tmp_path / "r.json"],
        "manifest": ["evaluate", "--data", dataset, "--detector", "energy",
                     "--out", tmp_path / "r.json"],
        "report": ["report", path],
    }[what]
    assert run(*argv) == (2 if what == "config" else 3)
    cause = cause.format(path=path)
    expected = (f"cannot read {what} {path}: {cause}" if fault == "missing"
                else f"{what} {path} is not valid JSON: {cause}")
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "r.json").exists()


def test_negative_seed_is_not_blamed_on_the_scene(tmp_path, capsys):
    scene = scene_file(tmp_path, "")
    assert run("simulate", "--count", "empty=2", "--out", tmp_path / "x",
               "--scene", scene, "--seed=-1") == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("mistake", sorted(CONFIG_MISTAKES))
def test_config_values_are_checked_like_flags(mistake, dataset, tmp_path):
    command, doc, option = CONFIG_MISTAKES[mistake]
    rest = (["--detector", "energy", "--eval-grid=-10", "--out", tmp_path / "r.json"]
            if command == "evaluate" else ["--out", tmp_path / "m.ckpt", *TRAIN_FAST[:-1]])
    config = write_config(tmp_path, doc)
    proc = run_cli([command, "--data", dataset, "--config", config, *rest])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    (key,) = doc
    assert proc.stderr.startswith("usage: ")
    assert f"error: config {config}, key {key!r}: argument {option}" in proc.stderr


finite = st.floats(allow_nan=False, allow_infinity=False)
text = st.text(alphabet="abc/._-=, ", max_size=8)
COMMON = {"data": text, "seed": st.integers(-10, 2**40), "exact-snr-scaling": st.booleans()}
OPTION_VALUES = {
    "evaluate": {**COMMON,
                 "threads": st.integers(1, 8), "reference-energy": finite | st.none(),
                 "energy-window": st.integers(1, 64), "csv": text,
                 "detector": st.sampled_from(["resnet", "energy", "fft"]), "model": text,
                 "eval-grid": st.lists(finite, min_size=1, max_size=4),
                 "synthetic-negatives": st.integers(0, 99)},
    "train": {**COMMON,
              "variant": st.sampled_from(sorted(VARIANTS)), "kernel": st.integers(1, 9),
              "snr-lo": finite, "snr-hi": finite, "batch-size": st.integers(2, 512),
              "learning-rate": finite, "patience": st.integers(0, 50),
              "max-epochs": st.integers(1, 500), "validation-snr": finite,
              "reuse-occupied": st.integers(0, 999), "reuse-empty": st.integers(0, 9999),
              "test-per-class": st.integers(0, 200), "empty-test": st.integers(0, 50),
              "empty-train": st.integers(0, 50) | st.none(), "quiet": st.booleans(),
              "car1-validation": st.dictionaries(st.sampled_from(["breathing", "empty"]),
                                                 st.integers(0, 9), min_size=1)},
}


def as_flags(values) -> list:
    """The command-line flags a user would type for these option values."""
    flags = []
    for key, value in values.items():
        if value is True:
            flags.append(f"--{key}")
        elif isinstance(value, dict):
            for label, count in value.items():
                flags += [f"--{key}", f"{label}={count}"]
        elif isinstance(value, list):
            flags.append(f"--{key}=" + ",".join(map(str, value)))
        elif value is not None and value is not False:
            flags.append(f"--{key}={value}")
    return flags


def parsed(argv) -> dict:
    """The namespace a command receives, with repeated count flags merged."""
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        for command in ("cmd_evaluate", "cmd_train"):
            patch.setattr(cli, command, lambda ns: seen.append(ns) or 0)
        assert main([str(a) for a in argv]) == 0
    values = {k: v for k, v in vars(seen[0]).items() if k not in ("config", "func")}
    if values.get("car1_validation"):
        values["car1_validation"] = _parse_counts(values["car1_validation"])
    return values


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(OPTION_VALUES)).flatmap(
    lambda command: st.tuples(st.just(command),
                              st.fixed_dictionaries({}, optional=OPTION_VALUES[command]),
                              st.booleans())))
def test_config_file_parses_like_the_equivalent_flags(case):
    command, values, underscores = case
    doc = {key.replace("-", "_") if underscores else key: value for key, value in values.items()}
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), doc)
        head = [command, "--out", "out.json"]
        assert parsed([*head, "--config", config]) == parsed([*head, *as_flags(values)])
