"""The benchmark's own checks on a traced run, at the harness's tiny scale.

perfbench/child.py runs each workload in-process under perfbench/tracing.py's
Tracer and refuses a run whose traced spans miss a layer phase or whose
report is malformed.  A refactor that routes a layer call around its class
method (a fused or folded path, say) passes every other test but fails that
check, so the same steps run here.  A training request's work is the draw
count the harness derives from its own make_split and build_epoch_plan
calls; it must match the draws the command made.
"""

import contextlib
import importlib.util
import io
import math
from pathlib import Path

import pytest

import uwbocc.cli as cli
import uwbocc.pipeline as pipeline
from uwbocc.dataset import read_manifest
from uwbocc.nn import build_network, save_checkpoint

PERFBENCH = Path(__file__).parents[1] / "perfbench"
SCALE, SEED = "tiny", 0


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, workloads = load("tracing"), load("workloads")


def run_workload(workload, directory):
    """Set-up and command of one request, as the harness runs them.

    Returns (exit code, output file, the command's stdout).
    """
    data, models = directory / "data", directory / "models"
    out = directory / ("model.ckpt" if workload in workloads.TRAIN else "report.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(workloads.simulate_argv(workload, SCALE, SEED, str(data))) == 0
        if workload == "ablate":
            n_fast, m_slow = workloads.SHAPES[SCALE]
            models.mkdir()
            for name in workloads.ABLATE_VARIANTS:
                shape = (2 * n_fast, m_slow) if name.startswith("1D") else (2, n_fast, m_slow)
                save_checkpoint(build_network(name, shape, seed=SEED), models / f"{name}.ckpt",
                                extra={"train_seed": SEED})
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = cli.main(workloads.command_argv(workload, SEED, str(data), str(out), str(models)))
    return code, out, stdout.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_passes_the_benchmark_checks(workload, tmp_path, monkeypatch):
    drawn = []  # training draws per batch the command made
    epoch_batches = pipeline._epoch_batches

    def counted(*args, **kwargs):
        for inputs, labels in epoch_batches(*args, **kwargs):
            drawn.append(len(labels))
            yield inputs, labels

    monkeypatch.setattr(pipeline, "_epoch_batches", counted)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code, out, stdout = run_workload(workload, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracing.call_problems(tracer, workload) == []
    if workload in workloads.TRAIN:
        # The harness's work count, from its own split and plan calls.
        manifest = read_manifest(tmp_path / "traced" / "data" / "manifest.json")
        assert workloads.training_draws(workload, manifest) == sum(drawn)
        losses = workloads.epoch_losses(stdout)
        assert len(losses) == workloads.TRAIN[workload]["epochs"]
        assert all(math.isfinite(loss) for loss in losses)
    else:
        doc = workloads.load_report(out)
        assert workloads.check_report(doc, workload, SCALE) == []
    _, untraced, _ = run_workload(workload, tmp_path / "untraced")
    assert out.read_bytes() == untraced.read_bytes()
