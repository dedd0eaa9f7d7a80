"""One benchmark process: set up and run one workload request, or profile the variants.

Started by run.py, one process at a time, from the root of a checkout:

    python3 perfbench/child.py request --workload W --seed N --dir D --t0 T --result R [--trace]
    python3 perfbench/child.py setup   --workload W --seed N --dir D --t0 T --result R
    python3 perfbench/child.py profile --dir D --result R

`--t0` is the parent's monotonic clock reading just before it started this
process, so set-up time counts interpreter start and imports.  The result
is one JSON document written to `--result`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

# Bytes a profiled configuration may cache between forward and backward.
PROFILE_BUDGET_BYTES = 256 * 2**20
PROFILE_MAX_BATCH = 64


def _quiet_main(argv) -> tuple:
    import uwbocc.cli as cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _set_up(args, directory: Path) -> tuple:
    """Simulate the inputs (and checkpoints); returns (data dir, models dir)."""
    data, models = directory / "data", directory / "models"
    code, _ = _quiet_main(wl.simulate_argv(args.workload, args.scale, args.seed, str(data)))
    if code != 0:
        raise RuntimeError(f"uwbocc simulate exited {code}")
    if args.workload == "ablate":
        from uwbocc.nn import build_network, save_checkpoint

        n_fast, m_slow = wl.SHAPES[args.scale]
        models.mkdir(parents=True, exist_ok=True)
        for name in wl.ABLATE_VARIANTS:
            shape = (2 * n_fast, m_slow) if name.startswith("1D") else (2, n_fast, m_slow)
            save_checkpoint(build_network(name, shape, seed=args.seed), models / f"{name}.ckpt",
                            extra={"train_seed": args.seed})
    return data, models


def request(args) -> dict:
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    directory = Path(args.dir)
    data, models = _set_up(args, directory)
    if args.mode == "setup":
        return {"setup_s": time.monotonic() - args.t0}

    out = directory / ("model.ckpt" if args.workload in wl.TRAIN else "report.json")
    argv = wl.command_argv(args.workload, args.seed, str(data), str(out), str(models))
    started = time.monotonic()
    code, stdout = _quiet_main(argv)
    ended = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    result = {"setup_s": started - args.t0, "command_s": ended - started, "rss_mb": rss_mb,
              "exit_code": code, "problems": [], "digest": None, "work": 0}
    problems = result["problems"]
    if code != 0:
        problems.append(f"uwbocc {argv[0]} exited {code}")
    if not out.is_file():
        problems.append(f"uwbocc {argv[0]} wrote no {out.name}")
        return result
    result["digest"] = hashlib.sha256(out.read_bytes()).hexdigest()

    rows = 0
    if args.workload in wl.TRAIN:
        from uwbocc.dataset import read_manifest

        losses = wl.epoch_losses(stdout)
        result["losses"] = losses
        problems += wl.check_losses(losses, wl.TRAIN[args.workload]["epochs"])
        result["work"] = wl.training_draws(args.workload, read_manifest(data / "manifest.json"))
    else:
        doc = wl.load_report(out)
        problems += wl.check_report(doc, args.workload, args.scale)
        rows = len(doc.get("rows", ()))
        result["work"] = rows
        result["baseline_row_flops"] = wl.baseline_row_flops(doc)

    if tracer is not None:
        import tracing

        metrics = tracing.per_layer_metrics(tracer, rows, args.gemm_f64)
        # Recorded, not asserted: baseline rows carry flops 0 while that defect stands.
        metrics["evaluate.ablation.baseline_row_flops"] = (
            result["baseline_row_flops"] if args.workload == "ablate" else 0)
        result["per_layer"] = metrics
        result["breakdown"] = tracing.layer_breakdown(tracer)
        result["binding_calls"] = dict(sorted(tracer.binding_calls.items()))
        problems += tracing.call_problems(tracer, args.workload)
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(tracing.spans(tracer), handle, separators=(",", ":"))
    return result


def _leaves(network) -> list:
    return [sub for layer in network.layers
            for sub in (layer.sublayers() if hasattr(layer, "sublayers") else [layer])]


def profile_variant(name: str, scale: str) -> dict:
    """Forward and train-step timing of one variant at the standard input size.

    The bytes a train step caches are computed before running anything
    large: a batch-2 probe at a reduced spatial size is measured and scaled
    by batch and spatial size.  The profile trains at B=64 when that fits
    PROFILE_BUDGET_BYTES, else at the largest batch >= 2 that fits, else
    runs forward only, at the largest batch whose biggest single-layer
    buffer fits.
    """
    import numpy as np

    import tracing
    from uwbocc.nn import VARIANTS, AdamOptimizer, OptimizerConfig, bce_with_logits
    from uwbocc.nn import build_network, flop_count

    variant = VARIANTS[name]
    n_fast, m_slow = wl.SHAPES[scale]
    if variant.dimensionality == 1:
        shape, probe_shape = (2 * n_fast, m_slow), (2 * n_fast, 10)
    else:
        shape, probe_shape = (2, n_fast, m_slow), (2, 8, 10)
    rng = np.random.default_rng(0)
    probe = build_network(name, probe_shape, seed=0)
    probe.forward(rng.standard_normal((2,) + probe_shape), train=True)
    scale_up = math.prod(shape[1:]) / math.prod(probe_shape[1:]) / 2
    per_layer = [tracing.held_bytes(layer) * scale_up for layer in _leaves(probe)]
    per_sample = sum(per_layer)
    del probe

    batch = min(PROFILE_MAX_BATCH, int(PROFILE_BUDGET_BYTES // per_sample))
    trainable = batch >= 2
    if not trainable:
        batch = min(PROFILE_MAX_BATCH, int(PROFILE_BUDGET_BYTES // max(per_layer)))
    out = {"flop_count": flop_count(build_network(name, shape, seed=0)),
           "cached_bytes": int(round(per_sample * PROFILE_MAX_BATCH)),
           "batch": batch if batch >= 2 else 0,
           "fwd_infer_ms": 0.0, "train_step_ms": 0.0, "gflops": 0.0}
    if batch < 2:
        return out

    network = build_network(name, shape, seed=0)
    x = rng.standard_normal((batch,) + shape)
    labels = (np.arange(batch) % 2).astype(np.float64)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        started = time.perf_counter()
        network.forward(x, train=False)
        infer_s = time.perf_counter() - started
        if trainable:
            optimizer = AdamOptimizer(network.params(), OptimizerConfig(batch_size=batch))
            started = time.perf_counter()
            network.zero_grads()
            logits = network.forward(x, train=True)
            _, dlogits = bce_with_logits(logits, labels)
            network.backward(dlogits)
            optimizer.step()
            out["train_step_ms"] = 1e3 * (time.perf_counter() - started)
    finally:
        tracer.uninstall()
    out["fwd_infer_ms"] = 1e3 * infer_s
    out["gflops"] = out["flop_count"] * batch / infer_s / 1e9
    out["layers"] = tracing.layer_breakdown(tracer)
    return out


def profile(args) -> dict:
    from uwbocc.nn import VARIANTS

    variants = {name: profile_variant(name, args.scale) for name in sorted(VARIANTS)}
    return {"variants": variants, "budget_bytes": PROFILE_BUDGET_BYTES,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["request", "setup", "profile"])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--scale", choices=sorted(wl.SIZES), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--gemm-f64", type=float, default=1.0)
    parser.add_argument("--spans")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    Path(args.dir).mkdir(parents=True, exist_ok=True)
    result = profile(args) if args.mode == "profile" else request(args)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
