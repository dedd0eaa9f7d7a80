"""uwbocc benchmark: train, evaluate and ablate end to end, with per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload request is one `uwbocc` command run through `uwbocc.cli.main`
in a fresh process (perfbench/child.py); requests follow one another
(a closed loop with one caller) while the next is expected to end within
S seconds, at least one.

--trace 0 reports the end-to-end metrics, medians over the run's requests:
  setup_s      process start to the start of the command (imports,
               simulate, dataset write, checkpoint write); at least three
               set-ups per run, extra ones made by set-up-only processes
  work_per_s   useful units per second of the command: training draws
               (train-1d, train-2d) or report rows (sweep-energy, ablate)
  peak_rss_mb  ru_maxrss of the request's own process

--trace 1 runs untraced and traced requests in pairs for S seconds (at
least one pair), then the per-variant layer profile, and reports the
per-layer metrics of the last traced request.  The median traced-minus-
untraced command time is reported as the tracing overhead.  Every output
of a run, traced or not, must be byte-identical.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it is the machine
block.  Full results, per-layer breakdowns and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

OUT_DIR = ".perfbench_out"
TIME_LIMIT_S = 170.0
MIN_SETUPS = 3


# ------------------------------------------------------------------ machine


def _blas_threads():
    """OpenBLAS thread count through its C API, or None if it cannot be found."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as handle:
            libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _gemm_gflops(np, dtype, n: int, reps: int = 5) -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n)).astype(dtype)
    b = rng.standard_normal((n, n)).astype(dtype)
    a @ b
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - started)
    return 2.0 * n ** 3 / best / 1e9


def machine_block(scale: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    n = 1024 if scale == "full" else 256
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "gemm_n": n,
        "gemm_f32_gflops": _gemm_gflops(np, np.float32, n),
        "gemm_f64_gflops": _gemm_gflops(np, np.float64, n),
    }


# ---------------------------------------------------------------- children


class Runner:
    """Starts one child process at a time and collects its JSON result."""

    def __init__(self, args, work: Path, deadline: float):
        self.args = args
        self.work = work
        self.deadline = deadline
        self.count = 0

    def child(self, mode: str, trace: bool = False, extra=()) -> dict:
        self.count += 1
        directory = self.work / f"{mode}{self.count}"
        result = self.work / f"{mode}{self.count}.json"
        argv = [sys.executable, str(HERE / "child.py"), mode, "--scale", self.args.scale,
                "--dir", str(directory), "--result", str(result), *extra]
        if mode != "profile":
            argv += ["--workload", self.args.workload, "--seed", str(self.args.seed)]
        if trace:
            argv.append("--trace")
        argv += ["--t0", repr(time.monotonic())]
        timeout = max(self.deadline - time.monotonic(), 1.0)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
        shutil.rmtree(directory, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(result, "r", encoding="utf-8") as handle:
            return json.load(handle)


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "uwbocc").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _remember(root: Path, key: str, value) -> bool:
    """Keep the first value seen for key in .perfbench_out/memory.json; True if value matches it."""
    store = root / OUT_DIR / "memory.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    first = known.setdefault(key, value)
    temporary = store.with_suffix(".tmp")
    temporary.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(temporary, store)
    return first == value


def determinism_problems(requests, root: Path, workload: str, scale: str, seed: int) -> list:
    """Outputs must be byte-identical across every run of one code version at one seed.

    Requests of one run are compared with each other, and with the first
    output digest recorded for (workload, scale, seed, source digest).
    """
    digests = [r["digest"] for r in requests if r.get("digest")]
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"outputs differ between requests of one run: {sorted(set(digests))}")
    key = f"digest|{workload}|{scale}|{seed}|{_source_digest(root)}"
    if digests and not _remember(root, key, digests[0]):
        problems.append(f"output differs from an earlier run at seed {seed}")
    return problems


EXACT_COUNTS = ("augment.add_noise.calls", "evaluate.ablation.kept_ratio",
                "evaluate.negative_draws_per_row", "nn.layers.Conv1d.cached_bytes",
                "nn.layers.Conv2d.cached_bytes")


def count_problems(values: dict, root: Path, workload: str, scale: str) -> list:
    """Exact counts must repeat across every traced run of one code version, any seed."""
    counts = {k: v for k, v in values.items()
              if k in EXACT_COUNTS or (k.startswith("nn.profile.") and
                                       k.rsplit(".", 1)[1] in ("cached_bytes", "batch", "flop_count"))}
    key = f"counts|{workload}|{scale}|{_source_digest(root)}"
    return [] if _remember(root, key, counts) else [f"exact counts changed: {counts}"]


# -------------------------------------------------------------------- runs


def _fits(started: float, seconds: float, last_s: float, runner: Runner) -> bool:
    """Whether one more request like the last can finish inside the run's seconds."""
    now = time.monotonic()
    return now + last_s <= min(started + seconds, runner.deadline - 30)


def run_end_to_end(args, runner: Runner) -> tuple:
    requests = []
    started = time.monotonic()
    while not requests or _fits(started, args.seconds, requests[-1]["command_s"], runner):
        requests.append(runner.child("request"))
    setups = [r["setup_s"] for r in requests]
    while len(setups) < MIN_SETUPS:
        setups.append(runner.child("setup")["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": statistics.median(r["work"] / r["command_s"] for r in requests),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in requests),
    }
    return requests, metrics, {"setups_s": setups}


PROFILE_KEYS = ("fwd_infer_ms", "train_step_ms", "gflops", "cached_bytes", "batch", "flop_count")


def run_traced(args, runner: Runner, machine: dict) -> tuple:
    """Untraced and traced requests in pairs for the run's seconds, then the profile."""
    plain, traced = [], []
    spans = runner.work.parent / f"{runner.work.name}.spans.json"
    started = time.monotonic()
    while not traced or _fits(started, args.seconds, 2 * traced[-1]["command_s"], runner):
        plain.append(runner.child("request"))
        traced.append(runner.child("request", trace=True, extra=(
            "--gemm-f64", repr(machine["gemm_f64_gflops"]), "--spans", str(spans))))
    profile = runner.child("profile")
    metrics = dict(traced[-1].get("per_layer", {}))
    metrics["machine.gemm_f32_gflops"] = machine["gemm_f32_gflops"]
    metrics["machine.gemm_f64_gflops"] = machine["gemm_f64_gflops"]
    plain_s = statistics.median(r["command_s"] for r in plain)
    metrics["trace.overhead_s"] = statistics.median(r["command_s"] for r in traced) - plain_s
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain_s
    for name, entry in profile["variants"].items():
        for key in PROFILE_KEYS:
            metrics[f"nn.profile.{name}.{key}"] = entry[key]
    return plain + traced, metrics, {"profile": profile}


def units(bench: dict, trace: int) -> dict:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(wl.SIZES), default="full",
                        help="input sizes; 'tiny' is for the harness self-test")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "uwbocc" / "__init__.py").is_file():
        print(f"error: no uwbocc sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    with open(HERE.parent / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)

    deadline = time.monotonic() + TIME_LIMIT_S
    name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = root / OUT_DIR / "runs" / name
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, work, deadline)
    machine = machine_block(args.scale)
    if args.trace:
        requests, values, details = run_traced(args, runner, machine)
    else:
        requests, values, details = run_end_to_end(args, runner)
    wanted = units(bench, args.trace)
    problems = determinism_problems(requests, root, args.workload, args.scale, args.seed)
    if args.trace:
        problems += count_problems(values, root, args.workload, args.scale)
    failed = sum(1 for r in requests if r["problems"]) + (1 if problems else 0)
    missing = sorted(set(wanted) - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(requests),
        "failed": min(failed, len(requests)),
        "metrics": {key: {"value": values.get(key, 0.0), "unit": unit}
                    for key, unit in wanted.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "problems": problems, "requests": requests,
              "result": result, **details}
    with open(work.with_suffix(".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    shutil.rmtree(work, ignore_errors=True)
    for request in requests:
        for problem in request["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"machine": machine}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
