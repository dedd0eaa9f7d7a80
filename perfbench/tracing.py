"""Spans and counts recorded around uwbocc's callables, from outside the program.

`Tracer.install()` replaces each traced callable wherever a caller looks it
up: a function is rebound in every loaded ``uwbocc`` module that holds the
same object (``from .augment import add_noise`` makes ``uwbocc.pipeline``
and ``uwbocc.evaluate`` hold their own references), and a method is
replaced on its class.  Spans stay in memory; `per_layer_metrics` turns
them into the named per-layer metrics once the traced process is done.

A span records its name, start, end and parent.  Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module that defines it, attribute, span name).  Bound wherever it is found.
FUNCTIONS = (
    ("uwbocc.simulate", "synth_dataset", "simulate.synth_dataset"),
    ("uwbocc.dataset", "write_dataset", "dataset.write_dataset"),
    ("uwbocc.dataset", "read_dataset", "dataset.read_dataset"),
    ("uwbocc.dataset", "build_epoch_plan", "dataset.build_epoch_plan"),
    ("uwbocc.core", "mean_remove", "core.mean_remove"),
    ("uwbocc.augment", "add_noise", "augment.add_noise"),
    ("uwbocc.augment", "normalize_unit_energy", "augment.normalize_unit_energy"),
    ("uwbocc.nn.model", "stack_real_imag_1d", "pipeline.layout"),
    ("uwbocc.nn.model", "layout_2d", "pipeline.layout"),
    ("uwbocc.baselines", "energy_detector", "baselines.energy_detector"),
    ("uwbocc.baselines", "fft_detector", "baselines.fft_detector"),
    ("uwbocc.evaluate", "roc_auc", "evaluate.roc_auc"),
    ("uwbocc.evaluate", "_score_grid_point", "evaluate.grid_point"),
    ("uwbocc.evaluate", "snr_sweep", "evaluate.snr_sweep"),
    ("uwbocc.evaluate", "ablation", "evaluate.ablation"),
    ("uwbocc.nn.training", "bce_with_logits", "nn.training.bce_with_logits"),
    ("uwbocc.nn.training", "train_network", "nn.training.train_network"),
    ("uwbocc.cli", "main", "cli.main"),
)

LAYER_TYPES = ("Conv1d", "Conv2d", "BatchNorm", "ReLU", "GlobalAvgPool", "Dense")
CONV_TYPES = ("Conv1d", "Conv2d")
PHASES = ("fwd_train", "fwd_infer", "bwd")


def held_bytes(layer) -> int:
    """Bytes of the arrays a layer holds besides its parameters and running state.

    Views count as their base array, and each base is counted once.
    """
    state = {id(a) for a in layer.state_arrays().values()}
    bases: dict = {}

    def visit(value):
        if isinstance(value, np.ndarray):
            if id(value) in state:
                return
            base = value
            while isinstance(base.base, np.ndarray):
                base = base.base
            bases[id(base)] = base.nbytes
        elif isinstance(value, (tuple, list)):
            for item in value:
                visit(item)

    for value in vars(layer).values():
        visit(value)
    return int(sum(bases.values()))


def conv_flops(layer, shape) -> int:
    """Forward operations of one conv call under the repo's `flop_count` convention."""
    kernel_elems = layer.kernel ** (len(shape) - 2)
    spatial = int(np.prod(shape[2:]))
    return 2 * shape[0] * layer.c_in * layer.c_out * kernel_elems * spatial


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list = []       # span name per span
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.child_time: list = []
        self.extras: dict = {}      # span index -> dict of counts
        self._stack: list = []
        self._restore: list = []    # (owner, attribute, original)
        self.binding_calls: Counter = Counter()
        self.conv_live: dict = {}   # id(layer) -> (type name, bytes held)
        self.conv_peak: Counter = Counter()

    # ---------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.child_time.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        parent = self.parents[idx]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[idx]

    def _timed(self, name, fn, binding, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.binding_calls[binding] += 1
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if extra is not None:
                tracer.extras[idx] = extra(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------- install

    def _replace(self, owner, attribute, new) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, new)

    def install(self) -> None:
        """Wrap every traced callable at each place a caller can look it up."""
        import uwbocc.cli  # noqa: F401  (loads every module the commands use)
        import uwbocc.nn.layers as layers
        import uwbocc.nn.model as model
        import uwbocc.nn.training as training
        import uwbocc.pipeline as pipeline

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "uwbocc" or n.startswith("uwbocc."))]
        for home, attribute, name in FUNCTIONS:
            original = getattr(sys.modules[home], attribute, None)
            if original is None:
                continue
            for module in modules:
                if vars(module).get(attribute) is original:
                    binding = f"{module.__name__}.{attribute}"
                    wrapper = self._timed(name, self._adapt(name, original), binding,
                                          _EXTRAS.get(name))
                    self._replace(module, attribute, wrapper)

        for type_name in LAYER_TYPES:
            cls = getattr(layers, type_name)
            self._replace(cls, "forward", self._layer_forward(type_name, cls.forward))
            self._replace(cls, "backward", self._layer_backward(type_name, cls.backward))
        self._replace(model.Network, "forward", self._network_forward(model.Network.forward))
        self._replace(model.Network, "backward", self._timed(
            "nn.model.Network.backward", model.Network.backward,
            "uwbocc.nn.model.Network.backward"))
        self._replace(training.AdamOptimizer, "step", self._timed(
            "nn.training.AdamOptimizer.step", training.AdamOptimizer.step,
            "uwbocc.nn.training.AdamOptimizer.step"))
        self._replace(pipeline.NetworkScorer, "__call__", self._timed(
            "pipeline.NetworkScorer", pipeline.NetworkScorer.__call__,
            "uwbocc.pipeline.NetworkScorer.__call__"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _adapt(self, name, fn):
        """train_network: also time its batch generator and validation scorer."""
        if name != "nn.training.train_network":
            return fn
        tracer = self

        @functools.wraps(fn)
        def train_network(network, batches, validation_scorer, *args, **kwargs):
            def timed_batches(epoch):
                idx = tracer.open("pipeline.batch_wait")
                try:
                    stream = iter(batches(epoch))
                finally:
                    tracer.close(idx)
                while True:
                    idx = tracer.open("pipeline.batch_wait")
                    try:
                        item = next(stream)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(idx)
                    tracer.binding_calls["pipeline.batch_steps"] += 1
                    yield item

            def timed_validation(net):
                idx = tracer.open("pipeline.validation")
                try:
                    return validation_scorer(net)
                finally:
                    tracer.close(idx)

            return fn(network, timed_batches, timed_validation, *args, **kwargs)

        return train_network

    def _layer_forward(self, type_name, fn):
        tracer = self
        binding = f"uwbocc.nn.layers.{type_name}.forward"
        is_conv = type_name in CONV_TYPES

        @functools.wraps(fn)
        def forward(layer, x, train):
            tracer.binding_calls[binding] += 1
            idx = tracer.open(f"nn.layers.{type_name}.{'fwd_train' if train else 'fwd_infer'}")
            try:
                return fn(layer, x, train)
            finally:
                tracer.close(idx)
                if is_conv:
                    tracer.extras[idx] = {"flops": conv_flops(layer, x.shape)}
                    if train:
                        tracer._conv_held(type_name, layer)

        return forward

    def _layer_backward(self, type_name, fn):
        tracer = self
        binding = f"uwbocc.nn.layers.{type_name}.backward"
        is_conv = type_name in CONV_TYPES

        @functools.wraps(fn)
        def backward(layer, dy):
            tracer.binding_calls[binding] += 1
            idx = tracer.open(f"nn.layers.{type_name}.bwd")
            try:
                return fn(layer, dy)
            finally:
                tracer.close(idx)
                if is_conv:
                    # Weight and input gradients: two GEMMs the size of the forward one.
                    shape = (dy.shape[0], layer.c_in) + dy.shape[2:]
                    tracer.extras[idx] = {"flops": 2 * conv_flops(layer, shape)}
                    tracer._conv_held(type_name, layer)

        return backward

    def _conv_held(self, type_name, layer) -> None:
        self.conv_live[id(layer)] = (type_name, held_bytes(layer))
        live = Counter()
        for kind, nbytes in self.conv_live.values():
            live[kind] += nbytes
        for kind in CONV_TYPES:
            self.conv_peak[kind] = max(self.conv_peak[kind], live[kind])

    def _network_forward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def forward(network, batch, train=False):
            tracer.binding_calls["uwbocc.nn.model.Network.forward"] += 1
            idx = tracer.open(f"nn.model.Network.forward_{'train' if train else 'infer'}")
            try:
                return fn(network, batch, train)
            finally:
                tracer.close(idx)

        return forward

    # ------------------------------------------------------------ summaries

    def table(self) -> dict:
        """Per span name: calls, total and self seconds, summed extras."""
        out: dict = {}
        for i, name in enumerate(self.names):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            duration = self.ends[i] - self.starts[i]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - self.child_time[i]
            entry["durations"].append(duration)
            for key, value in self.extras.get(i, {}).items():
                entry[key] = entry.get(key, 0) + value
        return out


def _grid_point_extra(args, kwargs, result):
    # _score_grid_point(scorer, positives, negatives, ...): count the draws.
    try:
        return {"negatives": len(args[2]), "positives": len(args[1])}
    except (IndexError, TypeError):
        return {}


def _roc_extra(args, kwargs, result):
    try:
        return {"n": len(args[0])}
    except (IndexError, TypeError):
        return {}


def _synth_extra(args, kwargs, result):
    return {"samples": len(result)}


_EXTRAS = {
    "evaluate.grid_point": _grid_point_extra,
    "evaluate.roc_auc": _roc_extra,
    "simulate.synth_dataset": _synth_extra,
}


def _per(table, name, field, scale, per_key=None, per_value=None):
    entry = table.get(name)
    if not entry:
        return 0.0
    count = entry["calls"] if per_key is None else entry.get(per_key, 0)
    if per_value is not None:
        count = per_value
    return entry[field] * scale / count if count else 0.0


def tail(durations) -> tuple:
    """Value with exactly ten samples above it, and its percentile (0, 0 if too few)."""
    if len(durations) < 11:
        return 0.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def per_layer_metrics(tracer: Tracer, report_rows: int, gemm_f64_gflops: float) -> dict:
    """The named per-layer metrics of one traced request (values only)."""
    t = tracer.table()
    calls = tracer.binding_calls
    m: dict = {}
    m["simulate.synth_dataset.ms_per_sample"] = _per(t, "simulate.synth_dataset", "total_s", 1e3,
                                                     per_key="samples")
    for name in ("dataset.write_dataset", "dataset.read_dataset", "dataset.build_epoch_plan"):
        m[f"{name}.ms"] = _per(t, name, "total_s", 1e3)
    m["core.mean_remove.us_per_call"] = _per(t, "core.mean_remove", "total_s", 1e6)
    m["augment.add_noise.us_per_draw"] = _per(t, "augment.add_noise", "total_s", 1e6)
    m["augment.add_noise.calls"] = t.get("augment.add_noise", {}).get("calls", 0)
    m["augment.normalize_unit_energy.us_per_draw"] = _per(
        t, "augment.normalize_unit_energy", "total_s", 1e6)
    m["pipeline.batch_wait_ms_per_step"] = _per(t, "pipeline.batch_wait", "total_s", 1e3,
                                                per_value=calls["pipeline.batch_steps"])
    m["pipeline.layout.us_per_sample"] = _per(t, "pipeline.layout", "total_s", 1e6)
    m["pipeline.NetworkScorer.self_ms_per_call"] = _per(t, "pipeline.NetworkScorer", "self_s", 1e3)
    m["pipeline.validation.ms_per_epoch"] = _per(t, "pipeline.validation", "total_s", 1e3)
    m["baselines.energy_detector.us_per_call"] = _per(t, "baselines.energy_detector", "total_s", 1e6)
    m["baselines.fft_detector.us_per_call"] = _per(t, "baselines.fft_detector", "total_s", 1e6)
    m["evaluate.roc_auc.ms_per_call"] = _per(t, "evaluate.roc_auc", "total_s", 1e3)
    roc = t.get("evaluate.roc_auc", {})
    m["evaluate.roc_auc.n_per_call"] = roc.get("n", 0) / roc["calls"] if roc else 0.0
    points = t.get("evaluate.grid_point", {"calls": 0, "durations": []})
    m["evaluate.grid_point.ms_p50"] = (1e3 * statistics.median(points["durations"])
                                       if points["durations"] else 0.0)
    value, percentile = tail(points["durations"])
    m["evaluate.grid_point.ms_tail"] = 1e3 * value
    m["evaluate.grid_point.tail_percentile"] = percentile
    ablation_calls = t.get("evaluate.ablation", {}).get("calls", 0)
    m["evaluate.ablation.kept_ratio"] = (report_rows / points["calls"]
                                         if ablation_calls and points["calls"] else 0.0)
    m["evaluate.negative_draws_per_row"] = (points.get("negatives", 0) / report_rows
                                            if report_rows else 0.0)
    for type_name in LAYER_TYPES:
        for phase in PHASES:
            name = f"nn.layers.{type_name}.{phase}"
            m[f"{name}.self_ms_per_call"] = _per(t, name, "self_s", 1e3)
    for type_name in CONV_TYPES:
        for phase in PHASES:
            name = f"nn.layers.{type_name}.{phase}"
            entry = t.get(name)
            gflops = entry["flops"] / entry["total_s"] / 1e9 if entry else 0.0
            m[f"{name}.gflops"] = gflops
            m[f"{name}.peak_frac"] = gflops / gemm_f64_gflops
        m[f"nn.layers.{type_name}.cached_bytes"] = tracer.conv_peak[type_name]
    m["nn.model.Network.forward_train.ms_per_batch"] = _per(
        t, "nn.model.Network.forward_train", "total_s", 1e3)
    m["nn.model.Network.forward_infer.ms_per_batch"] = _per(
        t, "nn.model.Network.forward_infer", "total_s", 1e3)
    m["nn.model.Network.backward.ms_per_batch"] = _per(t, "nn.model.Network.backward",
                                                       "total_s", 1e3)
    m["nn.training.AdamOptimizer.step.ms"] = _per(t, "nn.training.AdamOptimizer.step",
                                                  "total_s", 1e3)
    m["nn.training.bce_with_logits.us"] = _per(t, "nn.training.bce_with_logits", "total_s", 1e6)
    m["nn.training.train_network.self_ms_per_epoch"] = _per(
        t, "nn.training.train_network", "self_s", 1e3,
        per_value=t.get("pipeline.validation", {}).get("calls", 0))
    m["cli.main.self_ms"] = _per(t, "cli.main", "self_s", 1e3)
    return m


def layer_breakdown(tracer: Tracer) -> dict:
    """Calls, total and self milliseconds per span name, for the trace file."""
    return {name: {"calls": e["calls"], "total_ms": 1e3 * e["total_s"],
                   "self_ms": 1e3 * e["self_s"],
                   **{k: v for k, v in e.items()
                      if k not in ("calls", "total_s", "self_s", "durations")}}
            for name, e in sorted(tracer.table().items())}


def spans(tracer: Tracer) -> list:
    """Every span as [name, start_s, end_s, parent], times relative to the first."""
    origin = tracer.starts[0] if tracer.starts else 0.0
    return [[n, round(s - origin, 7), round(e - origin, 7), p]
            for n, s, e, p in zip(tracer.names, tracer.starts, tracer.ends, tracer.parents)]


_TRAIN = ("train-1d", "train-2d")
_EVERY = ("train-1d", "train-2d", "sweep-energy", "ablate")

# Span name -> workloads on which it must record calls (where it does most work).
EXPECTED_CALLS = {
    "simulate.synth_dataset": _EVERY,
    "dataset.write_dataset": _EVERY,
    "dataset.read_dataset": _EVERY,
    "dataset.build_epoch_plan": _TRAIN,
    "core.mean_remove": _EVERY,
    "augment.add_noise": _EVERY,
    "augment.normalize_unit_energy": _EVERY,
    "pipeline.batch_wait": _TRAIN,
    "pipeline.layout": ("train-1d", "train-2d", "ablate"),
    "pipeline.NetworkScorer": ("ablate",),
    "pipeline.validation": _TRAIN,
    "baselines.energy_detector": ("sweep-energy", "ablate"),
    "baselines.fft_detector": ("ablate",),
    "evaluate.roc_auc": _EVERY,
    "evaluate.grid_point": ("sweep-energy", "ablate"),
    "evaluate.ablation": ("ablate",),
    "nn.model.Network.forward_train": _TRAIN,
    "nn.model.Network.forward_infer": ("train-1d", "train-2d", "ablate"),
    "nn.model.Network.backward": _TRAIN,
    "nn.training.AdamOptimizer.step": _TRAIN,
    "nn.training.bce_with_logits": _TRAIN,
    "nn.training.train_network": _TRAIN,
    "cli.main": _EVERY,
}
_LAYER_WORKLOADS = {"Conv1d": ("train-1d",), "Conv2d": ("train-2d",)}
for _type in LAYER_TYPES:
    _trained = _LAYER_WORKLOADS.get(_type, _TRAIN)
    EXPECTED_CALLS[f"nn.layers.{_type}.fwd_train"] = _trained
    EXPECTED_CALLS[f"nn.layers.{_type}.bwd"] = _trained
    EXPECTED_CALLS[f"nn.layers.{_type}.fwd_infer"] = _trained + ("ablate",)


def call_problems(tracer: Tracer, workload: str) -> list:
    """The wrapping proof: expected layers ran, and nothing under nn.* ran on sweep-energy."""
    table = tracer.table()
    problems = [f"{name}: 0 calls on {workload}"
                for name, workloads in EXPECTED_CALLS.items()
                if workload in workloads and not table.get(name, {}).get("calls")]
    if workload == "sweep-energy":
        problems += [f"{name}: {entry['calls']} calls on sweep-energy"
                     for name, entry in table.items() if name.startswith("nn.")]
    return problems
