"""Harness self-test at a tiny size; runs in well under a minute.

    python3 perfbench/selftest.py

It runs every workload through run.py at `--scale tiny` with tracing off
and on, checks that the last line names every metric of BENCHMARK.json
with its unit, and checks that the correctness checks reject corrupted
outputs.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    assert "machine" in json.loads(lines[-2])
    return json.loads(lines[-1])


class EndToEnd(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
            cls.bench = json.load(handle)

    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for metric in metrics:
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])

    def test_every_workload_prints_every_metric(self):
        for workload in (w["name"] for w in self.bench["workloads"]):
            with self.subTest(workload=workload):
                result = run_bench(workload, 0)
                self.check_result(result, self.bench["end_to_end"])
                for metric in self.bench["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0)

    def test_traced_runs_print_every_layer_metric(self):
        for workload in (w["name"] for w in self.bench["workloads"]):
            with self.subTest(workload=workload):
                result = run_bench(workload, 1)
                self.check_result(result, self.bench["per_layer"])
                values = {k: v["value"] for k, v in result["metrics"].items()}
                if workload == "ablate":
                    self.assertAlmostEqual(values["evaluate.ablation.kept_ratio"], 1 / 3)
                self.assertGreater(values["augment.add_noise.calls"], 0)


class Checks(unittest.TestCase):
    def report(self, workload):
        counts = wl.SIZES["tiny"][workload]["counts"]
        grid = [float(s) for s in range(-10, -41, -1)] if workload == "sweep-energy" else None
        rows = []
        for index, (name, activity, n_pos, n_neg) in enumerate(
                wl.expected_rows(workload, "tiny")):
            snr = grid[index % len(grid)] if grid else -20.0
            rows.append({"name": name, "activity": activity, "snr_db": snr, "auc": 0.5,
                         "flops": 0, "n_pos": n_pos, "n_neg": n_neg})
        self.assertEqual(counts["empty"], rows[0]["n_neg"])
        return {"rows": rows, "seed": 3, "config": {}}

    def test_good_reports_pass(self):
        for workload in ("sweep-energy", "ablate"):
            self.assertEqual(wl.check_report(self.report(workload), workload, "tiny"), [])

    def test_corrupted_reports_fail(self):
        for workload in ("sweep-energy", "ablate"):
            good = self.report(workload)
            corruptions = {
                "auc above 1": lambda d: d["rows"][0].update(auc=1.5),
                "auc below 0": lambda d: d["rows"][-1].update(auc=-0.1),
                "missing row": lambda d: d["rows"].pop(),
                "wrong n_pos": lambda d: d["rows"][1].update(n_pos=d["rows"][1]["n_pos"] + 1),
                "wrong n_neg": lambda d: d["rows"][2].update(n_neg=0),
                "no rows key": lambda d: d.pop("rows"),
            }
            for label, corrupt in corruptions.items():
                with self.subTest(workload=workload, corruption=label):
                    doc = copy.deepcopy(good)
                    corrupt(doc)
                    self.assertNotEqual(wl.check_report(doc, workload, "tiny"), [])

    def test_loss_checks(self):
        self.assertEqual(wl.check_losses([0.67, 0.52], 2), [])
        self.assertEqual(wl.check_losses([0.67], 1), [])
        self.assertNotEqual(wl.check_losses([0.5, 0.6], 2), [])
        self.assertNotEqual(wl.check_losses([0.5, float("nan")], 2), [])
        self.assertNotEqual(wl.check_losses([0.5], 2), [])

    def test_differing_outputs_fail(self):
        import run

        with tempfile.TemporaryDirectory() as directory:
            root = Path(directory)
            (root / "src" / "uwbocc").mkdir(parents=True)
            (root / "src" / "uwbocc" / "__init__.py").write_text("")
            (root / run.OUT_DIR).mkdir()
            same = [{"digest": "a"}, {"digest": "a"}]
            self.assertEqual(run.determinism_problems(same, root, "ablate", "tiny", 3), [])
            self.assertNotEqual(run.determinism_problems(
                [{"digest": "a"}, {"digest": "b"}], root, "ablate", "tiny", 3), [])
            self.assertNotEqual(run.determinism_problems(
                [{"digest": "c"}], root, "ablate", "tiny", 3), [])
            self.assertEqual(run.determinism_problems(
                [{"digest": "c"}], root, "ablate", "tiny", 4), [])

    def test_epoch_lines_parse(self):
        text = "epoch 0: loss 0.6723, validation AUC 0.5629\nepoch 1: loss 0.6068, validation AUC 0.4907\n"
        self.assertEqual(wl.epoch_losses(text), [0.6723, 0.6068])


class Wrapping(unittest.TestCase):
    def test_callables_are_wrapped_where_callers_look_them_up(self):
        import uwbocc.augment
        import uwbocc.evaluate
        import uwbocc.pipeline

        original = uwbocc.augment.add_noise
        original_train = uwbocc.pipeline.train_network
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for module in (uwbocc.augment, uwbocc.pipeline, uwbocc.evaluate):
                self.assertIsNot(module.add_noise, original, module.__name__)
            self.assertIsNot(uwbocc.pipeline.train_network, original_train)
        finally:
            tracer.uninstall()
        for module in (uwbocc.augment, uwbocc.pipeline, uwbocc.evaluate):
            self.assertIs(module.add_noise, original)

    def test_missing_calls_are_reported(self):
        tracer = tracing.Tracer()
        problems = tracing.call_problems(tracer, "train-1d")
        self.assertIn("nn.training.AdamOptimizer.step: 0 calls on train-1d", problems)
        index = tracer.open("nn.layers.Conv1d.fwd_infer")
        tracer.close(index)
        self.assertTrue(any("sweep-energy" in p for p in tracing.call_problems(tracer, "sweep-energy")))


if __name__ == "__main__":
    unittest.main()
