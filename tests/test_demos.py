"""The demo scripts import only names that uwbocc still provides, and the quick ones run.

Every demo is parsed for its imports.  The demos that call the noise and
scoring API, and finish in seconds, also run to exit status 0, since a
parse cannot see a call whose signature has changed.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uwbocc

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RUN = ("02_noise_calibration.py", "04_snr_sweep.py")


def uwbocc_imports(path):
    """(module, name) for each name imported from uwbocc; name is None for `import m`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "uwbocc":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "uwbocc")


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = list(uwbocc_imports(demo))
    assert imports, f"{demo.name} imports nothing from uwbocc"
    for module, name in imports:
        target = importlib.import_module(module)
        if name is not None and not hasattr(target, name):
            importlib.import_module(f"{module}.{name}")  # a submodule, or ImportError


@pytest.mark.parametrize("name", RUN)
def test_quick_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(Path(uwbocc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
