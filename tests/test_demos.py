"""The demo scripts import only names that uwbocc still provides.

The demos take seconds to minutes to run, so they are parsed, not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
