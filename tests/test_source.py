"""Static checks over the library source."""

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import uwbocc

PACKAGE = Path(uwbocc.__file__).parent


def module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_no_assert_statements_and_every_export_resolves():
    # python -O strips assert statements, so a check written as one is
    # gone exactly where nobody looks; and a name left in __all__ after
    # its definition was deleted breaks `from ... import *`.
    asserts, stale = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        asserts += [f"{module_name(path)}:{node.lineno}"
                    for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        module = importlib.import_module(module_name(path))
        stale += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    assert not asserts, f"assert statements in the library: {asserts}"
    assert not stale, f"__all__ entries that do not resolve: {stale}"


def test_library_raises_its_own_errors():
    # The CLI maps ConfigError, DataError and DivergenceError onto exit codes
    # 2, 3 and 4; a bare ValueError ends in a traceback with exit 1.
    offenders = [f"{module_name(path)}:{lineno}"
                 for path in sorted(PACKAGE.rglob("*.py"))
                 for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                 if "raise ValueError(" in line]
    assert not offenders, f"raise ValueError( in the library: {offenders}"


def json_file_reads(node, scope):
    """Yield the dotted scope of every json.load( call and json import of load under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    if (isinstance(node, ast.Attribute) and node.attr == "load"
            and isinstance(node.value, ast.Name) and node.value.id == "json"
            or isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(alias.name == "load" for alias in node.names)):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from json_file_reads(child, scope)


def test_only_core_read_json_opens_a_json_file():
    # The --config file, a manifest and a report are read by one function, so
    # a missing file, bad JSON and non-UTF-8 bytes get one set of messages.
    # json.loads of bytes already read (a checkpoint header) is not a file read.
    readers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        readers.update(json_file_reads(tree, module_name(path)))
    assert readers == {"uwbocc.core.read_json"}, f"json.load outside read_json: {readers}"


def scoped_nodes(node, scope):
    """Yield (dotted scope, node) for node and every node under it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    yield scope, node
    for child in ast.iter_child_nodes(node):
        yield from scoped_nodes(child, scope)


def test_only_core_check_seed_states_the_seed_rule():
    # Every seeded entry point calls core.check_seed, so a negative seed gets
    # one message wherever it is given.
    stating = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        stating.update(scope for scope, node in scoped_nodes(tree, module_name(path))
                       if isinstance(node, ast.Constant) and isinstance(node.value, str)
                       and "seed must be >= 0" in node.value)
    assert stating == {"uwbocc.core.check_seed"}, f"seed rule outside check_seed: {stating}"


def test_each_recipe_rule_is_stated_once():
    # TrainSettings, build_network and run_training all call nn.model.lookup_variant,
    # and TrainSettings and every convolution call nn.layers.check_kernel, so a
    # recipe mistake gets one message wherever it is caught.
    for text, home in (("unknown variant", "uwbocc.nn.model.lookup_variant"),
                       ("kernel size must be odd", "uwbocc.nn.layers.check_kernel")):
        stating = set()
        for path in sorted(PACKAGE.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            stating.update(scope for scope, node in scoped_nodes(tree, module_name(path))
                           if isinstance(node, ast.Constant) and isinstance(node.value, str)
                           and text in node.value)
        assert stating == {home}, f"{text!r} stated outside {home}: {stating}"


def test_only_the_error_classes_state_the_exit_codes():
    # cli.main returns the exit_code of the package error it catches, so the
    # table of exit codes is written once, in errors.py.  A handler of one
    # package error elsewhere in cli.py only re-raises it with more context.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    offenders = []
    for scope, node in scoped_nodes(tree, "uwbocc.cli"):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        caught = {name.id for name in ast.walk(node.type) if isinstance(name, ast.Name)}
        if (caught & {"ConfigError", "DataError", "DivergenceError"}
                and (scope == "uwbocc.cli.main" or not isinstance(node.body[-1], ast.Raise))):
            offenders.append(f"{scope}:{node.lineno}")
    assert not offenders, f"handlers that map a package error onto an exit code: {offenders}"


def test_package_holds_only_its_docstring_and_version():
    # Every name is imported from the module that defines it: re-exports here
    # would be a second way in, and would load every module on any import.
    body = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
    assert [type(node).__name__ for node in body] == ["Expr", "Assign"]
    assert [target.id for target in body[1].targets] == ["__version__"]


REPO = Path(__file__).parents[1]

# Public names that no workflow calls but a caller receives: the types of what
# the library returns, whose fields the caller reads.
RETURN_TYPES = {
    "uwbocc.dataset.DatasetManifest",  # read_manifest, write_dataset, memory_manifest
    "uwbocc.dataset.ManifestRecord",  # DatasetManifest.records
    "uwbocc.evaluate.EvalReport",  # snr_sweep, ablation, read_report
    "uwbocc.evaluate.EvalRow",  # EvalReport.rows
    "uwbocc.nn.model.ArchitectureVariant",  # VARIANTS, Network.variant
    "uwbocc.pipeline.ResidualSample",  # residual_samples
}


def dotted(node) -> str | None:
    """'a.b.c' for a chain of attributes on a name, None for any other expression."""
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def imported_uses(path: Path, package: str) -> set:
    """{(module, name)} that the file at path imports by name or reads as module.name.

    package is the dotted package that relative imports start from ('' outside src/).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules, uses = {}, set()  # modules: each name bound to an imported module, its module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                modules[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to package, one level up for each dot after the first
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + [base] if base else parts)
            for alias in node.names:
                uses.add((base, alias.name))
                modules[alias.asname or alias.name] = f"{base}.{alias.name}"
        elif isinstance(node, ast.Attribute) and (head := dotted(node.value)):
            first, _, rest = head.partition(".")
            if first in modules:
                uses.add((".".join(filter(None, (modules[first], rest))), node.attr))
    return uses


def test_every_public_name_has_a_caller_or_is_documented():
    # A name in __all__ is public: something outside its module calls it (in the
    # library, the demos or the benchmark), the README or docs/formats.md names
    # it, or the library returns it.  A name only the tests call is not public;
    # tests reach it as a module attribute.  A package __init__ only re-exports,
    # so a use of the re-export is a use of the original.
    reexports, uses = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        name = module_name(path)
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
        found = imported_uses(path, package)
        if path.name == "__init__.py":
            reexports.update({(name, attribute): (home, attribute) for home, attribute in found})
        else:
            uses |= {(home, attribute, name) for home, attribute in found}
    for path in sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py")):
        uses |= {(home, attribute, str(path)) for home, attribute in imported_uses(path, "")}
    called = {reexports.get((home, attribute), (home, attribute))
              for home, attribute, user in uses if user != home}
    docs = (REPO / "README.md").read_text(encoding="utf-8") + (
        REPO / "docs" / "formats.md").read_text(encoding="utf-8")
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = importlib.import_module(module_name(path))
        unused += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                   if (module.__name__, name) not in called
                   and not re.search(rf"\b{name}\b", docs)
                   and f"{module.__name__}.{name}" not in RETURN_TYPES]
    assert not unused, f"public names with no caller, no documentation and no reason: {unused}"


def test_benchmark_harness_finds_the_library_names_it_uses():
    # perfbench/tracing.py skips a traced name that no longer exists, so a
    # renamed function would silently drop its span from every traced run.
    perfbench = Path(__file__).parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", perfbench / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    homes: dict = {}
    for home, attribute, span in tracing.FUNCTIONS:
        homes.setdefault(span, []).append((home, attribute))
    unresolved = [span for span in tracing.EXPECTED_CALLS if span in homes
                  and not any(hasattr(importlib.import_module(home), attribute)
                              for home, attribute in homes[span])]
    assert not unresolved, f"traced spans with no callable left: {unresolved}"

    tree = ast.parse((perfbench / "child.py").read_text(encoding="utf-8"))
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "uwbocc":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "uwbocc":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    assert not missing, f"names perfbench/child.py imports that do not resolve: {missing}"


def test_only_the_conv_engine_reaches_into_openblas():
    # The BLAS thread policy has one home: nn.layers pins OpenBLAS to one
    # thread and gives the convolutions their own workers instead.
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if module_name(path) == "uwbocc.nn.layers":
            continue
        text = path.read_text(encoding="utf-8")
        imported = set()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[0])
        if "ctypes" in imported or "scipy_openblas" in text:
            offenders.append(module_name(path))
    assert not offenders, f"modules that reach into OpenBLAS besides nn.layers: {offenders}"


def references(node, name, scope):
    """Yield the dotted scope of every reference to name (a load, attribute or import) under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope}.{node.name}"
    if (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            or isinstance(node, ast.alias) and name in (node.name, node.asname)):
        yield scope
    for child in ast.iter_child_nodes(node):
        yield from references(child, name, scope)


def test_only_the_layer_plan_walks_the_blocks_for_counting():
    # Every count of a network (flop_count, the checkpoint's _state_size)
    # walks nn.model._layer_plan, which tests/test_nn.py pins to the built
    # network, so the block structure is written out for counting once.
    allowed = {f"uwbocc.nn.model.{name}" for name in ("_layer_plan", "build_network",
                                                       "channel_plan")}
    callers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        callers.update(references(tree, "_blocks", module_name(path)))
    assert "uwbocc.nn.model._layer_plan" in callers  # the search sees the one walk it allows
    assert callers <= allowed, f"code reaching nn.model._blocks: {sorted(callers - allowed)}"


KNOWN_FUNCTIONS = '''
def f(xs, flag):
    """A docstring

    of three lines."""
    # a comment

    total = 0
    for x in xs:
        if x and flag or not x:
            total += 1 if x else 2
    try:
        return [y for y in xs for z in y if z]
    except TypeError:
        while False:
            pass
        return total


class C:
    def m(self,
          other):
        def inner():
            return 1 if self else other
        return inner
'''


def decision_point_rows(package: Path) -> dict:
    """{function: (decision points, code lines)} as tools/decision_points.py prints them."""
    tool = Path(__file__).parents[1] / "tools" / "decision_points.py"
    out = subprocess.run([sys.executable, tool, "--package", package], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    header, *rows = out.splitlines()
    assert header.split() == ["function", "decisions", "code", "lines"]
    return {name: (int(points), int(lines)) for name, points, lines in map(str.split, rows)}


def test_decision_point_counter(tmp_path):
    # f: for, if, one extra and/or operand each in `x and flag or not x`, a
    # conditional expression, two comprehension fors, except and while; its
    # docstring, comment and blank lines are not code.  inner counts toward C.m.
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(KNOWN_FUNCTIONS)
    assert decision_point_rows(tmp_path / "pkg") == {
        "pkg.mod.f": (9, 10), "pkg.mod.C.m": (1, 3), "total": (10, 13)}
    rows = decision_point_rows(PACKAGE)
    total = rows.pop("total")
    assert "uwbocc.dataset.make_split" in rows and "uwbocc.simulate.parse_scene" in rows
    assert total == tuple(map(sum, zip(*rows.values())))
