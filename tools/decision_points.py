"""Decision points and code lines of every function in src/uwbocc.

Decision points: each `if`, `for`, `while`, conditional expression,
`except` clause and comprehension `for`, plus each `and`/`or` operand after
the first.  Code lines: the lines of a function's body, less blank lines,
comment lines and its docstring (so not its `def` line or signature).  A
function defined inside another counts toward the one that encloses it; a
method is listed as Class.method.

Usage:

    python tools/decision_points.py [--package DIR]
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

BRANCHES = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.IfExp, ast.ExceptHandler,
            ast.comprehension)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SPACING = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER)


def decision_points(node: ast.AST) -> int:
    """Decision points under node, nested functions included."""
    total = 0
    for child in ast.walk(node):
        if isinstance(child, BRANCHES):
            total += 1
        elif isinstance(child, ast.BoolOp):
            total += len(child.values) - 1
    return total


def code_lines(node: ast.AST, code: set) -> int:
    """Lines of node's body that hold code (line numbers in code), less its docstring."""
    body = node.body
    lines = set(range(body[0].lineno, node.end_lineno + 1)) & code
    if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        lines -= set(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


def functions(tree: ast.Module, prefix: str = ""):
    """(qualified name, node) of each function at module or class level, in source order."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")


def measure(path: Path) -> list:
    """[(qualified name, decision points, code lines)] of the functions in one file."""
    text = path.read_text(encoding="utf-8")
    # A line holds code when a token other than a comment or a line break
    # touches it; a string spanning lines makes each of its lines code.
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in SPACING:
            code.update(range(token.start[0], token.end[0] + 1))
    return [(name, decision_points(node), code_lines(node, code))
            for name, node in functions(ast.parse(text, str(path)))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--package", default=Path(__file__).parents[1] / "src" / "uwbocc",
                        type=Path, help="package directory to measure (default src/uwbocc)")
    ns = parser.parse_args(argv)
    rows = []
    for path in sorted(ns.package.rglob("*.py")):
        module = ".".join(path.relative_to(ns.package.parent).with_suffix("").parts)
        rows += [(f"{module}.{name}", points, lines) for name, points, lines in measure(path)]
    width = max((len(name) for name, _, _ in rows), default=8)
    print(f"{'function':<{width}}  decisions  code lines")
    for name, points, lines in rows:
        print(f"{name:<{width}}  {points:>9}  {lines:>10}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>9}  {sum(r[2] for r in rows):>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
