"""The package ships only what its own modules or perfbench reach.

Every top-level function and class in ``src/dompack``, and every method of
such a class that is not a dunder, must be named somewhere in the package or
in perfbench: as a name, an attribute, an imported name, or a string that is
an identifier (perfbench's tracer wraps functions by their names).  Code
that only the tests reach belongs with the tests.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dompack"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _references(tree: ast.AST) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def _definitions(path: Path, tree: ast.Module):
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_definition_is_reached_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in READERS}
    referenced = set().union(*map(_references, trees.values()))
    unreached = [
        qualname
        for path in sorted(PACKAGE.glob("*.py"))
        for qualname, name in _definitions(path, trees[path])
        if name not in referenced
    ]
    assert not unreached, f"reached only from the tests: {unreached}"
