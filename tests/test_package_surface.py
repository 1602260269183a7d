"""The package ships only what its own modules or perfbench reach.

Every top-level function and class in ``src/dompack``, and every method of
such a class that is not a dunder, must be named somewhere in the package or
in perfbench: as a name, an attribute or an imported name.  A string does
not count: perfbench's tracer wraps the functions it names in strings and
skips names it does not find, so naming a function there keeps nothing
alive.  Code that only the tests reach belongs with the tests.

The other way round, every dompack name that perfbench imports or reads as
an attribute must exist: perfbench runs on the checkout's sources, so a
rename has to fail here rather than in a benchmark run.
"""

from __future__ import annotations

import ast
import pkgutil
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


def _relative_imports(tree: ast.Module):
    """(imported module, enclosing function or None) per relative import;
    ``from . import a, b`` imports a and b."""
    def walk(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                for name in [child.module] if child.module else [a.name for a in child.names]:
                    yield name, function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, function or child.name)
            else:
                yield from walk(child, function)

    return walk(tree, None)


def _import_graph():
    graph, local = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        graph[path.stem] = set()
        for name, function in _relative_imports(ast.parse(path.read_text(), str(path))):
            if function:
                local.append(f"{path.stem}.{function} imports {name}")
            else:
                graph[path.stem].add(name)
    return graph, local


def test_no_relative_import_inside_a_function():
    # Absolute imports (``multiprocessing`` in ``cmd_scan``, which keeps
    # start-up lean) stay allowed; a relative one hides an import cycle.
    _, local = _import_graph()
    assert not local, f"function-local package imports: {local}"


def test_module_imports_form_a_dag():
    graph, _ = _import_graph()
    done, active = set(), []

    def visit(module):
        if module in active:
            raise AssertionError("import cycle: " + " -> ".join(active + [module]))
        if module not in done:
            active.append(module)
            for dep in sorted(graph.get(module, ())):
                visit(dep)
            active.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
    engines = {"engine", "engine_twodeg", "engine_twinwidth"}
    assert not graph["families"] & engines
    assert all("families" not in graph[m] for m in engines | {"constructions"})


def _perfbench_names(tree: ast.Module):
    """Each dompack name a perfbench file reads, as (dotted name, line):
    every name its ``from dompack... import`` lines take, and every
    attribute chain on a name bound by them."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level and (
            node.module.split(".")[0] == "dompack"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                yield f"{node.module}.{alias.name}", node.lineno
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            yield ".".join([bound[node.id], *reversed(chain)]), node.lineno


def _resolves(dotted: str) -> bool:
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def test_perfbench_reads_only_names_the_package_has():
    names = {}
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for dotted, line in _perfbench_names(ast.parse(path.read_text(), str(path))):
            names.setdefault(dotted, f"{path.name}:{line}")
    assert {
        "dompack.solvers.min_hitting_set",
        "dompack.solvers.backend_name",
        "dompack.oracles.reference_packing_value",
        "dompack.cli.main",
    } <= names.keys()
    missing = [f"{dotted} ({where})" for dotted, where in sorted(names.items())
               if not _resolves(dotted)]
    assert not missing, f"perfbench reads names dompack does not have: {missing}"
