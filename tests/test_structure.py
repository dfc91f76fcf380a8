"""The package's import structure, read from its source with ``ast``."""

import ast
import importlib
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cutproject"


def _imports(node: ast.AST, runtime_only: bool):
    """Modules imported anywhere in ``node``, package modules by their bare name; with
    ``runtime_only``, not those under ``if TYPE_CHECKING:``, which never run."""
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        yield from [node.module] if node.module else (alias.name for alias in node.names)
    elif runtime_only and isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING":
        return
    for child in ast.iter_child_nodes(node):
        yield from _imports(child, runtime_only)


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def test_only_lattice_imports_scipy():
    users = sorted(name for name, tree in _modules().items()
                   if any(m.split(".")[0] == "scipy" for m in _imports(tree, False)))
    assert users == ["lattice"]


def test_package_imports_form_no_cycle():
    modules = _modules()
    graph = {name: {m for m in _imports(tree, True) if m in modules and m != name}
             for name, tree in modules.items()}
    state = {}

    def visit(name, path):
        if state.get(name) == "open":
            raise AssertionError("import cycle: " + " -> ".join(path[path.index(name):] + [name]))
        if state.get(name) is None:
            state[name] = "open"
            for dep in sorted(graph[name]):
                visit(dep, path + [name])
            state[name] = "done"

    for name in sorted(graph):
        visit(name, [])


README = PACKAGE.parents[1] / "README.md"
TOLERANCE_MODULES = ("lattice", "comb", "almost", "posdef", "spectra", "tables")


def _contract_rows():
    """The rows of README's "Numerical contracts" table, as lists of cells."""
    text = README.read_text().split("## Numerical contracts", 1)[1]
    table = next(block for block in text.split("\n\n") if block.startswith("|"))
    return [[cell.strip() for cell in line.strip("|").split(" | ")] for line in table.splitlines()[2:]]


def _float_constants(name: str, tree: ast.Module):
    """Module-level constants of ``name`` that are floats, by the names its own source assigns."""
    module = importlib.import_module(f"cutproject.{name}")
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                if isinstance(getattr(module, target.id), float):
                    yield target.id


def test_contract_table_names_exist():
    rows = _contract_rows()
    assert rows and all(len(row) == 5 for row in rows)
    modules = _modules()
    named = {m.groups() for row in rows for m in re.finditer(r"`(\w+)\.(\w+)`", " ".join(row))
             if m.group(1) in modules}
    for module, name in sorted(named):
        assert hasattr(importlib.import_module(f"cutproject.{module}"), name), f"{module}.{name}"
    tests = {node.name for path in PACKAGE.parents[1].glob("tests/test_*.py")
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.FunctionDef)}
    for row in rows:
        pinned = re.findall(r"`(test_\w+)`", row[4])
        assert pinned or row[4] == "cost only", row[0]
        assert set(pinned) <= tests, row[0]


def test_every_float_constant_has_a_contract_row():
    first = " ".join(row[0] for row in _contract_rows())
    modules = _modules()
    missing = [f"{name}.{constant}" for name in TOLERANCE_MODULES
               for constant in _float_constants(name, modules[name]) if f"`{name}.{constant}`" not in first]
    assert not missing
