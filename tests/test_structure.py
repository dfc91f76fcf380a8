"""The package's import structure, read from its source with ``ast``."""

import ast
import importlib
import inspect
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


def _references(path: Path) -> set:
    """Every identifier, attribute, imported name and string constant of a file: the tracer of
    ``perfbench/`` binds its layers by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _types_named(node: ast.stmt) -> set:
    """The names in a function's return annotation and in the exceptions it raises, or in a
    class's field annotations; none for an assignment."""
    parts = []
    if isinstance(node, ast.FunctionDef):
        parts = [node.returns] + [getattr(n.exc, "func", n.exc) for n in ast.walk(node) if isinstance(n, ast.Raise)]
    elif isinstance(node, ast.ClassDef):
        parts = [n.annotation for n in node.body if isinstance(n, ast.AnnAssign)]
    return {n.id for part in parts if part for n in ast.walk(part) if isinstance(n, ast.Name)}


def test_every_public_name_has_a_user():
    # a name in __all__ passes when a .py file outside tests/, other than its own module and
    # __init__.py, uses it, or tests/test_acceptance.py does; when it is a class that a passing
    # name returns, holds as a field type or raises; or when a README line names it with the
    # statement of the paper it reproduces
    import cutproject

    root = PACKAGE.parents[1]
    public = {name for name in cutproject.__all__ if not inspect.ismodule(getattr(cutproject, name))}
    defs = {}  # name: (the module that defines or assigns it, that statement)
    for stem, tree in _modules().items():
        for node in tree.body:
            names = ([node.name] if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     else [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)])
            defs.update((name, (PACKAGE / f"{stem}.py", node)) for name in names)
    users = {path: _references(path) for path in root.rglob("*.py")
             if path.relative_to(root).parts[0] in ("src", "scripts", "perfbench")
             and path.name != "__init__.py" or path == root / "tests" / "test_acceptance.py"}
    passing = {name for name in public
               if any(name in found for path, found in users.items() if path != defs[name][0])}
    paper = [line for line in README.read_text().splitlines() if re.search(r"\bpaper", line)]
    passing |= {name for name in public if any(f"`{name}`" in line for line in paper)}
    while True:
        grown = passing | public & {t for name in passing for t in _types_named(defs[name][1])}
        if grown == passing:
            break
        passing = grown
    unused = sorted(public - passing)
    assert not unused, f"public names without a user: {unused}"
