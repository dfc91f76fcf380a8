"""The package's import structure, read from its source with ``ast``."""

import ast
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
