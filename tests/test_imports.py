"""Every name a package module imports is used, and every name its
``__all__`` lists is bound: an unused-import and stale-export check that
needs no linter.  ``__init__.py`` is left out, as it imports in order to
re-export (a stale name there fails at import)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "isac_pareto"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports but never reads and does not list in
    ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def unbound_exports(source: str) -> list[str]:
    """Names that the ``__all__`` of ``source`` lists but that its top level
    neither defines, assigns nor imports."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            bound.update(names)
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return sorted(set(exported) - bound)


def test_unused_imports_finds_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport numpy as np\n"
              "from .a import b as c, d, e\n"
              "__all__ = ['d']\n"
              "def f(x: e) -> None:\n    return np.sum(x)\n")
    assert unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unbound_exports_finds_only_stale_names():
    source = ("import numpy as np\nfrom .a import b, c as d\n"
              "__all__ = ['np', 'b', 'd', 'C', 'f', 'K', 'T', 'gone']\n"
              "K = 1\nT: int = 2\nclass C:\n    inner = 3\n"
              "def f():\n    local = 4\n    return local\n")
    assert unbound_exports(source) == ["gone"]
    assert unbound_exports(source.replace("'gone'", "'inner', 'local'")) == ["inner", "local"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_exports_only_bound_names(path):
    assert unbound_exports(path.read_text()) == []
