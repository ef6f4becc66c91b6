"""Lint: every top-level import in `src/retrace` is used or re-exported.

Standard library only.  A name bound by a module-level `import` or
`from … import` must appear somewhere in that module as an `ast.Name`
(a plain reference, an attribute base or an annotation), or be listed in
the module's `__all__`.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "retrace"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used | exported]


def test_modules_found():
    assert SRC / "lang.py" in MODULES


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    tree = ast.parse(module.read_text(encoding="utf-8"), str(module))
    assert unused_imports(tree) == []


def test_unused_import_is_reported():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nfrom typing import Callable, Optional\nfrom . import x as y\n"
        "__all__ = ['y']\n"
        "def f(a: Optional[int]) -> None: os.sep\n"
    )
    assert unused_imports(tree) == ["Callable (line 3)"]
