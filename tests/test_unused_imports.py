"""No module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "framemoe"


def unused_imports(source: str) -> list[str]:
    """`name (line n)` for each name an import binds and nothing reads; a
    name listed in __all__ counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import_and_keeps_a_used_one():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .autodiff import Tensor, affine, relu_affine\n"
              "from .heads import Mlp\n"
              "def f(x: Tensor) -> Mlp:\n"
              "    return affine(x, os.path.sep, x)\n")
    assert unused_imports(source) == ["relu_affine (line 3)"]
