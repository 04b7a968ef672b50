"""Every module-level import in the package is used.

An unused import costs start-up time in every CLI process and hides which
layer a module really depends on.  The check reads the source with ``ast``:
a name bound by a top-level ``import`` must be read somewhere in its module,
in code or in a string annotation.  ``__init__.py`` re-exports by importing,
and names listed in ``__all__`` are exported, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "su11hodge"


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string annotation such as "HalfInt | RationalLike"
            try:
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_module_level_import(path):
    assert unused_imports((PACKAGE / path).read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from typing import List, Tuple\nimport os\nx: 'List[int]' = []\n"
    assert unused_imports(source) == [(1, "Tuple"), (2, "os")]
    assert unused_imports("import os\n__all__ = ['os']\n") == []
