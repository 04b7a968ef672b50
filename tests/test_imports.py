"""Every module-level import in the package is used, and layers import downward.

An unused import costs start-up time in every CLI process and hides which
layer a module really depends on.  The check reads the source with ``ast``:
a name bound by a top-level ``import`` must be read somewhere in its module,
in code or in a string annotation.  ``__init__.py`` re-exports by importing,
and names listed in ``__all__`` are exported, so both are exempt.

The layers stack exact -> modules -> {filtrations, forms} -> analysis ->
cli: a module imports, anywhere in its code, only from layers below its
own, so filtrations and forms do not import each other.  The package root
re-exports every layer.

The same reading pins who calls the continuation step: a diagonal step of
the forms layer is read in one function, whichever family the module is.
"""

import ast
from pathlib import Path
from typing import Dict

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


LAYERS = {"exact": 0, "modules": 1, "filtrations": 2, "forms": 2, "analysis": 3, "cli": 4,
          "__init__": 5}


def package_imports(source: str):
    """The package modules ``source`` imports anywhere in it, relatively or by name;
    a name the root exports counts as the root."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("su11hodge." if node.level else "") + (node.module or "")
            paths = [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (path.split(".") for path in paths):
            if parts[0] == "su11hodge":
                found.add(parts[1] if len(parts) > 1 and parts[1] in LAYERS else "__init__")
    return found


def layering_violations(sources: Dict[str, str]):
    return sorted((name, target) for name, source in sources.items()
                  for target in package_imports(source) if LAYERS[target] >= LAYERS[name])


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LAYERS)


def test_layers_import_only_downward():
    assert layering_violations({p.stem: p.read_text() for p in PACKAGE.glob("*.py")}) == []


def test_the_check_sees_an_upward_or_sideways_import():
    sources = {"filtrations": "from .forms import _signs\n",
               "modules": "def f():\n    from . import analysis\n",
               "exact": "import su11hodge.cli\n",
               "forms": "from su11hodge.modules import act\nfrom .exact import Sign\n",
               "analysis": "from su11hodge import act\n"}
    assert layering_violations(sources) == [("analysis", "__init__"), ("exact", "cli"),
                                            ("filtrations", "forms"), ("modules", "analysis")]


def callers(source: str, name: str):
    """The qualified names of the functions in ``source`` that call ``name``,
    by its bare name or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                        getattr(child.func, "attr", None)):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_one_step_reader_per_layer():
    # every diagonal step of forms goes through _diagonal_step, the one
    # place that tells a point module's step from the open orbit's
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert {(module, caller) for module, source in sources.items()
            for caller in callers(source, "_continuation_step")} == {
        ("modules", "PrincipalSeries.breakpoints"), ("forms", "continuation_ratio"),
        ("forms", "_diagonal_step")}
    assert "isinstance" not in sources["forms"]


def test_the_check_sees_every_caller():
    source = ("def f():\n    return g(1)\n\nclass A:\n    def h(self):\n"
              "        return [m.g(k) for k in ()]\n\nx = g(0)\n")
    assert callers(source, "g") == {"f", "A.h", ""}
