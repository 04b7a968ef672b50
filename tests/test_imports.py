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

The same reading pins where the family of a module is decided: in the
spec classes of ``modules`` alone.  The layers above read the facts of a
spec and read no ``codim`` but the sign law's, and none switches on a type;
the continuation step is read by the series' own facts and by
``continuation_ratio``.
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


def scopes(source: str, hit):
    """The qualified names of the functions and classes in ``source`` ("" at module
    level) holding a node that ``hit`` accepts."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if hit(child):
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def callers(source: str, name: str):
    """The scopes in ``source`` that call ``name``, by its bare name or as an attribute."""
    return scopes(source, lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def readers(source: str, attr: str):
    """The scopes in ``source`` that read the attribute ``attr`` of anything."""
    return scopes(source, lambda node: isinstance(node, ast.Attribute) and node.attr == attr)


FAMILY_BLIND = ("filtrations", "forms", "analysis")


def test_no_family_switch_outside_the_spec_classes():
    # each spec class carries its family's facts (step, breakpoints, strip,
    # reference magnitude, ...); the layers above read them and choose no
    # family, and the sign law reads codim only as its value
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert {(module, reader) for module in FAMILY_BLIND
            for reader in readers(sources[module], "codim")} == {
        ("analysis", "verify_conjecture")}
    assert [module for module in FAMILY_BLIND if "isinstance" in sources[module]] == []


def test_one_step_reader_per_layer():
    # the open orbit's step has one definition: the series' step and
    # breakpoints facts read it, and continuation_ratio, the public step
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert {(module, caller) for module, source in sources.items()
            for caller in callers(source, "_continuation_step")} == {
        ("modules", "PrincipalSeries.breakpoints"), ("modules", "PrincipalSeries.step"),
        ("forms", "continuation_ratio")}


def test_the_check_sees_every_caller():
    source = ("def f():\n    return g(1)\n\nclass A:\n    codim = 1\n\n    def h(self):\n"
              "        return [m.g(k) for k in ()]\n\nx = g(0)\ny = f().codim\n")
    assert callers(source, "g") == {"f", "A.h", ""}
    assert readers(source, "codim") == {""}
    assert readers(source, "g") == {"A.h"}
