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
``continuation_ratio``.  And it pins that each law has one coding: the
law checks' failure listings, and the helpers they call, read no
generator action (``_step``, ``act``, ``theta_sign``), only the residuals
and factors their decision builds.  The generators themselves are read as
the constants ``modules`` unpacks once, never by iterating their class.
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



def reached(sources, roots):
    """The names that the module-level functions ``roots`` of ``sources`` read,
    directly or through the module-level functions they read in turn."""
    functions = {node.name: node for source in sources for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            if name in functions:
                todo.extend(node.id if isinstance(node, ast.Name) else node.attr
                            for node in ast.walk(functions[name])
                            if isinstance(node, (ast.Name, ast.Attribute)))
    return seen


LISTINGS = ("_law_lines", "_invariance_failures")
SECOND_CODINGS = {"_step", "theta_sign", "act", "require_member", "belongs"}


def test_the_failure_listings_code_no_law_a_second_time():
    # bracket and theta list from the law table their decision reads, and
    # invariance from its pairings and the diagonal steps: none of them, nor
    # a helper they call, reads the action through _step, act or theta_sign,
    # or where a law binds through require_member or belongs
    sources = [(PACKAGE / f"{module}.py").read_text() for module in ("modules", "forms")]
    defined = {node.name for source in sources for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert set(LISTINGS) <= defined and SECOND_CODINGS <= defined
    assert reached(sources, LISTINGS) & SECOND_CODINGS == set()


def test_the_check_sees_a_second_coding_through_a_helper():
    source = ("def _rows(spec):\n    return partial(_step, spec)\n\n"
              "def _law_lines(laws, vectors):\n    return _rows(laws)\n\n"
              "def _invariance_failures(spec, vectors):\n"
              "    return modules.theta_sign, belongs\n")
    assert reached([source], LISTINGS) & SECOND_CODINGS == {"_step", "theta_sign", "belongs"}


def generator_reads(source: str):
    """The scopes in ``source`` that iterate the ``Generator`` class (a loop, a
    comprehension or a starred read over it), and those that unpack it into names."""
    def named(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "Generator"

    def iterates(node):
        return (isinstance(node, (ast.For, ast.comprehension)) and named(node.iter)
                or isinstance(node, ast.Starred) and named(node.value))

    return scopes(source, iterates), scopes(source, lambda node: isinstance(
        node, ast.Assign) and named(node.value) and isinstance(node.targets[0], ast.Tuple))


def test_the_generators_are_one_set_of_constants():
    # modules unpacks the members once, next to the class, into _E, _H, _F;
    # every law reads those, and no function iterates the class per call
    found = {(p.stem, kind, scope) for p in PACKAGE.glob("*.py")
             for kind, hits in zip(("iterates", "unpacks"), generator_reads(p.read_text()))
             for scope in hits}
    assert found == {("modules", "unpacks", "")}


def test_the_check_sees_a_generator_iterated_or_unpacked():
    source = ("E, H, F = Generator\n\ndef f(c):\n    return [c[g] for g in Generator]\n\n"
              "class A:\n    def g(self):\n        for g in modules.Generator:\n"
              "            pass\n        return (*Generator,), isinstance(self, Generator)\n")
    assert generator_reads(source) == ({"f", "A.g"}, {""})
