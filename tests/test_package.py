"""The package root: one public API, declared by the layers' ``__all__``, and
the README's library example run against it."""

import importlib
import re
from pathlib import Path

import pytest

import su11hodge

README = Path(__file__).resolve().parent.parent / "README.md"
LAYERS = ["exact", "modules", "filtrations", "forms", "analysis"]


@pytest.mark.parametrize("layer", LAYERS)
def test_the_root_exports_every_layer_name(layer):
    module = importlib.import_module(f"su11hodge.{layer}")
    star = {}
    exec("from su11hodge import *", star)
    assert [name for name in module.__all__
            if getattr(su11hodge, name, None) is not getattr(module, name)
            or star.get(name) is not getattr(module, name)] == []


def test_the_readme_library_example_runs():
    section = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    # the lines the README marks "# True" evaluate to True
    claims = [line.split("#")[0] for line in code.splitlines()
              if line.rstrip().endswith("# True")]
    assert claims and all(eval(claim, namespace) is True for claim in claims)
