"""Module boundaries: no hiekge module reaches into another's private names.

The machinery every model shares lives in `hiekge.kernels` under public
names, so a leading underscore always means "used by its own module only".
"""

import ast
from pathlib import Path

import pytest

import hiekge

MODULES = sorted(Path(hiekge.__file__).parent.glob("*.py"))


def private_reaches(source):
    """(line, name) of each private name a module's source takes from another hiekge module.

    That is a leading-underscore name in a relative or `hiekge` import, or
    one read as an attribute of a hiekge module the source imported.
    """
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hiekge")):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
            if node.module in (None, "hiekge"):
                modules.update(alias.asname or alias.name for alias in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_kernels_is_a_module_of_the_package():
    assert "kernels.py" in {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_takes_a_private_name_of_another(path):
    assert private_reaches(path.read_text(encoding="utf-8")) == []


def test_private_reaches_are_found():
    source = ("from .kernels import _slab_sums, map_tiles\n"
              "from hiekge.hie_model import _chain\n"
              "from . import kernels\n"
              "from numpy import _globals\n"
              "kernels._POOL, kernels.map_tiles\n")
    assert private_reaches(source) == [(1, "_slab_sums"), (2, "_chain"), (5, "kernels._POOL")]
