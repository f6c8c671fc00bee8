"""Module boundaries: no hiekge module reaches into another's private names.

The machinery every model shares lives in `hiekge.kernels` under public
names, so a leading underscore always means "used by its own module only".
Which code serves a model kind is `trainer.MODELS`' one decision, so no
module tells models apart by the class of their params.
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


def params_class_tests(source):
    """(line, name) of each `isinstance` call in source whose class, or one of a tuple of classes, is named `*Params`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        for cls in classes:
            name = cls.id if isinstance(cls, ast.Name) else getattr(cls, "attr", "")
            if name.endswith("Params"):
                found.append((node.lineno, name))
    return sorted(found)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_no_module_tests_the_class_of_params(path):
    assert params_class_tests(path.read_text(encoding="utf-8")) == []


def test_params_class_tests_are_found():
    source = ("alpha = params.alpha if isinstance(params, HieParams) else None\n"
              "isinstance(p, (int, hie_model.HieParams))\n"
              "isinstance(config, HieConfig), isinstance(p, kernels.Params)\n"
              "isinstance(x)\n")
    assert params_class_tests(source) == [(1, "HieParams"), (2, "HieParams"), (3, "Params")]
