"""The one check of config fields: `kernels.check_fields` against each field's declaration."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import pytest

from hiekge import kernels
from hiekge.baselines import BaselineConfig
from hiekge.cli import RunConfig
from hiekge.hie_model import HieConfig
from hiekge.trainer import TrainConfig

# each config with its default values; building one checks every field's declaration
CONFIGS = [HieConfig(), BaselineConfig(kind="transe"), TrainConfig(), RunConfig()]
KNOWN = {"int", "float", "bool", "str", "tuple"}


@dataclass(frozen=True)
class Example:
    count: int = 1
    rate: float = 0.5
    on: bool = False
    name: str = kernels.setting("a", ("a", "b"))
    path: str = None
    sizes: tuple = (1, 2)

    def __post_init__(self):
        kernels.check_fields(self, {"sizes": "int"})


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_every_config_field_has_a_known_annotation(config):
    # building the config ran check_fields, which raises TypeError on a field of any other type
    assert {f.type for f in dataclasses.fields(config)} <= KNOWN


@pytest.mark.parametrize("annotation", ["list", "dict", "Optional[int]"])
def test_unknown_annotation_fails_loudly(annotation):
    Unknown = dataclasses.make_dataclass("Unknown", [("value", annotation, None)])
    with pytest.raises(TypeError, match="value"):
        kernels.check_fields(Unknown())


def test_tuple_field_without_item_type_fails_loudly():
    Sizes = dataclasses.make_dataclass("Sizes", [("sizes", "tuple", None)])
    with pytest.raises(TypeError, match="sizes"):
        kernels.check_fields(Sizes())


@pytest.mark.parametrize("changes", [
    {}, {"count": 0}, {"rate": 2}, {"rate": float("nan")}, {"on": True}, {"name": "b"},
    {"path": "x"}, {"sizes": ()}, {"sizes": (3,)},
])
def test_declared_values_pass(changes):
    Example(**changes)


@pytest.mark.parametrize("field,value", [
    ("count", True), ("count", 1.0), ("count", "1"), ("count", None),
    ("rate", True), ("rate", "0.5"),
    ("on", 1), ("on", "false"), ("on", None),
    ("name", 1), ("name", "c"), ("name", None),
    ("path", 1),
    ("sizes", [1, 2]), ("sizes", 1), ("sizes", (1.0,)), ("sizes", (True,)), ("sizes", ("1",)),
])
def test_undeclared_values_rejected(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        Example(**{field: value})


def test_setting_keeps_extra_metadata():
    field = next(f for f in dataclasses.fields(RunConfig) if f.name == "split")
    assert field.default == "test" and field.metadata["command"] == "eval" and "valid" in field.metadata["choices"]
