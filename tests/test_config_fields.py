"""The one check of config fields: `kernels.check_fields` against each field's declaration."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from hiekge import cli, kernels
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


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
def test_every_number_field_declares_its_range(config):
    # a count, a size or a rate with no declared range would take 0, a negative or NaN unchecked
    for f in dataclasses.fields(config):
        if f.type in ("int", "float"):
            assert f.metadata.get("within") or f.metadata.get("choices"), f.name


@pytest.mark.parametrize("text,inside,outside", [
    ("[0, 1)", [0, 0.5, np.nextafter(1, 0)], [1, -1e-300, math.nan, math.inf]),
    ("(0, inf)", [5e-324, 1e308], [0, -0.0, math.inf, math.nan]),
    ("[0, inf]", [0, math.inf], [-5e-324, -math.inf, math.nan]),
    ("(-inf, 2]", [-1e308, 2], [-math.inf, 2.0000000000000004, math.nan]),
])
def test_interval_holds_its_ends_as_written_and_never_nan(text, inside, outside):
    interval = kernels.Interval.parse(text)
    assert all(value in interval for value in inside)
    assert not any(value in interval for value in outside)


@pytest.mark.parametrize("text", ["0, 1", "[1, 0]", "{0, 1}", "[0; 1]"])
def test_malformed_interval_fails_at_declaration(text):
    with pytest.raises(ValueError):
        kernels.setting(0, within=text)


# The accepted values of each ranged field: (low, low closed, high, high closed).
# Written out here, not read from the declarations, so that the table holds any
# tree to the same sets.
INF = math.inf
RANGES = {
    (TrainConfig, "gamma"): (0, False, INF, False),
    (TrainConfig, "alpha_temp"): (0, True, INF, False),
    (TrainConfig, "num_negatives"): (1, True, INF, False),
    (TrainConfig, "learning_rate"): (0, False, INF, False),
    (TrainConfig, "adam_beta1"): (0, True, 1, False),
    (TrainConfig, "adam_beta2"): (0, True, 1, False),
    (TrainConfig, "adam_eps"): (0, False, INF, False),
    (TrainConfig, "steps"): (0, True, INF, False),
    (TrainConfig, "batch_size"): (1, True, INF, False),
    (TrainConfig, "seed"): (0, True, INF, False),
    (HieConfig, "dim"): (2, True, INF, False),
    (HieConfig, "levels"): (1, True, INF, False),
    (HieConfig, "lambdas"): (0, True, 1, True),
    (BaselineConfig, "dim"): (1, True, INF, False),
    (RunConfig, "dim"): (1, True, INF, False),
    (RunConfig, "levels"): (1, True, INF, False),
    (RunConfig, "lambda1"): (0, True, 1, True),
    (RunConfig, "gamma"): (0, False, INF, False),
    (RunConfig, "alpha_temp"): (0, True, INF, False),
    (RunConfig, "negatives"): (1, True, INF, False),
    (RunConfig, "batch_size"): (1, True, INF, False),
    (RunConfig, "steps"): (0, True, INF, False),
    (RunConfig, "lr"): (0, False, INF, False),
    (RunConfig, "seed"): (0, True, INF, False),
    (RunConfig, "eta"): (0, False, INF, False),
    (RunConfig, "fd_step"): (0, False, INF, False),
    (RunConfig, "tolerance"): (0, True, INF, True),
    (RunConfig, "batches"): (1, True, INF, False),
}
INT_FIELDS = {"num_negatives", "negatives", "steps", "batch_size", "seed", "dim", "levels", "batches"}


def boundary_cases():
    """(config, field, value, accepted): each bound, one step past and inside it, NaN, ±inf and a bool."""
    for (config, name), (low, closed_low, high, closed_high) in RANGES.items():
        if name in INT_FIELDS:
            step = 2 if (config, name) == (HieConfig, "dim") else 1  # hie's dim is even
            values = [low - step, low, low + step]
        else:
            ends = [low, high] if high < INF else [low]
            values = [float(np.nextafter(end, way)) for end in ends for way in (-INF, INF)] + ends + [1e308]
        for value in values + [math.nan, INF, -INF, True]:
            is_number = not isinstance(value, bool) and (name not in INT_FIELDS or isinstance(value, int))
            inside = ((low < value or closed_low and value == low)
                      and (value < high or closed_high and value == high))
            yield pytest.param(config, name, value, is_number and inside,
                               id=f"{config.__name__}.{name}={value!r}")


def build(config, name, value, tmp_path):
    """Whether the value is accepted for the field: by the config itself, or, for RunConfig, by the CLI."""
    if config is RunConfig:
        # gradcheck checks its flags and builds both configs before it reads data, so an
        # accepted value gets as far as the absent data directory (exit 2)
        doc = tmp_path / "run.json"
        doc.write_text(json.dumps({name: value}))
        code = cli.main(["gradcheck", "--data-dir", str(tmp_path / "absent"), "--config", str(doc),
                         "--dim", "8", "--levels", "2"])
        assert code in (1, 2)
        return code == 2
    if name == "lambdas":
        kwargs = {"levels": 2, "lambdas": (value, 1 - value)}
    elif config is HieConfig and name == "levels":
        kwargs = {"levels": value, "lambdas": (1.0 / value,) * value if isinstance(value, int) and value > 0
                  else (1.0,)}
    else:
        kwargs = {name: value}
    if config is BaselineConfig:
        kwargs["kind"] = "transe"
    try:
        config(**kwargs)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("config,name,value,accepted", boundary_cases())
def test_boundary_table(tmp_path, capsys, config, name, value, accepted):
    assert build(config, name, value, tmp_path) == accepted
    assert "Traceback" not in capsys.readouterr().err
