"""Command-line entry point: train, eval, classify, sweep, gradcheck, ablate.

Exit codes: 0 success, 1 usage error (also a run too large for memory),
2 data error, 3 numeric failure.
Progress and diagnostics go to stderr; machine-readable output (JSON
reports, CSV tables) goes to stdout and, when --out is given, to files.
A command runs with numpy's floating-point warnings off: a non-finite
loss, score or gradient is reported once, as a numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluator, kernels, kg_data, trainer
from .baselines import BaselineConfig
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .hie_model import HieConfig
from .kg_data import SPLIT_NAMES, DataError, classify_relations, dataset_stats, load_kg
from .trainer import NumericError, TrainConfig, grad_check, init_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

NORM_NAMES = {"l1": 1, "l2": 2}


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 1."""


@dataclass(frozen=True)
class RunConfig:
    """One run's worth of settings: model + training + data + command extras.

    Every field can come from a JSON config document and be overridden by
    the command-line flag of the same name. A field is the only
    declaration of its setting: `build_parser` makes it the flag
    `--` + its name with "_" as "-", storing into the field's name. An int
    or float field's flag parses that type, a bool field's flag is a
    switch that stores True, and a `sweep_*` tuple's flag takes a
    comma-separated list of the swept field's type; the sweep's axes are
    the `sweep_*` fields, in declaration order. A field made by
    `kernels.setting` may list the values it accepts or the interval they
    lie in, and may name the one command that gets its flag; every other
    flag goes to every command. A model or training setting is made by
    `kernels.setting_of` from the field of `TrainConfig`, `HieConfig` or
    `BaselineConfig` it sets (`lr` sets `learning_rate`, `no_distance`
    `disable_distance`), and takes that field's default, choices and
    interval; `model_config_from` and `train_config_from` pass it on to
    every config with a field of that name, and map only `norm`,
    `lambda1` and the baseline's kind by hand. `kernels.check_fields`
    holds every field to its type, choices and interval, whether the
    value came by flag or by config, and for every command. A `sweep_*`
    field's items have no interval, so a point the grid makes out of
    range gets its own error row. Flags default to None, so only the
    flags given override the config.
    """

    data_dir: str = None
    model: str = kernels.setting("hie", tuple(trainer.MODELS))
    dim: int = kernels.setting_of(BaselineConfig, "dim")
    levels: int = kernels.setting_of(HieConfig, "levels")
    lambda1: float = kernels.setting(0.5, within="[0, 1]")
    gamma: float = kernels.setting_of(TrainConfig, "gamma")
    alpha_temp: float = kernels.setting_of(TrainConfig, "alpha_temp")
    negatives: int = kernels.setting_of(TrainConfig, "num_negatives")
    batch_size: int = kernels.setting_of(TrainConfig, "batch_size")
    steps: int = kernels.setting_of(TrainConfig, "steps")
    lr: float = kernels.setting_of(TrainConfig, "learning_rate")
    norm: str = kernels.setting("l1", tuple(NORM_NAMES))
    transform: str = kernels.setting_of(HieConfig, "transform")
    seed: int = kernels.setting_of(TrainConfig, "seed")
    out: str = None
    no_distance: bool = kernels.setting_of(HieConfig, "disable_distance")
    no_semantic: bool = kernels.setting_of(HieConfig, "disable_semantic")
    no_distance_deep: bool = kernels.setting_of(HieConfig, "disable_distance_deep")
    no_semantic_deep: bool = kernels.setting_of(HieConfig, "disable_semantic_deep")
    tie_break: str = kernels.setting(evaluator.TIE_PESSIMISTIC, evaluator.TIE_BREAKS)
    adversarial_sign: str = kernels.setting_of(TrainConfig, "adversarial_sign")
    checkpoint: str = kernels.setting(None, command="eval")
    split: str = kernels.setting("test", SPLIT_NAMES, command="eval")
    eta: float = kernels.setting(1.5, within="(0, inf)", command="classify")
    fd_step: float = kernels.setting(1e-6, within="(0, inf)", command="gradcheck")
    tolerance: float = kernels.setting(1e-4, within="[0, inf]", command="gradcheck")
    batches: int = kernels.setting(3, within="[1, inf)", command="gradcheck")
    dump_dicts: bool = kernels.setting(False, command="stats")
    sweep_levels: tuple = kernels.setting(None, command="sweep")
    sweep_lambda1: tuple = kernels.setting(None, command="sweep")
    sweep_gamma: tuple = kernels.setting(None, command="sweep")
    sweep_dim: tuple = kernels.setting(None, command="sweep")
    sweep_batch_size: tuple = kernels.setting(None, command="sweep")

    def __post_init__(self):
        kernels.check_fields(self, SWEEP_ITEMS)


RUN_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
# the type of a `sweep_*` field's items: the type of the field it sweeps
SWEEP_ITEMS = {name: RUN_FIELDS[name.removeprefix("sweep_")] for name in RUN_FIELDS if name.startswith("sweep_")}
_FLAG_TYPES = {"int": int, "float": float}


def derive_lambdas(levels, lambda1):
    """Level weights (lambda1, rest sharing 1 - lambda1 equally); one level weighs 1."""
    if levels == 1:
        return (1.0,)
    rest = (1.0 - lambda1) / (levels - 1)
    return (lambda1,) + (rest,) * (levels - 1)


def _config_from(Config, run: RunConfig, **by_hand):
    """Config from by_hand and each run value whose field sets one of Config's; UsageError if it rejects one."""
    names = {f.name for f in dataclasses.fields(Config)}
    values = {f.metadata["sets"]: getattr(run, f.name) for f in dataclasses.fields(RunConfig)
              if f.metadata.get("sets") in names}
    try:
        return Config(**values, **by_hand)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def model_config_from(run: RunConfig):
    if run.model == HieConfig.kind:
        by_hand = {"lambdas": derive_lambdas(run.levels, run.lambda1)}
    else:
        by_hand = {"kind": run.model}
    return _config_from(trainer.MODELS[run.model].Config, run, norm_p=NORM_NAMES[run.norm], **by_hand)


def train_config_from(run: RunConfig) -> TrainConfig:
    return _config_from(TrainConfig, run)


def _model_config_from_doc(kind, doc):
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint model_config must be a JSON object, got {json.dumps(doc)}")
    try:
        return trainer.MODELS[kind].Config(**doc)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint model_config does not rebuild: {exc}") from exc


def _check_config_fits(params, kind, model_config):
    """CheckpointError unless model_config implies the checkpoint's tensor shapes.

    The shapes come from a one-entity, one-relation initialization; only
    the vocabulary axis of ent and rel is taken from the checkpoint. The
    config values that size it are held to the tensors first (dim to
    ent's width and, for hie, levels to transform_seed's rows), so every
    dimension of that template is one of the checkpoint's own.
    """
    if model_config.kind != kind:
        raise CheckpointError(
            f"model_config kind {model_config.kind!r} differs from model_kind {kind!r}"
        )

    def expect(name, expected):
        shape = getattr(params, name).shape
        if shape != expected:
            raise CheckpointError(
                f"checkpoint tensor {name} is {list(shape)} but the model config implies {list(expected)}"
            )

    expect("ent", params.ent.shape[:1] + (model_config.dim,))
    if kind == HieConfig.kind:
        expect("transform_seed", (model_config.levels,) + params.transform_seed.shape[1:])
    template = init_model(kind, 1, 1, model_config, seed=0)
    for (name, tensor), (_, fresh) in zip(params.field_items(), template.field_items()):
        expect(name, tensor.shape[:1] + fresh.shape[1:] if name in ("ent", "rel") else fresh.shape)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _comma_list(kind):
    def parse(text):
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind.__name__}s")

    return parse


def _flag_options(field):
    """add_argument options of a RunConfig field's flag."""
    if field.type == "bool":
        return {"action": "store_const", "const": True}
    if field.type == "tuple":
        return {"type": _comma_list(_FLAG_TYPES[SWEEP_ITEMS[field.name]])}
    return {"type": _FLAG_TYPES.get(field.type), "choices": field.metadata.get("choices")}


def build_parser() -> _Parser:
    """One subparser per command, with a flag for every RunConfig field the command may use."""
    parser = _Parser(prog="hiekge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (help_text, _) in COMMANDS.items():
        group = sub.add_parser(command, help=help_text).add_argument_group("run configuration")
        group.add_argument("--config", metavar="JSON", help="JSON config document; flags override it")
        for field in dataclasses.fields(RunConfig):
            if field.metadata.get("command") in (None, command):
                flag = "--" + field.name.replace("_", "-")
                group.add_argument(flag, dest=field.name, **_flag_options(field))
    return parser


def merge_run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the JSON config document, then explicit flags; UsageError if a value is rejected.

    The document's values are checked on their own, then again with the
    flags over them.
    """
    merged = {}
    config_path = getattr(args, "config", None)
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as f:
                doc = json.load(f)
        except OSError as exc:
            raise DataError(f"cannot read config {config_path}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise UsageError(f"config {config_path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise UsageError(f"config {config_path} must hold a JSON object")
        for key, value in doc.items():
            if key not in RUN_FIELDS:
                raise UsageError(f"unknown config field {key!r}")
            # JSON has no tuples: a list is a sweep field's values
            merged[key] = tuple(value) if isinstance(value, list) else value
    flags = {key: value for key, value in vars(args).items() if key in RUN_FIELDS and value is not None}
    try:
        return dataclasses.replace(RunConfig(**merged), **flags)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _require(run: RunConfig, *names):
    for name in names:
        if getattr(run, name) is None:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} is required for this command")


def _info(message):
    print(message, file=sys.stderr)


def _out_dir(run: RunConfig) -> Path:
    path = Path(run.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(run: RunConfig, *used_splits):
    """The run's graph; DataError if a split the command trains on or ranks is empty.

    Runs before the command creates its output directory.
    """
    _require(run, "data_dir")
    kg = load_kg(run.data_dir)
    for split in used_splits:
        if len(kg.split(split)) == 0:
            raise DataError(f"{run.data_dir}: the {split} split is empty")
    return kg


def _evaluation_report(params, model_config, kg, split, tie_break):
    results = evaluator.evaluate(params, model_config, kg, split=split, tie_break=tie_break)
    categories = classify_relations(kg.train)
    try:
        return evaluator.full_report(results, categories)
    except ValueError as exc:
        # a relation in this split never appears in train, so it has no category
        raise DataError(str(exc)) from exc


def _evaluation_doc(params, model_config, kg, split, tie_break):
    report = _evaluation_report(params, model_config, kg, split, tie_break)
    conventions = {"filtered": True, "tie_break": tie_break, "split": split}
    return evaluator.report_to_dict(report, conventions=conventions)


def _print_json(doc):
    print(json.dumps(doc, indent=2, sort_keys=True))


def _write_lines(path, lines):
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path, doc):
    _write_lines(path, [json.dumps(doc, indent=2, sort_keys=True)])


def _write_loss_log(path, log):
    _write_lines(path, ["step,mean_loss,alpha"] + [
        f"{step},{loss_value:.17g}," + ("" if alpha is None else f"{alpha:.17g}")
        for step, loss_value, alpha in log])


def _write_table(header, rows, path):
    """Prints a CSV header and each row of the iterator rows as it arrives, then writes the lines to path.

    The lines are written unless path is None. The first row is made
    before the header prints, so a command that fails on it prints nothing.
    """
    first = list(itertools.islice(rows, 1))
    lines = []
    for line in itertools.chain([header], first, rows):
        print(line)
        lines.append(line)
    if path is not None:
        _write_lines(path, lines)


def _checkpoint_meta(run, kg, model_config, train_config) -> dict:
    return {
        "model_kind": run.model,
        "num_entities": kg.num_entities,
        "num_relations": kg.num_relations,
        "step": train_config.steps,
        "seed": train_config.seed,
        # json writes a tuple as a list
        "model_config": dataclasses.asdict(model_config),
        "train_config": dataclasses.asdict(train_config),
    }


def _configs(run: RunConfig):
    """The run's (model config, training config); UsageError if either rejects a value.

    Commands build them before they create an output directory or print
    progress, so a rejected flag leaves neither behind.
    """
    return model_config_from(run), train_config_from(run)


def _train_once(run: RunConfig, kg, configs, stem="model"):
    """Shared by train/sweep/ablate: fit with the run's `_configs`, checkpoint, return artifacts.

    --out is created only once training has succeeded: a run that fails
    in training creates no directory and leaves an existing one as it was.
    """
    model_config, train_config = configs
    params, log = trainer.train(kg, run.model, model_config, train_config)
    ckpt_path = _out_dir(run) / f"{stem}.ckpt"
    save_checkpoint(params, _checkpoint_meta(run, kg, model_config, train_config), ckpt_path)
    _write_loss_log(ckpt_path.parent / f"{stem}_loss.csv", log)
    return params, model_config, log, ckpt_path


def _metric_cells(run: RunConfig, kg, configs, stem):
    """Shared by sweep/ablate: `_train_once`, then the validation metrics as CSV cells."""
    params, model_config, _, _ = _train_once(run, kg, configs, stem)
    return evaluator.report_csv_row(_evaluation_report(params, model_config, kg, "valid", run.tie_break))


def cmd_train(run: RunConfig) -> int:
    _require(run, "out")
    configs = _configs(run)
    kg = _load_dataset(run, "train", "valid")
    _info(
        f"training {run.model} on {run.data_dir} "
        f"({kg.num_entities} entities, {kg.num_relations} relations, "
        f"{len(kg.train)} train triples)"
    )
    params, model_config, log, ckpt_path = _train_once(run, kg, configs)
    if log:
        _info(f"final training loss {log[-1][1]:.6f} at step {log[-1][0]}")
    _info(f"checkpoint written to {ckpt_path}")
    doc = _evaluation_doc(params, model_config, kg, "valid", run.tie_break)
    _print_json(doc)
    _write_json(ckpt_path.parent / "validation.json", doc)
    return EXIT_OK


def cmd_eval(run: RunConfig) -> int:
    _require(run, "checkpoint")
    kg = _load_dataset(run, "train", run.split)
    loaded = load_checkpoint(run.checkpoint)
    params, meta = loaded.params, loaded.meta
    kind = meta["model_kind"]  # load_checkpoint has checked it
    if meta.get("model_config") is not None:
        model_config = _model_config_from_doc(kind, meta["model_config"])
    else:
        model_config = model_config_from(dataclasses.replace(run, model=kind))
    _check_config_fits(params, kind, model_config)
    declared = (meta.get("num_entities"), meta.get("num_relations"))
    actual = (kg.num_entities, kg.num_relations)
    if params.num_entities != kg.num_entities or params.num_relations != kg.num_relations:
        raise DataError(
            f"checkpoint was trained on {params.num_entities} entities / "
            f"{params.num_relations} relations but {run.data_dir} has "
            f"{actual[0]} / {actual[1]}"
        )
    if declared[0] is not None and declared != actual:
        raise DataError(
            f"checkpoint metadata declares vocab {declared}, dataset has {actual}"
        )
    doc = _evaluation_doc(params, model_config, kg, run.split, run.tie_break)
    _print_json(doc)
    if run.out is not None:
        _write_json(_out_dir(run) / "report.json", doc)
    return EXIT_OK


CLASSIFY_HEADER = "relation,hco,tcs,category"


def cmd_classify(run: RunConfig) -> int:
    kg = _load_dataset(run, "train")
    categories = classify_relations(kg.train, eta=run.eta)
    rows = (f"{kg.relation_names[rel_id]},{cat.hco:.6f},{cat.tcs:.6f},{cat.category}"
            for rel_id, cat in sorted(categories.items()))
    _write_table(CLASSIFY_HEADER, rows, None if run.out is None else _out_dir(run) / "relations.csv")
    return EXIT_OK


# the fields that the `sweep_*` fields sweep, in declaration order: the grid's axes and the first columns
SWEEP_AXES = tuple(name.removeprefix("sweep_") for name in RUN_FIELDS if name.startswith("sweep_"))
SWEEP_HEADER = ",".join(SWEEP_AXES) + ",status," + evaluator.CSV_HEADER


def _sweep_point(run: RunConfig, values):
    """(RunConfig, `_configs`) of the point that sets the axes in values, or a UsageError that rejects it.

    RunConfig itself rejects a value outside its field's interval, such as a lambda1 of 1.5.
    """
    try:
        point = dataclasses.replace(run, **values)
        return point, _configs(point)
    except (UsageError, ValueError) as exc:
        return UsageError(str(exc))


def cmd_sweep(run: RunConfig) -> int:
    """One CSV row per grid point; a point whose configs are rejected gets an error row.

    An empty axis (a `--config` list with no values) is a usage error.
    Every point's configs are built first: when none is accepted, a flag
    the points share is at fault, and the first point's UsageError ends
    the command before it loads data, creates --out or prints a row.
    """
    _require(run, "out")
    axes = {axis: getattr(run, "sweep_" + axis) for axis in SWEEP_AXES}
    for axis, values in axes.items():
        if values == ():
            raise UsageError(f"sweep axis {axis} needs at least one value")
    axes = {axis: values for axis, values in axes.items() if values}
    # with no axis, the product's one empty combination is the base configuration itself
    grid = [{axis: getattr(run, axis) for axis in SWEEP_AXES} | dict(zip(axes, combo))
            for combo in itertools.product(*axes.values())]
    points = [_sweep_point(run, values) for values in grid]
    if all(isinstance(point, UsageError) for point in points):
        raise points[0]
    kg = _load_dataset(run, "train", "valid")

    def rows():
        for index, (values, point) in enumerate(zip(grid, points)):
            prefix = ",".join(f"{values[axis]:g}" if RUN_FIELDS[axis] == "float"
                              else str(values[axis]) for axis in SWEEP_AXES)
            try:
                if isinstance(point, UsageError):
                    raise point
                point_run, point_configs = point
                yield f"{prefix},ok,{_metric_cells(point_run, kg, point_configs, f'point_{index:03d}')}"
            except (UsageError, DataError, NumericError, ValueError, MemoryError) as exc:
                _info(f"sweep point {index} failed: {exc}")
                empty_metrics = "," * len(evaluator.METRIC_FIELDS)
                yield f"{prefix},error:{type(exc).__name__}{empty_metrics}"

    # --out is created before the first point, since every point gets a row, failed or not
    _write_table(SWEEP_HEADER, rows(), _out_dir(run) / "sweep.csv")
    return EXIT_OK


def cmd_gradcheck(run: RunConfig) -> int:
    model_config, train_config = _configs(run)
    kg = _load_dataset(run, "train")
    params = init_model(run.model, kg.num_entities, kg.num_relations, model_config, run.seed)
    total = sum(t.size for _, t in params.field_items())
    max_coords = None if total <= 5000 else 2000
    rng = np.random.default_rng(run.seed)
    worst = 0.0
    for index in range(run.batches):
        batch = kg_data.sample_batch(kg.train, min(8, len(kg.train)), rng)
        err = grad_check(
            params, model_config, train_config, batch,
            fd_step=run.fd_step, max_coords=max_coords, rng=rng, floor=None,
        )
        _info(f"batch {index}: max relative error {err:.3e}")
        worst = max(worst, err)
    print(f"max_relative_error={worst:.6e}")
    if worst > run.tolerance:
        raise NumericError(
            f"gradient check failed: {worst:.3e} exceeds tolerance {run.tolerance:.1e}"
        )
    return EXIT_OK


ABLATE_HEADER = "variant," + evaluator.CSV_HEADER
# the full model, then one variant per `no_*` switch of RunConfig, in declaration order
ABLATE_VARIANTS = (("full", {}),) + tuple(
    (name, {name: True}) for name in RUN_FIELDS if name.startswith("no_"))


def cmd_ablate(run: RunConfig) -> int:
    if run.model != HieConfig.kind:
        raise UsageError(f"ablate only applies to the {HieConfig.kind} model")
    _require(run, "out")
    variants = [(name, dataclasses.replace(run, **overrides)) for name, overrides in ABLATE_VARIANTS]
    configs = [_configs(variant) for _, variant in variants]
    kg = _load_dataset(run, "train", "valid")
    rows = (f"{name},{_metric_cells(variant, kg, variant_configs, name)}"
            for (name, variant), variant_configs in zip(variants, configs))
    # the first variant's `_train_once` creates --out
    _write_table(ABLATE_HEADER, rows, Path(run.out) / "ablate.csv")
    return EXIT_OK


def cmd_stats(run: RunConfig) -> int:
    if run.dump_dicts:
        _require(run, "out")
    kg = _load_dataset(run)
    _print_json(dataset_stats(kg))
    if run.dump_dicts:
        out_dir = _out_dir(run)
        kg_data.write_dictionary(out_dir / "entities.dict", kg.entity_names)
        kg_data.write_dictionary(out_dir / "relations.dict", kg.relation_names)
        _info(f"dictionaries written to {out_dir}")
    return EXIT_OK


COMMANDS = {
    "train": ("train a model, write checkpoint + loss log", cmd_train),
    "eval": ("evaluate a checkpoint, write a JSON report", cmd_eval),
    "classify": ("relation category table (CSV)", cmd_classify),
    "sweep": ("grid search: one CSV row per point", cmd_sweep),
    "gradcheck": ("finite-difference gradient check", cmd_gradcheck),
    "ablate": ("score-space ablation comparison table", cmd_ablate),
    "stats": ("dataset summary", cmd_stats),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        run = merge_run_config(args)
        # a non-finite loss, score or gradient ends in NumericError, so numpy's warnings would only precede it
        with np.errstate(all="ignore"):
            return COMMANDS[args.command][1](run)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"usage error: not enough memory for this run: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
