"""End-to-end tests for the command-line interface.

Commands run in-process through cli.main so stdout/stderr land in capsys;
one subprocess test checks the installed console script.
"""

import argparse
import dataclasses
import json
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest

from hiekge import cli, trainer
from hiekge.checkpoint import load_checkpoint, save_checkpoint
from hiekge.cli import RunConfig, derive_lambdas, model_config_from
from hiekge.kg_data import load_kg

from synthkg import build_synth_kg, write_synth_kg

TINY = ["--dim", "8", "--steps", "5", "--batch-size", "16", "--negatives", "2"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("kg") / "data"
    write_synth_kg(path, build_synth_kg(num_entities=24, seed=0))
    return str(path)


@pytest.fixture(scope="module")
def other_data_dir(tmp_path_factory):
    """Same schema, different vocabulary size; for mismatch checks."""
    path = tmp_path_factory.mktemp("kg_other") / "data"
    write_synth_kg(path, build_synth_kg(num_entities=20, seed=1))
    return str(path)


@pytest.fixture(scope="module")
def synth100_dir(tmp_path_factory):
    """The tests' 100-entity graph."""
    path = tmp_path_factory.mktemp("kg100") / "data"
    write_synth_kg(path, build_synth_kg())
    return str(path)


# each asks for more than 2**47 bytes on the 100-entity graph, a size every host refuses at once
TOO_LARGE = [("--dim", "1000000000000"), ("--negatives", "10000000000000"),
             ("--batch-size", "100000000000000")]


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_unknown_flag_is_usage_error(self, capsys, data_dir):
        code, _, err = run_cli(capsys, "train", "--data-dir", data_dir, "--bogus")
        assert code == 1
        assert "usage error" in err

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_command_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_missing_required_out_flag(self, capsys, data_dir):
        code, _, err = run_cli(capsys, "train", "--data-dir", data_dir)
        assert code == 1
        assert "--out" in err

    def test_missing_data_dir(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--data-dir", str(tmp_path / "nope"),
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert "data error" in err

    def test_bad_lambda1_is_usage_error(self, capsys, data_dir, tmp_path):
        code, _, _ = run_cli(capsys, "train", "--data-dir", data_dir,
                             "--out", str(tmp_path / "out"), "--lambda1", "1.5")
        assert code == 1

    def test_odd_dim_is_usage_error(self, capsys, data_dir, tmp_path):
        code, _, err = run_cli(capsys, "train", "--data-dir", data_dir,
                               "--out", str(tmp_path / "out"), "--dim", "7")
        assert code == 1
        assert "dim" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,name", [("--gamma", "gamma"), ("--lr", "learning_rate"),
                                           ("--alpha-temp", "alpha_temp")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_training_flag_is_usage_error(self, capsys, data_dir, tmp_path, flag, name, value):
        # these once trained to a non-finite loss and exited 3
        code, out, err = run_cli(capsys, "train", "--data-dir", data_dir,
                                 "--out", str(tmp_path / "out"), *TINY, flag, value)
        assert code == 1
        assert out == ""
        assert f"usage error: {name} must be a finite number" in err
        # rejected before any output: no directory, no progress line
        assert not (tmp_path / "out").exists()
        assert "training" not in err


    @pytest.mark.parametrize("command", ["train", "sweep", "ablate", "gradcheck"])
    def test_negative_seed_is_usage_error_before_any_output(self, capsys, data_dir, tmp_path, command):
        # np.random.default_rng once raised on it after --out was made: a traceback
        # for train and gradcheck, an error row per point for sweep
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, "--data-dir", data_dir,
                                    "--out", str(out), *TINY, "--seed", "-1")
        assert code == 1
        assert stdout == ""
        assert err == "usage error: seed must be >= 0, got -1\n"
        assert not out.exists()


# The parent build_parser() output, copied literally: per subcommand, each flag's
# option strings, dest, type (its name and its parse of "1"), choices, action
# class, const and default. Every command takes SHARED_FLAGS, then its own flags.
HELP_FLAG = (("-h", "--help"), "help", None, None, "_HelpAction", None, "==SUPPRESS==")
SHARED_FLAGS = [
    HELP_FLAG,
    (("--config",), "config", None, None, "_StoreAction", None, None),
    (("--data-dir",), "data_dir", None, None, "_StoreAction", None, None),
    (("--model",), "model", None, ("hie", "transe", "distmult", "rotate"), "_StoreAction", None, None),
    (("--dim",), "dim", ("int", "1"), None, "_StoreAction", None, None),
    (("--levels",), "levels", ("int", "1"), None, "_StoreAction", None, None),
    (("--lambda1",), "lambda1", ("float", "1.0"), None, "_StoreAction", None, None),
    (("--gamma",), "gamma", ("float", "1.0"), None, "_StoreAction", None, None),
    (("--alpha-temp",), "alpha_temp", ("float", "1.0"), None, "_StoreAction", None, None),
    (("--negatives",), "negatives", ("int", "1"), None, "_StoreAction", None, None),
    (("--batch-size",), "batch_size", ("int", "1"), None, "_StoreAction", None, None),
    (("--steps",), "steps", ("int", "1"), None, "_StoreAction", None, None),
    (("--lr",), "lr", ("float", "1.0"), None, "_StoreAction", None, None),
    (("--norm",), "norm", None, ("l1", "l2"), "_StoreAction", None, None),
    (("--transform",), "transform", None, ("diagonal", "rank1"), "_StoreAction", None, None),
    (("--seed",), "seed", ("int", "1"), None, "_StoreAction", None, None),
    (("--out",), "out", None, None, "_StoreAction", None, None),
    (("--no-distance",), "no_distance", None, None, "_StoreConstAction", True, None),
    (("--no-semantic",), "no_semantic", None, None, "_StoreConstAction", True, None),
    (("--no-distance-deep",), "no_distance_deep", None, None, "_StoreConstAction", True, None),
    (("--no-semantic-deep",), "no_semantic_deep", None, None, "_StoreConstAction", True, None),
    (("--tie-break",), "tie_break", None, ("pessimistic", "strict"), "_StoreAction", None, None),
    (("--adversarial-sign",), "adversarial_sign", None, ("plausibility", "literal"),
     "_StoreAction", None, None),
]
PARENT_PARSER_SURFACE = {
    "train": SHARED_FLAGS,
    "eval": SHARED_FLAGS + [
        (("--checkpoint",), "checkpoint", None, None, "_StoreAction", None, None),
        (("--split",), "split", None, ("train", "valid", "test"), "_StoreAction", None, None),
    ],
    "classify": SHARED_FLAGS + [
        (("--eta",), "eta", ("float", "1.0"), None, "_StoreAction", None, None),
    ],
    "sweep": SHARED_FLAGS + [
        (("--sweep-levels",), "sweep_levels", ("parse", "(1,)"), None, "_StoreAction", None, None),
        (("--sweep-lambda1",), "sweep_lambda1", ("parse", "(1.0,)"), None, "_StoreAction", None, None),
        (("--sweep-gamma",), "sweep_gamma", ("parse", "(1.0,)"), None, "_StoreAction", None, None),
        (("--sweep-dim",), "sweep_dim", ("parse", "(1,)"), None, "_StoreAction", None, None),
        (("--sweep-batch-size",), "sweep_batch_size", ("parse", "(1,)"), None, "_StoreAction",
         None, None),
    ],
    "gradcheck": SHARED_FLAGS + [
        (("--fd-step",), "fd_step", ("float", "1.0"), None, "_StoreAction", None, None),
        (("--tolerance",), "tolerance", ("float", "1.0"), None, "_StoreAction", None, None),
        (("--batches",), "batches", ("int", "1"), None, "_StoreAction", None, None),
    ],
    "ablate": SHARED_FLAGS,
    "stats": SHARED_FLAGS + [
        (("--dump-dicts",), "dump_dicts", None, None, "_StoreConstAction", True, None),
    ],
}
# the RunConfig fields whose values are checked against listed choices
CHOICE_SETTINGS = ("model", "norm", "transform", "tie_break", "adversarial_sign", "split")


def parser_surface(parser):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: [
            (tuple(a.option_strings), a.dest,
             None if a.type is None else (a.type.__name__, repr(a.type("1"))),
             None if a.choices is None else tuple(a.choices),
             type(a).__name__, a.const, a.default)
            for a in subparser._actions
        ]
        for command, subparser in sub.choices.items()
    }


class TestSettingDeclarations:
    def test_parser_surface_matches_the_parent(self):
        surface = parser_surface(cli.build_parser())
        assert list(surface) == list(PARENT_PARSER_SURFACE)
        for command, flags in PARENT_PARSER_SURFACE.items():
            assert surface[command] == flags, command

    def test_choice_settings_are_the_declared_ones(self):
        declared = [f.name for f in dataclasses.fields(RunConfig) if f.metadata.get("choices")]
        assert declared == list(CHOICE_SETTINGS)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", CHOICE_SETTINGS)
    @pytest.mark.parametrize("model", ["hie", "transe"])
    def test_bad_choice_is_usage_error_from_flag_and_config(
            self, capsys, data_dir, tmp_path, model, name, source):
        # {"model": "transe", "transform": "bogus"} in --config once trained and exited 0
        doc = {"model": model}
        extra = ["--" + name.replace("_", "-"), "bogus"] if source == "flag" else []
        if source == "config":
            doc[name] = "bogus"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        # split is eval's flag; an absent checkpoint would be a data error (exit 2)
        command = ["eval", "--checkpoint", str(tmp_path / "absent.ckpt")] if name == "split" else ["train"]
        code, stdout, err = run_cli(capsys, *command, "--config", str(cfg), "--data-dir", data_dir,
                                    "--out", str(out), *TINY, *extra)
        assert code == 1
        assert stdout == ""
        assert err.startswith("usage error:") and "'bogus'" in err
        assert not out.exists()


class TestDeriveLambdas:
    def test_single_level_gets_full_weight(self):
        assert derive_lambdas(1, 0.3) == (1.0,)

    def test_remaining_levels_share_the_rest(self):
        assert derive_lambdas(4, 0.4) == pytest.approx((0.4, 0.2, 0.2, 0.2))

    def test_weights_sum_to_one(self):
        for levels in range(1, 6):
            assert sum(derive_lambdas(levels, 0.7)) == pytest.approx(1.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(cli.UsageError):
            derive_lambdas(2, -0.1)


class TestConfigFile:
    def test_config_supplies_fields(self, capsys, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_dir": data_dir}))
        code, out, _ = run_cli(capsys, "classify", "--config", str(cfg))
        assert code == 0
        assert out.startswith("relation,hco,tcs,category")

    def test_flag_overrides_config(self, capsys, data_dir, tmp_path):
        # eta 100 from the config would flatten every relation to 1-to-1;
        # the explicit flag must win and keep the N-to-1 grouping relation.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_dir": data_dir, "eta": 100.0}))
        code, out, _ = run_cli(capsys, "classify", "--config", str(cfg))
        assert code == 0 and "N-to-1" not in out
        code, out, _ = run_cli(capsys, "classify", "--config", str(cfg), "--eta", "1.5")
        assert code == 0 and "N-to-1" in out

    def test_unknown_config_field(self, capsys, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data_dir": data_dir, "nonsense": 1}))
        code, _, err = run_cli(capsys, "stats", "--config", str(cfg))
        assert code == 1
        assert "nonsense" in err

    def test_config_must_be_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json {")
        code, _, _ = run_cli(capsys, "stats", "--config", str(cfg))
        assert code == 1

    def test_non_utf8_config_is_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"data_dir": "caf\xe9"}')
        code, _, err = run_cli(capsys, "stats", "--config", str(cfg))
        assert code == 1
        assert err.startswith("usage error:")

    def test_config_must_be_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _, _ = run_cli(capsys, "stats", "--config", str(cfg))
        assert code == 1

    @pytest.mark.parametrize(
        "doc",
        [{"dim": "8"}, {"steps": 2.5}, {"steps": True}, {"no_distance": 1},
         {"sweep_dim": ["8"]}, {"sweep_levels": 2}, {"seed": None}],
    )
    def test_wrongly_typed_value_is_usage_error(self, capsys, data_dir, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        # stats uses none of these fields; merging the config must still reject them
        code, out, err = run_cli(capsys, "stats", "--config", str(cfg), "--data-dir", data_dir)
        assert code == 1
        assert out == ""
        assert err.startswith(f"usage error: {next(iter(doc))} must be ")

    def test_int_for_float_and_null_for_optional_accepted(self, capsys, data_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 6, "eta": 2, "out": None, "sweep_gamma": [6, 7.5]}))
        run = cli.merge_run_config(cli.build_parser().parse_args(
            ["stats", "--config", str(cfg), "--data-dir", data_dir]))
        assert (run.gamma, run.eta, run.out, run.sweep_gamma) == (6, 2, None, (6, 7.5))

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "stats", "--config", str(tmp_path / "absent.json"))
        assert code == 2


class TestTrain:
    def test_writes_artifacts_and_prints_report(self, capsys, data_dir, tmp_path):
        out = tmp_path / "run"
        code, stdout, stderr = run_cli(
            capsys, "train", "--data-dir", data_dir, "--out", str(out), *TINY)
        assert code == 0
        for name in ("model.ckpt", "model.json", "model_loss.csv", "validation.json"):
            assert (out / name).exists(), name
        doc = json.loads(stdout)
        assert doc["count"] == 5
        assert doc["conventions"]["split"] == "valid"
        assert json.loads((out / "validation.json").read_text()) == doc
        assert "checkpoint written" in stderr

    def test_two_runs_are_byte_identical(self, capsys, data_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run_cli(
                capsys, "train", "--data-dir", data_dir, "--out", str(out),
                "--seed", "3", *TINY)
            assert code == 0
            outs.append(out)
        a, b = outs
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
        assert (a / "model_loss.csv").read_text() == (b / "model_loss.csv").read_text()

    def test_zero_steps_checkpoint_is_the_initialization(self, capsys, data_dir, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--data-dir", data_dir, "--out", str(out),
                             "--dim", "8", "--steps", "0", "--seed", "5")
        assert code == 0
        loaded = load_checkpoint(out / "model.ckpt")
        kg = load_kg(data_dir)
        config = model_config_from(RunConfig(dim=8))
        expected = trainer.init_model("hie", kg.num_entities, kg.num_relations, config, 5)
        for (name, got), (_, want) in zip(loaded.params.field_items(), expected.field_items()):
            assert np.array_equal(got, want), name

    def test_loss_log_structure(self, capsys, data_dir, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--data-dir", data_dir, "--out", str(out), *TINY)
        assert code == 0
        lines = (out / "model_loss.csv").read_text().splitlines()
        assert lines[0] == "step,mean_loss,alpha"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert first[0] == "1" and last[0] == "5"
        for row in lines[1:]:
            step, loss_value, alpha = row.split(",")
            assert np.isfinite(float(loss_value))
            assert 0.0 < float(alpha) < 1.0  # hie always logs its blend

    def test_baseline_loss_log_has_empty_alpha(self, capsys, data_dir, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run_cli(capsys, "train", "--data-dir", data_dir, "--out", str(out),
                             "--model", "transe", *TINY)
        assert code == 0
        lines = (out / "model_loss.csv").read_text().splitlines()
        assert all(row.endswith(",") for row in lines[1:])

    def test_baseline_checkpoint_round_trips_through_eval(self, capsys, data_dir, tmp_path):
        out = tmp_path / "run"
        code, train_out, _ = run_cli(
            capsys, "train", "--data-dir", data_dir, "--out", str(out),
            "--model", "distmult", *TINY)
        assert code == 0
        code, eval_out, _ = run_cli(
            capsys, "eval", "--data-dir", data_dir,
            "--checkpoint", str(out / "model.ckpt"), "--split", "valid")
        assert code == 0
        assert eval_out == train_out

    # each once left an empty --out behind
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("flag,value,code", [("--lr", "1e308", 3), ("--gamma", "1e308", 3),
                                                 ("--alpha-temp", "1e308", 3), ("--dim", "1000000000000", 1)])
    @pytest.mark.parametrize("existing", [False, True])
    def test_failed_run_leaves_out_as_it_was(self, capsys, data_dir, tmp_path, flag, value, code, existing):
        out = tmp_path / "run"
        if existing:
            out.mkdir()
            (out / "notes.txt").write_text("kept\n")
        # a later flag overrides an earlier one, so --dim may come twice
        got, stdout, err = run_cli(capsys, "train", "--data-dir", data_dir, "--out", str(out),
                                   "--dim", "8", "--steps", "3", flag, value)
        assert got == code
        assert stdout == ""
        assert "Traceback" not in err
        if existing:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
            assert (out / "notes.txt").read_text() == "kept\n"
        else:
            assert not out.exists()

    @pytest.mark.parametrize("flag,value", TOO_LARGE)
    def test_run_too_large_for_memory_is_usage_error(self, capsys, synth100_dir, tmp_path, flag, value):
        # numpy's MemoryError once ended the command in a traceback
        code, out, err = run_cli(
            capsys, "train", "--data-dir", synth100_dir, "--out", str(tmp_path / "run"), "--steps", "2", flag, value)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1].startswith("usage error: not enough memory") and "Traceback" not in err


@pytest.fixture(scope="module")
def trained(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    code = cli.main(["train", "--data-dir", data_dir, "--out", str(out), *TINY])
    assert code == 0
    return out


class TestEval:
    def test_reproduces_training_validation_report(self, capsys, data_dir, trained):
        # re-run training into a fresh dir purely to capture its stdout
        code, train_out, _ = run_cli(
            capsys, "train", "--data-dir", data_dir,
            "--out", str(trained / "again"), *TINY)
        assert code == 0
        code, eval_out, _ = run_cli(
            capsys, "eval", "--data-dir", data_dir,
            "--checkpoint", str(trained / "again" / "model.ckpt"), "--split", "valid")
        assert code == 0
        assert eval_out == train_out

    def test_test_split_and_conventions(self, capsys, data_dir, trained):
        code, out, _ = run_cli(
            capsys, "eval", "--data-dir", data_dir,
            "--checkpoint", str(trained / "model.ckpt"), "--split", "test",
            "--tie-break", "strict")
        assert code == 0
        doc = json.loads(out)
        assert doc["conventions"] == {
            "filtered": True, "split": "test", "tie_break": "strict"}

    def test_writes_report_file(self, capsys, data_dir, trained, tmp_path):
        out = tmp_path / "report"
        code, stdout, _ = run_cli(
            capsys, "eval", "--data-dir", data_dir,
            "--checkpoint", str(trained / "model.ckpt"), "--out", str(out))
        assert code == 0
        assert json.loads((out / "report.json").read_text()) == json.loads(stdout)

    def test_vocabulary_mismatch_is_data_error(self, capsys, other_data_dir, trained):
        code, _, err = run_cli(
            capsys, "eval", "--data-dir", other_data_dir,
            "--checkpoint", str(trained / "model.ckpt"))
        assert code == 2
        assert "entities" in err

    def test_missing_checkpoint_file(self, capsys, data_dir, tmp_path):
        code, _, _ = run_cli(
            capsys, "eval", "--data-dir", data_dir,
            "--checkpoint", str(tmp_path / "absent.ckpt"))
        assert code == 2

    def test_checkpoint_flag_required(self, capsys, data_dir):
        code, _, err = run_cli(capsys, "eval", "--data-dir", data_dir)
        assert code == 1
        assert "--checkpoint" in err


def copy_data_dir(data_dir, dest, empty_split):
    """The dataset's three files under dest; the file of empty_split, if any, emptied."""
    dest.mkdir()
    for name in ("train", "valid", "test"):
        text = "" if name == empty_split else (Path(data_dir) / f"{name}.txt").read_text()
        (dest / f"{name}.txt").write_text(text)
    return str(dest)


class TestEmptySplit:
    def test_eval_on_empty_split_is_data_error(self, capsys, data_dir, trained, tmp_path):
        empty = copy_data_dir(data_dir, tmp_path / "data", "test")
        code, out, err = run_cli(
            capsys, "eval", "--data-dir", empty,
            "--checkpoint", str(trained / "model.ckpt"), "--split", "test")
        assert code == 2
        assert out == ""
        assert err.startswith("data error:") and "test split is empty" in err

    def test_train_with_empty_valid_fails_before_training(self, capsys, data_dir, tmp_path):
        empty = copy_data_dir(data_dir, tmp_path / "data", "valid")
        out = tmp_path / "run"
        code, stdout, err = run_cli(
            capsys, "train", "--data-dir", empty, "--out", str(out), *TINY)
        assert code == 2
        assert stdout == ""
        assert err.startswith("data error:") and "valid split is empty" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "ablate", "eval", "classify", "gradcheck"])
    def test_empty_train_is_data_error_before_any_output(
            self, capsys, data_dir, trained, tmp_path, command):
        empty = copy_data_dir(data_dir, tmp_path / "data", "train")
        out = tmp_path / "run"
        extra = ["--checkpoint", str(trained / "model.ckpt")] if command == "eval" else []
        code, stdout, err = run_cli(
            capsys, command, "--data-dir", empty, "--out", str(out), *TINY, *extra)
        assert code == 2
        assert stdout == ""
        assert err.startswith("data error:") and "train split is empty" in err
        assert not out.exists()


def copy_checkpoint(trained, dest):
    """The trained checkpoint and its sidecar under dest; returns the new paths."""
    dest.mkdir()
    ckpt = dest / "model.ckpt"
    sidecar = dest / "model.json"
    ckpt.write_bytes((trained / "model.ckpt").read_bytes())
    sidecar.write_bytes((trained / "model.json").read_bytes())
    return ckpt, sidecar


def edit_sidecar(sidecar, change):
    doc = json.loads(sidecar.read_text())
    change(doc)
    sidecar.write_text(json.dumps(doc))


def eval_edited_transe(capsys, data_dir, tmp_path, **model_config):
    """(exit code, stdout, stderr) of eval on a TransE checkpoint whose sidecar model_config is updated."""
    out = tmp_path / "run"
    assert cli.main(["train", "--data-dir", data_dir, "--out", str(out), "--model", "transe", *TINY]) == 0
    capsys.readouterr()
    edit_sidecar(out / "model.json", lambda doc: doc["model_config"].update(model_config))
    return run_cli(capsys, "eval", "--data-dir", data_dir, "--checkpoint", str(out / "model.ckpt"))


class TestEvalBadCheckpoint:
    @pytest.mark.parametrize(
        "case",
        [
            "malformed_json",
            "non_object",
            "entry_without_shape",
            "unknown_model_kind",
            "unknown_config_field",
            "invalid_config_value",
            "config_not_an_object",
            "config_dim_disagrees",
            "config_levels_disagree",
            "float_dim",
            "float_levels",
            "nan_lambdas",
            "unhashable_model_kind",
            "absurd_dim",
            "absurd_dim_two_levels",
        ],
    )
    def test_bad_sidecar_is_data_error(self, capsys, data_dir, trained, tmp_path, case):
        ckpt, sidecar = copy_checkpoint(trained, tmp_path / "ckpt")
        if case == "malformed_json":
            sidecar.write_text(sidecar.read_text()[:-20])
        elif case == "non_object":
            sidecar.write_text("[1, 2, 3]")
        elif case == "entry_without_shape":
            edit_sidecar(sidecar, lambda doc: doc["tensors"][0].pop("shape"))
        elif case == "unknown_model_kind":
            edit_sidecar(sidecar, lambda doc: doc.update(model_kind="bogus"))
        elif case == "unknown_config_field":
            edit_sidecar(sidecar, lambda doc: doc["model_config"].update(width=3))
        elif case == "invalid_config_value":
            edit_sidecar(sidecar, lambda doc: doc["model_config"].update(dim=7))
        elif case == "config_not_an_object":
            edit_sidecar(sidecar, lambda doc: doc.update(model_config=[8, 2]))
        elif case == "config_dim_disagrees":
            # rebuilds as a valid config, but the tensors are dim 8
            edit_sidecar(sidecar, lambda doc: doc["model_config"].update(dim=4))
        elif case == "float_dim":
            # once a TypeError traceback from the tensor shapes
            edit_sidecar(sidecar, lambda doc: doc["model_config"].update(dim=8.0))
        elif case == "float_levels":
            edit_sidecar(sidecar, lambda doc: doc["model_config"].update(levels=2.0))
        elif case == "nan_lambdas":
            # once passed the config's checks and exited numeric on NaN scores
            edit_sidecar(sidecar, lambda doc: doc["model_config"].update(lambdas=[math.nan, math.nan]))
        elif case == "unhashable_model_kind":
            edit_sidecar(sidecar, lambda doc: doc.update(model_kind=["hie"]))
        elif case == "absurd_dim":
            # each absurd size once built an (unallocatable) template model and ended in a
            # MemoryError traceback; these are sizes numpy refuses at once
            edit_sidecar(sidecar, lambda doc: doc["model_config"].update(dim=10**12))
        elif case == "absurd_dim_two_levels":
            edit_sidecar(sidecar, lambda doc: doc["model_config"].update(dim=10**6, levels=2, lambdas=[0.5, 0.5]))
        else:
            edit_sidecar(
                sidecar,
                lambda doc: doc["model_config"].update(levels=3, lambdas=[0.5, 0.25, 0.25]))
        code, out, err = run_cli(
            capsys, "eval", "--data-dir", data_dir, "--checkpoint", str(ckpt))
        assert code == 2
        assert out == ""
        assert err.startswith("data error:") and "Traceback" not in err

    @pytest.mark.parametrize("field,value", [("disable_distance", "false"), ("disable_semantic_deep", "no"),
                                             ("norm_p", True), ("lambdas", ["0.5", "0.5"])])
    def test_wrongly_typed_config_value_is_data_error(
            self, capsys, data_dir, trained, tmp_path, field, value):
        # each once rebuilt a model and exited 0: "false" as a set ablation
        # switch, true as norm 1 and "0.5" as the weight 0.5
        ckpt, sidecar = copy_checkpoint(trained, tmp_path / "ckpt")
        edit_sidecar(sidecar, lambda doc: doc["model_config"].update({field: value}))
        code, out, err = run_cli(
            capsys, "eval", "--data-dir", data_dir, "--checkpoint", str(ckpt))
        assert code == 2
        assert out == ""
        assert err.startswith("data error: checkpoint model_config does not rebuild: ")
        assert f"{field} must be " in err and "Traceback" not in err

    def test_baseline_float_dim_is_data_error(self, capsys, data_dir, tmp_path):
        code, stdout, err = eval_edited_transe(capsys, data_dir, tmp_path, dim=8.0)
        assert code == 2
        assert stdout == ""
        assert err.startswith("data error:") and "dim must be an int" in err

    def test_baseline_float_norm_is_data_error(self, capsys, data_dir, tmp_path):
        # 1.0 once passed as norm 1
        code, stdout, err = eval_edited_transe(capsys, data_dir, tmp_path, norm_p=1.0)
        assert code == 2
        assert stdout == ""
        assert err.startswith("data error:") and "norm_p must be an int" in err and "Traceback" not in err

    def test_baseline_absurd_dim_is_data_error(self, capsys, data_dir, tmp_path):
        # once a MemoryError traceback from the template model; numpy refuses this size at once
        code, stdout, err = eval_edited_transe(capsys, data_dir, tmp_path, dim=10**12)
        assert code == 2
        assert stdout == ""
        assert err.startswith("data error:") and "model config implies" in err and "Traceback" not in err

    def test_hie_checkpoint_under_a_baseline_kind_is_data_error(self, capsys, data_dir, trained, tmp_path):
        # once loaded ent and rel as TransE, dropped the other ten tensors and exited 0 with a TransE report
        ckpt, sidecar = copy_checkpoint(trained, tmp_path / "ckpt")
        edit_sidecar(sidecar, lambda doc: doc.update(
            model_kind="transe", model_config={"kind": "transe", "dim": 8, "norm_p": 1}))
        code, stdout, err = run_cli(capsys, "eval", "--data-dir", data_dir, "--checkpoint", str(ckpt))
        assert code == 2
        assert stdout == ""
        assert err.startswith("data error:") and "'proj_head_dist'" in err and "Traceback" not in err

    def test_baseline_config_kind_differs_from_model_kind(self, capsys, data_dir, tmp_path):
        code, stdout, err = eval_edited_transe(capsys, data_dir, tmp_path, kind="distmult")
        assert code == 2
        assert stdout == ""
        assert err.startswith("data error:") and "'distmult'" in err and "'transe'" in err

    @pytest.mark.parametrize("flags", [(), ("--dim", "4"), ("--dim", "8", "--levels", "3")])
    def test_flags_disagreeing_with_tensors_are_data_error(
            self, capsys, data_dir, trained, tmp_path, flags):
        # without a sidecar model_config the flags give the config (default dim 64)
        ckpt, sidecar = copy_checkpoint(trained, tmp_path / "ckpt")
        edit_sidecar(sidecar, lambda doc: doc.pop("model_config"))
        code, out, err = run_cli(
            capsys, "eval", "--data-dir", data_dir, "--checkpoint", str(ckpt), *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("data error:") and "model config implies" in err

    def test_flags_matching_tensors_evaluate(self, capsys, data_dir, trained, tmp_path):
        ckpt, sidecar = copy_checkpoint(trained, tmp_path / "ckpt")
        expected = run_cli(capsys, "eval", "--data-dir", data_dir, "--checkpoint", str(ckpt))
        edit_sidecar(sidecar, lambda doc: doc.pop("model_config"))
        got = run_cli(capsys, "eval", "--data-dir", data_dir, "--checkpoint", str(ckpt), "--dim", "8")
        assert got[0] == 0 and got[1] == expected[1]

    def test_non_finite_parameters_exit_numeric(self, capsys, data_dir, trained, tmp_path):
        ckpt, _ = copy_checkpoint(trained, tmp_path / "ckpt")
        loaded = load_checkpoint(ckpt)
        loaded.params.ent[3, 0] = np.nan
        save_checkpoint(loaded.params, loaded.meta, ckpt)
        code, out, err = run_cli(
            capsys, "eval", "--data-dir", data_dir, "--checkpoint", str(ckpt))
        assert code == 3
        assert out == ""
        assert "non-finite" in err


class TestClassify:
    def test_table_shape_and_categories(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "classify", "--data-dir", data_dir)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "relation,hco,tcs,category"
        kg = load_kg(data_dir)
        assert len(lines) == 1 + kg.num_relations
        by_name = {row.split(",")[0]: row.split(",")[3] for row in lines[1:]}
        assert by_name["group"] == "N-to-1"  # 4 members map to 1 anchor
        assert by_name["next"] == "1-to-1"

    def test_eta_moves_the_boundary(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "classify", "--data-dir", data_dir, "--eta", "100")
        assert code == 0
        assert all(row.endswith("1-to-1") for row in out.splitlines()[1:])

    def test_writes_csv(self, capsys, data_dir, tmp_path):
        out = tmp_path / "cls"
        code, stdout, _ = run_cli(capsys, "classify", "--data-dir", data_dir,
                                  "--out", str(out))
        assert code == 0
        assert (out / "relations.csv").read_text() == stdout

    @pytest.mark.parametrize("eta", ["0", "-1", "nan", "inf"])
    def test_bad_eta_is_usage_error(self, capsys, data_dir, eta):
        code, stdout, err = run_cli(capsys, "classify", "--data-dir", data_dir, "--eta", eta)
        assert code == 1
        assert stdout == ""
        assert err.startswith("usage error:") and "eta" in err

    @pytest.mark.parametrize("eta", ["0", "nan"])
    def test_bad_eta_is_usage_error_before_data_loads(self, capsys, tmp_path, eta):
        # a missing data directory would be a data error (exit 2) if it were read
        code, stdout, err = run_cli(
            capsys, "classify", "--data-dir", str(tmp_path / "absent"), "--eta", eta)
        assert code == 1
        assert stdout == ""
        assert err.startswith("usage error: eta must be a finite positive number")


METRIC_COLUMNS = "mr,mrr,hits1,hits3,hits10,count"


class TestTableDeclarations:
    # the tables' columns and the ablation's variants, written out: the code derives them from RunConfig
    def test_headers_are_the_literal_columns(self):
        assert cli.SWEEP_HEADER == "levels,lambda1,gamma,dim,batch_size,status," + METRIC_COLUMNS
        assert cli.ABLATE_HEADER == "variant," + METRIC_COLUMNS

    def test_ablate_variants_are_full_then_each_switch_in_order(self):
        assert cli.ABLATE_VARIANTS == (
            ("full", {}),
            ("no_distance", {"no_distance": True}),
            ("no_semantic", {"no_semantic": True}),
            ("no_distance_deep", {"no_distance_deep": True}),
            ("no_semantic_deep", {"no_semantic_deep": True}),
        )

    @pytest.mark.parametrize("switch", [name for name in cli.RUN_FIELDS if name.startswith("no_")])
    def test_each_ablation_switch_reaches_hie_config(self, switch):
        disables = {"no_distance": "disable_distance", "no_semantic": "disable_semantic",
                    "no_distance_deep": "disable_distance_deep", "no_semantic_deep": "disable_semantic_deep"}
        assert set(disables) == {name for name in cli.RUN_FIELDS if name.startswith("no_")}
        config = model_config_from(RunConfig(levels=3, **{switch: True}))
        assert {flag: getattr(config, flag) for flag in disables.values()} == {
            flag: name == switch for name, flag in disables.items()}
        assert model_config_from(RunConfig(levels=3)) == dataclasses.replace(config, **{disables[switch]: False})


class TestSweep:
    def test_no_axes_is_the_base_point_alone(self, capsys, data_dir, tmp_path):
        out = tmp_path / "sw"
        code, stdout, _ = run_cli(capsys, "sweep", "--data-dir", data_dir, "--out", str(out), *TINY)
        assert code == 0
        rows = stdout.splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("2,0.5,6,8,16,ok,")
        assert sorted(path.name for path in out.iterdir()) == [
            "point_000.ckpt", "point_000.json", "point_000_loss.csv", "sweep.csv"]

    def test_row_prefix_formats_flag_floats_with_g(self, capsys, data_dir, tmp_path):
        code, stdout, _ = run_cli(
            capsys, "sweep", "--data-dir", data_dir, "--out", str(tmp_path / "sw"),
            "--sweep-lambda1", "0.3", *TINY, "--gamma", "12.5")
        assert code == 0
        assert [row[:row.index(",ok,")] for row in stdout.splitlines()[1:]] == ["2,0.3,12.5,8,16"]

    def test_row_prefix_formats_config_ints_like_the_flags(self, capsys, data_dir, tmp_path):
        # an int in a float field's config list is formatted with g: 10000000 reads 1e+07
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"sweep_gamma": [3, 10000000]}))
        code, stdout, _ = run_cli(
            capsys, "sweep", "--data-dir", data_dir, "--out", str(tmp_path / "sw"),
            "--config", str(config), *TINY)
        assert code == 0
        prefixes = [",".join(row.split(",")[:5]) for row in stdout.splitlines()[1:]]
        assert prefixes == ["2,0.5,3,8,16", "2,0.5,1e+07,8,16"]

    def test_no_axes_is_one_point_matching_train(self, capsys, data_dir, tmp_path):
        sweep_out = tmp_path / "sw"
        code, sweep_stdout, _ = run_cli(
            capsys, "sweep", "--data-dir", data_dir, "--out", str(sweep_out), *TINY)
        assert code == 0
        rows = sweep_stdout.splitlines()
        assert rows[0] == cli.SWEEP_HEADER
        assert len(rows) == 2
        assert ",ok," in rows[1]
        # the single point must equal an ordinary train run's validation metrics
        train_out = tmp_path / "tr"
        code, train_stdout, _ = run_cli(
            capsys, "train", "--data-dir", data_dir, "--out", str(train_out), *TINY)
        assert code == 0
        doc = json.loads(train_stdout)
        tail = rows[1].split(",ok,")[1]
        assert tail == (
            f"{doc['mr']:.6f},{doc['mrr']:.6f},{doc['hits1']:.6f},"
            f"{doc['hits3']:.6f},{doc['hits10']:.6f},{doc['count']}"
        )

    def test_level_grid_runs_every_point(self, capsys, data_dir, tmp_path):
        out = tmp_path / "sw"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--data-dir", data_dir, "--out", str(out),
            "--sweep-levels", "1,2,3,4", *TINY)
        assert code == 0
        rows = stdout.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2", "3", "4"]
        assert all(",ok," in row for row in rows)
        assert (out / "sweep.csv").read_text().splitlines()[1:] == rows
        for i in range(4):
            assert (out / f"point_{i:03d}.ckpt").exists()

    def test_failing_point_gets_error_row_and_sweep_continues(
            self, capsys, data_dir, tmp_path):
        out = tmp_path / "sw"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--data-dir", data_dir, "--out", str(out),
            "--sweep-dim", "8,7", "--steps", "3")
        assert code == 0
        rows = stdout.splitlines()[1:]
        assert len(rows) == 2
        assert ",ok," in rows[0]
        status = rows[1].split(",")[5]
        assert status == "error:UsageError"
        assert rows[1].split(",")[6:] == [""] * 6  # metrics stay blank

    @pytest.mark.parametrize("flag,value,message", [
        ("--gamma", "nan", "gamma must be a finite number"),
        ("--lr", "inf", "learning_rate must be a finite number"),
        ("--dim", "7", "dim must be even"),
    ])
    def test_flag_every_point_rejects_is_usage_error(self, capsys, data_dir, tmp_path, flag, value, message):
        # these once wrote an error row per point and exited 0
        out = tmp_path / "sw"
        code, stdout, err = run_cli(
            capsys, "sweep", "--data-dir", data_dir, "--out", str(out),
            "--sweep-levels", "1,2", *TINY, flag, value)
        assert code == 1
        assert stdout == ""
        assert f"usage error: {message}" in err
        # rejected before any output: no directory, no per-point line
        assert not out.exists()
        assert "sweep point" not in err

    @pytest.mark.parametrize("axis", ["levels", "lambda1", "gamma", "dim", "batch_size"])
    def test_empty_axis_from_config_is_usage_error(self, capsys, data_dir, tmp_path, axis):
        # once read as no axis: the sweep ran its base point and exited 0
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({f"sweep_{axis}": []}))
        out = tmp_path / "sw"
        code, stdout, err = run_cli(
            capsys, "sweep", "--data-dir", data_dir, "--out", str(out), "--config", str(config), *TINY)
        assert code == 1
        assert stdout == ""
        assert f"usage error: sweep axis {axis} needs at least one value" in err
        assert not out.exists()

    def test_base_value_an_axis_overrides_is_not_checked(self, capsys, data_dir, tmp_path):
        # --dim 7 alone is rejected, but every point takes its dim from the axis
        out = tmp_path / "sw"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--data-dir", data_dir, "--out", str(out),
            *TINY, "--dim", "7", "--sweep-dim", "8,6")
        assert code == 0
        rows = stdout.splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["8", "6"]
        assert all(",ok," in row for row in rows)

    def test_two_axes_form_a_product_grid(self, capsys, data_dir, tmp_path):
        out = tmp_path / "sw"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--data-dir", data_dir, "--out", str(out),
            "--sweep-levels", "1,2", "--sweep-gamma", "3,6", "--steps", "2",
            "--dim", "8")
        assert code == 0
        rows = stdout.splitlines()[1:]
        grid = {(row.split(",")[0], row.split(",")[2]) for row in rows}
        assert grid == {("1", "3"), ("1", "6"), ("2", "3"), ("2", "6")}

    def test_point_too_large_for_memory_gets_an_error_row(self, capsys, synth100_dir, tmp_path):
        # its MemoryError once ended the sweep in a traceback after the first row
        code, stdout, err = run_cli(
            capsys, "sweep", "--data-dir", synth100_dir, "--out", str(tmp_path / "sw"),
            "--steps", "2", "--sweep-dim", "8,1000000000000")
        assert code == 0
        rows = [row.split(",") for row in stdout.splitlines()[1:]]
        assert [(row[3], row[5]) for row in rows] == [("8", "ok"), ("1000000000000", "error:MemoryError")]
        assert "sweep point 1 failed" in err and "Traceback" not in err


class TestGradcheck:
    @pytest.mark.parametrize("flag", ["--alpha-temp", "--gamma"])
    def test_non_finite_gradients_exit_numeric(self, capsys, data_dir, flag):
        # max() once dropped each NaN error: every gradient NaN, and the check passed with 0
        with np.errstate(all="ignore"):
            code, out, err = run_cli(
                capsys, "gradcheck", "--data-dir", data_dir, "--dim", "8", "--batches", "1", flag, "1e308")
        assert code == 3
        assert out == ""
        assert err.startswith("numeric failure:") and "ent[0, 0]" in err and "Traceback" not in err

    def test_reports_error_and_passes_default_tolerance(self, capsys, data_dir):
        code, out, err = run_cli(
            capsys, "gradcheck", "--data-dir", data_dir, "--dim", "8", "--batches", "2")
        assert code == 0
        assert out.startswith("max_relative_error=")
        assert float(out.split("=")[1]) < 1e-4
        assert err.count("max relative error") == 2

    def test_impossible_tolerance_exits_numeric(self, capsys, data_dir):
        code, _, err = run_cli(
            capsys, "gradcheck", "--data-dir", data_dir, "--dim", "8",
            "--batches", "1", "--tolerance", "1e-18")
        assert code == 3
        assert "numeric failure" in err

    @pytest.mark.parametrize("flag,value", [
        ("--fd-step", "0"), ("--fd-step", "-0.5"), ("--fd-step", "nan"), ("--fd-step", "inf"),
        ("--batches", "0"), ("--batches", "-2"),
        ("--tolerance", "-1"), ("--tolerance", "nan"),
    ])
    def test_bad_flag_is_usage_error_before_data_loads(self, capsys, tmp_path, flag, value):
        # a missing data directory would be a data error (exit 2) if it were read
        code, out, err = run_cli(
            capsys, "gradcheck", "--data-dir", str(tmp_path / "absent"), "--dim", "8", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:") and flag in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--dim", "7", "dim must be even"),
        ("--gamma", "nan", "gamma must be a finite number"),
    ])
    def test_rejected_config_is_usage_error_before_data_loads(self, capsys, tmp_path, flag, value, message):
        # the model and training configs were once built after the data loaded
        code, out, err = run_cli(
            capsys, "gradcheck", "--data-dir", str(tmp_path / "absent"), "--dim", "8", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith(f"usage error: {message}")

    def test_covers_baseline_models(self, capsys, data_dir):
        for model in ("transe", "distmult", "rotate"):
            code, out, _ = run_cli(
                capsys, "gradcheck", "--data-dir", data_dir, "--dim", "8",
                "--batches", "1", "--model", model)
            assert code == 0, model
            assert float(out.split("=")[1]) < 1e-4


class TestAblate:
    def test_five_variants(self, capsys, data_dir, tmp_path):
        out = tmp_path / "ab"
        code, stdout, _ = run_cli(
            capsys, "ablate", "--data-dir", data_dir, "--out", str(out), *TINY)
        assert code == 0
        rows = stdout.splitlines()
        assert rows[0] == cli.ABLATE_HEADER
        names = [row.split(",")[0] for row in rows[1:]]
        assert names == ["full", "no_distance", "no_semantic",
                         "no_distance_deep", "no_semantic_deep"]
        assert (out / "ablate.csv").read_text() == stdout
        for name in names:
            assert (out / f"{name}.ckpt").exists()

    # --no-semantic makes the no_distance variant disable both spaces
    @pytest.mark.parametrize("flags", [["--gamma", "nan"], ["--no-semantic"]])
    def test_rejected_variant_leaves_no_output(self, capsys, data_dir, tmp_path, flags):
        code, out, err = run_cli(
            capsys, "ablate", "--data-dir", data_dir, "--out", str(tmp_path / "ab"), *TINY, *flags)
        assert code == 1
        assert out == "" and "usage error" in err
        assert not (tmp_path / "ab").exists()

    def test_rejects_baseline_models(self, capsys, data_dir, tmp_path):
        code, _, err = run_cli(
            capsys, "ablate", "--data-dir", data_dir, "--out", str(tmp_path / "x"),
            "--model", "rotate")
        assert code == 1
        assert "hie" in err


class TestStats:
    def test_summary_fields(self, capsys, data_dir):
        code, out, _ = run_cli(capsys, "stats", "--data-dir", data_dir)
        assert code == 0
        doc = json.loads(out)
        assert doc["entities"] == 24
        assert doc["relations"] == 4
        assert doc["train"] > 0 and doc["valid"] == 5 and doc["test"] == 5

    def test_non_utf8_triple_file_is_data_error(self, capsys, data_dir, tmp_path):
        bad = copy_data_dir(data_dir, tmp_path / "data", None)
        with open(Path(bad) / "valid.txt", "ab") as f:
            f.write(b"caf\xe9\tr0\te0\n")
        code, out, err = run_cli(capsys, "stats", "--data-dir", bad)
        assert code == 2
        assert out == ""
        assert err.startswith("data error:") and "valid.txt: not UTF-8" in err

    def test_dump_dicts(self, capsys, data_dir, tmp_path):
        out = tmp_path / "st"
        code, _, _ = run_cli(capsys, "stats", "--data-dir", data_dir,
                             "--out", str(out), "--dump-dicts")
        assert code == 0
        kg = load_kg(data_dir)
        lines = (out / "entities.dict").read_text().splitlines()
        assert len(lines) == kg.num_entities
        assert lines[0].split("\t") == ["0", kg.entity_names[0]]

    def test_dump_dicts_without_out_is_usage_error_before_the_summary(self, capsys, data_dir):
        # the JSON summary was once printed before --out was found missing
        code, out, err = run_cli(capsys, "stats", "--data-dir", data_dir, "--dump-dicts")
        assert code == 1
        assert out == ""
        assert err == "usage error: --out is required for this command\n"


def test_console_script_installed(data_dir):
    result = subprocess.run(
        ["hiekge", "classify", "--data-dir", data_dir],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.startswith("relation,hco,tcs,category")
