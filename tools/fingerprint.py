"""Fingerprint what loading, training and ranking compute: one SHA-256 per line.

Usage: python tools/fingerprint.py [--workers 1|2]

For each graph (the tests' 100-entity graph and the benchmark's
WN18RR-shaped graph, seed 3), it first prints

    graph/load_kg sha256

where the hash covers what `kg_data.load_kg` makes of the graph's triple
files: the entity and relation names, the three split arrays, and the
filter index's `true_tails` and `true_heads` for every distinct
(head, rel) and (rel, tail) of the splits. Then, for each configuration,
it trains 3 steps at batch 512 with 64 negatives, ranks the first 16 test
triples, and prints

    graph/config sha256

where the hash covers the loss log, every trained parameter tensor and
the ranks. The configurations are hie at levels 1-3 x L1/L2 x
diagonal/rank-1 transform from its identity-like init; hie at levels 2-3
x L1/L2 x both transforms from perturbed structure tensors
(`helpers.random_hie_params`, whose deep levels differ from the raw
halves); each of hie's four `disable_*` switches at 2 levels, and the
two `disable_*_deep` switches at 3 levels, where a space is read at
level 1 of 3, also perturbed; TransE L1/L2, RotatE and DistMult.

Last, it runs the `hiekge` commands in-process on the tests' 24-entity
graph at `--dim 8 --steps 5` and prints

    cli/command sha256

where the hash covers the command's exit code, its stdout and the name
and bytes of every file it wrote under `--out`: `train` and `eval` of hie
and of TransE, `sweep` over two levels, `ablate`, `classify` and `stats`
with `--dump-dicts`. About 25 s on 2 CPUs.
`--workers` sets `kernels.WORKERS`. Two trees, or two worker counts,
compute the same bits when their outputs are equal:

    python tools/fingerprint.py --workers 1 > a.txt
    python tools/fingerprint.py --workers 2 > b.txt
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import graphs  # noqa: E402
from helpers import random_hie_params  # noqa: E402
from hiekge import cli, evaluator, kernels, kg_data, trainer  # noqa: E402
from hiekge.baselines import BaselineConfig  # noqa: E402
from hiekge.hie_model import HieConfig  # noqa: E402
from synthkg import build_synth_kg, write_synth_kg  # noqa: E402

DIM = 32
LAMBDAS = {1: (1.0,), 2: (0.5, 0.5), 3: (0.5, 0.25, 0.25)}
TRAIN = trainer.TrainConfig(num_negatives=64, batch_size=512, steps=3, learning_rate=1e-3, seed=0)
RANKED = 16
# (line name, command, its flags) of each CLI run, in order; "{out}" is a fresh directory, "{ckpt}"
# the checkpoint of the latest train
CLI_RUNS = [
    ("train-hie", "train", ["--out", "{out}"]),
    ("eval-hie", "eval", ["--checkpoint", "{ckpt}", "--out", "{out}"]),
    ("train-transe", "train", ["--model", "transe", "--out", "{out}"]),
    ("eval-transe", "eval", ["--checkpoint", "{ckpt}", "--out", "{out}"]),
    ("sweep", "sweep", ["--sweep-levels", "1,2", "--out", "{out}"]),
    ("ablate", "ablate", ["--out", "{out}"]),
    ("classify", "classify", ["--out", "{out}"]),
    ("stats", "stats", ["--dump-dicts", "--out", "{out}"]),
]


def configurations():
    """(name, model kind, model config, perturbed) of every fingerprinted configuration.

    perturbed: training starts from `random_hie_params` rather than the
    model's own init.
    """
    for levels in (1, 2, 3):
        for norm_p in (1, 2):
            for transform in ("diagonal", "rank1"):
                config = HieConfig(dim=DIM, levels=levels, lambdas=LAMBDAS[levels], norm_p=norm_p,
                                   transform=transform)
                yield f"hie-levels{levels}-l{norm_p}-{transform}", "hie", config, False
                if levels > 1:
                    yield f"hie-perturbed-levels{levels}-l{norm_p}-{transform}", "hie", config, True
    for switch in ("distance", "semantic", "distance_deep", "semantic_deep"):
        config = HieConfig(dim=DIM, levels=2, lambdas=LAMBDAS[2], **{f"disable_{switch}": True})
        yield f"hie-perturbed-no-{switch}", "hie", config, True
    for switch in ("distance_deep", "semantic_deep"):
        config = HieConfig(dim=DIM, levels=3, lambdas=LAMBDAS[3], **{f"disable_{switch}": True})
        yield f"hie-perturbed-levels3-no-{switch}", "hie", config, True
    for norm_p in (1, 2):
        yield f"transe-l{norm_p}", "transe", BaselineConfig(kind="transe", dim=DIM, norm_p=norm_p), False
    yield "rotate", "rotate", BaselineConfig(kind="rotate", dim=DIM), False
    yield "distmult", "distmult", BaselineConfig(kind="distmult", dim=DIM), False


def wn18rr_kg():
    """The benchmark's WN18RR-shaped graph (seed 3), written out and loaded as the benchmark loads it."""
    with tempfile.TemporaryDirectory() as data_dir:
        graphs.wn18rr_like(3).write(data_dir)
        return kg_data.load_kg(data_dir)


def synth100_loaded(kg):
    """The tests' 100-entity graph, written out as triple files and loaded back."""
    with tempfile.TemporaryDirectory() as data_dir:
        write_synth_kg(Path(data_dir), kg)
        return kg_data.load_kg(data_dir)


def load_fingerprint(kg):
    """SHA-256 over the names, the split arrays and the filter lookups of every pair in the splits."""
    digest = hashlib.sha256(repr((kg.entity_names, kg.relation_names)).encode())
    for name in kg_data.SPLIT_NAMES:
        split = kg.split(name)
        digest.update(f"{name}{split.shape}{split.dtype}".encode())
        digest.update(np.ascontiguousarray(split).tobytes())
    triples = np.concatenate([kg.split(name) for name in kg_data.SPLIT_NAMES]).tolist()
    index = kg.filter_index
    for h, r in sorted({(h, r) for h, r, _ in triples}):
        digest.update(repr((h, r, sorted(index.true_tails(h, r)))).encode())
    for r, t in sorted({(r, t) for _, r, t in triples}):
        digest.update(repr((r, t, sorted(index.true_heads(r, t)))).encode())
    return digest.hexdigest()


def fingerprint(kg, kind, config, perturbed):
    """SHA-256 over the loss log, the trained parameters and the ranks of the first test triples."""
    start = None
    if perturbed:
        start = random_hie_params(np.random.default_rng(0), kg.num_entities, kg.num_relations, config)
    params, log = trainer.train(kg, kind, config, TRAIN, params=start)
    ranks = evaluator.evaluate(params, config, kg, split=kg.test[:RANKED])
    digest = hashlib.sha256(repr(log).encode())
    for name, tensor in params.field_items():
        digest.update(f"{name}{tensor.shape}{tensor.dtype}".encode())
        digest.update(np.ascontiguousarray(tensor).tobytes())
    digest.update(repr([(r.head_rank, r.tail_rank) for r in ranks]).encode())
    return digest.hexdigest()


def cli_fingerprints():
    """(name, SHA-256 over exit code, stdout and every written file) of each of CLI_RUNS."""
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "data"
        write_synth_kg(data_dir, build_synth_kg(num_entities=24, seed=0))
        ckpt = None
        for index, (name, command, flags) in enumerate(CLI_RUNS):
            out = Path(tmp) / f"out{index}"
            argv = [command, "--data-dir", str(data_dir), "--dim", "8", "--steps", "5",
                    *(flag.format(out=out, ckpt=ckpt) for flag in flags)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            digest = hashlib.sha256(f"{code}\n{stdout.getvalue()}".encode())
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    digest.update(f"{path.relative_to(out)}{path.stat().st_size}".encode())
                    digest.update(path.read_bytes())
            if command == "train":
                ckpt = out / "model.ckpt"
            yield name, digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, choices=(1, 2), default=kernels.WORKERS)
    kernels.WORKERS = parser.parse_args(argv).workers
    synth, wn18rr = build_synth_kg(), wn18rr_kg()
    for graph, kg, loaded in (("synth100", synth, synth100_loaded(synth)), ("wn18rr", wn18rr, wn18rr)):
        print(f"{graph}/load_kg {load_fingerprint(loaded)}", flush=True)
        for name, kind, *model in configurations():
            print(f"{graph}/{name} {fingerprint(kg, kind, *model)}", flush=True)
    for name, digest in cli_fingerprints():
        print(f"cli/{name} {digest}", flush=True)


if __name__ == "__main__":
    main()
