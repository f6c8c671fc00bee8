"""The benchmark's workloads: seeded inputs, set-up, and one repeatable job each.

A run repeats its workload's job until the measuring time is spent (at
least twice). Every job starts from a copy of the parameters of the latest
set-up, which are the same every time, so every job of a run must produce
byte-identical loss logs and ranks.

Before a run measures anything it trains and ranks CANARY once, untimed:
a hie model on the 100-entity synthetic graph that must reach filtered
Hits@10 >= HITS10_FLOOR, so a fast but broken trainer fails the run.
"""

from __future__ import annotations

import copy
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import graphs
from hiekge import checkpoint, evaluator, kg_data, trainer
from hiekge.baselines import BaselineConfig
from hiekge.hie_model import HieConfig

HITS10_FLOOR = 0.9


@dataclass(frozen=True)
class Spec:
    graph: Callable[[int], graphs.Graph]
    kind: str
    model: object
    train: dict  # TrainConfig fields other than the seed
    eval_triples: Optional[int] = None  # test prefix length; None ranks the whole split
    perturb: bool = False  # randomise the structure tensors of the initial parameters
    roundtrip: bool = False  # save and reload the trained parameters before evaluating
    hits10_floor: Optional[float] = None


HIE32 = HieConfig(dim=32, levels=2, lambdas=(0.5, 0.5))
HIE64 = HieConfig(dim=64, levels=2, lambdas=(0.5, 0.5))
WN_TRAIN = dict(gamma=6.0, alpha_temp=1.0, num_negatives=64, learning_rate=1e-3, batch_size=512)

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "wn18rr-hie": Spec(
        graph=graphs.wn18rr_like,
        kind="hie",
        model=HIE64,
        train=dict(WN_TRAIN, steps=10),
        eval_triples=16,
        perturb=True,
    ),
    "wn18rr-transe-roundtrip": Spec(
        graph=graphs.wn18rr_like,
        kind="transe",
        model=BaselineConfig(kind="transe", dim=64),
        train=dict(WN_TRAIN, steps=10),
        eval_triples=32,
        roundtrip=True,
    ),
}

# the acceptance criterion-7 training config; 150 steps reach the floor on every seed tried
CANARY = Spec(
    graph=graphs.synth100,
    kind="hie",
    model=HIE32,
    train=dict(gamma=2.0, alpha_temp=1.0, num_negatives=16, learning_rate=0.05,
               batch_size=256, steps=150),
    hits10_floor=HITS10_FLOOR,
)


@dataclass
class Setup:
    kg: object
    params: object


@dataclass
class JobResult:
    wall_s: float
    step_s: list
    loss_log: list = field(default_factory=list)
    ranks: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    train_s: float = 0.0
    train_triples: int = 0
    eval_s: float = 0.0
    eval_triples: int = 0

    def fingerprint(self) -> bytes:
        """The job's outputs as bytes: equal bytes mean identical outputs."""
        return repr(self.loss_log).encode() + self.ranks.astype("<i8").tobytes()


def perturb(params, seed: int) -> None:
    """Random structure tensors so no level stays at the identity-like init."""
    rng = np.random.default_rng([seed, 1])
    half = params.proj_head_dist.shape[0]
    for name in ("proj_head_dist", "proj_tail_dist", "proj_rel_dist",
                 "proj_head_sem", "proj_tail_sem", "proj_rel_sem"):
        setattr(params, name, rng.normal(scale=0.8, size=half))
    params.transform_seed = rng.normal(scale=0.8, size=params.transform_seed.shape)
    params.extract_dist = rng.normal(scale=0.8 / np.sqrt(half), size=params.extract_dist.shape)
    params.extract_sem = rng.normal(scale=0.8 / np.sqrt(half), size=params.extract_sem.shape)
    params.blend_logit = np.asarray(rng.normal(scale=0.7))


def setup(spec: Spec, data_dir, seed: int) -> Setup:
    """Files -> load_kg -> parameters and Adam state."""
    kg = kg_data.load_kg(data_dir)
    params = trainer.init_model(spec.kind, kg.num_entities, kg.num_relations, spec.model, seed)
    if spec.perturb:
        perturb(params, seed)
    trainer.init_adam(params)
    return Setup(kg=kg, params=params)


@contextmanager
def step_clock(marks: list):
    """Timestamp every training step where it draws its batch: one clock read, no spans."""
    original = kg_data.sample_batch

    def marked(*args, **kwargs):
        marks.append(time.perf_counter())
        return original(*args, **kwargs)

    kg_data.sample_batch = marked
    try:
        yield
    finally:
        kg_data.sample_batch = original


def _rank(params, spec, kg, triples, result: JobResult):
    """Evaluate `triples` in one call; record the ranks and check they lie in [1, |E|]."""
    start = time.perf_counter()
    rows = evaluator.evaluate(params, spec.model, kg, split=triples)
    result.eval_s = time.perf_counter() - start
    result.eval_triples = len(rows)
    result.attempted += len(rows)
    result.ranks = np.array([(r.head_rank, r.tail_rank) for r in rows], dtype=np.int64)
    out_of_range = np.any((result.ranks < 1) | (result.ranks > kg.num_entities), axis=1)
    if out_of_range.any():
        result.failed += int(out_of_range.sum())
        result.problems.append(f"{int(out_of_range.sum())} rank(s) outside [1, {kg.num_entities}]")
    return rows


def run_job(spec: Spec, state: Setup, seed: int, work_dir) -> JobResult:
    """One complete job; failures are counted in the result, never raised."""
    start = time.perf_counter()
    result = JobResult(wall_s=0.0, step_s=[])
    params = copy.deepcopy(state.params)
    kg = state.kg
    try:
        config = trainer.TrainConfig(seed=seed, **spec.train)
        result.attempted += config.steps
        marks = []
        with step_clock(marks):
            t0 = time.perf_counter()
            params, result.loss_log = trainer.train(kg, spec.kind, spec.model, config, params=params)
            t1 = time.perf_counter()
        result.step_s = np.diff(marks + [t1]).tolist()
        result.train_s = t1 - t0
        result.train_triples = config.steps * config.batch_size
        if not all(np.isfinite(loss) for _, loss, _ in result.loss_log):
            result.failed += 1
            result.problems.append("non-finite loss in the log")
        if spec.roundtrip:
            path = work_dir / "model.ckpt"
            result.attempted += 2
            checkpoint.save_checkpoint(params, {"model_kind": spec.kind, "seed": seed}, path)
            loaded = checkpoint.load_checkpoint(path).params
            if not all(np.array_equal(a, b) and a.dtype == b.dtype
                       for (_, a), (_, b) in zip(params.field_items(), loaded.field_items())):
                result.failed += 1
                result.problems.append("checkpoint round trip changed the parameters")
            params = loaded
        triples = kg.test if spec.eval_triples is None else kg.test[: spec.eval_triples]
        rows = _rank(params, spec, kg, triples, result)
        if spec.hits10_floor is not None:
            hits10 = evaluator.aggregate_metrics(rows).hits10
            if hits10 < spec.hits10_floor:
                result.problems.append(f"filtered Hits@10 {hits10:.3f} < {spec.hits10_floor}")
    except Exception as exc:  # reported as a failed job, never raised to the run
        traceback.print_exc(file=sys.stderr)
        result.failed += 1
        result.problems.append(f"{type(exc).__name__}: {exc}")
    result.wall_s = time.perf_counter() - start
    return result


def run_canary(seed: int, work_dir) -> JobResult:
    """Train and rank CANARY once, untimed; its problems fail the run."""
    data_dir = work_dir / "canary"
    CANARY.graph(seed).write(data_dir)
    return run_job(CANARY, setup(CANARY, data_dir, seed), seed, work_dir)
