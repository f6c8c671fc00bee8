"""The tile workers: any worker count gives the bits of one, and failures still surface.

`hie_model.map_tiles` shares the row tiles of hie's forward and backward,
the sparse Adam tiles and the ranking blocks out among `hie_model.WORKERS`
threads. These tests run the same work at 1 and at 2 workers and compare
every output bit for bit, with tiles small enough that each call has many.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import hiekge
from hiekge import cli, evaluator, hie_model, trainer
from hiekge.baselines import BaselineConfig
from hiekge.hie_model import HieConfig, map_tiles
from hiekge.trainer import NumericError, TrainConfig

from helpers import ABLATION_COMBOS, anchored_batch, lambdas_for, random_hie_params
from synthkg import build_synth_kg, write_synth_kg

HIE_CONFIGS = [
    HieConfig(dim=8, levels=levels, lambdas=lambdas_for(levels), norm_p=norm_p, transform=transform)
    for levels in (1, 2, 3) for norm_p in (1, 2) for transform in ("diagonal", "rank1")
] + [
    HieConfig(dim=8, levels=3, lambdas=lambdas_for(3), transform=transform, **flags)
    for flags in ABLATION_COMBOS[1:] for transform in ("diagonal", "rank1")
]
BASELINE_CONFIGS = [
    BaselineConfig(kind="transe", dim=8, norm_p=1),
    BaselineConfig(kind="transe", dim=8, norm_p=2),
    BaselineConfig(kind="distmult", dim=8),
    BaselineConfig(kind="rotate", dim=8),
]
INIT_ADAM, LOSS = trainer.init_adam, trainer.loss
TRAIN = TrainConfig(gamma=3.0, num_negatives=4, learning_rate=0.05, batch_size=16, steps=5, seed=3)


def config_id(config):
    if isinstance(config, BaselineConfig):
        return f"{config.kind}-l{config.norm_p}"
    flags = [name for name, on in vars(config).items() if name.startswith("disable_") and on]
    return "-".join([f"{config.levels}lv", f"l{config.norm_p}", config.transform, *flags])


class CountingPool:
    """The module pool, counting the calls that shared their tiles out."""

    def __init__(self, pool):
        self.pool, self.submits = pool, 0

    def submit(self, *args):
        self.submits += 1
        return self.pool.submit(*args)


@pytest.fixture
def pool(monkeypatch):
    counting = CountingPool(hie_model._POOL)
    monkeypatch.setattr(hie_model, "_POOL", counting)
    return counting


@pytest.fixture(params=[None, 5], ids=["default_tiles", "ragged_tiles"])
def tiles(request, monkeypatch):
    """Either the default partition or ragged ones: 5-row training and Adam tiles and 3 x 7 ranking blocks."""
    if request.param is not None:
        monkeypatch.setattr(hie_model, "ROW_ALIGN", 1)
        monkeypatch.setattr(hie_model, "TILE_BYTES", request.param * 8 * 4)  # half 4
        monkeypatch.setattr(trainer, "ADAM_TILE_BYTES", request.param * 8 * 8)  # dim 8
        monkeypatch.setattr(hie_model, "SLAB_ROWS", 3)
        monkeypatch.setattr(hie_model, "slab_size", lambda B: 7)
    return request.param


def train_and_rank(kind, config, workers, monkeypatch):
    """Per-step losses, parameters, Adam moments and test ranks of TRAIN on the 40-entity graph."""
    monkeypatch.setattr(hie_model, "WORKERS", workers)
    states, losses = [], []
    monkeypatch.setattr(trainer, "init_adam", lambda p: states.append(INIT_ADAM(p)) or states[-1])
    monkeypatch.setattr(trainer, "loss", lambda *a: losses.append(LOSS(*a)) or losses[-1])
    kg = build_synth_kg(num_entities=40, seed=1)
    params, log = trainer.train(kg, kind, config, TRAIN)
    ranks = [(r.head_rank, r.tail_rank) for r in evaluator.evaluate(params, config, kg)]
    return losses, log, params, states[0], ranks


@pytest.mark.parametrize("config", HIE_CONFIGS + BASELINE_CONFIGS, ids=config_id)
def test_training_and_ranking_are_bit_identical_at_one_and_two_workers(monkeypatch, pool, tiles, config):
    kind = config.kind if isinstance(config, BaselineConfig) else "hie"
    one = train_and_rank(kind, config, 1, monkeypatch)
    assert pool.submits == 0
    two = train_and_rank(kind, config, 2, monkeypatch)
    assert pool.submits > 0
    (losses, log, params, state, ranks), (losses2, log2, params2, state2, ranks2) = one, two
    assert len(losses) == TRAIN.steps
    assert repr(losses2) == repr(losses) and repr(log2) == repr(log)
    assert ranks2 == ranks
    assert state2.step == state.step == TRAIN.steps
    for name, tensor in params.field_items():
        assert np.array_equal(getattr(params2, name), tensor, equal_nan=True), name
        assert np.array_equal(state2.moment1[name], state.moment1[name]), name
        assert np.array_equal(state2.moment2[name], state.moment2[name]), name


@pytest.mark.parametrize("config", HIE_CONFIGS[:12], ids=config_id)
def test_runs_of_one_positive_split_across_tiles_sum_alike(monkeypatch, pool, config):
    # 5-row tiles over each positive's 4 negatives: some positive's rows of one side
    # lie in two tiles, so its kept-side sums get a part from each
    monkeypatch.setattr(hie_model, "ROW_ALIGN", 1)
    monkeypatch.setattr(hie_model, "TILE_BYTES", 5 * 8 * config.half)
    monkeypatch.setattr(hie_model, "WORKERS", 1)
    rng = np.random.default_rng(41)
    p = random_hie_params(rng, 12, 4, config)
    batch, negs = anchored_batch(rng, 7, 4, 12, 4)
    _, pos_cache = hie_model.score_triples(p, config, batch)
    upstream = rng.normal(size=negs.shape[0] * negs.shape[1])
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(hie_model, "WORKERS", workers)
        totals, cache = hie_model.score_triples(p, config, negs, positives=pos_cache)
        runs.append((totals, *hie_model.backward(p, config, cache, upstream)))
    tile_owners = [set(cache["pos"][tile]) for _, tile in hie_model._side_tiles(cache, config.half)]
    assert any(a & b for a, b in zip(tile_owners, tile_owners[1:]))
    assert pool.submits == 2  # the forward and the backward at two workers
    (totals, ent, rel, dense), (totals2, ent2, rel2, dense2) = runs
    assert np.array_equal(totals2, totals)
    assert np.array_equal(ent2, ent) and np.array_equal(rel2, rel)
    assert set(dense2) == set(dense)
    for name, g in dense.items():
        assert np.array_equal(dense2[name], g), name


def run_bounded(fn, timeout=120):
    """fn() on a daemon thread, so that a deadlock fails the test instead of hanging it."""
    out = []
    caller = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    caller.start()
    caller.join(timeout=timeout)
    assert not caller.is_alive(), "still running"
    return out[0]


def test_stress_more_workers_than_cores_with_a_short_switch_interval(monkeypatch):
    # four workers on a pool of three helpers, switching threads every 10 us
    config = HIE_CONFIGS[7]
    monkeypatch.setattr(hie_model, "ROW_ALIGN", 1)
    monkeypatch.setattr(hie_model, "TILE_BYTES", 3 * 8 * config.half)
    rng = np.random.default_rng(43)
    p = random_hie_params(rng, 30, 4, config)
    batch, negs = anchored_batch(rng, 24, 6, 30, 4)
    _, pos_cache = hie_model.score_triples(p, config, batch)
    upstream = rng.normal(size=negs.shape[0] * negs.shape[1])

    def work():
        totals, cache = hie_model.score_triples(p, config, negs, positives=pos_cache)
        ent, rel, dense = hie_model.backward(p, config, cache, upstream)
        ranks = hie_model.score_batch(p, config, batch, np.arange(30), "tail")
        ran = []
        order = map_tiles(lambda i: ran.append(i) or i, range(3000))
        return [totals, ent, rel, ranks, *dense.values()], sorted(ran), order

    monkeypatch.setattr(hie_model, "slab_size", lambda B: 4)
    monkeypatch.setattr(hie_model, "SLAB_ROWS", 5)
    monkeypatch.setattr(hie_model, "WORKERS", 1)
    want, _, _ = work()
    pool = hie_model.ThreadPoolExecutor(max_workers=3)
    monkeypatch.setattr(hie_model, "_POOL", pool)
    monkeypatch.setattr(hie_model, "WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            got, ran, order = run_bounded(work)
            assert ran == order == list(range(3000))  # every tile ran once
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


class TestMapTiles:
    def test_results_come_back_in_tile_order(self, monkeypatch):
        monkeypatch.setattr(hie_model, "WORKERS", 2)
        # earlier tiles take longer, so they finish after later ones
        assert map_tiles(lambda x: time.sleep(0.002 * (20 - x)) or x * x, range(20)) == [
            x * x for x in range(20)]
        assert map_tiles(lambda x: x, []) == []

    def test_single_tile_runs_on_the_calling_thread(self, monkeypatch):
        monkeypatch.setattr(hie_model, "WORKERS", 2)
        here = threading.current_thread()
        assert map_tiles(lambda _: threading.current_thread(), [0]) == [here]

    def test_nested_call_runs_inline(self, monkeypatch):
        monkeypatch.setattr(hie_model, "WORKERS", 2)
        nested = run_bounded(lambda: map_tiles(lambda x: map_tiles(lambda y: x * y, [1, 2, 3]), [1, 2]))
        assert nested == [[1, 2, 3], [2, 4, 6]]

    def test_exception_waits_for_the_other_tiles(self, monkeypatch):
        monkeypatch.setattr(hie_model, "WORKERS", 2)
        done = []

        def tile(i):
            if i == 1:
                raise ValueError("tile 1")
            time.sleep(0.3)
            done.append(i)

        with pytest.raises(ValueError, match="tile 1"):
            map_tiles(tile, [0, 1, 2, 3])
        # tile 0 ran beside the failing tile and had finished; no tile started after the failure
        assert done == [0]

    def test_first_failed_tile_in_tile_order_is_raised(self, monkeypatch):
        monkeypatch.setattr(hie_model, "WORKERS", 2)

        def tile(i):
            if i == 0:
                time.sleep(0.2)
            raise KeyError(i)

        for _ in range(3):
            with pytest.raises(KeyError, match="0"):
                map_tiles(tile, [0, 1])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_tiles_on_a_pool_of_its_own(monkeypatch):
    # the child inherits the parent's pool object but not its started helper thread;
    # sharing tiles out on that pool once hung the child
    monkeypatch.setattr(hie_model, "WORKERS", 2)
    assert map_tiles(lambda x: x, range(4)) == [0, 1, 2, 3]
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if map_tiles(lambda x: x + 1, range(4)) == [1, 2, 3, 4] else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while not (status := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its tiles")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status[1]) == 0


@pytest.fixture
def poisoned_init(monkeypatch):
    """trainer.init_model with a NaN put into one structure tensor, so every score is NaN."""
    init_model = trainer.init_model

    def poisoned(*args):
        params = init_model(*args)
        params.proj_head_dist[0] = np.nan
        return params

    monkeypatch.setattr(trainer, "init_model", poisoned)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNumericFailureAtTwoWorkers:
    @pytest.fixture(autouse=True)
    def two_workers_many_tiles(self, monkeypatch):
        monkeypatch.setattr(hie_model, "WORKERS", 2)
        monkeypatch.setattr(hie_model, "ROW_ALIGN", 1)
        monkeypatch.setattr(hie_model, "TILE_BYTES", 5 * 8 * 4)

    def test_train_raises_numeric_error(self, poisoned_init):
        kg = build_synth_kg(num_entities=20, seed=4)
        with pytest.raises(NumericError, match="step 1"):
            trainer.train(kg, "hie", HieConfig(dim=8), TRAIN)

    def test_cli_train_exits_numeric(self, poisoned_init, capsys, tmp_path):
        data = tmp_path / "data"
        write_synth_kg(data, build_synth_kg(num_entities=24, seed=0))
        code = cli.main(["train", "--data-dir", str(data), "--out", str(tmp_path / "out"),
                         "--dim", "8", "--steps", "5", "--batch-size", "16", "--negatives", "4"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NUMERIC
        assert captured.out == ""
        assert "numeric failure: non-finite loss at step 1" in captured.err


def test_cli_train_subprocess_exits_promptly(tmp_path):
    # the package's pool thread is alive when main returns; the process must still end
    data = tmp_path / "data"
    write_synth_kg(data, build_synth_kg(num_entities=24, seed=0))
    script = (
        "import sys, threading\n"
        "from hiekge import cli, hie_model\n"
        "hie_model.WORKERS, hie_model.ROW_ALIGN, hie_model.TILE_BYTES = 2, 1, 5 * 8 * 4\n"
        "code = cli.main(sys.argv[1:])\n"
        "print('threads', sorted(t.name.split('_')[0] for t in threading.enumerate()), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = str(Path(hiekge.__file__).resolve().parents[1])
    start = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-c", script, "train", "--data-dir", str(data), "--out", str(tmp_path / "out"),
         "--dim", "8", "--steps", "20", "--batch-size", "16", "--negatives", "4"],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src, "PATH": ""})
    assert result.returncode == 0, result.stderr
    assert "threads ['MainThread', 'hiekge-tiles']" in result.stderr
    assert (tmp_path / "out" / "model.ckpt").exists()
    assert time.monotonic() - start < 60
