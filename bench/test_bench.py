"""Tests of the benchmark's own machinery: python -m pytest bench/"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import graphs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hiekge import kg_data, trainer  # noqa: E402
from hiekge.hie_model import HieConfig  # noqa: E402
from spans import Span, Tracer, covered, self_times, tail_percentile  # noqa: E402


def _file_bytes(data_dir):
    return {name: (data_dir / f"{name}.txt").read_bytes() for name in graphs.SPLITS}


@pytest.mark.parametrize("make", [graphs.synth100, graphs.wn18rr_like])
def test_generator_is_deterministic_per_seed(make, tmp_path):
    make(7).write(tmp_path / "a")
    make(7).write(tmp_path / "b")
    make(8).write(tmp_path / "c")
    assert _file_bytes(tmp_path / "a") == _file_bytes(tmp_path / "b")
    assert _file_bytes(tmp_path / "a") != _file_bytes(tmp_path / "c")


def test_wn18rr_like_files_load_with_the_promised_shape(tmp_path):
    graphs.wn18rr_like(3).write(tmp_path)
    kg = kg_data.load_kg(tmp_path)
    assert kg.num_entities == graphs.WN18RR_ENTITIES
    assert kg.num_relations == len(graphs.WN18RR_RELATIONS)
    assert [len(kg.split(n)) for n in graphs.SPLITS] == [graphs.WN18RR_SIZES[n] for n in graphs.SPLITS]
    train_entities = set(kg.train[:, [0, 2]].ravel().tolist())
    held = np.concatenate([kg.valid, kg.test])
    assert set(held[:, [0, 2]].ravel().tolist()) <= train_entities


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(np.random.default_rng(0).permutation(np.arange(1, 101)))
    pct, value = tail_percentile(samples)
    assert (pct, value) == (90.0, 90)
    assert sum(s > value for s in samples) == 10
    assert tail_percentile(range(10)) is None
    assert tail_percentile(range(11)) == (100.0 / 11, 0)


def test_self_time_subtracts_nested_and_sibling_children():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("a.child", 1.5, 2.5, parent=1),
        Span("b", 2.0, 5.0, parent=0),  # overlaps sibling a: counted once
        Span("c", 7.0, 8.0, parent=0),
        Span("late", 9.5, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.0 - 1.0 - 0.5, 1.0, 1.0, 3.0, 1.0, 2.5])
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_tracer_links_parents_and_self_times_sum_to_the_root():
    tracer = Tracer()
    root = tracer.open("root")
    a = tracer.open("a")
    tracer.close(tracer.open("a.inner"))
    tracer.close(a)
    tracer.close(tracer.open("b"))
    tracer.close(root)
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(root.end - root.start)


def test_instrumented_training_matches_plain_and_is_undone(tmp_path):
    graphs.synth100(0).write(tmp_path)
    kg = kg_data.load_kg(tmp_path)
    config = HieConfig(dim=8, levels=2, lambdas=(0.5, 0.5))
    train_config = trainer.TrainConfig(num_negatives=4, batch_size=16, steps=3, seed=1)
    originals = {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in layers.WRAPPED}
    _, plain = trainer.train(kg, "hie", config, train_config)
    tracer = Tracer()
    with layers.instrument(tracer):
        _, traced = trainer.train(kg, "hie", config, train_config)
    assert repr(traced) == repr(plain)
    assert {(owner, attr): owner.__dict__[attr] for owner, attr, _, _ in layers.WRAPPED} == originals
    metrics = layers.layer_metrics(tracer.spans, jobs=1, overhead_frac=0.0)
    assert list(metrics) == list(layers.PER_LAYER)
    assert metrics["hie_model.score_triples.rows"] == (16 + 16 * 4) / 2
    assert metrics["trainer.adam_step_ms"] > 0.0


def test_canary_reaches_the_hits10_floor(tmp_path):
    canary = workloads.run_canary(1, tmp_path)
    assert canary.problems == [] and canary.failed == 0
    assert (canary.ranks <= 10).mean() >= workloads.HITS10_FLOOR


def test_benchmark_json_names_what_the_code_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.PER_LAYER
