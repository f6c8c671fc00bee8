"""Per-layer instrumentation of hiekge, applied from outside the package.

`instrument` swaps selected module functions for wrappers that open a span
around each call and record counts after it returns, and restores the
originals on exit. Callers inside hiekge look these functions up as module
attributes at call time (``kg_data.sample_batch``, ``hie_model.score_batch``,
``trainer.coalesce`` ...), so the wrappers see every call the public entry
points make. Nothing in the package is edited.

`layer_metrics` turns the recorded spans into the per-layer metrics listed
in PER_LAYER. Every time is a self time (duration minus child spans) per
call; every count is a mean per call unless its name says otherwise. A
layer the workload never calls reports 0.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from hiekge import baselines, checkpoint, evaluator, hie_model, kg_data, trainer
from spans import Tracer, self_times

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "kg_data.load_kg_s": "s",
    "kg_data.build_filter_index_s": "s",
    "kg_data.sample_batch_ms": "ms",
    "kg_data.filter_lookup_ms": "ms",
    "kg_data.filter_set_size_mean": "count",
    "trainer.sample_negatives_batch_ms": "ms",
    "trainer.adversarial_weights_ms": "ms",
    "trainer.loss_ms": "ms",
    "trainer.merge_grad_sets_ms": "ms",
    "trainer.backprop_ms": "ms",
    "trainer.coalesce_ms": "ms",
    "trainer.coalesce.rows_in": "count",
    "trainer.coalesce.rows_out": "count",
    "trainer.adam_step_ms": "ms",
    "trainer.adam_step.rows": "count",
    "trainer.neg_unique_entity_ratio": "ratio",
    "hie_model.score_triples.pos_ms": "ms",
    "hie_model.score_triples.neg_ms": "ms",
    "hie_model.score_triples.rows": "count",
    "hie_model.score_batch.head_ms": "ms",
    "hie_model.score_batch.tail_ms": "ms",
    "hie_model.score_batch.cells": "count",
    "hie_model.score_batch.bytes_computed": "bytes",
    "baselines.score_triples_ms": "ms",
    "baselines.score_batch_ms": "ms",
    "evaluator.rank_triple_ms": "ms",
    "evaluator.rank_triple.calls": "count",
    "evaluator.evaluate_self_ms": "ms",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def _rows_in_out(span, args, kwargs, result):
    span.attrs["rows_in"] = len(args[0])
    span.attrs["rows_out"] = len(result.ids)


def _adam_rows(span, args, kwargs, result):
    grads = args[1]
    span.attrs["rows"] = len(grads.ent.ids) + len(grads.rel.ids)


def _score_rows(span, args, kwargs, result):
    span.attrs["rows"] = len(result[0])


def _score_batch_cells(span, args, kwargs, result):
    config = args[1]
    span.attrs["side"] = args[4]
    span.attrs["cells"] = int(result.size)
    # one (B, C, half) float64 residual per active level and space: the
    # broadcast temporaries sized from shapes, not measured
    terms = sum(sum(hie_model.active_spaces(config, lv)) for lv in range(1, config.levels + 1))
    span.attrs["bytes_computed"] = terms * int(result.size) * config.half * 8


def _filter_size(span, args, kwargs, result):
    span.attrs["set_size"] = len(result)


def _negative_entities(span, args, kwargs, result):
    # kept by reference and reduced after the run, outside every timed span
    span.attrs["_blocks"] = (args[0], result)


def _checkpoint_bytes(span, args, kwargs, result):
    path = args[2]
    span.attrs["bytes"] = os.path.getsize(path) + os.path.getsize(checkpoint.sidecar_path(path))


# (owner, attribute, span name, observer run after the call returns)
WRAPPED = (
    (kg_data, "load_kg", "kg_data.load_kg", None),
    (kg_data, "build_filter_index", "kg_data.build_filter_index", None),
    (kg_data, "sample_batch", "kg_data.sample_batch", None),
    (kg_data.FilterIndex, "true_tails", "kg_data.filter_lookup", _filter_size),
    (kg_data.FilterIndex, "true_heads", "kg_data.filter_lookup", _filter_size),
    (trainer, "train", "trainer.train", None),
    (trainer, "sample_negatives_batch", "trainer.sample_negatives_batch", _negative_entities),
    (trainer, "gradients", "trainer.gradients", None),
    (trainer, "adversarial_weights", "trainer.adversarial_weights", None),
    (trainer, "loss", "trainer.loss", None),
    (trainer, "backprop", "trainer.backprop", None),
    (trainer, "coalesce", "trainer.coalesce", _rows_in_out),
    (trainer, "merge_grad_sets", "trainer.merge_grad_sets", None),
    (trainer, "adam_step", "trainer.adam_step", _adam_rows),
    (hie_model, "score_triples", "hie_model.score_triples", _score_rows),
    (hie_model, "score_batch", "hie_model.score_batch", _score_batch_cells),
    (baselines, "score_triples", "baselines.score_triples", None),
    (baselines, "score_batch", "baselines.score_batch", None),
    (evaluator, "evaluate", "evaluator.evaluate", None),
    (evaluator, "rank_triple", "evaluator.rank_triple", None),
    (checkpoint, "save_checkpoint", "checkpoint.save", _checkpoint_bytes),
    (checkpoint, "load_checkpoint", "checkpoint.load", None),
)


def _wrap(tracer: Tracer, fn, name, observe):
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe is not None:
            observe(tracer.spans[idx], args, kwargs, result)
        return result

    return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route the WRAPPED functions through `tracer` for the duration of the block."""
    originals = []
    try:
        for owner, attr, name, observe in WRAPPED:
            fn = owner.__dict__[attr]
            originals.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, observe))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def layer_metrics(spans, jobs: int, overhead_frac: float) -> dict:
    """Every PER_LAYER metric from the spans of a traced run of `jobs` jobs."""
    selfs = self_times(spans)
    calls, self_sum, attr_sum = {}, {}, {}

    def add(key, seconds, span):
        calls[key] = calls.get(key, 0) + 1
        self_sum[key] = self_sum.get(key, 0.0) + seconds
        for k, v in span.attrs.items():
            if not k.startswith("_") and not isinstance(v, str):
                attr_sum[(key, k)] = attr_sum.get((key, k), 0) + v

    seen_under = {}
    ratios = []
    for i, s in enumerate(spans):
        key = s.name
        if key == "hie_model.score_triples" and s.parent >= 0:
            # gradients scores the positive block first, then the negatives
            order = seen_under.get(s.parent, 0)
            seen_under[s.parent] = order + 1
            key += (".pos", ".neg")[min(order, 1)]
        elif key == "hie_model.score_batch":
            key += "." + s.attrs["side"]
        add(key, selfs[i], s)
        if "_blocks" in s.attrs:
            batch, negatives = s.attrs.pop("_blocks")
            ids = np.concatenate([batch[:, [0, 2]].ravel(), negatives[..., [0, 2]].ravel()])
            ratios.append(np.unique(ids).size / ids.size)

    def per_call(key, scale=1.0):
        return scale * self_sum[key] / calls[key] if calls.get(key) else 0.0

    def mean_attr(keys, attr):
        n = sum(calls.get(k, 0) for k in keys)
        total = sum(attr_sum.get((k, attr), 0) for k in keys)
        return total / n if n else 0.0

    score_keys = ("hie_model.score_triples.pos", "hie_model.score_triples.neg")
    out = {
        "kg_data.load_kg_s": per_call("kg_data.load_kg"),
        "kg_data.build_filter_index_s": per_call("kg_data.build_filter_index"),
        "kg_data.sample_batch_ms": per_call("kg_data.sample_batch", 1e3),
        "kg_data.filter_lookup_ms": per_call("kg_data.filter_lookup", 1e3),
        "kg_data.filter_set_size_mean": mean_attr(["kg_data.filter_lookup"], "set_size"),
        "trainer.sample_negatives_batch_ms": per_call("trainer.sample_negatives_batch", 1e3),
        "trainer.adversarial_weights_ms": per_call("trainer.adversarial_weights", 1e3),
        "trainer.loss_ms": per_call("trainer.loss", 1e3),
        "trainer.merge_grad_sets_ms": per_call("trainer.merge_grad_sets", 1e3),
        "trainer.backprop_ms": per_call("trainer.backprop", 1e3),
        "trainer.coalesce_ms": per_call("trainer.coalesce", 1e3),
        "trainer.coalesce.rows_in": mean_attr(["trainer.coalesce"], "rows_in"),
        "trainer.coalesce.rows_out": mean_attr(["trainer.coalesce"], "rows_out"),
        "trainer.adam_step_ms": per_call("trainer.adam_step", 1e3),
        "trainer.adam_step.rows": mean_attr(["trainer.adam_step"], "rows"),
        "trainer.neg_unique_entity_ratio": float(np.mean(ratios)) if ratios else 0.0,
        "hie_model.score_triples.pos_ms": per_call(score_keys[0], 1e3),
        "hie_model.score_triples.neg_ms": per_call(score_keys[1], 1e3),
        "hie_model.score_triples.rows": mean_attr(score_keys, "rows"),
        "hie_model.score_batch.head_ms": per_call("hie_model.score_batch.head", 1e3),
        "hie_model.score_batch.tail_ms": per_call("hie_model.score_batch.tail", 1e3),
        "hie_model.score_batch.cells": mean_attr(
            ["hie_model.score_batch.head", "hie_model.score_batch.tail"], "cells"),
        "hie_model.score_batch.bytes_computed": mean_attr(
            ["hie_model.score_batch.head", "hie_model.score_batch.tail"], "bytes_computed"),
        "baselines.score_triples_ms": per_call("baselines.score_triples", 1e3),
        "baselines.score_batch_ms": per_call("baselines.score_batch", 1e3),
        "evaluator.rank_triple_ms": per_call("evaluator.rank_triple", 1e3),
        "evaluator.rank_triple.calls": calls.get("evaluator.rank_triple", 0) / jobs,
        "evaluator.evaluate_self_ms": per_call("evaluator.evaluate", 1e3),
        "checkpoint.save_ms": per_call("checkpoint.save", 1e3),
        "checkpoint.load_ms": per_call("checkpoint.load", 1e3),
        "checkpoint.bytes": mean_attr(["checkpoint.save"], "bytes"),
        "trace.overhead_frac": overhead_frac,
    }
    assert list(out) == list(PER_LAYER)
    return out
