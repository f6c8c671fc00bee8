"""Filtered link-prediction ranking and MR/MRR/Hits@k aggregation."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import kernels, kg_data
from .trainer import MODELS, NumericError

TIE_PESSIMISTIC = "pessimistic"
TIE_STRICT = "strict"
TIE_BREAKS = (TIE_PESSIMISTIC, TIE_STRICT)
# test triples per score_batch call of evaluate: one row block of the ranking kernel
TRIPLE_CHUNK = kernels.SLAB_ROWS


@dataclass(frozen=True)
class RankResult:
    """Filtered ranks of one test triple under both corruption directions."""

    triple: tuple
    head_rank: int
    tail_rank: int


@dataclass(frozen=True)
class MetricsReport:
    mr: float
    mrr: float
    hits1: float
    hits3: float
    hits10: float
    count: int
    per_relation: Optional[dict] = None
    per_category: Optional[dict] = None


# the six scalar fields of a bundle, in report and CSV column order
METRIC_FIELDS = tuple(f.name for f in fields(MetricsReport) if not f.name.startswith("per_"))


def rank_triple(score_row, true_entity, filter_set, tie_break=TIE_PESSIMISTIC) -> int:
    """Rank of the true entity within one row of candidate scores, lower = better.

    Candidates in filter_set are excluded (the true entity itself never
    is). Pessimistic ties count equal-scoring candidates against the true
    entity; strict counts only strictly better ones. A non-finite score
    anywhere in the row raises NumericError: it has no rank.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}")
    row = np.asarray(score_row, dtype=np.float64)
    if not np.all(np.isfinite(row)):
        bad = np.count_nonzero(~np.isfinite(row))
        raise NumericError(f"{bad} non-finite score(s) in a ranking row")
    true_score = row[true_entity]
    excluded = np.fromiter((c for c in filter_set if c != true_entity), dtype=np.int64)
    if tie_break == TIE_PESSIMISTIC:
        better = np.count_nonzero(row <= true_score) - 1  # drop the true entity itself
        if len(excluded):
            better -= int(np.count_nonzero(row[excluded] <= true_score))
    else:
        better = np.count_nonzero(row < true_score)
        if len(excluded):
            better -= int(np.count_nonzero(row[excluded] < true_score))
    return 1 + int(better)


def evaluate(params, config, kg, split="test", tie_break=TIE_PESSIMISTIC, filtered=True):
    """Both-direction ranks for every triple of the split.

    Scores all |E| candidates per direction with score_batch, TRIPLE_CHUNK
    triples per call, excluding known-true completions from
    train+valid+test when filtered. Each direction's candidate table
    (`candidate_table`) is built once and shared by all of that
    direction's calls; score_batch sizes its candidate slabs.
    """
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie_break {tie_break!r}")
    triples = kg.split(split) if isinstance(split, str) else np.asarray(split, dtype=np.int64)
    if len(triples) == 0:
        raise ValueError("cannot evaluate an empty split")
    model = MODELS[config.kind]
    candidates = np.arange(params.num_entities, dtype=np.int64)
    index = kg.filter_index
    ranks = {}
    for side in ("tail", "head"):
        table = model.candidate_table(params, config, candidates, side)
        ranks[side] = []
        for start in range(0, len(triples), TRIPLE_CHUNK):
            chunk = triples[start : start + TRIPLE_CHUNK]
            scores = model.score_batch(params, config, chunk, candidates, side, table=table)
            for row, (h, r, t) in zip(scores, chunk.tolist()):
                if side == "tail":
                    true, known = t, index.true_tails(h, r) if filtered else frozenset()
                else:
                    true, known = h, index.true_heads(r, t) if filtered else frozenset()
                ranks[side].append(rank_triple(row, true, known, tie_break))
        del table  # free this side's table before the next one is built
    return [
        RankResult(triple=tuple(triple), head_rank=head, tail_rank=tail)
        for triple, head, tail in zip(triples.tolist(), ranks["head"], ranks["tail"])
    ]


def aggregate_metrics(results) -> MetricsReport:
    """MR, MRR and Hits@k over both ranks of every result (2G terms)."""
    if not results:
        raise ValueError("cannot aggregate an empty result list")
    ranks = np.array([x for res in results for x in (res.head_rank, res.tail_rank)], dtype=np.float64)
    return MetricsReport(
        mr=float(np.mean(ranks)),
        mrr=float(np.mean(1.0 / ranks)),
        hits1=float(np.mean(ranks <= 1)),
        hits3=float(np.mean(ranks <= 3)),
        hits10=float(np.mean(ranks <= 10)),
        count=len(results),
    )


def full_report(results, categories=None) -> MetricsReport:
    """Global bundle, with per-relation and per-category bundles when categories are given.

    per_relation is keyed by relation id, ascending; per_category by
    category name, sorted, each category's results in ascending relation
    order. DataError at the lowest relation id that categories lacks: a
    relation of the ranked split that never appears in train has none.
    """
    top = aggregate_metrics(results)
    if categories is None:
        return top
    by_rel, by_cat = {}, {}
    for res in results:
        by_rel.setdefault(res.triple[1], []).append(res)
    by_rel = dict(sorted(by_rel.items()))
    for rel_id, group in by_rel.items():
        if rel_id not in categories:
            raise kg_data.DataError(f"no category known for relation {rel_id}")
        by_cat.setdefault(categories[rel_id].category, []).extend(group)
    return replace(top, per_relation={rel_id: aggregate_metrics(group) for rel_id, group in by_rel.items()},
                   per_category={name: aggregate_metrics(group) for name, group in sorted(by_cat.items())})


def _bundle_dict(report: MetricsReport) -> dict:
    return {name: getattr(report, name) for name in METRIC_FIELDS}


def report_to_dict(report: MetricsReport, conventions=None) -> dict:
    """JSON-ready document; nested bundles keyed by relation id / category name."""
    doc = _bundle_dict(report)
    for name in ("per_relation", "per_category"):
        nested = getattr(report, name)
        doc[name] = None if nested is None else {str(key): _bundle_dict(b) for key, b in nested.items()}
    if conventions is not None:
        doc["conventions"] = dict(conventions)
    return doc


CSV_HEADER = ",".join(METRIC_FIELDS)


def report_csv_row(report: MetricsReport) -> str:
    return ",".join(
        str(report.count) if name == "count" else f"{getattr(report, name):.6f}"
        for name in METRIC_FIELDS
    )
