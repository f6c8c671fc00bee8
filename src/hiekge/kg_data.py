"""Benchmark triple ingestion, vocabularies, filter index and relation categories."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Malformed triple file or inconsistent graph data."""


ONE_TO_ONE = "1-to-1"
ONE_TO_N = "1-to-N"
N_TO_ONE = "N-to-1"
N_TO_N = "N-to-N"


@dataclass(frozen=True)
class RelationCategory:
    """Cardinality bucket of one relation.

    hco is the average number of heads per distinct tail, tcs the average
    number of tails per distinct head; a side counts as "N" when its
    statistic reaches the threshold eta.
    """

    category: str
    hco: float
    tcs: float


@dataclass
class FilterIndex:
    """All known-true completions, for filtered ranking.

    tails_of maps (head, rel) to the set of true tails, heads_of maps
    (rel, tail) to the set of true heads, over train+valid+test.
    """

    tails_of: dict
    heads_of: dict

    def true_tails(self, head, rel):
        return self.tails_of.get((head, rel), frozenset())

    def true_heads(self, rel, tail):
        return self.heads_of.get((rel, tail), frozenset())


@dataclass
class KnowledgeGraph:
    entity_names: list
    relation_names: list
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray
    filter_index: FilterIndex

    @property
    def num_entities(self):
        return len(self.entity_names)

    @property
    def num_relations(self):
        return len(self.relation_names)

    def split(self, name):
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise ValueError(f"unknown split {name!r}") from None


def as_triple_array(triples) -> np.ndarray:
    """Normalize a triple list / (N,3) array to an int64 (N,3) array."""
    arr = np.asarray(triples, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected (N, 3) triples, got shape {arr.shape}")
    return arr


def load_triples(path, entity_vocab=None, relation_vocab=None):
    """Read one head<TAB>relation<TAB>tail triple per line.

    Unknown names are assigned dense ids in first-seen order, growing the
    given vocabularies in place. Returns (triples, entity_vocab,
    relation_vocab) with triples as an int64 (N,3) array in file order.
    Exact duplicate triples within the file are dropped with a warning;
    a line without exactly three tab-separated fields, or a file that is
    not UTF-8 text, raises DataError.
    """
    entity_vocab = {} if entity_vocab is None else entity_vocab
    relation_vocab = {} if relation_vocab is None else relation_vocab
    triples = []
    seen = set()
    dupes = 0
    try:
        with open(path, encoding="utf-8", newline="") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.rstrip("\r\n")
                fields = line.split("\t")
                if len(fields) != 3:
                    raise DataError(
                        f"{path}:{lineno}: expected 3 tab-separated fields, got {len(fields)}"
                    )
                h_name, r_name, t_name = fields
                h = entity_vocab.setdefault(h_name, len(entity_vocab))
                r = relation_vocab.setdefault(r_name, len(relation_vocab))
                t = entity_vocab.setdefault(t_name, len(entity_vocab))
                if (h, r, t) in seen:
                    dupes += 1
                    continue
                seen.add((h, r, t))
                triples.append((h, r, t))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if dupes:
        warnings.warn(f"{path}: dropped {dupes} duplicate triple line(s)")
    return as_triple_array(triples), entity_vocab, relation_vocab


def load_kg(data_dir) -> KnowledgeGraph:
    """Load train.txt/valid.txt/test.txt from a directory into one graph.

    Vocabularies are shared across splits (train first, then valid, then
    test), so entities seen only in valid/test still get ids.
    """
    data_dir = Path(data_dir)
    entity_vocab, relation_vocab = {}, {}
    splits = {}
    for name in ("train", "valid", "test"):
        path = data_dir / f"{name}.txt"
        splits[name], entity_vocab, relation_vocab = load_triples(
            path, entity_vocab, relation_vocab
        )
    entity_names = [None] * len(entity_vocab)
    for name, idx in entity_vocab.items():
        entity_names[idx] = name
    relation_names = [None] * len(relation_vocab)
    for name, idx in relation_vocab.items():
        relation_names[idx] = name
    index = build_filter_index(splits["train"], splits["valid"], splits["test"])
    return KnowledgeGraph(
        entity_names=entity_names,
        relation_names=relation_names,
        train=splits["train"],
        valid=splits["valid"],
        test=splits["test"],
        filter_index=index,
    )


def build_filter_index(train, valid, test) -> FilterIndex:
    """Index every true triple of the three splits for filtered evaluation."""
    tails_of = {}
    heads_of = {}
    for split in (train, valid, test):
        for h, r, t in as_triple_array(split):
            tails_of.setdefault((int(h), int(r)), set()).add(int(t))
            heads_of.setdefault((int(r), int(t)), set()).add(int(h))
    return FilterIndex(tails_of=tails_of, heads_of=heads_of)


def dataset_stats(kg: KnowledgeGraph) -> dict:
    return {
        "entities": kg.num_entities,
        "relations": kg.num_relations,
        "train": len(kg.train),
        "valid": len(kg.valid),
        "test": len(kg.test),
    }


def classify_relations(train, eta: float = 1.5) -> dict:
    """Bucket every relation of the train split into 1-1 / 1-N / N-1 / N-N.

    hco_r = (#train triples with r) / (#distinct tails under r) and
    tcs_r = (#train triples with r) / (#distinct heads under r); a side
    whose statistic is >= eta counts as "N" (heads side for hco, tails
    side for tcs). Relations absent from train are absent from the map.
    """
    if not 0 < eta < np.inf:  # NaN fails too
        raise ValueError(f"eta must be a finite positive number, got {eta}")
    train = as_triple_array(train)
    if len(train) == 0:
        raise DataError("cannot classify relations of an empty train split")
    counts, heads, tails = {}, {}, {}
    for h, r, t in train:
        r = int(r)
        counts[r] = counts.get(r, 0) + 1
        heads.setdefault(r, set()).add(int(h))
        tails.setdefault(r, set()).add(int(t))
    categories = {}
    for r, n in counts.items():
        hco = n / len(tails[r])
        tcs = n / len(heads[r])
        if hco < eta and tcs < eta:
            cat = ONE_TO_ONE
        elif hco < eta:
            cat = ONE_TO_N
        elif tcs < eta:
            cat = N_TO_ONE
        else:
            cat = N_TO_N
        categories[r] = RelationCategory(category=cat, hco=hco, tcs=tcs)
    return categories


def sample_batch(train, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform with-replacement minibatch of training triples."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    train = as_triple_array(train)
    if len(train) == 0:
        raise DataError("cannot sample from an empty train split")
    idx = rng.integers(0, len(train), size=batch_size)
    return train[idx]


def write_dictionary(path, names) -> None:
    """Dump an id<TAB>name line per vocabulary entry."""
    with open(path, "w", encoding="utf-8") as f:
        for idx, name in enumerate(names):
            f.write(f"{idx}\t{name}\n")
