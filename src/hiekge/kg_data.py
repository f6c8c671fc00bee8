r"""Benchmark triple ingestion, vocabularies, filter index and relation categories.

A triple file is UTF-8 text, one head<TAB>relation<TAB>tail line per
triple, read whole; a byte-order mark at its start is not part of the
first name. A line ends at "\n", "\r\n" or a lone "\r" and nowhere
else, so a name may hold any other character, "\x85", "\u2028", "\v",
"\f", spaces and a later "\ufeff" included. The last line needs no
terminator. Every line, a blank one too, must have exactly three
tab-separated fields, and none of them empty.

The filter index is six int64 arrays, three per direction: the sorted
distinct keys of the (head, rel) or (rel, tail) pairs, where each key's
group starts, and every group's distinct members in ascending order.
For the 93,003 triples of a WN18RR-sized graph that is 3.5 MB. A lookup
is one binary search over the keys.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import count, filterfalse, repeat
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Malformed triple file or inconsistent graph data."""


ONE_TO_ONE = "1-to-1"
ONE_TO_N = "1-to-N"
N_TO_ONE = "N-to-1"
N_TO_N = "N-to-N"
SPLIT_NAMES = ("train", "valid", "test")


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


def _first_rows(*columns):
    """True at each row of lexicographically sorted columns that differs from the row above."""
    first = np.zeros(len(columns[0]), dtype=bool)
    first[:1] = True
    for column in columns:
        first[1:] |= column[1:] != column[:-1]
    return first


@dataclass(frozen=True)
class _Groups:
    """Distinct int64 values grouped under sorted distinct int64 keys.

    The values under keys[i] are values[bounds[i]:bounds[i + 1]], ascending.
    """

    keys: np.ndarray
    bounds: np.ndarray
    values: np.ndarray

    @classmethod
    def of(cls, keys, values):
        """Group values by key, each (key, value) pair once."""
        order = np.lexsort((values, keys))
        keys, values = keys[order], values[order]
        distinct = _first_rows(keys, values)
        keys, values = keys[distinct], values[distinct]
        starts = np.flatnonzero(_first_rows(keys))
        return cls(keys=keys[starts], bounds=np.append(starts, len(keys)), values=values)

    def get(self, key):
        """The values under key as a frozenset of ints, empty if the key is absent."""
        i = int(np.searchsorted(self.keys, key))
        if i < len(self.keys) and self.keys[i] == key:
            return frozenset(self.values[self.bounds[i] : self.bounds[i + 1]].tolist())
        return frozenset()


@dataclass(frozen=True)
class FilterIndex:
    """All known-true completions over train+valid+test, for filtered ranking.

    Every entity id in the index is below entity_bound and every relation
    id below relation_bound. tails groups the true tails under the key
    head * relation_bound + rel, heads the true heads under
    rel * entity_bound + tail. The bounds are checked before a key is
    formed, so an out-of-range or negative id never aliases another pair.
    """

    entity_bound: int
    relation_bound: int
    tails: _Groups
    heads: _Groups

    def true_tails(self, head, rel):
        if 0 <= head < self.entity_bound and 0 <= rel < self.relation_bound:
            return self.tails.get(head * self.relation_bound + rel)
        return frozenset()

    def true_heads(self, rel, tail):
        if 0 <= rel < self.relation_bound and 0 <= tail < self.entity_bound:
            return self.heads.get(rel * self.entity_bound + tail)
        return frozenset()


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
        if name not in SPLIT_NAMES:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


def as_triple_array(triples) -> np.ndarray:
    """Normalize a triple list / (N,3) array to an int64 (N,3) array."""
    arr = np.asarray(triples, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected (N, 3) triples, got shape {arr.shape}")
    return arr


def _grow(vocab, names):
    """Give each name that vocab lacks the next free id, in first-seen order."""
    fresh = list(filterfalse(vocab.__contains__, dict.fromkeys(names)))
    vocab.update(zip(fresh, count(len(vocab))))


def load_triples(path, entity_vocab=None, relation_vocab=None):
    """Read one head<TAB>relation<TAB>tail triple per line.

    Unknown names are assigned dense ids in first-seen order (a line's
    head before its tail), growing the given vocabularies in place.
    Returns (triples, entity_vocab, relation_vocab) with triples as an
    int64 (N,3) array in file order. Exact duplicate triples within the
    file are dropped with a warning. A file that is not UTF-8 text raises
    DataError before any line is checked, and a line without exactly
    three tab-separated fields, or with an empty one, raises DataError
    naming the first such line; neither vocabulary grows then.
    """
    entity_vocab = {} if entity_vocab is None else entity_vocab
    relation_vocab = {} if relation_vocab is None else relation_vocab
    try:
        # newline=None turns "\r\n" and a lone "\r" into "\n", and nothing else;
        # "utf-8-sig" drops a byte-order mark at the start of the file only
        with open(path, encoding="utf-8-sig") as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if lines[-1] == "":
        lines.pop()  # what follows the last terminator, or an empty file
    # names hold no tab, so two lines are the same triple exactly when they are equal
    distinct = list(dict.fromkeys(lines))
    tabs = np.fromiter(map(str.count, distinct, repeat("\t")), np.int64, len(distinct))
    # joined by tabs, the lines split into their fields one after another
    fields = "\t".join(distinct).split("\t") if distinct else []
    if np.any(tabs != 2) or "" in fields:
        for lineno, line in enumerate(lines, start=1):  # the first bad line in file order
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
            if "" in parts:
                role = ("head", "relation", "tail")[parts.index("")]
                raise DataError(f"{path}:{lineno}: empty {role} name")
    heads, rels, tails = fields[0::3], fields[1::3], fields[2::3]
    entities = [None] * (2 * len(heads))
    entities[0::2], entities[1::2] = heads, tails
    _grow(entity_vocab, entities)
    _grow(relation_vocab, rels)
    triples = np.empty((len(distinct), 3), dtype=np.int64)
    for column, vocab, names in ((0, entity_vocab, heads), (1, relation_vocab, rels),
                                 (2, entity_vocab, tails)):
        triples[:, column] = np.fromiter(map(vocab.__getitem__, names), np.int64, len(names))
    if len(distinct) < len(lines):
        warnings.warn(f"{path}: dropped {len(lines) - len(distinct)} duplicate triple line(s)")
    return triples, entity_vocab, relation_vocab


def load_kg(data_dir) -> KnowledgeGraph:
    """Load train.txt/valid.txt/test.txt from a directory into one graph.

    Vocabularies are shared across splits (train first, then valid, then
    test), so entities seen only in valid/test still get ids.
    """
    data_dir = Path(data_dir)
    entity_vocab, relation_vocab = {}, {}
    splits = {}
    for name in SPLIT_NAMES:
        path = data_dir / f"{name}.txt"
        splits[name], entity_vocab, relation_vocab = load_triples(
            path, entity_vocab, relation_vocab
        )
    index = build_filter_index(splits["train"], splits["valid"], splits["test"])
    # ids are handed out in insertion order, so each vocabulary's keys are its names by id
    return KnowledgeGraph(
        entity_names=list(entity_vocab),
        relation_names=list(relation_vocab),
        train=splits["train"],
        valid=splits["valid"],
        test=splits["test"],
        filter_index=index,
    )


def build_filter_index(train, valid, test) -> FilterIndex:
    """Index every true triple of the three splits for filtered evaluation."""
    triples = np.concatenate([as_triple_array(split) for split in (train, valid, test)])
    if (triples < 0).any():
        raise ValueError("triple ids must be non-negative")
    heads, rels, tails = triples.T
    entity_bound = int(max(heads.max(initial=-1), tails.max(initial=-1))) + 1
    relation_bound = int(rels.max(initial=-1)) + 1
    return FilterIndex(
        entity_bound=entity_bound,
        relation_bound=relation_bound,
        tails=_Groups.of(heads * relation_bound + rels, tails),
        heads=_Groups.of(rels * entity_bound + tails, heads),
    )


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
    side for tcs). The map is keyed by relation id in ascending order;
    relations absent from train are absent from it. ValueError unless
    eta is a finite number > 0.
    """
    if not 0 < eta < np.inf:  # NaN fails too
        raise ValueError(f"eta must be a finite number > 0, got {eta}")
    train = as_triple_array(train)
    if len(train) == 0:
        raise DataError("cannot classify relations of an empty train split")
    heads, rels, tails = train.T
    rel_ids, triple_counts = np.unique(rels, return_counts=True)
    head_counts = np.diff(_Groups.of(rels, heads).bounds)
    tail_counts = np.diff(_Groups.of(rels, tails).bounds)
    categories = {}
    for r, n, n_heads, n_tails in zip(rel_ids.tolist(), triple_counts.tolist(),
                                      head_counts.tolist(), tail_counts.tolist()):
        hco = n / n_tails
        tcs = n / n_heads
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
