"""Seeded synthetic knowledge graphs for the benchmark, written as triple files.

Two shapes:

- ``synth100``: the 100-entity ring/inverse/group/pair graph of the test
  suite (``tests/synthkg.py``), rebuilt here so the benchmark does not
  import test code. Unlike the tests' split, this one never holds out both
  directions of a ring edge or pair, so every held-out triple is inferable
  from train for every seed, and a working trainer ranks them well.
- ``wn18rr``: a graph with the split sizes, relation count and relation
  skew of WN18RR (40,943 entities, 11 relations, 86,835/3,034/3,134
  triples) and heavy-tailed entity popularity. It has no duplicate triples
  and no self-loops, and every entity occurs in train, so every valid/test
  entity is known at training time.

Generation is not timed. The same seed gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPLITS = ("train", "valid", "test")

# WN18RR train-split relation sizes; the largest is 40% of the split.
WN18RR_RELATIONS = {
    "_hypernym": 34796,
    "_derivationally_related_form": 29715,
    "_member_meronym": 7402,
    "_has_part": 4816,
    "_synset_domain_topic_of": 3116,
    "_instance_hypernym": 2921,
    "_also_see": 1299,
    "_verb_group": 1138,
    "_member_of_domain_region": 923,
    "_member_of_domain_usage": 629,
    "_similar_to": 80,
}
WN18RR_ENTITIES = 40943
WN18RR_SIZES = {"train": 86835, "valid": 3034, "test": 3134}
# Zipf exponent of entity popularity: the most popular entity gets ~0.6% of
# the entity slots, the median entity ~3 (cf. WN18RR's hub synsets).
POPULARITY_EXPONENT = 0.6


@dataclass
class Graph:
    """Integer triples per split plus the names written to the files."""

    entity_names: list
    relation_names: list
    splits: dict

    def write(self, data_dir) -> None:
        """Write train/valid/test.txt, one head<TAB>relation<TAB>tail line per triple."""
        data_dir = Path(data_dir)
        data_dir.mkdir(parents=True, exist_ok=True)
        ent, rel = self.entity_names, self.relation_names
        for name in SPLITS:
            lines = [f"{ent[h]}\t{rel[r]}\t{ent[t]}\n" for h, r, t in self.splits[name].tolist()]
            (data_dir / f"{name}.txt").write_text("".join(lines), encoding="utf-8")


def synth100(seed: int, num_entities: int = 100, holdout_frac: float = 0.1) -> Graph:
    """The test suite's synthetic graph with its held-out split drawn from seed."""
    triples = []
    for i in range(num_entities):
        triples.append((i, 0, (i + 1) % num_entities))
        triples.append(((i + 1) % num_entities, 1, i))
        triples.append((i, 2, 4 * (i // 4)))
        triples.append((i, 3, i ^ 1))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(triples))
    n_hold = int(round(holdout_frac * len(triples)))
    held = [triples[i] for i in order[:n_hold]]
    train = [triples[i] for i in order[n_hold:]]
    # a held-out triple goes back to train when it mentions an entity unseen
    # in train, or when its inverse (next/prev) or mirror (pair) is already
    # held out: an edge unobserved in both directions cannot be inferred
    partner_rel = {0: 1, 1: 0, 3: 3}
    seen = {e for h, _, t in train for e in (h, t)}
    kept = []
    for h, r, t in held:
        if h not in seen or t not in seen or (t, partner_rel.get(r), h) in kept:
            train.append((h, r, t))
            seen.update((h, t))
        else:
            kept.append((h, r, t))
    splits = {
        "train": np.array(train, dtype=np.int64),
        "valid": np.array(kept[: len(kept) // 2], dtype=np.int64),
        "test": np.array(kept[len(kept) // 2 :], dtype=np.int64),
    }
    names = [f"e{i}" for i in range(num_entities)]
    return Graph(names, ["next", "prev", "group", "pair"], splits)


def _relation_counts(total: int) -> np.ndarray:
    """Split total across the WN18RR relations in their train proportions."""
    sizes = np.array(list(WN18RR_RELATIONS.values()), dtype=np.float64)
    exact = sizes / sizes.sum() * total
    counts = np.floor(exact).astype(np.int64)
    short = total - int(counts.sum())
    counts[np.argsort(-(exact - counts), kind="stable")[:short]] += 1
    return counts


def _keys(triples: np.ndarray) -> np.ndarray:
    h, r, t = triples[:, 0], triples[:, 1], triples[:, 2]
    return (h * len(WN18RR_RELATIONS) + r) * WN18RR_ENTITIES + t


def _fix_collisions(triples, popularity, rng, taken=None):
    """Redraw tails until no triple repeats, loops, or hits a key in `taken`.

    Heads are never redrawn: the train heads include one occurrence of
    every entity, which is what makes every entity known to training.
    """
    taken = np.empty(0, dtype=np.int64) if taken is None else taken
    for _ in range(100):
        keys = _keys(triples)
        _, first = np.unique(keys, return_index=True)
        bad = np.ones(len(triples), dtype=bool)
        bad[first] = False
        bad |= triples[:, 0] == triples[:, 2]
        bad |= np.isin(keys, taken)
        if not bad.any():
            return triples
        triples[bad, 2] = rng.choice(WN18RR_ENTITIES, size=int(bad.sum()), p=popularity)
    raise RuntimeError("could not draw a duplicate-free graph")


def wn18rr_like(seed: int) -> Graph:
    """WN18RR-shaped graph; asserts the counts and properties it promises."""
    rng = np.random.default_rng(seed)
    n_ent = WN18RR_ENTITIES
    ranks = rng.permutation(n_ent) + 1.0
    popularity = ranks**-POPULARITY_EXPONENT
    popularity /= popularity.sum()

    def draw(n):
        return rng.choice(n_ent, size=n, p=popularity)

    n_train = WN18RR_SIZES["train"]
    train = np.empty((n_train, 3), dtype=np.int64)
    # the first n_ent rows give every entity one head occurrence in train
    train[:n_ent, 0] = rng.permutation(n_ent)
    train[n_ent:, 0] = draw(n_train - n_ent)
    train[:, 2] = draw(n_train)
    train[:, 1] = rng.permutation(np.repeat(np.arange(len(WN18RR_RELATIONS)), _relation_counts(n_train)))
    train = _fix_collisions(train, popularity, rng)
    train = train[rng.permutation(n_train)]

    taken = _keys(train)
    held = {}
    for name in ("valid", "test"):
        n = WN18RR_SIZES[name]
        block = np.empty((n, 3), dtype=np.int64)
        block[:, 0] = draw(n)
        block[:, 2] = draw(n)
        block[:, 1] = rng.permutation(np.repeat(np.arange(len(WN18RR_RELATIONS)), _relation_counts(n)))
        held[name] = _fix_collisions(block, popularity, rng, taken)
        taken = np.concatenate([taken, _keys(held[name])])

    splits = {"train": train, **held}
    _check_wn18rr(splits)
    # eight-digit synset-style names, assigned independently of popularity
    codes = rng.choice(10**8, size=n_ent, replace=False)
    names = [f"{c:08d}" for c in codes.tolist()]
    return Graph(names, list(WN18RR_RELATIONS), splits)


def _check_wn18rr(splits) -> None:
    for name in SPLITS:
        if len(splits[name]) != WN18RR_SIZES[name]:
            raise AssertionError(f"{name}: {len(splits[name])} triples")
    every = np.concatenate([splits[n] for n in SPLITS])
    if len(np.unique(_keys(every))) != len(every):
        raise AssertionError("duplicate triples")
    if np.any(every[:, 0] == every[:, 2]):
        raise AssertionError("self-loop")
    train = splits["train"]
    in_train = np.unique(train[:, [0, 2]])
    if len(in_train) != WN18RR_ENTITIES:
        raise AssertionError(f"{len(in_train)} entities occur in train")
    if np.unique(train[:, 1]).size != len(WN18RR_RELATIONS):
        raise AssertionError("a relation is missing from train")
    largest = np.bincount(train[:, 1]).max() / len(train)
    if not 0.35 <= largest <= 0.45:
        raise AssertionError(f"largest relation holds {largest:.2f} of train")
    degree = np.bincount(every[:, [0, 2]].ravel(), minlength=WN18RR_ENTITIES)
    if degree.max() < 100 * np.median(degree):
        raise AssertionError(f"popularity not heavy-tailed: max {degree.max()}, median {np.median(degree)}")
