"""Machinery every model shares: the params protocol, the worker pool, the tiling rules, the
ranking kernel, row helpers and the check of config fields.

Params: each model's parameters are a dataclass of tensors and nothing
else; what the tensors mean (levels, transform, a baseline's kind) is
its config. `Params` gives every one the vocabulary sizes and
`field_items`, the tensors in declaration order, which is the order of
checkpoints and of Adam's moments.

Training tiles: the models' forward and backward walk their rows in tiles
of `tile_rows(width)` rows, small enough for a core's L2 cache
(TILE_BYTES per (rows, width) float64 block). Tiles are whole multiples
of ROW_ALIGN rows: OpenBLAS can give a row of a matrix product other bits
when the product is split at a row that is not a multiple of 512, so only
aligned blocks reproduce one call over all rows.

The pool: `map_tiles` runs the tiles of one call on WORKERS threads, the
calling thread included; numpy releases the GIL inside its ufuncs and
products. The partition never depends on the worker count and each tile
writes only its own rows; what tiles share, each returns as its own part,
added in tile order by the calling thread. So any worker count gives the
bits of one. Every tile runs under the caller's numpy floating-point
error state, whichever thread takes it.

The ranking kernel: all-candidate scoring takes its candidates from a
`CandidateTable`, built once per corrupted side; every model stores its
rows transposed. `slab_sums` sums each term one coordinate at a time
into blocks of SLAB_ROWS triples by SLAB candidates with elementwise
operations only, so a candidate's score depends on its own values, never
on its position, the block shape or the other triples; its blocks run on
the same workers. A term is a weighted L1 or L2 norm of a residual, or
(DistMult's) the signed sum of a product. hie's rows go through a matrix
product first, over rows zero-padded to whole ROW_ALIGN blocks
(`padded`), so every row runs through the same BLAS kernel and a copy of
an entity gets the bits of the row it copies.

Config fields: each field of a config dataclass (`HieConfig`,
`BaselineConfig`, `TrainConfig`, the CLI's `RunConfig`) declares the
values it accepts once, by its annotation and, through `setting`, its
choices or the interval it lies in, such as "(0, inf)". A field that
passes its value on to another config's field (`RunConfig.lr` to
`TrainConfig.learning_rate`) takes that field's declaration through
`setting_of`, which records the name of the field it sets, so a setting
is declared once however many configs carry it. `check_fields`, called
first by each config's `__post_init__`, holds every field to its
declaration, whether the value came from code, a flag, a JSON config or
a checkpoint sidecar, and words every refusal from it. What is left to a
`__post_init__` is a rule that one field's interval cannot state: an
even dim, or level weights that match the levels and sum to 1.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields

import numpy as np

# bytes of one (rows, width) float64 block of a training tile
TILE_BYTES = 256 * 1024
# tiles, slabs and padded candidate tables are whole multiples of this many rows
ROW_ALIGN = 512
# triples per row block of `slab_sums`, and per call of evaluate; wider
# blocks would need narrower slabs, which cost more per triple in numpy's
# buffered broadcast
SLAB_ROWS = 16
# candidates per slab of `slab_sums`: a block's three (SLAB_ROWS, SLAB)
# float64 arrays (the totals, one term's running sum and one coordinate's
# residual) take 1.9 MB, a working set within 2 MiB
SLAB = 5120

# threads that run the tiles of one `map_tiles` call, the calling thread
# included; results are the same bits for any count
WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
# marks a thread while it runs tiles, so that a tile's own map_tiles runs inline
_IN_TILES = threading.local()


def _new_pool():
    """Sets the helper threads of `map_tiles`, started by its first call that shares tiles out."""
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=max(1, WORKERS - 1), thread_name_prefix="hiekge-tiles")


_new_pool()
if hasattr(os, "register_at_fork"):
    # a forked child has none of its parent's threads, so the parent's pool would never run its tiles
    os.register_at_fork(after_in_child=_new_pool)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out if out.ndim else float(out)


class Params:
    """Base of every model's params dataclass: rows of ent are entities, rows of rel relations."""

    @property
    def num_entities(self):
        return self.ent.shape[0]

    @property
    def num_relations(self):
        return self.rel.shape[0]

    def field_items(self):
        """(name, tensor) pairs in the canonical serialization order: declaration order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def tile_rows(width):
    """Rows of `width` float64 values per training tile: whole ROW_ALIGN blocks (at least one) within TILE_BYTES."""
    return max(1, TILE_BYTES // (8 * width * ROW_ALIGN)) * ROW_ALIGN


def row_tiles(stop, rows, start=0):
    """Slices covering range(start, stop) in consecutive blocks of `rows`; the last may be shorter."""
    return [slice(first, min(first + rows, stop)) for first in range(start, stop, rows)]


def map_tiles(fn, tiles):
    """[fn(tile) for tile in tiles], run on up to WORKERS threads; results in tile order.

    The calling thread runs tiles too, each tile runs once, and a tile
    must write nothing another tile reads or writes. A call of one tile,
    or one from inside a tile, runs inline. The call returns only when
    every tile it started has finished; once a tile raises, no further
    tile starts, and the exception of the first failed tile in tile order
    is raised. Every tile runs under the caller's `np.geterr()` state.
    """
    tiles = list(tiles)
    helpers = min(WORKERS, len(tiles)) - 1
    if helpers < 1 or getattr(_IN_TILES, "active", False):
        return [fn(tile) for tile in tiles]
    results, errors = [None] * len(tiles), {}
    lock, taken = threading.Lock(), iter(range(len(tiles)))
    # numpy's floating-point error handling is per thread: the helpers take the caller's
    state = np.geterr()

    def run():
        _IN_TILES.active = True
        try:
            with np.errstate(**state):
                while not errors:
                    with lock:
                        i = next(taken, None)
                    if i is None:
                        return
                    try:
                        results[i] = fn(tiles[i])
                    except BaseException as exc:  # re-raised on the calling thread below
                        errors[i] = exc
        finally:
            _IN_TILES.active = False

    futures = [_POOL.submit(run) for _ in range(helpers)]
    try:
        run()
    finally:
        wait(futures)
    for future in futures:
        future.result()
    if errors:
        raise errors[min(errors)]
    return results


def norm_rows(residual, norm_p):
    if norm_p == 1:
        return np.sum(np.abs(residual), axis=-1)
    return np.sqrt(np.sum(residual * residual, axis=-1))


def norm_backward(u, d, norm_p, upstream, out=None):
    """Gradient of upstream * ||u||_p w.r.t. u, row-wise, given d = ||u||_p; written into out when given.

    Subgradient 0 at L1 kinks and at the L2 origin.
    """
    if norm_p == 1:
        out = np.sign(u, out=out)
        return np.multiply(out, upstream[:, None], out=out)
    safe = np.where(d > 0.0, d, 1.0)
    return np.multiply((upstream / safe)[:, None], np.where(d[:, None] > 0.0, u, 0.0), out=out)


def corrupted_entities(negatives, positive_ids):
    """(head, ids) of (B, n, 3) training negatives of B positives, each a (B, n) array.

    positive_ids are the positives' (head, relation, tail) id arrays. Each
    negative must keep its positive's relation and one of its entities,
    and ValueError says so when one does not. head marks the negatives
    whose head differs from their positive's, the head-corrupted ones; any
    other is tail-corrupted, a negative equal to its positive too. ids
    holds each negative's corrupted entity: its head or its tail.
    """
    h_ids, r_ids, t_ids = positive_ids
    B = len(h_ids)
    negatives = np.asarray(negatives, dtype=np.int64)
    if negatives.ndim != 3 or negatives.shape[0] != B or negatives.shape[2] != 3:
        raise ValueError(f"negatives must be (B, n, 3) for B = {B} positives, got shape {negatives.shape}")
    head = negatives[:, :, 0] != h_ids[:, None]
    if np.any(negatives[:, :, 1] != r_ids[:, None]) or np.any(head & (negatives[:, :, 2] != t_ids[:, None])):
        raise ValueError("each negative must keep its positive's relation and one of its entities")
    return head, np.where(head, negatives[:, :, 0], negatives[:, :, 2])


def padded(rows):
    """A copy of rows zero-padded to a whole multiple of ROW_ALIGN rows.

    A matrix product over the padded block runs every real row through the
    same BLAS kernel, so a row's bits depend on its values only: not on its
    position or on how many rows share the call.
    """
    out = np.zeros((-(-len(rows) // ROW_ALIGN) * ROW_ALIGN,) + rows.shape[1:])
    out[: len(rows)] = rows
    return out


def transposed(rows):
    """A C-ordered copy of rows.T, copied ROW_ALIGN rows at a time (a strided copy in one go is slower)."""
    out = np.empty(rows.shape[::-1])
    for tile in row_tiles(len(rows), ROW_ALIGN):
        out[:, tile] = rows[tile].T
    return out


@dataclass(frozen=True)
class CandidateTable:
    """The candidate side of a model's score_batch for one corrupted side, shared by its calls.

    side is "head" or "tail" and size the number of candidates; rows is
    whatever the model's score_batch reads of them.
    """

    side: str
    size: int
    rows: object


def check_side(corrupt_side):
    """ValueError unless corrupt_side is "head" or "tail"."""
    if corrupt_side not in ("head", "tail"):
        raise ValueError(f"corrupt_side must be 'head' or 'tail', got {corrupt_side!r}")


def check_table(table, candidates, corrupt_side):
    """ValueError unless table is the CandidateTable of these candidates on corrupt_side."""
    if (table.side, table.size) != (corrupt_side, np.size(candidates)):
        raise ValueError(f"table holds {table.size} {table.side} candidates, "
                         f"not {np.size(candidates)} {corrupt_side} ones")


def columns(block):
    """A (B, n) block of per-triple operands as the (n, B, 1) columns of a `slab_sums` term."""
    return np.ascontiguousarray(block.T)[:, :, None]


def slab_sums(terms, B, C):
    """(B, C) totals: the weighted sum of each term's norm over the C candidates.

    A term is (weight, norm p, combine, first, last, cand): its residual at
    coordinate k is combine(first[k], cand[k]) - last[k] (no subtraction
    when last is None), with first and last in `columns` form and cand the
    (coordinates, C) candidate rows stored transposed. Norm p 1 or 2 sums
    the residuals' L1 or L2 norm, and None their plain, signed sum. The
    (B, C) totals are split into blocks of at most SLAB_ROWS triples by
    SLAB candidates, which the workers of `map_tiles` fill, so a block's
    working set stays the same however many triples a call has.
    Each term is summed one coordinate at a time into the block with
    elementwise operations only, so a candidate's total depends only on its
    own values and its triple's: a copy of an entity ties the row it
    copies, and every block shape gives the same bits.
    """
    totals = np.zeros((B, C))

    def fill(item):
        rows, cols = item
        block = totals[rows, cols]
        acc, step = np.empty(block.shape), np.empty(block.shape)
        for weight, norm_p, combine, first, last, cand in terms:
            for k in range(len(cand)):
                out = step if k else acc
                combine(first[k, rows], cand[k, cols], out=out)
                if last is not None:
                    np.subtract(out, last[k, rows], out=out)
                if norm_p == 1:
                    np.abs(out, out=out)
                elif norm_p == 2:
                    np.multiply(out, out, out=out)
                if k:
                    acc += step
            if norm_p == 2:
                np.sqrt(acc, out=acc)
            acc *= weight
            block += acc

    map_tiles(fill, [(rows, cols) for cols in row_tiles(C, SLAB) for rows in row_tiles(B, SLAB_ROWS)])
    return totals


# what a field of each annotation accepts, and how a message names it
_ACCEPTS = {"int": (int, "an int"), "float": ((int, float), "a number"), "bool": (bool, "a bool"),
            "str": (str, "a str")}


@dataclass(frozen=True)
class Interval:
    """The values from low to high; an end is in when it is closed. NaN is in no interval."""

    low: float
    high: float
    closed_low: bool
    closed_high: bool

    @classmethod
    def parse(cls, text):
        """The interval written as text: "[0, 1)", "(0, inf)", "[0, inf]"; "[" and "]" close an end."""
        low, high = (float(end) for end in text[1:-1].split(","))
        if text[0] not in "[(" or text[-1] not in "])" or not low <= high:
            raise ValueError(f"not an interval: {text!r}")
        return cls(low, high, text[0] == "[", text[-1] == "]")

    def __contains__(self, value):
        return ((self.low < value or self.closed_low and value == self.low)
                and (value < self.high or self.closed_high and value == self.high))

    def name(self, kind):
        """How a message names the values of kind inside: "a finite number > 0", "an int >= 1"."""
        if kind == "a number" and np.inf not in self and -np.inf not in self:
            kind = "a finite number"
        if self.high == np.inf:
            return f"{kind} {'>=' if self.closed_low else '>'} {self.low:g}"
        left, right = "[" if self.closed_low else "(", "]" if self.closed_high else ")"
        return f"{kind} in {left}{self.low:g}, {self.high:g}{right}"


def setting(default, choices=None, within=None, **metadata):
    """A config field: its default and the values it accepts; metadata rides along.

    choices lists the values the field accepts (None: any of its type),
    and within is the `Interval` its value, or each item of a tuple, lies
    in, written as `Interval.parse` reads it.
    """
    interval = None if within is None else Interval.parse(within)
    return field(default=default, metadata={"choices": choices, "within": interval, **metadata})


def setting_of(config, name):
    """A field declared as field name of the config dataclass config: its default, choices and interval.

    Its metadata names that field as "sets": the value it holds is the one that field is built with.
    """
    source = {f.name: f for f in fields(config)}[name]
    return field(default=source.default, metadata={"choices": source.metadata.get("choices"),
                                                    "within": source.metadata.get("within"), "sets": name})


def _fits(value, annotation):
    """Whether value has the type annotation names: a bool only for "bool", an int also for "float"."""
    return isinstance(value, _ACCEPTS[annotation][0]) and isinstance(value, bool) == (annotation == "bool")


def check_fields(config, items=None):
    """ValueError unless every field of a config dataclass holds a value its declaration accepts.

    A field annotated int takes an int but not a bool, float an int or a
    float, bool only a bool and str a str; tuple takes a tuple whose items
    have the type that items (field name: annotation) names for it. None
    passes only where the default is None. A field declared by `setting`
    with an interval takes only values inside it (for a tuple, items),
    and one with choices only one of them. The message names what the
    field accepts: "gamma must be a finite number > 0, got nan". Any other
    annotation, or a tuple field that items does not name, raises
    TypeError, so no field goes unchecked.
    """
    for f in fields(config):
        annotation = (items or {}).get(f.name) if f.type == "tuple" else f.type
        if annotation not in _ACCEPTS:
            raise TypeError(f"check_fields knows no type for field {f.name} ({f.type})")
        value = getattr(config, f.name)
        if value is None and f.default is None:
            continue
        interval = f.metadata.get("within")
        kind = f"a tuple of {annotation}s" if f.type == "tuple" else _ACCEPTS[annotation][1]
        if interval is not None:
            kind = interval.name(kind)
        values = value if f.type == "tuple" else (value,)
        if not (isinstance(values, tuple) and all(
                _fits(item, annotation) and (interval is None or item in interval) for item in values)):
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
