"""Joint distance-space / semantic-space scoring over a residual level hierarchy.

Every embedding row is split into a geometric half and a semantic half.
Level 1 projects each half through a learned diagonal; deeper levels are
produced by a shared square extraction matrix per transition with the raw
half added back as a residual. Each level contributes a distance-space
term and a semantic translation term, blended by a learned sigmoid weight
and combined across levels with fixed convex weights. Lower is better.

There is one per-row kernel, anchored on positives. Each scored row
corrupts a positive: it keeps the positive's relation and one entity, so
only its corrupted entity is gathered and chained, and the kept side's
chains, bases and operands come from the positive's prepared block, built
once over the B positive rows. Training negatives reuse the block of
their positives' call (`score_triples(..., positives=cache)`); a plain
(B, 3) batch is prepared as its own positives, each triple scored as its
own tail-corrupted row. `backward` sums the kept side's gradients per
positive before walking the positive's chains back once, over B rows.

The kernel runs over row tiles small enough for a core's L2 cache:
`score_triples` and `backward` walk their rows in tiles of
`tile_rows(half)` rows, each written into slices of full-size arrays, so
the cache keeps one (N, half) array per level of the corrupted entity's
distance chain and of the semantic residual chain, whatever the tile
size. Tiles are whole multiples of ROW_ALIGN rows: OpenBLAS can give a
row of a matrix product other bits when the product is split at a row
that is not a multiple of 512, so only aligned blocks reproduce one call
over all rows. The tiles run on WORKERS threads (`map_tiles`); numpy
releases the GIL inside their ufuncs and products. The partition never
depends on the worker count, each tile writes only its own rows, and
what tiles share, the dense gradients and each positive's kept-side
sums, each tile returns as its own part, added in tile order by the
calling thread. So any worker count gives the bits of one.

All-candidate scoring (`score_batch`) takes its candidate chains from a
`candidate_table`, built once per corrupted side over the candidate rows
zero-padded to whole ROW_ALIGN blocks, so every candidate row goes
through the same BLAS kernel and a copy of an entity gets the bits of the
row it copies. The chains are stored transposed, and each distance and
semantic term is summed one coordinate at a time into a (B, slab) block
with elementwise operations only: a candidate's score depends on its own
values, never on its position, the slab size or the other triples. That
kernel, `_slab_sums`, also ranks the translation and rotation baselines;
its (row block, slab) blocks run on the same workers.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, fields

import numpy as np

TRANSFORM_DIAGONAL = "diagonal"
TRANSFORM_RANK1 = "rank1"
# (cache key prefix, role) of each slot of a triple
ROLES = (("h", "head"), ("r", "rel"), ("t", "tail"))

# bytes of one (rows, half) float64 block of a training tile
TILE_BYTES = 256 * 1024
# bytes of the working set of one ranking slab: SLAB_BLOCKS (B, slab) float64 blocks
SLAB_BYTES = 2 * 1024 * 1024
# (B, slab) blocks live in the ranking kernel (`_slab_sums`): the totals
# block, one term's running sum and one coordinate's residual
SLAB_BLOCKS = 3
# tiles, slabs and padded candidate tables are whole multiples of this many rows
ROW_ALIGN = 512
# triples per row block of `_slab_sums`, and per call of evaluate: a block
# of 16 takes slabs of 5,120 candidates within SLAB_BYTES; wider blocks get
# narrower slabs, which cost more per triple in numpy's buffered broadcast
SLAB_ROWS = 16

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


@dataclass(frozen=True)
class HieConfig:
    """Scoring-time hyperparameters. Vocabulary sizes live in the params."""

    dim: int = 64
    levels: int = 2
    lambdas: tuple = (0.5, 0.5)
    norm_p: int = 1
    transform: str = TRANSFORM_DIAGONAL
    disable_distance: bool = False
    disable_semantic: bool = False
    disable_distance_deep: bool = False
    disable_semantic_deep: bool = False

    def __post_init__(self):
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if self.dim < 2 or self.dim % 2 != 0:
            raise ValueError(f"dim must be even and >= 2, got {self.dim}")
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if len(self.lambdas) != self.levels:
            raise ValueError(
                f"need one level weight per level: got {len(self.lambdas)} "
                f"weights for {self.levels} levels"
            )
        if any(v < 0.0 or v > 1.0 for v in self.lambdas):
            raise ValueError(f"level weights must lie in [0, 1], got {self.lambdas}")
        if abs(sum(self.lambdas) - 1.0) > 1e-9:
            raise ValueError(f"level weights must sum to 1, got {self.lambdas}")
        if self.norm_p not in (1, 2):
            raise ValueError(f"norm_p must be 1 or 2, got {self.norm_p}")
        if self.transform not in (TRANSFORM_DIAGONAL, TRANSFORM_RANK1):
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.disable_distance and self.disable_semantic:
            raise ValueError("cannot disable both measurement spaces")

    @property
    def half(self):
        return self.dim // 2


@dataclass
class HieParams:
    """All trainable tensors, float64 throughout.

    ent/rel rows are [geometric half | semantic half]. The six projection
    vectors are the level-1 diagonals for head/tail/relation in each space.
    transform_seed holds one distance-transform seed vector per level;
    extract_dist/extract_sem hold one square lift matrix per level
    transition, shared by head, tail and relation.
    """

    ent: np.ndarray
    rel: np.ndarray
    proj_head_dist: np.ndarray
    proj_tail_dist: np.ndarray
    proj_rel_dist: np.ndarray
    proj_head_sem: np.ndarray
    proj_tail_sem: np.ndarray
    proj_rel_sem: np.ndarray
    transform_seed: np.ndarray
    extract_dist: np.ndarray
    extract_sem: np.ndarray
    blend_logit: np.ndarray

    @property
    def alpha(self) -> float:
        return float(sigmoid(self.blend_logit))

    @property
    def num_entities(self):
        return self.ent.shape[0]

    @property
    def num_relations(self):
        return self.rel.shape[0]

    def field_items(self):
        """(name, tensor) pairs in the canonical serialization order: declaration order."""
        return [(f.name, getattr(self, f.name)) for f in fields(self)]


def init_params(num_entities, num_relations, config: HieConfig, seed) -> HieParams:
    """Fresh parameters: uniform embeddings, identity-like structure tensors.

    Projection diagonals and transform seeds start at ones and the extract
    matrices at zero, so at step 0 every level reduces to the raw halves.
    """
    if num_entities < 1 or num_relations < 1:
        raise ValueError("need at least one entity and one relation")
    rng = np.random.default_rng(seed)
    k, half = config.dim, config.half
    bound = 6.0 / np.sqrt(k)
    n_lift = config.levels - 1
    return HieParams(
        ent=rng.uniform(-bound, bound, size=(num_entities, k)),
        rel=rng.uniform(-bound, bound, size=(num_relations, k)),
        proj_head_dist=np.ones(half),
        proj_tail_dist=np.ones(half),
        proj_rel_dist=np.ones(half),
        proj_head_sem=np.ones(half),
        proj_tail_sem=np.ones(half),
        proj_rel_sem=np.ones(half),
        transform_seed=np.ones((config.levels, half)),
        extract_dist=np.zeros((n_lift, half, half)),
        extract_sem=np.zeros((n_lift, half, half)),
        blend_logit=np.zeros(()),
    )


def active_spaces(config: HieConfig, level: int):
    """(distance_on, semantic_on) at a 1-based level under the ablation flags."""
    deep = level >= 2
    dist_on = not config.disable_distance and not (deep and config.disable_distance_deep)
    sem_on = not config.disable_semantic and not (deep and config.disable_semantic_deep)
    return dist_on, sem_on


def level_weights(config: HieConfig, alpha: float):
    """Effective (distance, semantic) blend weights per level.

    With both spaces on the blend is (alpha, 1-alpha); a lone active space
    takes full weight 1 so disabling one space yields a pure model of the
    other; a fully masked level contributes nothing.
    """
    weights = []
    for level in range(1, config.levels + 1):
        dist_on, sem_on = active_spaces(config, level)
        if dist_on and sem_on:
            weights.append((alpha, 1.0 - alpha))
        elif dist_on:
            weights.append((1.0, 0.0))
        elif sem_on:
            weights.append((0.0, 1.0))
        else:
            weights.append((0.0, 0.0))
    return weights


def _aligned_rows(budget, row_bytes):
    """Rows of row_bytes each that fit budget, as a whole multiple of ROW_ALIGN (at least one)."""
    return max(1, budget // (row_bytes * ROW_ALIGN)) * ROW_ALIGN


def tile_rows(half):
    """Rows per tile of score_triples and backward."""
    return _aligned_rows(TILE_BYTES, 8 * half)


def slab_size(B):
    """Candidates per slab of `_slab_sums` over B triples: its SLAB_BLOCKS (B, slab) blocks fit SLAB_BYTES."""
    return _aligned_rows(SLAB_BYTES, 8 * SLAB_BLOCKS * max(B, 1))


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
    is raised.
    """
    tiles = list(tiles)
    helpers = min(WORKERS, len(tiles)) - 1
    if helpers < 1 or getattr(_IN_TILES, "active", False):
        return [fn(tile) for tile in tiles]
    results, errors = [None] * len(tiles), {}
    lock, taken = threading.Lock(), iter(range(len(tiles)))

    def run():
        _IN_TILES.active = True
        try:
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


def _padded(rows):
    """A copy of rows zero-padded to a whole multiple of ROW_ALIGN rows.

    A matrix product over the padded block runs every real row through the
    same BLAS kernel, so a row's bits depend on its values only: not on its
    position or on how many rows share the call.
    """
    out = np.zeros((-(-len(rows) // ROW_ALIGN) * ROW_ALIGN,) + rows.shape[1:])
    out[: len(rows)] = rows
    return out


def _transposed(rows):
    """A C-ordered copy of rows.T, copied ROW_ALIGN rows at a time (a strided copy in one go is slower)."""
    out = np.empty(rows.shape[::-1])
    for tile in row_tiles(len(rows), ROW_ALIGN):
        out[:, tile] = rows[tile].T
    return out


def _coordinate_dot(columns, seed):
    """sum_k columns[k] * seed[k] over a (half, n) block, added one coordinate at a time."""
    out = columns[0] * seed[0]
    step = np.empty_like(out)
    for k in range(1, len(seed)):
        out += np.multiply(columns[k], seed[k], out=step)
    return out


def _space_columns(config: HieConfig):
    """Column slice of each space's half within an embedding row."""
    return {"dist": slice(0, config.half), "sem": slice(config.half, None)}


def _live_levels(config: HieConfig):
    """How many levels read each space, (distance, semantic): under every ablation a prefix of the levels."""
    on = [active_spaces(config, level) for level in range(1, config.levels + 1)]
    return sum(d for d, _ in on), sum(s for _, s in on)


def _needed_spaces(config: HieConfig):
    """The spaces, of "dist" and "sem", that are active at one level or more."""
    return [space for space, levels in zip(("dist", "sem"), _live_levels(config)) if levels]


def _norm_rows(residual, norm_p):
    if norm_p == 1:
        return np.sum(np.abs(residual), axis=-1)
    return np.sqrt(np.sum(residual * residual, axis=-1))


def _norm_backward(u, d, norm_p, upstream, out=None):
    """Gradient of upstream * ||u||_p w.r.t. u, row-wise, given d = ||u||_p; written into out when given.

    Subgradient 0 at L1 kinks and at the L2 origin.
    """
    if norm_p == 1:
        out = np.sign(u, out=out)
        return np.multiply(out, upstream[:, None], out=out)
    safe = np.where(d > 0.0, d, 1.0)
    return np.multiply((upstream / safe)[:, None], np.where(d[:, None] > 0.0, u, 0.0), out=out)


def _chain(params, base, role, space, levels, out=None):
    """Per-level projections of one role's (B, half) base block, as a list of arrays.

    Written into out, one (B, half) array per level, when given.
    """
    proj = getattr(params, f"proj_{role}_{space}")
    extract = params.extract_dist if space == "dist" else params.extract_sem
    if out is None:
        out = [np.empty(base.shape) for _ in range(levels)]
    np.multiply(proj, base, out=out[0])
    return _lift(out, base, extract)


def _lift(chain, base, extract):
    """Fills levels 2.. of a chain from its level 1: chain[j] = chain[j-1] @ extract[j-1] + base."""
    for j in range(1, len(chain)):
        np.matmul(chain[j - 1], extract[j - 1], out=chain[j])
        chain[j] += base
    return chain


def _head_term(h, r, seed, transform, out=None):
    """A distance residual before its tail is subtracted and, for rank-1, the inner product.

    Diagonal transform: h * (seed * r). Rank-1 transform: (h . seed) * r.
    The residual at the level is this minus the tail's chain.
    """
    if transform == TRANSFORM_DIAGONAL:
        return np.multiply(h, seed * r, out=out), None
    inner = h @ seed
    return np.multiply(inner[:, None], r, out=out), inner


def _new_cache(params, config, n):
    """The blend state and empty per-level arrays of a score_triples cache over n rows.

    Each space's lists hold only the levels the score reads.
    """
    alpha, half = params.alpha, config.half
    n_dist, n_sem = _live_levels(config)
    cache = {"alpha": alpha, "weights": level_weights(config, alpha)}
    for key in ("c_dist", "u_dist"):
        cache[key] = [np.empty((n, half)) for _ in range(n_dist)]
    cache["u_sem"] = [np.empty((n, half)) for _ in range(n_sem)]
    rank1 = config.transform == TRANSFORM_RANK1
    cache["rank1_inner"] = [np.empty(n) for _ in range(n_dist if rank1 else 0)]
    cache["d_dist"] = np.zeros((n, config.levels))
    cache["d_sem"] = np.zeros((n, config.levels))
    return cache


def _add_totals(config, cache, totals, tile):
    """Adds each level's blended distances over one tile to totals."""
    d_dist, d_sem = cache["d_dist"][tile], cache["d_sem"][tile]
    for i, (w_dist, w_sem) in enumerate(cache["weights"]):
        totals[tile] += config.lambdas[i] * (w_dist * d_dist[:, i] + w_sem * d_sem[:, i])


def score_triples(params: HieParams, config: HieConfig, triples, positives=None):
    """Vectorized totals for a (B, 3) id batch, plus a cache for backprop.

    Every row is scored against a positive it corrupts: it keeps the
    positive's relation and one of its entities, and only its corrupted
    entity is gathered and chained. A (B, 3) batch is first prepared as
    its own positives (`_prepare`: ids, bases, distance chains and kept
    operands over the B rows), and each triple is then scored as its own
    tail-corrupted row.

    With positives, the cache of a call over B positive triples, triples
    are (B, n, 3) training negatives and reuse the prepared block that
    cache holds under "positives". `corrupted_entities` checks each
    negative and names its corrupted side; the baselines share it.

    Returns the totals in row order and a cache for `backward`. The
    semantic space keeps no per-role chains: its residual is one chain of
    its own, v_1 = p_h*h + p_r*r - p_t*t and v_j = v_{j-1} @
    extract_sem[j-1] + (h + r - t), cached as "u_sem". Each chain,
    residual and distance is one array over all rows; the rows are
    gathered and scored tile by tile (`tile_rows`) into slices of those
    arrays.
    """
    if positives is not None:
        return _score_anchored(params, config, triples, positives["positives"])
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return _score_anchored(params, config, triples[:, None, :], _prepare(params, config, triples))


def _prepare(params, config, triples):
    """The prepared positives of score_triples over the (B, 3) triples, built once over their B rows.

    "h_dist", "r_dist" and "t_dist" hold each role's distance chain at the
    levels the score reads, and "bases_dist"/"bases_sem" each role's base
    halves. "head_term" holds, per level, the distance residual before its
    tail is subtracted, with the rank-1 inner product in "rank1_inner": a
    tail-corrupted row subtracts its own tail's chain from it. "sem_head"
    and "sem_tail" hold the kept terms of the semantic residual's level 1
    and of its base for head- and tail-corrupted rows.
    """
    ids = (triples[:, 0], triples[:, 1], triples[:, 2])
    rows = (params.ent[ids[0]], params.rel[ids[1]], params.ent[ids[2]])
    positives = {"ids": ids}
    for space, cols in _space_columns(config).items():
        positives[f"bases_{space}"] = tuple(row[:, cols] for row in rows)
    n_dist, n_sem = _live_levels(config)
    for (key, role), base in zip(ROLES, positives["bases_dist"]):
        positives[f"{key}_dist"] = _chain(params, base, role, "dist", n_dist) if n_dist else []
    terms = [_head_term(h, r, seed, config.transform)
             for h, r, seed in zip(positives["h_dist"], positives["r_dist"], params.transform_seed)]
    positives["head_term"] = [term for term, _ in terms]
    positives["rank1_inner"] = [inner for _, inner in terms if inner is not None]
    if n_sem:
        hb, rb, tb = positives["bases_sem"]
        rel = params.proj_rel_sem * rb
        positives["sem_head"] = (rel, params.proj_tail_sem * tb, rb, tb)
        positives["sem_tail"] = (params.proj_head_sem * hb + rel, hb + rb)
    return positives


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


def _score_anchored(params, config, triples, positives):
    """score_triples of (B, n, 3) triples against positives, the prepared block of their B positives.

    The rows are reordered once, head-corrupted rows first and then
    tail-corrupted ones, each in batch order, so that every row of a side
    has the same corrupted role and the rows of one positive are
    consecutive. Each row gathers its corrupted entity and builds that
    entity's distance chain ("c_dist"); the positive's kept chains and
    operands enter the residuals in the order `_head_term` and the
    semantic chain add them. "pos" holds each row's positive and "order"
    each row's place in the (B*n,) row order; "rank1_inner" is written for
    head-corrupted rows only, the tail-corrupted ones take the positive's
    head term whole.
    """
    h_ids, r_ids, t_ids = positives["ids"]
    head, ent_ids = corrupted_entities(triples, positives["ids"])
    n = head.shape[1]
    head = head.ravel()
    order = np.concatenate([np.flatnonzero(head), np.flatnonzero(~head)])
    N, n_head = len(order), int(np.count_nonzero(head))
    ent_ids = ent_ids.ravel()[order]
    cache = _new_cache(params, config, N)
    cache.update(positives=positives, order=order, pos=order // n,
                 sides=(("head", slice(0, n_head)), ("tail", slice(n_head, N))),
                 # the entity and relation ids of the rows `backward` emits
                 row_ids=((ent_ids, h_ids, t_ids), r_ids))
    rows = np.empty((N, config.dim))
    cache["bases_dist"], cache["bases_sem"] = (rows[:, cols] for cols in _space_columns(config).values())
    totals = np.zeros(N)

    def score_tile(item):
        side, tile = item
        rows[tile] = params.ent[ent_ids[tile]]
        _score_tile(params, config, cache, totals, side, tile)

    map_tiles(score_tile, _side_tiles(cache, config.half))
    out = np.empty(N)
    out[order] = totals
    return out, cache


def _side_tiles(cache, half):
    """(side, tile) of every tile of a cache's rows: each side's rows in tiles of `tile_rows(half)`."""
    return [(side, tile) for side, block in cache["sides"]
            for tile in row_tiles(block.stop, tile_rows(half), start=block.start)]


def _score_tile(params, config, cache, totals, side, tile):
    """_score_anchored over one tile of one side's rows, whose entities are gathered."""
    positives, p = cache["positives"], cache["pos"][tile]
    if cache["u_dist"]:
        c = _chain(params, cache["bases_dist"][tile], side, "dist", len(cache["c_dist"]),
                   out=[level[tile] for level in cache["c_dist"]])
        for i, level in enumerate(cache["u_dist"]):
            if side == "head":
                u, inner = _head_term(c[i], positives["r_dist"][i][p], params.transform_seed[i],
                                      config.transform, out=level[tile])
                np.subtract(u, positives["t_dist"][i][p], out=u)
                if inner is not None:
                    cache["rank1_inner"][i][tile] = inner
            else:
                u = np.subtract(positives["head_term"][i][p], c[i], out=level[tile])
            cache["d_dist"][tile, i] = _norm_rows(u, config.norm_p)
    if cache["u_sem"]:
        v = [level[tile] for level in cache["u_sem"]]
        e = cache["bases_sem"][tile]
        if side == "head":
            rel, tail, rb, tb = positives["sem_head"]
            np.subtract(np.add(params.proj_head_sem * e, rel[p], out=v[0]), tail[p], out=v[0])
            base = (e + rb[p]) - tb[p]
        else:
            head_rel, hr = positives["sem_tail"]
            np.subtract(head_rel[p], params.proj_tail_sem * e, out=v[0])
            base = hr[p] - e
        for i, level in enumerate(_lift(v, base, params.extract_sem)):
            cache["d_sem"][tile, i] = _norm_rows(level, 2)
    _add_totals(config, cache, totals, tile)


def backward(params: HieParams, config: HieConfig, cache, upstream):
    """Analytic gradients of sum_b upstream[b] * total[b] for one score_triples cache.

    upstream holds one value per scored row, in row order; ValueError
    otherwise. Returns (ent_rows, rel_rows, dense): the entity-row and
    relation-row gradients, uncoalesced, whose ids are the cache's
    "row_ids", and every structure tensor's dense gradient by field name.
    A cache of N rows over B positives emits its N corrupted-entity rows,
    then B kept-head rows and B kept-tail rows, and B relation rows.

    Every row walks back its corrupted entity's distance chain and the
    semantic residual chain, whose gradient reaches head and relation as
    is and the tail negated. The gradients that reach the kept side are
    summed per positive first, over the runs of one positive's rows in
    each tile: the distance chains' direct gradients per level, and the
    semantic chain's (G, G_deep). Then each kept role walks back the
    positive's chain once, over B rows. Rows run in the tiles of
    score_triples, on the workers of `map_tiles`; each tile returns its
    dense gradients and run sums, and they are added in tile order.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    positives, order = cache["positives"], cache["order"]
    N, B, half = len(order), len(positives["ids"][0]), config.half
    if upstream.shape != (N,):
        raise ValueError(f"upstream must hold one value per scored row: {N} values, "
                         f"got shape {upstream.shape}")
    upstream = upstream[order]
    dist_cols, sem_cols = _space_columns(config).values()
    ent_rows = np.zeros((N + 2 * B, config.dim))
    rel_rows = np.zeros((B, config.dim))
    n_dist, n_sem = len(cache["u_dist"]), len(cache["u_sem"])
    # per kept role (head, rel, tail) and positive: the direct gradients into its
    # distance chain per level, and its semantic chain's (G, G_deep)
    kept_dist = [[np.zeros((B, half)) for _ in range(n_dist)] for _ in ROLES]
    kept_sem = [[np.zeros((B, half)), np.zeros((B, half))] for _ in ROLES]
    dense = _zero_dense(params)
    parts = map_tiles(lambda item: _backward_tile(params, config, cache, upstream, ent_rows, *item),
                      _side_tiles(cache, half))
    # the tiles' parts added in tile order: one add per tile to each dense slot and kept sum
    for tile_dense, tile_sums in parts:
        for name, g in tile_dense.items():
            dense[name] += g
        for space, k, j, owners, sums in tile_sums:
            (kept_dist, kept_sem)[space][k][j][owners] += sums
    _blend_gradient(config, cache, upstream, dense)
    kept_rows = (ent_rows[N:N + B], rel_rows, ent_rows[N + B:])
    for k, ((key, role), sign) in enumerate(zip(ROLES, SEM_SIGNS)):
        if n_dist:
            G, G_deep = _walk_back(kept_dist[k], positives[f"{key}_dist"], params.extract_dist,
                                   dense["extract_dist"])
            kept_rows[k][:, dist_cols] = _base_gradient(params, "dist", role, G, G_deep,
                                                        positives["bases_dist"][k], dense)
        if n_sem:
            kept_rows[k][:, sem_cols] = _base_gradient(params, "sem", role, *kept_sem[k],
                                                       positives["bases_sem"][k], dense, sign)
    return ent_rows, rel_rows, dense


def _zero_dense(params):
    """A zero gradient for every structure tensor, by field name."""
    return {n: np.zeros_like(t) for n, t in params.field_items() if n not in ("ent", "rel")}


def _blend_gradient(config, cache, upstream, dense):
    """Sets dense's blend logit gradient; upstream is in the cache's row order."""
    # d(total)/d(alpha) collects only levels where the blend is live
    blend_slope = 0.0
    for i in range(config.levels):
        if all(active_spaces(config, i + 1)):
            blend_slope += config.lambdas[i] * float(
                np.sum(upstream * (cache["d_dist"][:, i] - cache["d_sem"][:, i]))
            )
    dense["blend_logit"][...] = blend_slope * cache["alpha"] * (1.0 - cache["alpha"])


def _walk_back(direct, chain, extract, g_extract):
    """Walks a chain's gradient from its deepest level back to level 1, adding to g_extract.

    direct[j] is the gradient the score sends to level j+1 and chain[j]
    that level's values. Returns the gradient at level 1 and the sum of
    those at the deeper levels, which is what reaches the residual base.
    """
    G, G_deep = direct[-1], 0.0
    for j in range(len(direct) - 1, 0, -1):
        g_extract[j - 1] += chain[j - 1].T @ G
        G_deep = G_deep + G
        G = G @ extract[j - 1].T + direct[j - 1]
    return G, G_deep


def _base_gradient(params, space, role, G, G_deep, base, dense, sign=1.0):
    """Gradient at one role's base half from its chain's walked-back (G, G_deep); adds its projection's.

    sign is the sign the role's chain enters the residual with.
    """
    proj = f"proj_{role}_{space}"
    dense[proj] += sign * np.sum(G * base, axis=0)
    return sign * (G_deep + G * getattr(params, proj))


def _residual_gradients(config, cache, upstream, tile):
    """The gradients at each level's distance and semantic residuals over one tile."""
    gu = [_norm_backward(u[tile], cache["d_dist"][tile, i], config.norm_p,
                         upstream * (config.lambdas[i] * cache["weights"][i][0]))
          for i, u in enumerate(cache["u_dist"])]
    gv = [_norm_backward(v[tile], cache["d_sem"][tile, i], 2,
                         upstream * (config.lambdas[i] * cache["weights"][i][1]))
          for i, v in enumerate(cache["u_sem"])]
    return gu, gv


def _distance_direct(params, config, i, gu, h, r, inner, dense):
    """The direct gradients into level i's head and relation chains from gu at its residual.

    h and r are the level's head and relation chains, inner the rank-1
    inner product h . seed. Adds the transform seed's gradient to dense.
    The tail chain's direct gradient is -gu.
    """
    seed = params.transform_seed[i]
    if config.transform == TRANSFORM_DIAGONAL:
        dense["transform_seed"][i] += np.sum(gu * (h * r), axis=0)
        return gu * (seed * r), gu * (seed * h)
    g_inner = np.sum(gu * r, axis=-1)
    dense["transform_seed"][i] += g_inner @ h
    return g_inner[:, None] * seed[None, :], inner[:, None] * gu


# the sign each role's semantic chain enters the residual with: h + r - t
SEM_SIGNS = (1.0, 1.0, -1.0)


def _backward_tile(params, config, cache, upstream, ent_rows, side, tile):
    """backward over one tile of one side's rows: writes their entity rows, returns what they share.

    Returns the tile's own dense gradients and its run sums, each
    (space, role, index, owners, sums): the sums of the kept role's
    gradients over the tile's runs of rows of the positives owners, to add
    to `backward`'s kept[space][role][index] (space 0 holds the distance
    chains' direct gradients per level, space 1 the semantic (G, G_deep)).
    """
    positives, p = cache["positives"], cache["pos"][tile]
    upstream, rows, dense = upstream[tile], ent_rows[tile], _zero_dense(params)
    # the tile's runs of rows of one positive, by their first row
    starts = np.flatnonzero(np.r_[True, p[1:] != p[:-1]])
    owners = p[starts]
    kept = []

    def run_sums(values):
        return np.add.reduceat(values, starts, axis=0)

    dist_cols, sem_cols = _space_columns(config).values()
    gu, gv = _residual_gradients(config, cache, upstream, tile)
    direct = []
    for i, g in enumerate(gu):
        if side == "tail":
            # the kept head term is linear in gu: its direct gradients come from gu's run sums
            inner = positives["rank1_inner"][i][owners] if positives["rank1_inner"] else None
            g_head, g_rel = _distance_direct(params, config, i, run_sums(g), positives["h_dist"][i][owners],
                                             positives["r_dist"][i][owners], inner, dense)
            kept += [(0, 0, i, owners, g_head), (0, 1, i, owners, g_rel)]
            direct.append(-g)
            continue
        inner = cache["rank1_inner"][i][tile] if cache["rank1_inner"] else None
        g_head, g_rel = _distance_direct(params, config, i, g, cache["c_dist"][i][tile],
                                         positives["r_dist"][i][p], inner, dense)
        direct.append(g_head)
        # x - s has the bits of x + (-s)
        kept += [(0, 1, i, owners, run_sums(g_rel)), (0, 2, i, owners, np.negative(run_sums(g)))]
    if direct:
        G, G_deep = _walk_back(direct, [level[tile] for level in cache["c_dist"]], params.extract_dist,
                               dense["extract_dist"])
        rows[:, dist_cols] = _base_gradient(params, "dist", side, G, G_deep, cache["bases_dist"][tile],
                                            dense)
    if gv:
        G, G_deep = _walk_back(gv, [level[tile] for level in cache["u_sem"]], params.extract_sem,
                               dense["extract_sem"])
        corrupt = 0 if side == "head" else 2
        rows[:, sem_cols] = _base_gradient(params, "sem", side, G, G_deep, cache["bases_sem"][tile],
                                           dense, SEM_SIGNS[corrupt])
        G_sums = run_sums(G)
        G_deep_sums = run_sums(G_deep) if len(gv) > 1 else 0.0  # G_deep is 0.0 at one level
        kept += [(1, k, j, owners, sums) for k in range(3) if k != corrupt
                 for j, sums in enumerate((G_sums, G_deep_sums))]
    return dense, kept


@dataclass(frozen=True)
class CandidateTable:
    """The candidate side of score_batch for one corrupted side, shared by its calls.

    rows maps "dist" and "sem" to one entry per level: the candidates'
    chain at that level stored transposed, (half, C), or None where the
    level does not use the space. On the head side of the rank-1 transform
    a distance entry is the inner product cand . seed broadcast to
    (half, C), since that is all the residual reads of a candidate.
    """

    side: str
    size: int
    rows: dict


def candidate_table(params: HieParams, config: HieConfig, candidates, corrupt_side):
    """Candidate chains of score_batch over `candidates` on corrupt_side.

    The chains are built by `_chain` over the candidate rows zero-padded to
    whole ROW_ALIGN blocks, so a copy of an entity row gets exactly the
    chains of the row it copies.
    """
    if corrupt_side not in ("head", "tail"):
        raise ValueError(f"corrupt_side must be 'head' or 'tail', got {corrupt_side!r}")
    candidates = np.asarray(candidates, dtype=np.int64).ravel()
    C = len(candidates)
    on = [active_spaces(config, level) for level in range(1, config.levels + 1)]
    rank1_head = corrupt_side == "head" and config.transform == TRANSFORM_RANK1
    rows = {}
    for k, (space, cols) in enumerate(_space_columns(config).items()):
        rows[space] = [None] * config.levels
        if space not in _needed_spaces(config):
            continue
        chain = _chain(params, _padded(params.ent[candidates, cols]), corrupt_side, space, config.levels)
        for i, level in enumerate(chain):
            if not on[i][k]:
                continue
            rows[space][i] = _transposed(level[:C])
            if space == "dist" and rank1_head:
                inner = _coordinate_dot(rows[space][i], params.transform_seed[i])
                rows[space][i] = np.broadcast_to(inner, (config.half, C))
    return CandidateTable(corrupt_side, C, rows)


def _columns(block):
    """A (B, n) block of per-triple operands as the (n, B, 1) columns of a `_slab_sums` term."""
    return np.ascontiguousarray(block.T)[:, :, None]


def _slab_sums(terms, B, C):
    """(B, C) totals: the weighted sum of each term's norm over the C candidates.

    A term is (weight, norm p, combine, first, last, cand): its residual at
    coordinate k is combine(first[k], cand[k]) - last[k] (no subtraction
    when last is None), with first and last in `_columns` form and cand the
    (coordinates, C) candidate rows stored transposed. The (B, C) totals
    are split into blocks of at most SLAB_ROWS triples by `slab_size`
    candidates, which the workers of `map_tiles` fill, so a block's
    SLAB_BLOCKS arrays fit SLAB_BYTES however many triples a call has.
    Each term is summed one coordinate at a time into the block with
    elementwise operations only, so a candidate's total depends only on its
    own values and its triple's: a copy of an entity ties the row it
    copies, and every block shape gives the same bits.
    """
    slab = slab_size(min(B, SLAB_ROWS))
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
                else:
                    np.multiply(out, out, out=out)
                if k:
                    acc += step
            if norm_p == 2:
                np.sqrt(acc, out=acc)
            acc *= weight
            block += acc

    map_tiles(fill, [(rows, cols) for cols in row_tiles(C, slab) for rows in row_tiles(B, SLAB_ROWS)])
    return totals


def _batch_terms(params, config, triples, table):
    """The `_slab_sums` terms of every live level and space of score_batch.

    Per coordinate, a term's residual is the arithmetic of `_head_term`
    minus the tail and of the semantic residual (h + r) - t, except
    that the rank-1 inner product is summed one coordinate at a time. The
    fixed and relation chains are built over rows padded like the
    candidates', so a triple's operands do not depend on the other triples
    of the call.
    """
    B, levels = len(triples), config.levels
    head = table.side == "head"
    fixed_ids, fixed_role = (triples[:, 2], "tail") if head else (triples[:, 0], "head")

    chains = {
        space: (_chain(params, _padded(params.ent[fixed_ids, cols]), fixed_role, space, levels),
                _chain(params, _padded(params.rel[triples[:, 1], cols]), "rel", space, levels))
        for space, cols in _space_columns(config).items() if space in _needed_spaces(config)
    }
    terms = []
    for i, weights in enumerate(level_weights(config, params.alpha)):
        for space, weight in zip(("dist", "sem"), weights):
            cand = table.rows[space][i]
            if cand is None or weight == 0.0:
                continue
            fixed, rel = (chain[i][:B] for chain in chains[space])
            seed = params.transform_seed[i]
            if space == "sem":
                # (h + r) - t, with the candidate as h or as t
                term = (np.add, _columns(rel), _columns(fixed)) if head else (
                    np.subtract, _columns(fixed + rel), None)
            elif head:
                # candidate heads: h * (seed * r) - t, or (h . seed) * r - t
                first = seed * rel if config.transform == TRANSFORM_DIAGONAL else rel
                term = (np.multiply, _columns(first), _columns(fixed))
            elif config.transform == TRANSFORM_DIAGONAL:
                term = (np.subtract, _columns(fixed * (seed * rel)), None)
            else:
                term = (np.subtract, _columns(_coordinate_dot(fixed.T, seed)[:, None] * rel), None)
            norm_p = 2 if space == "sem" else config.norm_p
            terms.append((config.lambdas[i] * weight, norm_p, *term, cand))
    return terms


def score_batch(params: HieParams, config: HieConfig, triples, candidates, corrupt_side, table=None):
    """(B, C) totals with one side of each triple replaced by each candidate.

    corrupt_side is "head" or "tail". table is the `candidate_table` of
    these candidates and side; it is built here when not given, and
    `evaluate` builds it once for all its calls. The terms are summed by
    `_slab_sums`, with no BLAS call, so a candidate's score depends only on
    its own chains: a copy of an entity ties the row it copies.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if table is None:
        table = candidate_table(params, config, candidates, corrupt_side)
    elif table.side != corrupt_side or table.size != np.size(candidates):
        raise ValueError(f"table holds {table.size} {table.side} candidates, "
                         f"not {np.size(candidates)} {corrupt_side} ones")
    return _slab_sums(_batch_terms(params, config, triples, table), len(triples), table.size)
