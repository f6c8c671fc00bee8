"""Joint distance-space / semantic-space scoring over a residual level hierarchy.

Every embedding row is split into a geometric half and a semantic half.
Level 1 projects each half through a learned diagonal; deeper levels are
produced by a shared square extraction matrix per transition with the raw
half added back as a residual. Each level contributes a distance-space
term and a semantic translation term, blended by a learned sigmoid weight
and combined across levels with fixed convex weights. Lower is better.

The per-row kernels run over row tiles small enough for a core's L2
cache: `score_triples` and `backward` walk their rows in tiles of
`tile_rows(half)` rows, each written into slices of full-size arrays, so
the cache keeps one (N, half) array per level of each role's distance
chain and of the semantic residual chain, whatever the tile size. Tiles
are whole multiples of ROW_ALIGN rows: OpenBLAS can give a row of a
matrix product other bits when the product is split at a row that is not
a multiple of 512, so only aligned blocks reproduce one call over all
rows.

All-candidate scoring (`score_batch`) takes its candidate chains from a
`candidate_table`, built once per corrupted side over the candidate rows
zero-padded to whole ROW_ALIGN blocks, so every candidate row goes
through the same BLAS kernel and a copy of an entity gets the bits of the
row it copies. The chains are stored transposed, and each distance and
semantic term is summed one coordinate at a time into a (B, slab) block
with elementwise operations only: a candidate's score depends on its own
values, never on its position, the slab size or the other triples. That
kernel, `_slab_sums`, also ranks the translation and rotation baselines.
"""

from __future__ import annotations

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


def row_tiles(n, rows):
    """Slices covering range(n) in consecutive blocks of `rows`; the last may be shorter."""
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


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


def _needed_spaces(config: HieConfig):
    """The spaces, of "dist" and "sem", that are active at one level or more."""
    flags = [active_spaces(config, lv) for lv in range(1, config.levels + 1)]
    return [space for k, space in enumerate(("dist", "sem")) if any(f[k] for f in flags)]


def _norm_rows(residual, norm_p):
    if norm_p == 1:
        return np.sum(np.abs(residual), axis=-1)
    return np.sqrt(np.sum(residual * residual, axis=-1))


def _norm_backward(u, d, norm_p, upstream):
    """Gradient of upstream * ||u||_p w.r.t. u, row-wise, given d = ||u||_p.

    Subgradient 0 at L1 kinks and at the L2 origin.
    """
    if norm_p == 1:
        return upstream[:, None] * np.sign(u)
    safe = np.where(d > 0.0, d, 1.0)
    return (upstream / safe)[:, None] * np.where(d[:, None] > 0.0, u, 0.0)


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


def _distance_residual(h, r, t, seed, transform, out=None):
    """Distance-space residual of (N, half) chains at one level and, for rank-1, the inner product.

    Diagonal transform: h * (seed * r) - t.
    Rank-1 transform: (h . seed) * r - t.
    """
    if transform == TRANSFORM_DIAGONAL:
        u, inner = np.multiply(h, seed * r, out=out), None
    else:
        inner = h @ seed
        u = np.multiply(inner[:, None], r, out=out)
    return np.subtract(u, t, out=out), inner


def score_triples(params: HieParams, config: HieConfig, triples):
    """Vectorized totals for a (B, 3) id batch, plus a cache for backprop.

    The cache holds the bases, the per-role distance chains, the raw
    per-level residual vectors and distances, and the blend state: enough
    for `backward` to run without re-scoring. The semantic space keeps no
    per-role chains: its residual is one chain of its own, v_1 = p_h*h +
    p_r*r - p_t*t and v_j = v_{j-1} @ extract_sem[j-1] + (h + r - t),
    cached as "u_sem". Each space's lists hold only the levels the score
    reads. Each chain, residual and distance is one array over all B rows;
    the rows are gathered and scored tile by tile (`tile_rows`) into
    slices of those arrays.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    B, half = len(triples), config.half
    alpha = params.alpha
    cache = {
        "ids": (triples[:, 0], triples[:, 1], triples[:, 2]),
        "alpha": alpha,
        "weights": level_weights(config, alpha),
    }
    rows = tuple(np.empty((B, config.dim)) for _ in range(3))
    for space, cols in _space_columns(config).items():
        cache[f"bases_{space}"] = tuple(row[:, cols] for row in rows)
    # levels whose term the score reads, per space: under every ablation a prefix
    on = [active_spaces(config, level) for level in range(1, config.levels + 1)]
    n_dist, n_sem = sum(d for d, _ in on), sum(s for _, s in on)
    for key in ("h_dist", "r_dist", "t_dist", "u_dist"):
        cache[key] = [np.empty((B, half)) for _ in range(n_dist)]
    cache["u_sem"] = [np.empty((B, half)) for _ in range(n_sem)]
    rank1 = config.transform == TRANSFORM_RANK1
    cache["rank1_inner"] = [np.empty(B) for _ in range(n_dist if rank1 else 0)]
    cache["d_dist"] = np.zeros((B, config.levels))
    cache["d_sem"] = np.zeros((B, config.levels))
    totals = np.zeros(B)
    for tile in row_tiles(B, tile_rows(half)):
        _score_tile(params, config, cache, rows, totals, tile)
    return totals, cache


def _score_tile(params, config, cache, rows, totals, tile):
    """score_triples over the rows of one tile, written into its slices of cache and totals."""
    tables = (params.ent, params.rel, params.ent)
    for row, table, ids in zip(rows, tables, cache["ids"]):
        row[tile] = table[ids[tile]]
    d_dist, d_sem = cache["d_dist"][tile], cache["d_sem"][tile]
    if cache["u_dist"]:
        chains = [[level[tile] for level in cache[f"{key}_dist"]] for key, _ in ROLES]
        for k, (_, role) in enumerate(ROLES):
            _chain(params, cache["bases_dist"][k][tile], role, "dist", len(chains[k]), out=chains[k])
        for i, level in enumerate(cache["u_dist"]):
            u, inner = _distance_residual(*(chain[i] for chain in chains), params.transform_seed[i],
                                          config.transform, out=level[tile])
            if inner is not None:
                cache["rank1_inner"][i][tile] = inner
            d_dist[:, i] = _norm_rows(u, config.norm_p)
    if cache["u_sem"]:
        v = [level[tile] for level in cache["u_sem"]]
        h, r, t = (base[tile] for base in cache["bases_sem"])
        np.subtract(np.add(params.proj_head_sem * h, params.proj_rel_sem * r, out=v[0]),
                    params.proj_tail_sem * t, out=v[0])
        for i, level in enumerate(_lift(v, h + r - t, params.extract_sem)):
            d_sem[:, i] = _norm_rows(level, 2)
    for i, (w_dist, w_sem) in enumerate(cache["weights"]):
        totals[tile] += config.lambdas[i] * (w_dist * d_dist[:, i] + w_sem * d_sem[:, i])


def backward(params: HieParams, config: HieConfig, cache, upstream):
    """Analytic gradients of sum_b upstream[b] * total[b] for one score_triples cache.

    Returns (ent_rows, rel_rows, dense): the (2B, dim) entity-row gradients,
    B head rows then B tail rows; the (B, dim) relation-row gradients, both
    uncoalesced; and every structure tensor's dense gradient by field name.
    Each distance chain is walked back once per role; the semantic residual
    chain once for all three, since its gradient reaches head and relation
    as is and the tail negated. Rows run in the tiles of score_triples:
    each tile's row gradients are exactly those of one pass over all rows,
    and each dense gradient sums its per-tile parts.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    B = len(cache["ids"][0])
    dense = {n: np.zeros_like(t) for n, t in params.field_items() if n not in ("ent", "rel")}
    # d(total)/d(alpha) collects only levels where the blend is live
    blend_slope = 0.0
    for i in range(config.levels):
        if all(active_spaces(config, i + 1)):
            blend_slope += config.lambdas[i] * float(
                np.sum(upstream * (cache["d_dist"][:, i] - cache["d_sem"][:, i]))
            )
    dense["blend_logit"][...] = blend_slope * cache["alpha"] * (1.0 - cache["alpha"])

    ent_rows = np.zeros((2 * B, config.dim))
    rel_rows = np.zeros((B, config.dim))
    row_blocks = (ent_rows[:B], rel_rows, ent_rows[B:])
    for tile in row_tiles(B, tile_rows(config.half)):
        _backward_tile(params, config, cache, upstream[tile],
                       [block[tile] for block in row_blocks], dense, tile)
    return ent_rows, rel_rows, dense


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


def _backward_tile(params, config, cache, upstream, row_blocks, dense, tile):
    """backward over one tile: writes its (head, rel, tail) row gradients, adds to dense."""
    dist_cols, sem_cols = _space_columns(config).values()
    # the direct (head, rel, tail) gradients into the distance chains, per level
    direct = []
    for i, u in enumerate(cache["u_dist"]):
        gu = _norm_backward(u[tile], cache["d_dist"][tile, i], config.norm_p,
                            upstream * (config.lambdas[i] * cache["weights"][i][0]))
        seed = params.transform_seed[i]
        h_lvl = cache["h_dist"][i][tile]
        r_lvl = cache["r_dist"][i][tile]
        if config.transform == TRANSFORM_DIAGONAL:
            g_head, g_rel = gu * (seed * r_lvl), gu * (seed * h_lvl)
            dense["transform_seed"][i] += np.sum(gu * (h_lvl * r_lvl), axis=0)
        else:
            g_inner = np.sum(gu * r_lvl, axis=-1)
            g_head = g_inner[:, None] * seed[None, :]
            g_rel = cache["rank1_inner"][i][tile][:, None] * gu
            dense["transform_seed"][i] += g_inner @ h_lvl
        direct.append((g_head, g_rel, -gu))
    if direct:
        for k, (key, role) in enumerate(ROLES):
            chain = [level[tile] for level in cache[f"{key}_dist"]]
            G, G_deep = _walk_back([level[k] for level in direct], chain, params.extract_dist,
                                   dense["extract_dist"])
            dense[f"proj_{role}_dist"] += np.sum(G * cache["bases_dist"][k][tile], axis=0)
            row_blocks[k][:, dist_cols] = G_deep + G * getattr(params, f"proj_{role}_dist")
    # the residual chain's gradient reaches head and relation as is, the tail negated
    v = [level[tile] for level in cache["u_sem"]]
    if v:
        gv = [_norm_backward(level, cache["d_sem"][tile, i], 2,
                             upstream * (config.lambdas[i] * cache["weights"][i][1]))
              for i, level in enumerate(v)]
        G, G_deep = _walk_back(gv, v, params.extract_sem, dense["extract_sem"])
        for k, ((_, role), sign) in enumerate(zip(ROLES, (1.0, 1.0, -1.0))):
            dense[f"proj_{role}_sem"] += sign * np.sum(G * cache["bases_sem"][k][tile], axis=0)
            row_blocks[k][:, sem_cols] = sign * (G_deep + G * getattr(params, f"proj_{role}_sem"))


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
    (coordinates, C) candidate rows stored transposed. Each term is summed
    one coordinate at a time into a (B, slab) block (`slab_size`) with
    elementwise operations only, so a candidate's total depends only on its
    own values: a copy of an entity ties the row it copies, and every slab
    size gives the same bits.
    """
    slab = slab_size(B)
    totals = np.zeros((B, C))
    sum_buf, step_buf = np.empty((B, min(slab, C))), np.empty((B, min(slab, C)))
    for cols in row_tiles(C, slab):
        n = cols.stop - cols.start
        block, acc, step = totals[:, cols], sum_buf[:, :n], step_buf[:, :n]
        for weight, norm_p, combine, first, last, cand in terms:
            for k in range(len(cand)):
                out = step if k else acc
                combine(first[k], cand[k, cols], out=out)
                if last is not None:
                    np.subtract(out, last[k], out=out)
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
    return totals


def _batch_terms(params, config, triples, table):
    """The `_slab_sums` terms of every live level and space of score_batch.

    Per coordinate, a term's residual is the arithmetic of
    _distance_residual and of the semantic residual (h + r) - t, except
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
