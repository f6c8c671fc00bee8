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

`score_triples` and `backward` walk their rows in tiles of
`kernels.tile_rows(half)` rows on the workers of `kernels.map_tiles`,
each tile written into slices of full-size arrays, so the cache keeps one
(N, half) array per level of the corrupted entity's distance chain and of
the semantic residual chain, whatever the tile size. What tiles share,
the dense gradients and each positive's kept-side sums, each tile
returns as its own part, added in tile order by the calling thread.

All-candidate scoring (`score_batch`) takes its candidate chains from a
`candidate_table`, built once per corrupted side over the candidate rows
zero-padded to whole ROW_ALIGN blocks (`kernels.padded`) and stored
transposed, one entry per live level. Each distance and semantic term is
summed by the shared ranking kernel, `kernels.slab_sums`.

`_live_levels` is the one reader of the four `disable_*` switches: it
gives how many levels the score reads of each space (0, 1 or all, always
a prefix). A level's active spaces and blend weights follow from it, and
training and ranking alike build each space's chains over its live levels
only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

TRANSFORM_DIAGONAL = "diagonal"
TRANSFORM_RANK1 = "rank1"
TRANSFORMS = (TRANSFORM_DIAGONAL, TRANSFORM_RANK1)
# (cache key prefix, role) of each slot of a triple
ROLES = (("h", "head"), ("r", "rel"), ("t", "tail"))


@dataclass(frozen=True)
class HieConfig:
    """Scoring-time hyperparameters. Vocabulary sizes live in the params.

    `kind` is a plain class attribute, not a field, so a config document
    (`dataclasses.asdict`) does not hold it.
    """

    kind = "hie"
    dim: int = kernels.setting(64, within="[2, inf)")
    levels: int = kernels.setting(2, within="[1, inf)")
    lambdas: tuple = kernels.setting((0.5, 0.5), within="[0, 1]")
    norm_p: int = kernels.setting(1, (1, 2))
    transform: str = kernels.setting(TRANSFORM_DIAGONAL, TRANSFORMS)
    disable_distance: bool = False
    disable_semantic: bool = False
    disable_distance_deep: bool = False
    disable_semantic_deep: bool = False

    def __post_init__(self):
        if isinstance(self.lambdas, list):  # as a JSON document holds them
            object.__setattr__(self, "lambdas", tuple(self.lambdas))
        kernels.check_fields(self, {"lambdas": "float"})
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if self.dim % 2 != 0:
            raise ValueError(f"dim must be even, got {self.dim!r}")
        if len(self.lambdas) != self.levels:
            raise ValueError(
                f"need one level weight per level: got {len(self.lambdas)} "
                f"weights for {self.levels} levels"
            )
        if not abs(sum(self.lambdas) - 1.0) <= 1e-9:
            raise ValueError(f"level weights must sum to 1, got {self.lambdas}")
        if not any(_live_levels(self)):
            raise ValueError("cannot disable both measurement spaces")

    @property
    def half(self):
        return self.dim // 2


@dataclass
class HieParams(kernels.Params):
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
        return float(kernels.sigmoid(self.blend_logit))


# the model table's names for this module's classes (`trainer.MODELS`)
Config, Params = HieConfig, HieParams


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
    return tuple(level <= live for live in _live_levels(config))


def level_weights(config: HieConfig, alpha: float):
    """Effective (distance, semantic) blend weights per level.

    With both spaces on the blend is (alpha, 1-alpha); a lone active space
    takes full weight 1 so disabling one space yields a pure model of the
    other; a fully masked level contributes nothing.
    """
    weights = []
    for level in range(1, config.levels + 1):
        dist_on, sem_on = active_spaces(config, level)
        weights.append((alpha, 1.0 - alpha) if dist_on and sem_on else (float(dist_on), float(sem_on)))
    return weights


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
    """How many levels the score reads of each space, (distance, semantic): always a prefix of the levels.

    The only reader of the four ablation switches: a disabled space is read
    at no level, a deep-disabled one at level 1 only, any other at all.
    """
    def live(off, off_deep):
        return 0 if off else 1 if off_deep else config.levels

    return (live(config.disable_distance, config.disable_distance_deep),
            live(config.disable_semantic, config.disable_semantic_deep))


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
    its own positives (`_prepare`: ids, bases, head and relation distance
    chains and kept operands over the B rows), and each triple is then
    scored as its own tail-corrupted row, whose chain is the tail's.

    With positives, the cache of a call over B positive triples, triples
    are (B, n, 3) training negatives and reuse the prepared block that
    cache holds under "positives". `kernels.corrupted_entities` checks
    each negative and names its corrupted side; the baselines share it.

    Returns the totals in row order and a cache for `backward`. The
    semantic space keeps no per-role chains: its residual is one chain of
    its own, v_1 = p_h*h + p_r*r - p_t*t and v_j = v_{j-1} @
    extract_sem[j-1] + (h + r - t), cached as "u_sem". Each chain,
    residual and distance is one array over all rows; the rows are
    gathered and scored tile by tile (`kernels.tile_rows`) into slices of
    those arrays.
    """
    if positives is not None:
        return _score_anchored(params, config, triples, positives["positives"])
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    positives = _prepare(params, config, triples)
    totals, cache = _score_anchored(params, config, triples[:, None, :], positives)
    # every row is its positive's own tail-corrupted row, in batch order: its chain is the tail's
    positives["t_dist"] = cache["c_dist"]
    return totals, cache


def _prepare(params, config, triples):
    """The prepared positives of score_triples over the (B, 3) triples, built once over their B rows.

    "h_dist" and "r_dist" hold the head's and the relation's distance
    chains at the levels the score reads, and "bases_dist"/"bases_sem" each
    role's base halves; the tail's chain, "t_dist", is the scored rows'
    own, and score_triples stores it after the call. "head_term" holds,
    per level, the distance residual before its tail is subtracted, with
    the rank-1 inner product in "rank1_inner": a tail-corrupted row
    subtracts its own tail's chain from it. "sem_head" and "sem_tail"
    hold the kept terms of the semantic residual's level 1 and of its base
    for head- and tail-corrupted rows.
    """
    ids = (triples[:, 0], triples[:, 1], triples[:, 2])
    rows = (params.ent[ids[0]], params.rel[ids[1]], params.ent[ids[2]])
    positives = {"ids": ids}
    for space, cols in _space_columns(config).items():
        positives[f"bases_{space}"] = tuple(row[:, cols] for row in rows)
    n_dist, n_sem = _live_levels(config)
    for (key, role), base in zip(ROLES[:2], positives["bases_dist"]):
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
    head, ent_ids = kernels.corrupted_entities(triples, positives["ids"])
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

    kernels.map_tiles(score_tile, _side_tiles(cache, config.half))
    out = np.empty(N)
    out[order] = totals
    return out, cache


def _side_tiles(cache, half):
    """(side, tile) of every tile of a cache's rows: each side's rows in tiles of `tile_rows(half)`."""
    return [(side, tile) for side, block in cache["sides"]
            for tile in kernels.row_tiles(block.stop, kernels.tile_rows(half), start=block.start)]


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
            cache["d_dist"][tile, i] = kernels.norm_rows(u, config.norm_p)
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
            cache["d_sem"][tile, i] = kernels.norm_rows(level, 2)
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
    score_triples, on the workers of `kernels.map_tiles`; each tile
    returns its dense gradients and run sums, added in tile order.
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
    parts = kernels.map_tiles(lambda item: _backward_tile(params, config, cache, upstream, ent_rows, *item),
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
    for i in range(min(_live_levels(config))):
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
    gu = [kernels.norm_backward(u[tile], cache["d_dist"][tile, i], config.norm_p,
                                upstream * (config.lambdas[i] * cache["weights"][i][0]))
          for i, u in enumerate(cache["u_dist"])]
    gv = [kernels.norm_backward(v[tile], cache["d_sem"][tile, i], 2,
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


def candidate_table(params: HieParams, config: HieConfig, candidates, corrupt_side):
    """The `kernels.CandidateTable` of score_batch over `candidates` on corrupt_side.

    Its rows map "dist" and "sem" to one entry per live level, the levels
    the score reads of the space (`_live_levels`): the candidates' chain at
    that level stored transposed, (half, C). On the head side of the
    rank-1 transform a distance entry is the inner product cand . seed
    broadcast to (half, C), since that is all the residual reads of a
    candidate. The chains are built by `_chain` over the candidate rows
    zero-padded to whole ROW_ALIGN blocks, so a copy of an entity row gets
    exactly the chains of the row it copies.
    """
    kernels.check_side(corrupt_side)
    candidates = np.asarray(candidates, dtype=np.int64).ravel()
    C = len(candidates)
    rank1_head = corrupt_side == "head" and config.transform == TRANSFORM_RANK1
    rows = {}
    for (space, cols), levels in zip(_space_columns(config).items(), _live_levels(config)):
        rows[space] = []
        if not levels:
            continue
        chain = _chain(params, kernels.padded(params.ent[candidates, cols]), corrupt_side, space, levels)
        for level, seed in zip(chain, params.transform_seed):
            cand = kernels.transposed(level[:C])
            if space == "dist" and rank1_head:
                cand = np.broadcast_to(_coordinate_dot(cand, seed), (config.half, C))
            rows[space].append(cand)
    return kernels.CandidateTable(corrupt_side, C, rows)


def _batch_terms(params, config, triples, table):
    """The `kernels.slab_sums` terms of every live level and space of score_batch.

    Per coordinate, a term's residual is the arithmetic of `_head_term`
    minus the tail and of the semantic residual (h + r) - t, except
    that the rank-1 inner product is summed one coordinate at a time. The
    fixed and relation chains are built over each space's live levels
    only, over rows padded like the candidates', so a triple's operands do
    not depend on the other triples of the call. A term is skipped when its
    blend weight is 0, as it is at every level the score does not read.
    """
    B = len(triples)
    head = table.side == "head"
    fixed_ids, fixed_role = (triples[:, 2], "tail") if head else (triples[:, 0], "head")

    chains = {
        space: (_chain(params, kernels.padded(params.ent[fixed_ids, cols]), fixed_role, space, levels),
                _chain(params, kernels.padded(params.rel[triples[:, 1], cols]), "rel", space, levels))
        for (space, cols), levels in zip(_space_columns(config).items(), _live_levels(config)) if levels
    }
    terms = []
    for i, weights in enumerate(level_weights(config, params.alpha)):
        for space, weight in zip(("dist", "sem"), weights):
            if weight == 0.0:
                continue
            fixed, rel = (chain[i][:B] for chain in chains[space])
            seed = params.transform_seed[i]
            if space == "sem":
                # (h + r) - t, with the candidate as h or as t
                term = (np.add, kernels.columns(rel), kernels.columns(fixed)) if head else (
                    np.subtract, kernels.columns(fixed + rel), None)
            elif head:
                # candidate heads: h * (seed * r) - t, or (h . seed) * r - t
                first = seed * rel if config.transform == TRANSFORM_DIAGONAL else rel
                term = (np.multiply, kernels.columns(first), kernels.columns(fixed))
            elif config.transform == TRANSFORM_DIAGONAL:
                term = (np.subtract, kernels.columns(fixed * (seed * rel)), None)
            else:
                term = (np.subtract, kernels.columns(_coordinate_dot(fixed.T, seed)[:, None] * rel), None)
            norm_p = 2 if space == "sem" else config.norm_p
            terms.append((config.lambdas[i] * weight, norm_p, *term, table.rows[space][i]))
    return terms


def score_batch(params: HieParams, config: HieConfig, triples, candidates, corrupt_side, table=None):
    """(B, C) totals with one side of each triple replaced by each candidate.

    corrupt_side is "head" or "tail". table is the `candidate_table` of
    these candidates and side; it is built here when not given, and
    `evaluate` builds it once for all its calls. The terms are summed by
    `kernels.slab_sums`, with no BLAS call, so a candidate's score depends
    only on its own chains: a copy of an entity ties the row it copies.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if table is None:
        table = candidate_table(params, config, candidates, corrupt_side)
    kernels.check_table(table, candidates, corrupt_side)
    return kernels.slab_sums(_batch_terms(params, config, triples, table), len(triples), table.size)
