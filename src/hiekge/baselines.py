"""Reference scorers: translation, bilinear-diagonal, and planar rotation.

All three report lower-is-better values so the one evaluator and trainer
serve every model; the bilinear score is negated for that reason. The
rotation model stores relation phase angles in the first d/2 columns of
its relation matrix (the remaining columns are unused and receive zero
gradient), and treats consecutive entity coordinates as complex pairs.

Each model has one per-row kernel, anchored on positives as in hie.
Every scored row keeps its positive's relation and one entity, so only
its corrupted entity e is gathered and compared with one anchor per
positive and side, built from the kept entity and the relation over B
rows (`_anchors`). Training negatives reuse the anchors of their
positives' call (`score_triples(..., positives=cache)`); a plain (B, 3)
batch is prepared as its own positives, each triple scored as its own
tail-corrupted row. `backward` sums the anchor gradients per positive
and side before running them back to the kept entity and the relation.

The forward and the backward walk their rows, which are in (B, n)
order, in tiles of whole positives of about `kernels.tile_rows(dim)`
rows (`_positive_tiles`), on the workers of `kernels.map_tiles`. Each
tile gathers its rows into its own slices of the cache's arrays, and
each positive's anchor-gradient sums are one product of its own rows, so
any worker count gives the bits of one.

All-candidate ranking of every model runs through the shared ranking
kernel (`kernels.slab_sums`) with one term each, so a copy of an entity
ties the row it copies; DistMult's term is a signed sum of products,
with no norm.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from . import kernels

TRANSE = "transe"
DISTMULT = "distmult"
ROTATE = "rotate"
BASELINE_KINDS = (TRANSE, DISTMULT, ROTATE)


@dataclass(frozen=True)
class BaselineConfig:
    kind: str = kernels.setting(MISSING, BASELINE_KINDS)
    dim: int = kernels.setting(64, within="[1, inf)")
    norm_p: int = kernels.setting(1, (1, 2))

    def __post_init__(self):
        kernels.check_fields(self)
        if self.kind == ROTATE and self.dim % 2 != 0:
            raise ValueError("rotation model needs an even dim")


@dataclass
class BaselineParams(kernels.Params):
    """Entity and relation rows; which score they serve is the config's kind."""

    ent: np.ndarray
    rel: np.ndarray


# the model table's names for this module's classes (`trainer.MODELS`)
Config, Params = BaselineConfig, BaselineParams


def init_params(num_entities, num_relations, config: BaselineConfig, seed) -> BaselineParams:
    """Uniform embeddings; rotation relations start as uniform phases in [-pi, pi)."""
    if num_entities < 1 or num_relations < 1:
        raise ValueError("need at least one entity and one relation")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(config.dim)
    ent = rng.uniform(-bound, bound, size=(num_entities, config.dim))
    if config.kind == ROTATE:
        rel = rng.uniform(-np.pi, np.pi, size=(num_relations, config.dim))
    else:
        rel = rng.uniform(-bound, bound, size=(num_relations, config.dim))
    return BaselineParams(ent=ent, rel=rel)


def _rotate(x, phase):
    """Real and imaginary parts of x o e^(i phase).

    Consecutive coordinates of x are complex pairs; phase holds one angle
    per pair.
    """
    xr, xi = x[..., 0::2], x[..., 1::2]
    cos, sin = np.cos(phase), np.sin(phase)
    return xr * cos - xi * sin, xr * sin + xi * cos


def score_triples(params: BaselineParams, config: BaselineConfig, triples, positives=None):
    """Vectorized totals for a (B, 3) id batch, plus a cache for backprop.

    Every row is scored against a positive it corrupts, as in hie: a
    (B, 3) batch is first prepared as its own positives (`_prepare`: ids,
    (h, r, t) rows and anchors over the B rows), and each triple is then
    scored as its own tail-corrupted row. DistMult multiplies the entity
    rows first, so lower is better like the distances and the head/tail
    symmetry is bit-exact.

    With positives, the cache of a call over B positive triples, triples
    are (B, n, 3) training negatives and reuse the prepared block that
    cache holds under "positives" (`kernels.corrupted_entities` checks
    each and names its corrupted side). Returns the totals in row order
    and a cache for `backward`.
    """
    if positives is not None:
        return _score_anchored(params, config, triples, positives["positives"])
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    return _score_anchored(params, config, triples[:, None, :], _prepare(params, config, triples))


def _prepare(params, config, triples):
    """The prepared positives of score_triples over the (B, 3) triples: ids, (h, r, t) rows and anchors."""
    ids = (triples[:, 0], triples[:, 1], triples[:, 2])
    hrt = (params.ent[ids[0]], params.rel[ids[1]], params.ent[ids[2]])
    return {"ids": ids, "hrt": hrt, "anchors": _anchors(config, *hrt)}


def _anchors(config: BaselineConfig, h, r, t):
    """(B, 2, dim) anchors of B positives' rows: [:, 0] serves head-corrupted rows, [:, 1] the rest.

    A row scores its corrupted entity e against its positive's anchor a
    of its side. TransE: ||e - a||_p, with a = t - r or h + r. RotatE:
    |e - a|, with a = t o conj(r) or h o r, since every |r_k| = 1.
    DistMult: -sum((e * a) * r), with a the kept entity t or h: the two
    entity rows multiply first, so a triple scores with the same bits
    whichever entity it corrupts.
    """
    anchors = np.empty((len(h), 2, config.dim))
    if config.kind == TRANSE:
        np.subtract(t, r, out=anchors[:, 0])
        np.add(h, r, out=anchors[:, 1])
    elif config.kind == DISTMULT:
        anchors[:, 0], anchors[:, 1] = t, h
    else:
        phase = r[:, : config.dim // 2]
        for k, (kept, sign) in enumerate(((t, -1.0), (h, 1.0))):
            anchors[:, k, 0::2], anchors[:, k, 1::2] = _rotate(kept, sign * phase)
    return anchors


def _positive_tiles(B, n, dim):
    """(positives, rows) of each tile of a (B, n) row block: whole positives, up to `tile_rows(dim)` rows.

    Rows are in (B, n) order, so a tile's rows are one contiguous range.
    A tile holds one positive at least, however many rows that has.
    """
    per = max(1, kernels.tile_rows(dim) // n)
    return [(pos, slice(pos.start * n, pos.stop * n)) for pos in kernels.row_tiles(B, per)]


def _score_anchored(params, config, triples, positives):
    """score_triples of (B, n, 3) triples against positives, the prepared block of their B positives.

    The rows keep their (B, n) order. "sides" holds per positive a (2, n)
    mask of its head- and tail-corrupted rows, which `backward` uses to
    sum the anchor gradients of each side over one positive's rows.
    TransE and RotatE cache the residual e - a, DistMult the corrupted
    rows and their anchors. The rows run in tiles of whole positives
    (`_positive_tiles`) on the workers of `kernels.map_tiles`; each tile
    gathers its rows into its own slice of the cache's arrays.
    """
    h_ids, r_ids, t_ids = ids = positives["ids"]
    head, ent_ids = kernels.corrupted_entities(triples, ids)
    B, n = head.shape
    N, dim = B * n, config.dim
    ent_ids = ent_ids.ravel()
    # each row's anchor: its positive's, of its corrupted side; in range by construction,
    # so the tiles take them with mode="clip", which writes straight into out
    anchor_ids = (2 * np.arange(B)[:, None] + ~head).ravel()
    anchors = positives["anchors"].reshape(2 * B, dim)
    cache = {"positives": positives, "sides": np.stack([head, ~head], axis=1).astype(np.float64),
             "row_ids": ((ent_ids, h_ids, t_ids), r_ids)}
    totals = cache["totals"] = np.empty(N)
    if config.kind == DISTMULT:
        e, a = cache["ea"] = np.empty((N, dim)), np.empty((N, dim))
        r = positives["hrt"][1]
    else:
        u = cache["u"] = np.empty((N, dim))
        norm_p = 2 if config.kind == ROTATE else config.norm_p

    def score_tile(tile):
        pos, rows = tile
        if config.kind == DISTMULT:
            np.take(params.ent, ent_ids[rows], axis=0, out=e[rows])
            np.take(anchors, anchor_ids[rows], axis=0, out=a[rows], mode="clip")
            products = (e[rows] * a[rows]).reshape(-1, n, dim) * r[pos, None]
            totals[rows] = -np.sum(products.reshape(-1, dim), axis=-1)
        else:
            np.take(anchors, anchor_ids[rows], axis=0, out=u[rows], mode="clip")
            np.subtract(np.take(params.ent, ent_ids[rows], axis=0), u[rows], out=u[rows])
            totals[rows] = kernels.norm_rows(u[rows], norm_p)

    kernels.map_tiles(score_tile, _positive_tiles(B, n, dim))
    return totals, cache


def backward(params: BaselineParams, config: BaselineConfig, cache, upstream):
    """Analytic gradients of sum_b upstream[b] * total[b] for one score_triples cache.

    upstream holds one value per scored row, in row order; ValueError
    otherwise. Returns (ent_rows, rel_rows, dense) like
    hie_model.backward: a cache of N rows over B positives emits its N
    corrupted-entity rows, then B kept-head rows and B kept-tail rows, and
    B relation rows, and no dense tensors. Each row's corrupted entity
    gets the gradient at e. The anchor gradients are linear in it, so each
    positive's are summed per side first, straight from the (B, n, dim)
    rows under the "sides" masks, and then run back through that
    positive's anchors over B rows. The N rows run in the tiles of
    score_triples, on the workers of `kernels.map_tiles`; each positive's
    sums are one product of its own, so any tiling gives the same bits.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    h, r, t = cache["positives"]["hrt"]
    sides = cache["sides"]
    B, _, n = sides.shape
    N, dim = B * n, config.dim
    if upstream.shape != (N,):
        raise ValueError(f"upstream must hold one value per scored row: {N} values, "
                         f"got shape {upstream.shape}")
    ent_rows = np.empty((N + 2 * B, dim))
    g_e, g_head, g_tail = ent_rows[:N], ent_rows[N:N + B], ent_rows[N + B:]
    # per positive and side (head-corrupted, tail-corrupted): the sum of the anchor gradients
    sums = np.empty((B, 2, dim))

    def backward_tile(tile):
        pos, rows = tile
        if config.kind == DISTMULT:
            e, a = (x[rows] for x in cache["ea"])
            # the gradient at e is -upstream * (a * r)
            np.multiply(-upstream[rows, None], (a.reshape(-1, n, dim) * r[pos, None]).reshape(-1, dim),
                        out=g_e[rows])
            # and at the anchor product a * r it is -upstream * e
            sums[pos] = (sides[pos] * -upstream[rows].reshape(-1, 1, n)) @ e.reshape(-1, n, dim)
            return
        kernels.norm_backward(cache["u"][rows], cache["totals"][rows],
                              2 if config.kind == ROTATE else config.norm_p, upstream[rows], out=g_e[rows])
        # the gradient at a is minus that at e
        sums[pos] = np.negative(sides[pos] @ g_e[rows].reshape(-1, n, dim))

    kernels.map_tiles(backward_tile, _positive_tiles(B, n, dim))
    if config.kind == DISTMULT:
        g_head[...], g_tail[...] = sums[:, 1] * r, sums[:, 0] * r
        rel_rows = sums[:, 0] * t + sums[:, 1] * h
        return ent_rows, rel_rows, {}
    if config.kind == TRANSE:
        g_head[...], g_tail[...] = sums[:, 1], sums[:, 0]
        return ent_rows, sums[:, 1] - sums[:, 0], {}
    # a = x o e^(i psi) sends x the gradient rotated by -psi, and psi
    # G_im * a_re - G_re * a_im; psi is -phase for the head side
    phase = r[:, : dim // 2]
    rel_rows = np.zeros((B, dim))
    for k, (kept, sign) in enumerate(((g_tail, -1.0), (g_head, 1.0))):
        G, a = sums[:, k], cache["positives"]["anchors"][:, k]
        kept[:, 0::2], kept[:, 1::2] = _rotate(G, -sign * phase)
        rel_rows[:, : dim // 2] += sign * (G[:, 1::2] * a[:, 0::2] - G[:, 0::2] * a[:, 1::2])
    return ent_rows, rel_rows, {}


def candidate_table(params: BaselineParams, config: BaselineConfig, candidates, corrupt_side):
    """The `kernels.CandidateTable` shared by every score_batch call of one direction.

    TransE's and DistMult's rows are the candidate rows stored transposed,
    (dim, C); RotatE's the same with each row's real parts first and its
    imaginary parts after, so both are coordinates of one L2 term.
    """
    kernels.check_side(corrupt_side)
    candidates = np.asarray(candidates, dtype=np.int64).ravel()
    if config.kind == ROTATE:
        pair_split = np.r_[0 : config.dim : 2, 1 : config.dim : 2]
        rows = kernels.transposed(params.ent[candidates[:, None], pair_split])
    else:
        rows = kernels.transposed(params.ent[candidates])
    return kernels.CandidateTable(corrupt_side, len(candidates), rows)


def score_batch(params: BaselineParams, config: BaselineConfig, triples, candidates, corrupt_side, table=None):
    """(B, C) totals with one side of each triple replaced by each candidate.

    table is the `candidate_table` of these candidates and side; it is
    built here when not given. Each model is one `kernels.slab_sums`
    term, so a copy of an entity ties the row it copies. TransE's
    residual is (h + r) - t per coordinate. RotatE's is the L2 norm of
    h o r - t over the pair-split coordinates, and a candidate head uses
    |c o r - t| = |c - t o conj(r)|, which holds because every |r_k| = 1.
    DistMult's is the product (fixed * r) * c per coordinate, summed with
    its sign and no norm, and weighted -1.
    """
    if table is None:
        table = candidate_table(params, config, candidates, corrupt_side)
    kernels.check_table(table, candidates, corrupt_side)
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    B, C = len(triples), table.size
    head = corrupt_side == "head"
    r = params.rel[triples[:, 1]]
    fixed = params.ent[triples[:, 2] if head else triples[:, 0]]
    if config.kind == DISTMULT:
        # the trilinear form is an inner product of the candidate with fixed * r
        term = (-1.0, None, np.multiply, kernels.columns(fixed * r), None)
    elif config.kind == ROTATE:
        # the fixed side rotated by r, or by its conjugate for candidate heads
        phase = r[:, : config.dim // 2]
        re, im = _rotate(fixed, -phase if head else phase)
        term = (1.0, 2, np.subtract, kernels.columns(np.concatenate([re, im], axis=1)), None)
    elif head:
        term = (1.0, config.norm_p, np.add, kernels.columns(r), kernels.columns(fixed))
    else:
        term = (1.0, config.norm_p, np.subtract, kernels.columns(fixed + r), None)
    return kernels.slab_sums([(*term, table.rows)], B, C)
