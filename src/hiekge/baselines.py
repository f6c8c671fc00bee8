"""Reference scorers: translation, bilinear-diagonal, and planar rotation.

All three report lower-is-better values so the one evaluator and trainer
serve every model; the bilinear score is negated for that reason. The
rotation model stores relation phase angles in the first d/2 columns of
its relation matrix (the remaining columns are unused and receive zero
gradient), and treats consecutive entity coordinates as complex pairs.

All-candidate ranking of the two distance models runs through hie's
ranking kernel (`hie_model._slab_sums`) with one term each, so a copy of
an entity ties the row it copies; DistMult, which has no norm to sum,
ranks with one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hie_model import _columns, _norm_backward, _norm_rows, _padded, _slab_sums, _transposed

TRANSE = "transe"
DISTMULT = "distmult"
ROTATE = "rotate"
BASELINE_KINDS = (TRANSE, DISTMULT, ROTATE)


@dataclass(frozen=True)
class BaselineConfig:
    kind: str
    dim: int = 64
    norm_p: int = 1

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.kind == ROTATE and self.dim % 2 != 0:
            raise ValueError("rotation model needs an even dim")
        if self.norm_p not in (1, 2):
            raise ValueError(f"norm_p must be 1 or 2, got {self.norm_p}")


@dataclass
class BaselineParams:
    kind: str
    ent: np.ndarray
    rel: np.ndarray

    @property
    def num_entities(self):
        return self.ent.shape[0]

    @property
    def num_relations(self):
        return self.rel.shape[0]

    def field_items(self):
        return [("ent", self.ent), ("rel", self.rel)]


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
    return BaselineParams(kind=config.kind, ent=ent, rel=rel)


def _rotate(x, phase):
    """Real and imaginary parts of x o e^(i phase), plus (xr, xi, cos, sin) for backprop.

    Consecutive coordinates of x are complex pairs; phase holds one angle
    per pair.
    """
    xr, xi = x[..., 0::2], x[..., 1::2]
    cos, sin = np.cos(phase), np.sin(phase)
    return xr * cos - xi * sin, xr * sin + xi * cos, (xr, xi, cos, sin)


def _rotate_residual(h, r, t):
    """Real and imaginary parts of h o r - t, plus (hr, hi, cos, sin) for backprop.

    r rotates each complex pair of h by the phase in its first d/2 columns.
    """
    re, im, parts = _rotate(h, r[..., : h.shape[-1] // 2])
    return re - t[..., 0::2], im - t[..., 1::2], parts


def score_triples(params: BaselineParams, config: BaselineConfig, triples):
    """Vectorized totals for a (B, 3) id batch, plus a cache for backprop.

    DistMult is the negated trilinear product, entity rows multiplied
    first, so lower is better like the distances and the head/tail
    symmetry is bit-exact.
    """
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    h_ids, r_ids, t_ids = triples[:, 0], triples[:, 1], triples[:, 2]
    h, r, t = params.ent[h_ids], params.rel[r_ids], params.ent[t_ids]
    cache = {"ids": (h_ids, r_ids, t_ids)}
    if params.kind == TRANSE:
        u = (h + r) - t
        cache["u"] = u
        totals = _norm_rows(u, config.norm_p)
    elif params.kind == DISTMULT:
        cache["hrt"] = (h, r, t)
        totals = -np.sum((h * t) * r, axis=-1)
    else:
        re, im, (hr, hi, cos, sin) = _rotate_residual(h, r, t)
        cache["rotate"] = (hr, hi, cos, sin, re, im)
        totals = np.sqrt(np.sum(re * re, axis=-1) + np.sum(im * im, axis=-1))
    cache["totals"] = totals
    return totals, cache


def backward(params: BaselineParams, config: BaselineConfig, cache, upstream):
    """Analytic gradients of sum_b upstream[b] * total[b] for one score_triples cache.

    Returns (ent_rows, rel_rows, dense) like hie_model.backward: B head rows
    then B tail rows, B relation rows, and no dense tensors.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    B, dim = len(upstream), params.ent.shape[1]
    ent_rows = np.empty((2 * B, dim))
    g_head, g_tail = ent_rows[:B], ent_rows[B:]
    if params.kind == TRANSE:
        gu = _norm_backward(cache["u"], cache["totals"], config.norm_p, upstream)
        g_head[...], g_tail[...], rel_rows = gu, -gu, gu
    elif params.kind == DISTMULT:
        h, r, t = cache["hrt"]
        g_head[...] = -upstream[:, None] * (r * t)
        g_tail[...] = -upstream[:, None] * (h * r)
        rel_rows = -upstream[:, None] * (h * t)
    else:
        hr, hi, cos, sin, re, im = cache["rotate"]
        # |h o r - t| is the L2 norm over the (re, im) pairs
        gu_re = _norm_backward(re, cache["totals"], 2, upstream)
        gu_im = _norm_backward(im, cache["totals"], 2, upstream)
        g_head[:, 0::2] = gu_re * cos + gu_im * sin
        g_head[:, 1::2] = -gu_re * sin + gu_im * cos
        g_tail[:, 0::2] = -gu_re
        g_tail[:, 1::2] = -gu_im
        rel_rows = np.zeros((B, dim))
        rel_rows[:, : dim // 2] = gu_re * (-hr * sin - hi * cos) + gu_im * (hr * cos - hi * sin)
    return ent_rows, rel_rows, {}


def candidate_table(params: BaselineParams, config: BaselineConfig, candidates, corrupt_side):
    """The candidate side shared by every score_batch call of one direction.

    TransE's is the candidate rows stored transposed, (dim, C); RotatE's
    the same with each row's real parts first and its imaginary parts
    after, so both are coordinates of one L2 term. Both serve either side. DistMult's is its candidate rows zero-padded to whole ROW_ALIGN
    blocks (see score_batch).
    """
    candidates = np.asarray(candidates, dtype=np.int64).ravel()
    if params.kind == DISTMULT:
        return _padded(params.ent[candidates])
    if params.kind == ROTATE:
        pair_split = np.r_[0 : config.dim : 2, 1 : config.dim : 2]
        return _transposed(params.ent[candidates[:, None], pair_split])
    return _transposed(params.ent[candidates])


def score_batch(params: BaselineParams, config: BaselineConfig, triples, candidates, corrupt_side, table=None):
    """(B, C) totals with one side of each triple replaced by each candidate.

    table is the `candidate_table` of these candidates; it is built here
    when not given. TransE and RotatE are one `_slab_sums` term each, so a
    copy of an entity ties the row it copies. TransE's residual is
    (h + r) - t per coordinate. RotatE's is the L2 norm of h o r - t over
    the pair-split coordinates, and a candidate head uses
    |c o r - t| = |c - t o conj(r)|, which holds because every |r_k| = 1.
    DistMult is one matrix product with the candidates on the row axis of
    a table padded to whole ROW_ALIGN blocks: every candidate row runs
    through the same BLAS kernel, so a copy of an entity ties here too.
    """
    if corrupt_side not in ("head", "tail"):
        raise ValueError(f"corrupt_side must be 'head' or 'tail', got {corrupt_side!r}")
    triples = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    candidates = np.asarray(candidates, dtype=np.int64).ravel()
    B, C = len(triples), len(candidates)
    head = corrupt_side == "head"
    r = params.rel[triples[:, 1]]
    fixed = params.ent[triples[:, 2] if head else triples[:, 0]]
    if table is None:
        table = candidate_table(params, config, candidates, corrupt_side)
    elif params.kind != DISTMULT and table.shape != (config.dim, C):
        raise ValueError(f"table holds {table.shape[-1]} candidates, not {C}")
    if params.kind == DISTMULT:
        # trilinear form is a plain inner product against the candidate
        return np.negative((table @ (fixed * r).T)[:C].T, out=np.empty((B, C)))
    if params.kind == ROTATE:
        # the fixed side rotated by r, or by its conjugate for candidate heads
        phase = r[:, : config.dim // 2]
        re, im, _ = _rotate(fixed, -phase if head else phase)
        term = (2, np.subtract, _columns(np.concatenate([re, im], axis=1)), None)
    elif head:
        term = (config.norm_p, np.add, _columns(r), _columns(fixed))
    else:
        term = (config.norm_p, np.subtract, _columns(fixed + r), None)
    return _slab_sums([(1.0, *term, table)], B, C)
