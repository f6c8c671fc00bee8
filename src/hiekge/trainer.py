"""Negative sampling, self-adversarial loss, gradient assembly, Adam, training loop.

Each model module owns its math: `score_triples` returns scores and a
cache, and `backward` turns that cache into per-row and dense gradients.
This module only routes calls to the right model, through `MODELS`,
coalesces the rows, and applies the loss and the optimiser. `MODELS` is
the one table from a model kind (a config's `kind`) to the module that
serves it, and every site in the package that picks a model's code or
classes reads it when it runs. Every model has one kernel, anchored on
positives: each scored row keeps its positive's relation and
one entity, so a call gathers only the corrupted entity (hie also chains
only that entity), and the cache's `backward` emits one entity row per
scored row plus one kept-head, kept-tail and relation row per positive,
each summed over that positive's rows. A training step scores its
positives, each as its own tail-corrupted row, and then its negatives
against the positives' prepared block, in one `score_triples` call each;
it runs `backward` over both caches and sums all their rows in one
`coalesce` per embedding table. Adversarial
weights are treated as constants of the objective (no gradient flows
through them), so the finite-difference checker freezes them before
differencing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import baselines, hie_model, kernels, kg_data

SIGN_PLAUSIBILITY = "plausibility"
SIGN_LITERAL = "literal"
ADVERSARIAL_SIGNS = (SIGN_PLAUSIBILITY, SIGN_LITERAL)
# model kind -> its module, which exposes Config, Params, init_params,
# score_triples, backward, candidate_table and score_batch. It holds modules,
# so a call looks the function up when it runs, on whatever the module holds then
MODELS = {hie_model.Config.kind: hie_model, **dict.fromkeys(baselines.BASELINE_KINDS, baselines)}


class NumericError(RuntimeError):
    """Training or ranking produced a non-finite loss or score."""


@dataclass(frozen=True)
class TrainConfig:
    gamma: float = kernels.setting(6.0, within="(0, inf)")
    alpha_temp: float = kernels.setting(1.0, within="[0, inf)")
    num_negatives: int = kernels.setting(16, within="[1, inf)")
    learning_rate: float = kernels.setting(1e-4, within="(0, inf)")
    adam_beta1: float = kernels.setting(0.9, within="[0, 1)")
    adam_beta2: float = kernels.setting(0.999, within="[0, 1)")
    adam_eps: float = kernels.setting(1e-8, within="(0, inf)")
    steps: int = kernels.setting(1000, within="[0, inf)")
    batch_size: int = kernels.setting(256, within="[1, inf)")
    seed: int = kernels.setting(0, within="[0, inf)")
    adversarial_sign: str = kernels.setting(SIGN_PLAUSIBILITY, ADVERSARIAL_SIGNS)

    def __post_init__(self):
        kernels.check_fields(self)


@dataclass
class SparseGrad:
    """Gradient rows for an embedding table; ids unique and sorted."""

    ids: np.ndarray
    values: np.ndarray


@dataclass
class GradSet:
    """Batch gradient: sparse entity/relation rows plus dense structure tensors.

    Embedding rows not touched by the batch are absent, i.e. exactly zero.
    """

    ent: SparseGrad
    rel: SparseGrad
    dense: dict = field(default_factory=dict)


def coalesce(ids, values) -> SparseGrad:
    """Sum duplicate row gradients into unique sorted rows.

    ids must be non-negative, and ids * len(ids) must fit int64;
    ValueError otherwise. One sort of the key id * N + position gives
    each id's rows in input order. Each unique row then starts from 0.0
    and adds its rows in that order, so its bits are those of a running
    sum over the input (a bincount's), and rows of -0.0 alone sum to
    +0.0. The unique rows run in tiles of COALESCE_TILE_BLOCKS times
    `kernels.tile_rows(width)` rows on the workers of `kernels.map_tiles`;
    each tile writes only its own rows, so any tiling gives the same bits.
    """
    ids = np.asarray(ids, dtype=np.int64)
    N, width = len(ids), values.shape[1]
    top = (np.iinfo(np.int64).max - (N - 1)) // max(N, 1)  # the largest id whose last key fits
    if N and not (ids.min() >= 0 and ids.max() <= top):
        raise ValueError(f"coalesce needs ids in [0, {top}] for {N} rows, got [{ids.min()}, {ids.max()}]")
    sorted_ids, order = np.divmod(np.sort(ids * N + np.arange(N)), N)
    first = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
    counts = np.diff(np.r_[first, N])
    sums = np.empty((len(first), width))
    kernels.map_tiles(lambda tile: _sum_groups(values, order, first[tile], counts[tile], sums[tile]),
                      kernels.row_tiles(len(first), COALESCE_TILE_BLOCKS * kernels.tile_rows(width)))
    return SparseGrad(ids=sorted_ids[first], values=sums)


# training tiles per tile of `coalesce`. A tile makes a few dozen short numpy
# calls, and at two workers each call waits for the interpreter lock when it
# returns, so larger tiles share out better: on a 2-vCPU Xeon, at a training
# step's 35,328 entity rows x 64, tiles of 512 rows ran slower at two workers
# than at one, and tiles of 4,096 rows about a third faster
COALESCE_TILE_BLOCKS = 8
# rows of a group that `_sum_groups` adds one level at a time; deeper ones are added by one accumulate
GROUP_LEVELS = 8


def _sum_groups(values, order, first, counts, out):
    """out[g] = 0.0 + values[order[first[g]]] + ... over the counts[g] rows of each group g, in that order.

    Level k adds each live group's (k+1)-th row at once; a group with
    more than GROUP_LEVELS rows adds the rest with `np.add.accumulate`,
    which adds in order (`np.add.reduce` does not).
    """
    np.take(values, order[first], axis=0, out=out, mode="clip")
    out += 0.0
    live = np.arange(len(first))
    for k in range(1, GROUP_LEVELS):
        live = live[counts[live] > k]
        out[live] += np.take(values, order[first[live] + k], axis=0)
    for g in live[counts[live] > GROUP_LEVELS]:
        rest = np.take(values, order[first[g] + GROUP_LEVELS:first[g] + counts[g]], axis=0)
        out[g] = np.add.accumulate(np.concatenate([out[g:g + 1], rest]), axis=0)[-1]


def merge_grad_sets(a: GradSet, b: GradSet) -> GradSet:
    """Sum of two gradient sets.

    Training does not call it: `backprop` sums the raw rows of every cache
    in one coalesce. It stays the reference sum that tests check
    `gradients` against, and bench/layers.py instruments it by name.
    """
    ent = coalesce(
        np.concatenate([a.ent.ids, b.ent.ids]),
        np.concatenate([a.ent.values, b.ent.values]),
    )
    rel = coalesce(
        np.concatenate([a.rel.ids, b.rel.ids]),
        np.concatenate([a.rel.values, b.rel.values]),
    )
    dense = dict(a.dense)
    for name, g in b.dense.items():
        dense[name] = dense[name] + g if name in dense else g
    return GradSet(ent=ent, rel=rel, dense=dense)


def sample_negatives_batch(batch, n, num_entities, rng):
    """(B, n, 3) corruptions, one negative set per batch row.

    Each negative flips a fair coin for the side and draws a uniform entity.
    """
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    B = len(batch)
    out = np.repeat(batch[:, None, :], n, axis=1)
    corrupt_head = rng.integers(0, 2, size=(B, n)).astype(bool)
    entities = rng.integers(0, num_entities, size=(B, n))
    heads = out[:, :, 0]
    tails = out[:, :, 2]
    heads[corrupt_head] = entities[corrupt_head]
    tails[~corrupt_head] = entities[~corrupt_head]
    return out


def adversarial_weights(neg_scores, alpha_temp, gamma=0.0, sign=SIGN_PLAUSIBILITY):
    """Softmax weights over each row's negatives, computed stably.

    The default weighs by plausibility, softmax(alpha_temp * (gamma - score)):
    negatives the model currently finds hard (low score) get more mass.
    sign="literal" exponentiates the raw scores instead, softmax(alpha_temp *
    score), which up-weights the least plausible negatives. Weights are
    constants of the training objective; callers must not differentiate
    through them.
    """
    scores = np.asarray(neg_scores, dtype=np.float64)
    if sign == SIGN_PLAUSIBILITY:
        logits = alpha_temp * (gamma - scores)
    elif sign == SIGN_LITERAL:
        logits = alpha_temp * scores
    else:
        raise ValueError(f"unknown adversarial sign {sign!r}")
    logits = logits - np.max(logits, axis=-1, keepdims=True)
    w = np.exp(logits)
    return w / np.sum(w, axis=-1, keepdims=True)


def _softplus(x):
    # -log sigmoid(-x), stable on both tails
    return np.logaddexp(0.0, x)


def loss(pos_scores, neg_scores, weights, gamma):
    """Mean margin loss: -log sig(gamma - pos) - sum_j w_j log sig(neg_j - gamma).

    Accepts one example (scalar pos, (n,) negatives) or a batch ((B,) pos,
    (B, n) negatives); the weighted negative term is summed per example and
    the examples are averaged.
    """
    pos = np.atleast_1d(np.asarray(pos_scores, dtype=np.float64))
    neg = np.asarray(neg_scores, dtype=np.float64).reshape(len(pos), -1)
    w = np.asarray(weights, dtype=np.float64).reshape(neg.shape)
    per_example = _softplus(pos - gamma) + np.sum(w * _softplus(gamma - neg), axis=-1)
    return float(np.mean(per_example))


def _forward_step(params, config, batch, negatives):
    """(B,) positive and (B, n) negative scores, and the caches of both forwards.

    Positives and negatives are scored in separate calls, in that order, so
    a per-layer trace can tell the two apart. Each positive is scored as
    its own tail-corrupted row, and the negatives reuse the positives'
    prepared block from that call's cache: each keeps its positive's
    relation and one entity, so only the corrupted entity is gathered (and,
    for hie, chained).
    """
    module = MODELS[config.kind]
    pos, pos_cache = module.score_triples(params, config, batch)
    neg, neg_cache = module.score_triples(params, config, negatives, positives=pos_cache)
    return pos, neg.reshape(len(batch), -1), (pos_cache, neg_cache)


def _coalesce_blocks(id_blocks, row_blocks) -> SparseGrad:
    """coalesce over concatenated blocks; empties row_blocks to free them first.

    Otherwise the blocks, their concatenation and coalesce's sums are alive
    together, which raised the max RSS of 10 WN18RR-shaped hie steps
    (B=512, 64 negatives, dim 64) from 524 to 556 MB. The concatenation
    runs on the calling thread, and coalesce shares its unique-row tiles
    out on `kernels.map_tiles`.
    """
    values = np.concatenate(row_blocks)
    row_blocks.clear()
    return coalesce(np.concatenate(id_blocks), values)


def backprop(params, config, parts) -> GradSet:
    """Gradients of sum_b upstream[b] * total[b], summed over (cache, upstream) parts.

    Each part runs the model's backward, which emits the rows its cache's
    "row_ids" name: one row per scored row's corrupted entity, and one
    kept-head, kept-tail and relation row per positive, already summed
    over that positive's rows. The rows of all parts
    meet in one coalesce per embedding table, and the dense gradients add
    up.
    """
    backward = MODELS[config.kind].backward
    ent_ids, ent_rows, rel_ids, rel_rows, dense = [], [], [], [], {}
    for cache, upstream in parts:
        ent_block_ids, rel_block_ids = cache["row_ids"]
        ent_ids += ent_block_ids
        rel_ids.append(rel_block_ids)
        ent, rel, part_dense = backward(params, config, cache, upstream)
        ent_rows.append(ent)
        rel_rows.append(rel)
        for name, g in part_dense.items():
            dense[name] = dense[name] + g if name in dense else g
    del ent, rel  # leave the lists the only holders of the row blocks
    return GradSet(
        ent=_coalesce_blocks(ent_ids, ent_rows),
        rel=_coalesce_blocks(rel_ids, rel_rows),
        dense=dense,
    )


def gradients(params, model_config, train_config: TrainConfig, batch, negatives, weights=None):
    """Mean-batch loss and its exact analytic gradient.

    negatives is (B, n, 3). If weights is None the adversarial weights are
    computed from the current negative scores; either way they enter the
    gradient as constants.
    """
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    negatives = np.asarray(negatives, dtype=np.int64)
    B = len(batch)
    if B == 0:
        raise ValueError("batch must be nonempty")
    pos_scores, neg_scores, caches = _forward_step(params, model_config, batch, negatives)
    if weights is None:
        weights = adversarial_weights(
            neg_scores, train_config.alpha_temp, train_config.gamma, train_config.adversarial_sign
        )
    loss_value = loss(pos_scores, neg_scores, weights, train_config.gamma)
    up_pos = kernels.sigmoid(pos_scores - train_config.gamma) / B
    up_neg = -(weights * kernels.sigmoid(train_config.gamma - neg_scores)) / B
    return loss_value, backprop(params, model_config, zip(caches, (up_pos, up_neg.reshape(-1))))


def grad_dense(grads: GradSet, params, name):
    """One parameter tensor's gradient as a full dense array."""
    tensor = getattr(params, name)
    if name in ("ent", "rel"):
        sparse = grads.ent if name == "ent" else grads.rel
        out = np.zeros_like(tensor)
        out[sparse.ids] = sparse.values
        return out
    if name in grads.dense:
        return grads.dense[name]
    return np.zeros_like(tensor)


def grad_check(params, model_config, train_config, batch, fd_step=1e-6, max_coords=None, rng=None,
               floor=1e-8):
    """Max relative disagreement between analytic gradients and central differences.

    The adversarial weights are frozen at their center-point values before
    differencing, since the objective treats them as constants. Checks
    every coordinate unless max_coords caps the count, in which case a
    random subset (at least 500 when available) is drawn. A coordinate
    whose relative error is not finite (a NaN or infinite gradient or
    loss) raises NumericError naming the tensor and the coordinate.

    floor is the denominator floor of the relative error. floor=None scales
    it to 0.1% of the largest analytic gradient coordinate: adversarial
    softmax weights can push true gradients many orders below what central
    differences resolve in float64, and those coordinates would otherwise
    dominate the verdict with pure measurement noise.
    """
    if not 0 < fd_step < np.inf:  # NaN fails too
        raise ValueError(f"fd_step must be a finite number > 0, got {fd_step}")
    rng = np.random.default_rng(0) if rng is None else rng
    batch = np.asarray(batch, dtype=np.int64).reshape(-1, 3)
    negatives = sample_negatives_batch(batch, train_config.num_negatives, params.num_entities, rng)

    _, center_neg, _ = _forward_step(params, model_config, batch, negatives)
    weights = adversarial_weights(
        center_neg,
        train_config.alpha_temp,
        train_config.gamma,
        train_config.adversarial_sign,
    )
    _, grads = gradients(params, model_config, train_config, batch, negatives, weights=weights)
    analytic_of = {name: grad_dense(grads, params, name) for name, _ in params.field_items()}
    if floor is None:
        scale = max(float(np.max(np.abs(g), initial=0.0)) for g in analytic_of.values())
        floor = max(1e-8, 1e-3 * scale)

    def loss_at():
        pos, neg, _ = _forward_step(params, model_config, batch, negatives)
        return loss(pos, neg, weights, train_config.gamma)

    names = list(analytic_of)
    sizes = [getattr(params, name).size for name in names]
    total = int(np.sum(sizes))
    if max_coords is not None and total > max_coords:
        picked = rng.choice(total, size=max(min(total, 500), max_coords), replace=False)
    else:
        picked = np.arange(total)

    bounds = np.cumsum([0] + sizes)
    max_err = 0.0
    for flat_idx in picked:
        which = int(np.searchsorted(bounds, flat_idx, side="right") - 1)
        name = names[which]
        tensor = getattr(params, name)
        local = int(flat_idx - bounds[which])
        orig = tensor.flat[local]
        tensor.flat[local] = orig + fd_step
        up = loss_at()
        tensor.flat[local] = orig - fd_step
        down = loss_at()
        tensor.flat[local] = orig
        fd = (up - down) / (2.0 * fd_step)
        analytic = analytic_of[name].flat[local]
        err = abs(analytic - fd) / max(abs(analytic), abs(fd), floor)
        if not np.isfinite(err):
            coord = ", ".join(map(str, np.unravel_index(local, tensor.shape)))
            raise NumericError(f"gradient check: non-finite relative error at {name}[{coord}] "
                               f"(analytic {analytic}, finite difference {fd})")
        max_err = max(max_err, err)
    return max_err


def init_adam(params):
    return AdamState(
        moment1={name: np.zeros_like(t) for name, t in params.field_items()},
        moment2={name: np.zeros_like(t) for name, t in params.field_items()},
        step=0,
    )


@dataclass
class AdamState:
    moment1: dict
    moment2: dict
    step: int = 0


def adam_step(params, grads: GradSet, state: AdamState, config: TrainConfig):
    """One Adam update, lazily touching only the rows present in the gradient.

    Untouched embedding rows keep stale moments (no decay), which is the
    standard sparse-Adam compromise; dense tensors always update. Bias
    correction uses the global step count. The embedding rows update in
    training tiles of `kernels.tile_rows(dim)` rows, so each tile's
    moments and temporaries stay in cache, and each dense tensor, by the
    same update, as the one row of a view of its own. The tiles run on
    the workers of `kernels.map_tiles`; a gradient's ids are unique, so no
    two tiles touch one row, and every row gets the bits of one pass over
    all rows.
    """
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    lr, eps = config.learning_rate, config.adam_eps
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step

    def arrays(name):
        return getattr(params, name), state.moment1[name], state.moment2[name]

    tiles = []
    for name, sparse in (("ent", grads.ent), ("rel", grads.rel)):
        width = getattr(params, name).shape[1:]
        if sparse.values.shape[1:] != width:
            raise ValueError(f"gradient width mismatch for {name}")
        tiles += [(arrays(name), sparse.ids[tile], sparse.values[tile])
                  for tile in kernels.row_tiles(len(sparse.ids), kernels.tile_rows(width[0]))]
    for name, g in grads.dense.items():
        if g.shape != getattr(params, name).shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        # row 0 of views with a length-1 axis in front, which write through to the tensors
        tiles.append(([x[None] for x in arrays(name)], [0], g[None]))

    def update(item):
        (tensor, m, v), rows, g = item
        # the textbook update's operations, in its order, on the tile's own copies of the rows
        m_rows, v_rows, step = m[rows], v[rows], np.empty_like(g)
        m_rows *= b1
        m_rows += np.multiply(g, 1.0 - b1, out=step)
        v_rows *= b2
        v_rows += np.multiply(np.square(g, out=step), 1.0 - b2, out=step)
        m[rows] = m_rows
        v[rows] = v_rows
        np.sqrt(np.divide(v_rows, bc2, out=v_rows), out=v_rows)
        v_rows += eps
        np.divide(np.divide(m_rows, bc1, out=step), v_rows, out=step)
        step *= lr
        tensor[rows] -= step

    kernels.map_tiles(update, tiles)
    return params, state


def _model_of(model_kind, model_config):
    """The module of model_config's kind; ValueError if model_kind names another kind."""
    if model_kind != model_config.kind:
        raise ValueError(f"model_kind {model_kind!r} differs from the config's kind {model_config.kind!r}")
    return MODELS[model_config.kind]


def init_model(model_kind, num_entities, num_relations, model_config, seed):
    """Fresh params of model_config's kind; ValueError if model_kind names another kind."""
    return _model_of(model_kind, model_config).init_params(num_entities, num_relations, model_config, seed)


def train(kg, model_kind, model_config, train_config: TrainConfig, params=None):
    """Full training loop; returns (params, loss_log).

    The model is model_config's kind; model_kind must name the same kind,
    ValueError otherwise, also when params are given. loss_log rows are
    (step, mean_loss, alpha_value); alpha_value is the params' `alpha`,
    None for a model whose params have none (the baselines). Raises
    NumericError on a non-finite loss.
    """
    _model_of(model_kind, model_config)
    if params is None:
        params = init_model(
            model_kind, len(kg.entity_names), len(kg.relation_names), model_config, train_config.seed
        )
    state = init_adam(params)
    # sampling stream is a spawned child of the same seed, so it cannot
    # collide with the init stream
    rng = np.random.default_rng(np.random.SeedSequence(train_config.seed).spawn(1)[0])
    log = []
    num_entities = params.num_entities
    for step in range(1, train_config.steps + 1):
        batch = kg_data.sample_batch(kg.train, train_config.batch_size, rng)
        negatives = sample_negatives_batch(batch, train_config.num_negatives, num_entities, rng)
        loss_value, grads = gradients(params, model_config, train_config, batch, negatives)
        if not np.isfinite(loss_value):
            raise NumericError(f"non-finite loss at step {step}")
        adam_step(params, grads, state, train_config)
        if step == 1 or step % 100 == 0 or step == train_config.steps:
            log.append((step, loss_value, getattr(params, "alpha", None)))
    return params, log
