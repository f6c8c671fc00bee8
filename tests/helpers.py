"""Shared test utilities: randomized parameter draws and config grids."""

import numpy as np

from hiekge import trainer
from hiekge.hie_model import HieConfig, init_params


def random_hie_params(rng, num_entities, num_relations, config, scale=0.8):
    """Parameters with every structure tensor randomized, not left at init."""
    params = init_params(num_entities, num_relations, config, seed=int(rng.integers(2**31)))
    half = config.half
    for name in (
        "proj_head_dist",
        "proj_tail_dist",
        "proj_rel_dist",
        "proj_head_sem",
        "proj_tail_sem",
        "proj_rel_sem",
    ):
        setattr(params, name, rng.normal(scale=scale, size=half))
    params.transform_seed = rng.normal(scale=scale, size=(config.levels, half))
    params.extract_dist = rng.normal(scale=scale / np.sqrt(half), size=(config.levels - 1, half, half))
    params.extract_sem = rng.normal(scale=scale / np.sqrt(half), size=(config.levels - 1, half, half))
    params.blend_logit = np.asarray(rng.normal(scale=0.7))
    return params


def anchored_batch(rng, B, n, num_entities, num_relations):
    """B positives and (B, n, 3) negatives with every corner of the anchored negative path.

    Positive 0's negatives are all head-corrupted, positive 1's all
    tail-corrupted; one negative of positive 2 samples its positive's own
    head and one of positive 3 its own tail, so both are the positive.
    """
    batch = np.stack([rng.integers(0, num_entities, B), rng.integers(0, num_relations, B),
                      rng.integers(0, num_entities, B)], axis=1)
    negs = trainer.sample_negatives_batch(batch, n, num_entities, rng)
    others = lambda e: (e + rng.integers(1, num_entities, n)) % num_entities  # never e
    negs[0] = batch[0]
    negs[0, :, 0] = others(batch[0, 0])
    negs[1] = batch[1]
    negs[1, :, 2] = others(batch[1, 2])
    negs[2, 0], negs[3, 0] = batch[2], batch[3]
    return batch, negs


def row_sums(num_rows, ids, rows):
    """Rows summed into a dense (num_rows, width) table by id."""
    out = np.zeros((num_rows, rows.shape[1]))
    np.add.at(out, np.concatenate(ids) if isinstance(ids, tuple) else ids, rows)
    return out


def close_to(got, want, rtol):
    # relative to the array's scale: sums in another order can cancel to near zero
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.max(np.abs(want), initial=0.0))


def lambdas_for(levels):
    return tuple([1.0 / levels] * levels)


def _signed_uniform(rng, shape, lo, hi):
    return rng.uniform(lo, hi, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def fd_friendly_hie_params(rng, num_entities, num_relations, config):
    """Draw for finite-difference checks: coordinate magnitudes bounded away
    from zero so no touched gradient falls into the central-difference noise
    floor (~1e-10 at step 1e-6 in float64, i.e. relative noise above 1e-5 for
    gradients under ~1e-4)."""
    params = init_params(num_entities, num_relations, config, seed=0)
    half = config.half
    params.ent = _signed_uniform(rng, (num_entities, config.dim), 0.3, 1.1)
    params.rel = _signed_uniform(rng, (num_relations, config.dim), 0.3, 1.1)
    for name in (
        "proj_head_dist",
        "proj_tail_dist",
        "proj_rel_dist",
        "proj_head_sem",
        "proj_rel_sem",
        "proj_tail_sem",
    ):
        setattr(params, name, _signed_uniform(rng, half, 0.5, 1.0))
    params.transform_seed = _signed_uniform(rng, (config.levels, half), 0.5, 1.0)
    if config.levels > 1:
        scale = 0.4 / np.sqrt(half)
        shape = (config.levels - 1, half, half)
        params.extract_dist = _signed_uniform(rng, shape, 0.5, 1.0) * scale
        params.extract_sem = _signed_uniform(rng, shape, 0.5, 1.0) * scale
    params.blend_logit = np.asarray(rng.uniform(-0.4, 0.4))
    return params


def fd_friendly_baseline_params(rng, num_entities, num_relations, config):
    """Baseline analogue of fd_friendly_hie_params."""
    from hiekge.baselines import ROTATE, init_params as baseline_init

    params = baseline_init(num_entities, num_relations, config, seed=0)
    params.ent = _signed_uniform(rng, params.ent.shape, 0.3, 1.1)
    if config.kind == ROTATE:
        params.rel = rng.uniform(-np.pi, np.pi, size=params.rel.shape)
    else:
        params.rel = _signed_uniform(rng, params.rel.shape, 0.3, 1.1)
    return params


ABLATION_COMBOS = [
    {},
    {"disable_distance": True},
    {"disable_semantic": True},
    {"disable_distance_deep": True},
    {"disable_semantic_deep": True},
    {"disable_distance": True, "disable_semantic_deep": True},
    {"disable_semantic": True, "disable_distance_deep": True},
    {"disable_distance_deep": True, "disable_semantic_deep": True},
]


def config_grid(levels_list=(1, 2), dims=(4, 8), ablations=None):
    """Every combination of transform kind, norm, depth, width and ablation."""
    out = []
    for levels in levels_list:
        for dim in dims:
            for transform in ("diagonal", "rank1"):
                for norm_p in (1, 2):
                    for flags in ablations if ablations is not None else [{}]:
                        out.append(
                            HieConfig(
                                dim=dim,
                                levels=levels,
                                lambdas=lambdas_for(levels),
                                norm_p=norm_p,
                                transform=transform,
                                **flags,
                            )
                        )
    return out
