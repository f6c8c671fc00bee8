import dataclasses
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiekge import cli, kernels, trainer
from hiekge.baselines import BaselineConfig, BaselineParams
from hiekge.baselines import init_params as init_baseline
from hiekge.hie_model import HieConfig, init_params, score_triples
from hiekge.kernels import sigmoid
from hiekge.trainer import (
    AdamState,
    GradSet,
    NumericError,
    SparseGrad,
    TrainConfig,
    adam_step,
    adversarial_weights,
    backprop,
    coalesce,
    grad_check,
    grad_dense,
    gradients,
    init_adam,
    loss,
    merge_grad_sets,
    sample_negatives_batch,
    train,
)

from helpers import (
    ABLATION_COMBOS,
    fd_friendly_baseline_params,
    fd_friendly_hie_params,
    lambdas_for,
    random_hie_params,
)
from oracles import loss_oracle
from synthkg import build_synth_kg

TOY_TRAIN = TrainConfig(gamma=2.0, alpha_temp=1.0, num_negatives=4, batch_size=8, steps=5, seed=0)

# For finite-difference runs: uniform adversarial weights (temp 0) and a margin
# near the median score keep sigmoid factors moderate, so touched gradients sit
# well above the central-difference noise floor (~1e-10 at step 1e-6).
FD_TRAIN = TrainConfig(gamma=3.0, alpha_temp=0.0, num_negatives=2, batch_size=4, steps=5, seed=0)


def toy_batch(rng, num_entities=20, num_relations=5, size=8):
    return np.stack(
        [
            rng.integers(0, num_entities, size),
            rng.integers(0, num_relations, size),
            rng.integers(0, num_entities, size),
        ],
        axis=1,
    )


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["gamma", "alpha_temp", "learning_rate", "adam_eps"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(gamma=0.0)
        with pytest.raises(ValueError):
            TrainConfig(alpha_temp=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(adam_beta1=1.0)
        with pytest.raises(ValueError):
            TrainConfig(adversarial_sign="inverted")

    @pytest.mark.parametrize("field,value", [("steps", 2.5), ("batch_size", True), ("gamma", True)])
    def test_wrongly_typed_values_rejected(self, field, value):
        # a float step count or a bool size once passed the range checks
        with pytest.raises(ValueError, match=f"{field} must be "):
            TrainConfig(**{field: value})

    def test_negative_seed_rejected(self):
        # np.random.default_rng would raise on it only once training starts
        with pytest.raises(ValueError, match="seed must be an int >= 0, got -1"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0


def sample_one(triple, n, num_entities, rng):
    """n corruptions of a single triple: the batch sampler at B=1."""
    return sample_negatives_batch(np.array([triple]), n, num_entities, rng)[0]


class TestSampleNegatives:
    def test_uncorrupted_fields_preserved(self):
        rng = np.random.default_rng(0)
        negs = sample_one((3, 1, 4), 50, 10, rng)
        assert negs.shape == (50, 3)
        assert np.all(negs[:, 1] == 1)
        changed_head = negs[:, 0] != 3
        changed_tail = negs[:, 2] != 4
        assert not np.any(changed_head & changed_tail)

    def test_single_entity_degenerates_to_positive(self):
        rng = np.random.default_rng(1)
        negs = sample_one((0, 2, 0), 8, 1, rng)
        assert np.all(negs == [0, 2, 0])

    def test_deterministic(self):
        a = sample_one((1, 0, 2), 128, 9, np.random.default_rng(4))
        b = sample_one((1, 0, 2), 128, 9, np.random.default_rng(4))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [123, 7])
    def test_outcome_frequencies_uniform_within_5_sigma(self, seed):
        # fair coin x uniform entity over 10 entities gives each corrupted
        # triple (c,0,1) / (0,0,c) probability 0.05, except the positive
        # itself which is reachable from both sides (0.10)
        n = 100_000
        negs = sample_one((0, 0, 1), n, 10, np.random.default_rng(seed))
        outcomes, counts = np.unique(negs, axis=0, return_counts=True)
        count_of = {tuple(row): c for row, c in zip(outcomes.tolist(), counts)}
        assert sum(count_of.values()) == n
        expected = {}
        for c in range(10):
            expected[(c, 0, 1)] = expected.get((c, 0, 1), 0.0) + 0.05
            expected[(0, 0, c)] = expected.get((0, 0, c), 0.0) + 0.05
        assert set(count_of) <= set(expected)
        for outcome, p in expected.items():
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(count_of.get(outcome, 0) - n * p) <= 5 * sigma, outcome

    def test_batch_variant_shape_and_relations(self):
        rng = np.random.default_rng(5)
        batch = toy_batch(rng, size=6)
        negs = sample_negatives_batch(batch, 7, 20, rng)
        assert negs.shape == (6, 7, 3)
        assert np.all(negs[:, :, 1] == batch[:, None, 1])


class TestAdversarialWeights:
    def test_zero_temperature_is_uniform(self):
        w = adversarial_weights(np.array([1.0, 5.0, -2.0]), 0.0, gamma=3.0)
        np.testing.assert_allclose(w, [1 / 3] * 3, rtol=0, atol=1e-15)

    def test_equal_scores_split_evenly(self):
        w = adversarial_weights(np.array([4.0, 4.0]), 1.7, gamma=1.0)
        np.testing.assert_allclose(w, [0.5, 0.5], rtol=1e-15)

    def test_spec_softmax_point(self):
        w = adversarial_weights(np.array([0.0, 10.0]), 1.0, gamma=5.0)
        expected = np.exp([5.0, -5.0])
        expected /= expected.sum()
        np.testing.assert_allclose(w, expected, rtol=1e-12)
        assert w[0] == pytest.approx(0.9999546, rel=1e-6)

    def test_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(6, 9)) * 10
        w = adversarial_weights(scores, 0.7, gamma=2.0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        w_shift = adversarial_weights(scores + 123.456, 0.7, gamma=2.0)
        np.testing.assert_allclose(w, w_shift, rtol=1e-9)

    def test_plausibility_prefers_hard_negatives_literal_the_opposite(self):
        scores = np.array([0.5, 8.0])  # first is the more plausible negative
        w_plaus = adversarial_weights(scores, 1.0, gamma=4.0, sign="plausibility")
        w_lit = adversarial_weights(scores, 1.0, gamma=4.0, sign="literal")
        assert w_plaus[0] > w_plaus[1]
        assert w_lit[0] < w_lit[1]

    def test_extreme_scores_stay_finite(self):
        w = adversarial_weights(np.array([1e5, -1e5, 0.0]), 2.0)
        assert np.all(np.isfinite(w)) and w.sum() == pytest.approx(1.0)


class TestLoss:
    def test_margin_fixed_point_is_two_log_two(self):
        value = loss(2.0, np.array([2.0]), np.array([1.0]), gamma=2.0)
        assert value == pytest.approx(2.0 * np.log(2.0), rel=1e-12)

    def test_perfect_separation_tends_to_zero(self):
        value = loss(0.0, np.array([200.0]), np.array([1.0]), gamma=100.0)
        assert 0.0 < value < 1e-10

    def test_matches_long_double_oracle(self):
        rng = np.random.default_rng(11)
        pos = rng.normal(size=5) * 3
        neg = rng.normal(size=(5, 6)) * 3
        w = adversarial_weights(neg, 0.8, gamma=1.5)
        got = loss(pos, neg, w, gamma=1.5)
        assert got == pytest.approx(loss_oracle(pos, neg, w, gamma=1.5), rel=1e-13)

    def test_raising_a_negative_score_never_raises_loss(self):
        rng = np.random.default_rng(12)
        neg = rng.normal(size=(1, 4))
        w = adversarial_weights(neg, 1.0, gamma=2.0)
        base = loss(1.0, neg, w, gamma=2.0)
        bumped = neg.copy()
        bumped[0, 2] += 0.5
        assert loss(1.0, bumped, w, gamma=2.0) <= base


class TestCoalesce:
    def test_sums_duplicate_rows(self):
        ids = np.array([3, 1, 3, 1, 2])
        vals = np.arange(10.0).reshape(5, 2)
        sparse = coalesce(ids, vals)
        assert sparse.ids.tolist() == [1, 2, 3]
        np.testing.assert_allclose(sparse.values, [[8.0, 10.0], [8.0, 9.0], [4.0, 6.0]])

    def test_merge_grad_sets_adds(self):
        a = GradSet(
            ent=SparseGrad(np.array([0]), np.array([[1.0]])),
            rel=SparseGrad(np.array([0]), np.array([[2.0]])),
            dense={"x": np.array([1.0])},
        )
        b = GradSet(
            ent=SparseGrad(np.array([0]), np.array([[10.0]])),
            rel=SparseGrad(np.array([1]), np.array([[5.0]])),
            dense={"x": np.array([2.0]), "y": np.array([7.0])},
        )
        m = merge_grad_sets(a, b)
        assert m.ent.values.tolist() == [[11.0]]
        assert m.rel.ids.tolist() == [0, 1]
        assert m.dense["x"].tolist() == [3.0] and m.dense["y"].tolist() == [7.0]

    @given(
        ids=st.one_of(
            st.lists(st.integers(0, 6), max_size=40),  # many duplicates
            st.lists(st.integers(0, 10**9), min_size=1, max_size=40),  # mostly distinct
            st.tuples(st.integers(0, 100), st.integers(1, 30)).map(lambda p: [p[0]] * p[1]),
        ),
        width=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_sum_oracle(self, ids, width, data):
        values = data.draw(arrays(np.float64, (len(ids), width),
                                  elements=st.floats(-1e6, 1e6, allow_nan=False)))
        assert_matches_dict_sums(ids, values)

    def test_relation_like_rows_match_dict_sum_oracle(self):
        # a relation table's rows: 1,000 over 11 ids, one of them 400 times, in shuffled order
        rng = np.random.default_rng(5)
        ids = rng.permutation(np.r_[np.full(400, 7), rng.choice([0, 1, 2, 3, 4, 5, 6, 8, 9, 10], 600)])
        assert_matches_dict_sums(ids, rng.normal(scale=1e3, size=(1000, 64)))

    @pytest.mark.parametrize("depth", [1, 2, 3, trainer.GROUP_LEVELS, trainer.GROUP_LEVELS + 1, 60])
    def test_deep_groups_at_width_one_match_dict_sum_oracle(self, depth):
        # magnitudes over 16 decades, so that sums in another order round differently
        rng = np.random.default_rng(depth)
        ids = rng.permutation(np.r_[np.repeat(np.arange(5), depth), np.arange(5, 40)])
        values = rng.normal(size=(len(ids), 1)) * 10.0 ** rng.integers(-8, 9, size=(len(ids), 1))
        assert_matches_dict_sums(ids, values)

    def test_negative_zero_rows_sum_to_positive_zero(self):
        # groups of 1, 2 and 12 rows, the last deeper than the levels
        ids = np.r_[4, 1, 4, 9, np.full(10, 4), 9]
        assert np.count_nonzero(ids == 4) > trainer.GROUP_LEVELS
        sparse = coalesce(ids, np.full((len(ids), 3), -0.0))
        assert sparse.ids.tolist() == [1, 4, 9]
        assert not np.signbit(sparse.values).any()
        assert_matches_dict_sums(ids, np.full((len(ids), 3), -0.0))

    def test_ids_must_be_non_negative(self):
        with pytest.raises(ValueError, match="coalesce needs ids in"):
            coalesce(np.array([2, -1, 2]), np.ones((3, 2)))

    def test_ids_whose_key_overflows_int64_are_refused(self):
        rows = 4
        top = (np.iinfo(np.int64).max - (rows - 1)) // rows  # the largest id whose key fits
        sparse = coalesce(np.array([top, 0, top, 1]), np.arange(8.0).reshape(rows, 2))
        assert sparse.ids.tolist() == [0, 1, top] and sparse.values.tolist() == [[2, 3], [6, 7], [4, 6]]
        with pytest.raises(ValueError, match="coalesce needs ids in"):
            coalesce(np.array([top + 1, 0, 1, 1]), np.ones((rows, 2)))


def assert_matches_dict_sums(ids, values):
    """coalesce(ids, values) equals, bit for bit, per-id sums from 0.0 in input order."""
    expected = {}
    for i, row in zip(np.asarray(ids).tolist(), values.tolist()):
        acc = expected.setdefault(i, [0.0] * values.shape[1])
        for c, x in enumerate(row):
            acc[c] += x
    sparse = coalesce(np.array(ids, dtype=np.int64), values)
    assert sparse.ids.tolist() == sorted(expected)
    assert sparse.values.shape == (len(expected), values.shape[1])
    # each cell sums its rows in input order, so the sums match bit for bit
    got = sparse.values.tolist()
    assert got == [expected[i] for i in sorted(expected)]
    assert np.signbit(got).tolist() == np.signbit([expected[i] for i in sorted(expected)]).tolist()


def two_pass_gradients(params, config, tc, batch, negatives):
    """The loss and gradient with positives and negatives scored and backpropagated apart."""
    B = len(batch)
    module = trainer.MODELS[config.kind]
    pos, pos_cache = module.score_triples(params, config, batch)
    neg, neg_cache = module.score_triples(params, config, negatives.reshape(-1, 3))
    neg = neg.reshape(B, -1)
    weights = adversarial_weights(neg, tc.alpha_temp, tc.gamma, tc.adversarial_sign)
    g_pos = backprop(params, config, [(pos_cache, sigmoid(pos - tc.gamma) / B)])
    up_neg = -(weights * sigmoid(tc.gamma - neg)) / B
    g_neg = backprop(params, config, [(neg_cache, up_neg.ravel())])
    return loss(pos, neg, weights, tc.gamma), merge_grad_sets(g_pos, g_neg)


HIE_VARIANTS = [
    HieConfig(dim=8, levels=levels, lambdas=lambdas_for(levels), norm_p=norm_p, transform=transform)
    for levels in (1, 2, 3) for norm_p in (1, 2) for transform in ("diagonal", "rank1")
]
BASELINE_VARIANTS = [BaselineConfig(kind=kind, dim=8) for kind in ("transe", "distmult", "rotate")]


class TestGradients:
    @pytest.mark.parametrize(
        "config", HIE_VARIANTS + BASELINE_VARIANTS,
        ids=lambda c: getattr(c, "kind", None) or f"hie-{c.levels}-l{c.norm_p}-{c.transform}",
    )
    def test_one_pass_equals_positive_and_negative_passes_merged(self, config):
        rng = np.random.default_rng(31)
        if isinstance(config, HieConfig):
            params = random_hie_params(rng, 15, 4, config)
        else:
            params = init_baseline(15, 4, config, seed=2)
        batch = toy_batch(rng, 15, 4, 8)
        negs = sample_negatives_batch(batch, 5, 15, rng)
        got_loss, got = gradients(params, config, TOY_TRAIN, batch, negs)
        want_loss, want = two_pass_gradients(params, config, TOY_TRAIN, batch, negs)
        assert got_loss == pytest.approx(want_loss, rel=1e-12)
        for got_sparse, want_sparse in ((got.ent, want.ent), (got.rel, want.rel)):
            assert np.array_equal(got_sparse.ids, want_sparse.ids)
        pairs = [(got.ent.values, want.ent.values), (got.rel.values, want.rel.values)]
        assert set(got.dense) == set(want.dense)
        pairs += [(got.dense[name], want.dense[name]) for name in want.dense]
        for g, w in pairs:
            # relative to the array's scale: rows summed in another order can
            # cancel to near zero, where an elementwise relative error means nothing
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.max(np.abs(w), initial=0.0))

    @pytest.mark.parametrize("config", [HieConfig(dim=8)] + BASELINE_VARIANTS,
                             ids=lambda c: getattr(c, "kind", "hie"))
    def test_scores_positives_then_negatives_through_the_module_attribute(self, monkeypatch, config):
        # bench/layers.py wraps hie_model.score_triples and baselines.score_triples by
        # name, and labels hie's calls under gradients .pos and .neg by their order
        rng = np.random.default_rng(8)
        if isinstance(config, HieConfig):
            params = random_hie_params(rng, 15, 4, config)
        else:
            params = init_baseline(15, 4, config, seed=2)
        batch = toy_batch(rng, 15, 4, 8)
        negs = sample_negatives_batch(batch, 5, 15, rng)
        module = trainer.MODELS[config.kind]
        rows, original = [], module.score_triples

        def recorder(*args, **kwargs):
            result = original(*args, **kwargs)
            rows.append(len(result[0]))
            return result

        monkeypatch.setattr(module, "score_triples", recorder)
        gradients(params, config, TOY_TRAIN, batch, negs)
        assert rows == [8, 8 * 5]

    @pytest.mark.parametrize("delta", [-1, 3])
    @pytest.mark.parametrize("part", ["positives", "negatives"])
    @pytest.mark.parametrize("config", [HieConfig(dim=8)] + BASELINE_VARIANTS,
                             ids=lambda c: getattr(c, "kind", "hie"))
    def test_backward_rejects_upstream_of_another_length(self, config, part, delta):
        # indexing upstream by the cache's row order would silently drop the extra
        # values of a longer one
        rng = np.random.default_rng(9)
        if isinstance(config, HieConfig):
            params = random_hie_params(rng, 15, 4, config)
        else:
            params = init_baseline(15, 4, config, seed=2)
        batch = toy_batch(rng, 15, 4, 7)
        module = trainer.MODELS[config.kind]
        scores, cache = module.score_triples(params, config, batch)
        if part == "negatives":
            negs = sample_negatives_batch(batch, 5, 15, rng)
            scores, cache = module.score_triples(params, config, negs, positives=cache)
        module.backward(params, config, cache, np.ones(len(scores)))
        with pytest.raises(ValueError, match="one value per scored row"):
            module.backward(params, config, cache, np.ones(len(scores) + delta))

    def test_untouched_rows_absent(self):
        rng = np.random.default_rng(2)
        config = HieConfig(dim=8)
        params = random_hie_params(rng, 20, 5, config)
        batch = np.array([[0, 0, 1], [2, 1, 3]])
        negs = sample_negatives_batch(batch, 2, 6, np.random.default_rng(0))
        _, grads = gradients(params, config, TOY_TRAIN, batch, negs)
        touched = set(batch[:, 0]) | set(batch[:, 2]) | set(negs[:, :, 0].ravel()) | set(
            negs[:, :, 2].ravel()
        )
        assert set(grads.ent.ids.tolist()) <= touched
        assert set(grads.rel.ids.tolist()) == {0, 1}

    def test_disable_semantic_zeroes_semantic_gradients(self):
        rng = np.random.default_rng(3)
        config = HieConfig(dim=8, disable_semantic=True)
        params = random_hie_params(rng, 10, 3, config)
        batch = toy_batch(rng, 10, 3, 6)
        negs = sample_negatives_batch(batch, 3, 10, rng)
        _, grads = gradients(params, config, TOY_TRAIN, batch, negs)
        for name in ("proj_head_sem", "proj_rel_sem", "proj_tail_sem", "extract_sem", "blend_logit"):
            assert np.all(grads.dense[name] == 0.0), name
        half = config.half
        assert np.all(grads.ent.values[:, half:] == 0.0)
        assert np.all(grads.rel.values[:, half:] == 0.0)

    @pytest.mark.parametrize("transform", ["diagonal", "rank1"])
    @pytest.mark.parametrize("norm_p", [1, 2])
    @pytest.mark.parametrize("blend_logit, alpha, off", [(40.0, 1.0, "sem"), (-800.0, 0.0, "dist")])
    def test_saturated_blend_zeroes_the_switched_off_space(self, blend_logit, alpha, off, norm_p, transform):
        # alpha rounds to exactly 1 or 0, so one space's blend weight is 0.0
        # while both spaces stay active
        rng = np.random.default_rng(4)
        config = HieConfig(dim=8, levels=3, lambdas=lambdas_for(3), norm_p=norm_p, transform=transform)
        params = random_hie_params(rng, 10, 3, config)
        params.blend_logit = np.asarray(blend_logit)
        assert params.alpha == alpha
        batch = toy_batch(rng, 10, 3, 6)
        negs = sample_negatives_batch(batch, 3, 10, rng)
        _, grads = gradients(params, config, TOY_TRAIN, batch, negs)
        arrays = [grads.ent.values, grads.rel.values, *grads.dense.values()]
        assert all(np.all(np.isfinite(g)) for g in arrays)
        assert grads.dense["blend_logit"] == 0.0
        names = [f"proj_{role}_{off}" for role in ("head", "rel", "tail")] + [f"extract_{off}"]
        for name in names + (["transform_seed"] if off == "dist" else []):
            assert np.all(grads.dense[name] == 0.0), name
        cols = slice(config.half, None) if off == "sem" else slice(0, config.half)
        assert np.all(grads.ent.values[:, cols] == 0.0)
        assert np.all(grads.rel.values[:, cols] == 0.0)

    # Seeds below are pinned so the smallest touched gradient stays an order of
    # magnitude above the FD noise floor; with a step of 1e-6 in float64,
    # coordinates whose true gradient is under ~1e-4 would otherwise drown in
    # evaluation roundoff and fail the relative comparison spuriously.
    def test_finite_difference_agreement_all_variants(self):
        rng = np.random.default_rng(21)
        for transform in ("diagonal", "rank1"):
            for norm_p in (1, 2):
                for levels in (1, 2):
                    config = HieConfig(
                        dim=8,
                        levels=levels,
                        lambdas=lambdas_for(levels),
                        norm_p=norm_p,
                        transform=transform,
                    )
                    params = fd_friendly_hie_params(rng, 12, 4, config)
                    batch = toy_batch(rng, 12, 4, 3)
                    err = grad_check(params, config, FD_TRAIN, batch, fd_step=1e-6, rng=rng)
                    assert err < 1e-5, (transform, norm_p, levels, err)

    def test_finite_difference_agreement_all_ablations(self):
        rng = np.random.default_rng(23)
        for flags in ABLATION_COMBOS:
            for transform in ("diagonal", "rank1"):
                config = HieConfig(
                    dim=8, levels=2, lambdas=(0.5, 0.5), transform=transform, **flags
                )
                params = fd_friendly_hie_params(rng, 12, 4, config)
                batch = toy_batch(rng, 12, 4, 3)
                err = grad_check(params, config, FD_TRAIN, batch, fd_step=1e-6, rng=rng)
                assert err < 1e-5, (flags, transform, err)

    def test_finite_difference_agreement_across_row_tiles(self, monkeypatch):
        # 5-row tiles: the 8 positives take two, the last ragged; each side's negatives take several
        monkeypatch.setattr(kernels, "ROW_ALIGN", 1)
        rng = np.random.default_rng(29)
        tc = TrainConfig(gamma=3.0, alpha_temp=0.0, num_negatives=4, batch_size=8, steps=5, seed=0)
        for transform in ("diagonal", "rank1"):
            for norm_p in (1, 2):
                config = HieConfig(dim=8, levels=2, lambdas=(0.5, 0.5), norm_p=norm_p,
                                   transform=transform)
                monkeypatch.setattr(kernels, "TILE_BYTES", 5 * 8 * config.half)
                assert kernels.tile_rows(config.half) == 5
                params = fd_friendly_hie_params(rng, 12, 4, config)
                batch = toy_batch(rng, 12, 4, 8)
                err = grad_check(params, config, tc, batch, fd_step=1e-6, rng=rng, floor=None)
                assert err < 1e-5, (transform, norm_p, err)

    @pytest.mark.parametrize(
        "kind,norm_p,seed",
        [("transe", 1, 1), ("transe", 2, 13), ("distmult", 1, 1), ("rotate", 1, 3)],
    )
    def test_finite_difference_agreement_baselines(self, kind, norm_p, seed):
        rng = np.random.default_rng(seed)
        config = BaselineConfig(kind=kind, dim=8, norm_p=norm_p)
        params = fd_friendly_baseline_params(rng, 12, 4, config)
        batch = toy_batch(rng, 12, 4, 3)
        err = grad_check(params, config, FD_TRAIN, batch, fd_step=1e-6, rng=rng)
        assert err < 1e-5, (kind, err)

    def test_corrupted_gradient_detected(self):
        rng = np.random.default_rng(6)
        config = HieConfig(dim=8)
        params = random_hie_params(rng, 10, 3, config)
        batch = toy_batch(rng, 10, 3, 4)
        negs = sample_negatives_batch(batch, TOY_TRAIN.num_negatives, 10, np.random.default_rng(0))
        _, grads = gradients(params, config, TOY_TRAIN, batch, negs)

        # doubling one touched coordinate must blow the relative error up
        dense = grad_dense(grads, params, "proj_head_dist")
        idx = int(np.argmax(np.abs(dense)))
        assert dense.flat[idx] != 0.0
        grads.dense["proj_head_dist"].flat[idx] *= 2.0

        weights = None
        from hiekge.trainer import adversarial_weights as aw

        module = trainer.MODELS[config.kind]
        center, _ = module.score_triples(params, config, negs.reshape(-1, 3))
        weights = aw(center.reshape(len(batch), -1), TOY_TRAIN.alpha_temp, TOY_TRAIN.gamma)

        def loss_at():
            from hiekge.trainer import loss as loss_fn

            pos, _ = module.score_triples(params, config, batch)
            neg, _ = module.score_triples(params, config, negs.reshape(-1, 3))
            return loss_fn(pos, neg.reshape(len(batch), -1), weights, TOY_TRAIN.gamma)

        tensor = params.proj_head_dist
        orig = tensor.flat[idx]
        tensor.flat[idx] = orig + 1e-6
        up = loss_at()
        tensor.flat[idx] = orig - 1e-6
        down = loss_at()
        tensor.flat[idx] = orig
        fd = (up - down) / 2e-6
        doubled = grads.dense["proj_head_dist"].flat[idx]
        err = abs(doubled - fd) / max(abs(doubled), abs(fd), 1e-8)
        assert err > 0.4

    # every adversarial logit overflows to inf, so the weights are NaN; or the loss overflows
    @pytest.mark.parametrize("flags", [{"alpha_temp": 1e308, "gamma": 100.0}, {"gamma": 1e308}])
    def test_non_finite_error_raises_naming_the_coordinate(self, flags):
        # max() once dropped a NaN error, so a check of NaN gradients returned 0.0
        rng = np.random.default_rng(6)
        config = HieConfig(dim=8)
        params = random_hie_params(rng, 10, 3, config)
        batch = toy_batch(rng, 10, 3, 4)
        tc = TrainConfig(**{**vars(FD_TRAIN), **flags})
        with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"non-finite .* at ent\[0, 0\]"):
            grad_check(params, config, tc, batch, fd_step=1e-6, rng=rng)

    @pytest.mark.parametrize("fd_step", [0.0, -1e-6, float("nan"), float("inf")])
    def test_step_that_is_not_positive_is_rejected(self, fd_step):
        # a NaN step once passed the check and ended in a NumericError at ent[0, 0]
        rng = np.random.default_rng(6)
        config = HieConfig(dim=8)
        params = random_hie_params(rng, 10, 3, config)
        with pytest.raises(ValueError, match=f"^fd_step must be a finite number > 0, got {fd_step}$"):
            grad_check(params, config, FD_TRAIN, toy_batch(rng, 10, 3, 4), fd_step=fd_step, rng=rng)

    def test_analytically_zero_coordinates_have_zero_error(self):
        # a relation absent from the batch: gradient 0, finite difference 0
        rng = np.random.default_rng(7)
        config = HieConfig(dim=4)
        params = random_hie_params(rng, 6, 4, config)
        batch = np.array([[0, 0, 1]])
        negs = sample_negatives_batch(batch, 2, 6, np.random.default_rng(1))
        _, grads = gradients(params, config, TOY_TRAIN, batch, negs)
        dense_rel = grad_dense(grads, params, "rel")
        assert np.all(dense_rel[2] == 0.0) and np.all(dense_rel[3] == 0.0)


class TestAdam:
    def test_first_step_identity(self):
        config = HieConfig(dim=4)
        params = init_params(3, 1, config, seed=0)
        tc = TrainConfig(learning_rate=0.1)
        state = init_adam(params)
        g = np.full_like(params.proj_head_dist, 0.25)
        before = params.proj_head_dist.copy()
        grads = GradSet(
            ent=SparseGrad(np.empty(0, dtype=np.int64), np.empty((0, 4))),
            rel=SparseGrad(np.empty(0, dtype=np.int64), np.empty((0, 4))),
            dense={"proj_head_dist": g},
        )
        adam_step(params, grads, state, tc)
        update = before - params.proj_head_dist
        expected = tc.learning_rate * g / (np.abs(g) + tc.adam_eps)
        np.testing.assert_allclose(update, expected, rtol=1e-12)
        assert np.all(np.abs(update) <= tc.learning_rate)
        assert state.step == 1

    def test_zero_gradient_leaves_parameters_unchanged(self):
        config = HieConfig(dim=4)
        params = init_params(3, 1, config, seed=0)
        before = params.ent.copy()
        state = init_adam(params)
        grads = GradSet(
            ent=SparseGrad(np.array([1]), np.zeros((1, 4))),
            rel=SparseGrad(np.empty(0, dtype=np.int64), np.empty((0, 4))),
            dense={},
        )
        adam_step(params, grads, state, TrainConfig())
        np.testing.assert_array_equal(params.ent, before)

    def test_untouched_rows_never_move(self):
        config = HieConfig(dim=4)
        params = init_params(5, 1, config, seed=0)
        frozen = params.ent[4].copy()
        state = init_adam(params)
        for step in range(3):
            grads = GradSet(
                ent=SparseGrad(np.array([0, 1]), np.ones((2, 4))),
                rel=SparseGrad(np.empty(0, dtype=np.int64), np.empty((0, 4))),
                dense={},
            )
            adam_step(params, grads, state, TrainConfig(learning_rate=0.05))
        assert np.array_equal(params.ent[4], frozen)
        assert state.step == 3

    def test_converges_on_quadratic(self):
        # minimize 0.5 * (x - 3)^2 through the same update path
        config = HieConfig(dim=2)
        params = init_params(1, 1, config, seed=0)
        params.proj_head_dist = np.array([0.0, 0.0])
        state = init_adam(params)
        tc = TrainConfig(learning_rate=0.1)
        empty = SparseGrad(np.empty(0, dtype=np.int64), np.empty((0, 2)))
        for _ in range(400):
            g = params.proj_head_dist - 3.0
            adam_step(params, GradSet(ent=empty, rel=empty, dense={"proj_head_dist": g}), state, tc)
        np.testing.assert_allclose(params.proj_head_dist, [3.0, 3.0], atol=1e-3)

    @pytest.mark.parametrize("tile_rows", [None, 4], ids=["one_tile", "ragged_tiles"])
    def test_matches_textbook_update_bit_for_bit(self, monkeypatch, tile_rows):
        # 23 entity rows and 5 relation rows a step: in 4-row tiles, 6 and 2, the last ragged
        if tile_rows is not None:
            monkeypatch.setattr(kernels, "ROW_ALIGN", 1)
            monkeypatch.setattr(kernels, "TILE_BYTES", tile_rows * 8 * 6)
            assert kernels.tile_rows(6) == tile_rows
        rng = np.random.default_rng(8)
        config = HieConfig(dim=6)
        params = random_hie_params(rng, 40, 7, config)
        tc = TrainConfig(learning_rate=0.01, adam_beta1=0.8, adam_beta2=0.95, adam_eps=1e-6)
        state = init_adam(params)
        want = {name: t.copy() for name, t in params.field_items()}
        m = {name: np.zeros_like(t) for name, t in params.field_items()}
        v = {name: np.zeros_like(t) for name, t in params.field_items()}
        for step in range(1, 4):
            ent_rows = rng.permutation(40)[:23]  # duplicate-free and unsorted
            rel_rows = rng.permutation(7)[:5]
            grads = GradSet(
                ent=SparseGrad(ent_rows, rng.normal(size=(23, 6))),
                rel=SparseGrad(rel_rows, rng.normal(size=(5, 6))),
                # a 2-D, a 0-d and a 3-D dense tensor
                dense={name: rng.normal(size=getattr(params, name).shape)
                       for name in ("transform_seed", "blend_logit", "extract_dist")},
            )
            adam_step(params, grads, state, tc)
            b1, b2 = tc.adam_beta1, tc.adam_beta2
            bc1, bc2 = 1.0 - b1**step, 1.0 - b2**step
            for name, rows, g in (("ent", ent_rows, grads.ent.values),
                                  ("rel", rel_rows, grads.rel.values),
                                  *((name, ..., g) for name, g in grads.dense.items())):
                m[name][rows] = b1 * m[name][rows] + (1.0 - b1) * g
                v[name][rows] = b2 * v[name][rows] + (1.0 - b2) * (g * g)
                want[name][rows] -= tc.learning_rate * (
                    (m[name][rows] / bc1) / (np.sqrt(v[name][rows] / bc2) + tc.adam_eps))
        for name, tensor in params.field_items():
            assert np.array_equal(tensor, want[name]), name
            assert np.array_equal(state.moment1[name], m[name]), name
            assert np.array_equal(state.moment2[name], v[name]), name

    def test_shape_mismatch_rejected(self):
        config = HieConfig(dim=4)
        params = init_params(3, 1, config, seed=0)
        state = init_adam(params)
        grads = GradSet(
            ent=SparseGrad(np.array([0]), np.ones((1, 5))),
            rel=SparseGrad(np.empty(0, dtype=np.int64), np.empty((0, 4))),
            dense={},
        )
        with pytest.raises(ValueError, match="mismatch"):
            adam_step(params, grads, state, TrainConfig())


class TestTrain:
    def test_zero_steps_returns_initialization(self):
        kg = build_synth_kg(num_entities=20, seed=0)
        config = HieConfig(dim=8)
        tc = TrainConfig(steps=0, seed=3)
        params, log = train(kg, "hie", config, tc)
        expected = init_params(20, 4, config, seed=3)
        for (_, a), (_, b) in zip(params.field_items(), expected.field_items()):
            assert np.array_equal(a, b)
        assert log == []

    def test_loss_decreases_on_toy_cycle(self):
        kg = build_synth_kg(num_entities=20, seed=1)
        config = HieConfig(dim=8)
        tc = TrainConfig(
            gamma=3.0, num_negatives=4, batch_size=32, steps=500, seed=0, learning_rate=0.05
        )
        params, log = train(kg, "hie", config, tc)
        first = log[0][1]
        last_avg = np.mean([row[1] for row in log[-3:]])
        assert last_avg < first

    @pytest.mark.parametrize("kind", ["hie", "transe", "distmult", "rotate"])
    def test_deterministic_loss_log(self, kind):
        kg = build_synth_kg(num_entities=20, seed=2)
        config = HieConfig(dim=8) if kind == "hie" else BaselineConfig(kind=kind, dim=8)
        tc = TrainConfig(steps=120, batch_size=16, num_negatives=2, seed=5)
        _, log_a = train(kg, kind, config, tc)
        _, log_b = train(kg, kind, config, tc)
        assert log_a == log_b
        assert [row[0] for row in log_a] == [1, 100, 120]

    def test_baseline_kind_trains_too(self):
        kg = build_synth_kg(num_entities=20, seed=3)
        config = BaselineConfig(kind="transe", dim=8, norm_p=1)
        tc = TrainConfig(steps=30, batch_size=16, num_negatives=2, seed=1)
        params, log = train(kg, "transe", config, tc)
        # a baseline's params are its two tables, sized by the graph and the config's dim
        assert isinstance(params, BaselineParams)
        assert [(name, t.shape) for name, t in params.field_items()] == [
            ("ent", (kg.num_entities, 8)), ("rel", (kg.num_relations, 8))]
        assert log[-1][2] is None  # no blend to report

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_loss_raises_numeric_error(self):
        kg = build_synth_kg(num_entities=20, seed=4)
        config = HieConfig(dim=8)
        params = init_params(20, 4, config, seed=0)
        params.ent[:] = np.inf
        tc = TrainConfig(steps=5, batch_size=4, num_negatives=2, seed=0)
        with pytest.raises(NumericError, match="step 1"):
            train(kg, "hie", config, tc, params=params)


# what a model module exposes to the trainer, the evaluator, the checkpoint and the CLI
MODEL_INTERFACE = ("Config", "Params", "init_params", "score_triples", "backward", "candidate_table",
                   "score_batch")


class TestModelTable:
    """`trainer.MODELS` is the one map from a model kind to the code that serves it."""

    def test_kinds_are_the_cli_model_choices(self):
        model = next(f for f in dataclasses.fields(cli.RunConfig) if f.name == "model")
        assert tuple(trainer.MODELS) == model.metadata["choices"] == ("hie", "transe", "distmult", "rotate")

    def test_holds_modules_so_calls_see_patched_attributes(self):
        assert all(isinstance(module, types.ModuleType) for module in trainer.MODELS.values())

    @pytest.mark.parametrize("kind", list(trainer.MODELS))
    def test_each_kind_is_its_configs_kind(self, kind):
        module = trainer.MODELS[kind]
        config = cli.model_config_from(cli.RunConfig(model=kind, dim=8))
        assert type(config) is module.Config
        assert config.kind == kind
        # hie's kind is a class attribute, not a field, so its config document does not hold it
        assert ("kind" in dataclasses.asdict(config)) == (kind != "hie")

    @pytest.mark.parametrize("kind", list(trainer.MODELS))
    def test_each_module_exposes_the_model_interface(self, kind):
        module = trainer.MODELS[kind]
        for name in MODEL_INTERFACE:
            assert callable(getattr(module, name, None)), name
        config = cli.model_config_from(cli.RunConfig(model=kind, dim=8))
        params = trainer.init_model(kind, 5, 2, config, 0)
        assert type(params) is module.Params and isinstance(params, kernels.Params)

    # a model_kind argument, and a config of another kind
    @pytest.mark.parametrize("kind, config", [("rotate", BaselineConfig(kind="transe", dim=8)),
                                              ("transe", HieConfig(dim=8)),
                                              ("hie", BaselineConfig(kind="transe", dim=8))])
    def test_a_kind_other_than_the_configs_is_rejected(self, kind, config):
        # the config names the model: a disagreeing argument once trained the config's baseline
        # silently, or failed across modules with an AttributeError
        kg = build_synth_kg(num_entities=20, seed=0)
        tc = TrainConfig(steps=1, batch_size=4, num_negatives=2)
        message = f"^model_kind {kind!r} differs from the config's kind {config.kind!r}$"
        with pytest.raises(ValueError, match=message):
            trainer.init_model(kind, kg.num_entities, kg.num_relations, config, 0)
        with pytest.raises(ValueError, match=message):
            train(kg, kind, config, tc)
        params = trainer.init_model(config.kind, kg.num_entities, kg.num_relations, config, 0)
        with pytest.raises(ValueError, match=message):
            train(kg, kind, config, tc, params=params)
