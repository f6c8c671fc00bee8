import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiekge import hie_model, kernels, trainer
from hiekge.hie_model import (
    HieConfig,
    active_spaces,
    init_params,
    level_weights,
    score_batch,
    score_triples,
)
from hiekge.kernels import sigmoid

from helpers import (
    ABLATION_COMBOS,
    anchored_batch,
    close_to,
    config_grid,
    fd_friendly_hie_params,
    lambdas_for,
    random_hie_params,
    row_sums,
)
from oracles import hie_score_oracle, vec_norm


class TestConfigValidation:
    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError, match="even"):
            HieConfig(dim=7, levels=1, lambdas=(1.0,))

    @pytest.mark.parametrize("dim", [8.0, True, float("nan")])
    def test_dim_must_be_an_int(self, dim):
        with pytest.raises(ValueError, match="dim must be an int"):
            HieConfig(dim=dim, levels=1, lambdas=(1.0,))

    @pytest.mark.parametrize("levels,lambdas", [(2.0, (0.5, 0.5)), (True, (1.0,)), (float("nan"), (1.0,))])
    def test_levels_must_be_an_int(self, levels, lambdas):
        with pytest.raises(ValueError, match="levels must be an int"):
            HieConfig(dim=4, levels=levels, lambdas=lambdas)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_non_finite_level_weight_rejected(self, weight):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            HieConfig(dim=4, levels=1, lambdas=(weight,))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            HieConfig(dim=4, levels=2, lambdas=(weight, weight))

    def test_lambda_count_must_match_levels(self):
        with pytest.raises(ValueError, match="level weight"):
            HieConfig(dim=4, levels=3, lambdas=(0.5, 0.5))

    def test_lambdas_must_be_convex(self):
        with pytest.raises(ValueError, match="sum to 1"):
            HieConfig(dim=4, levels=2, lambdas=(0.9, 0.2))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            HieConfig(dim=4, levels=2, lambdas=(1.5, -0.5))

    def test_bad_norm_and_transform(self):
        with pytest.raises(ValueError):
            HieConfig(dim=4, norm_p=3)
        with pytest.raises(ValueError):
            HieConfig(dim=4, transform="dense")

    def test_cannot_disable_both_spaces(self):
        with pytest.raises(ValueError, match="both"):
            HieConfig(dim=4, disable_distance=True, disable_semantic=True)


class TestInitParams:
    def test_deterministic_and_bounded(self):
        config = HieConfig(dim=8)
        a = init_params(10, 3, config, seed=42)
        b = init_params(10, 3, config, seed=42)
        for (_, ta), (_, tb) in zip(a.field_items(), b.field_items()):
            assert np.array_equal(ta, tb)
        bound = 6.0 / np.sqrt(8)
        assert np.all(np.abs(a.ent) <= bound) and np.all(np.abs(a.rel) <= bound)

    def test_shapes_and_identity_structure(self):
        config = HieConfig(dim=8, levels=3, lambdas=lambdas_for(3))
        p = init_params(5, 2, config, seed=0)
        assert p.ent.shape == (5, 8) and p.rel.shape == (2, 8)
        assert p.proj_head_dist.shape == (4,)
        assert p.transform_seed.shape == (3, 4)
        assert p.extract_dist.shape == (2, 4, 4) and p.extract_sem.shape == (2, 4, 4)
        assert np.all(p.transform_seed == 1.0) and np.all(p.extract_dist == 0.0)
        assert p.alpha == 0.5

    def test_zero_extract_makes_level2_equal_base(self):
        # at init the lift is residual-only, so deep projections equal the raw half
        config = HieConfig(dim=8)
        p = init_params(4, 2, config, seed=1)
        _, cache = score_triples(p, config, [(0, 1, 3)])
        for key, role, row in (("h", "head", p.ent[0]), ("r", "rel", p.rel[1]), ("t", "tail", p.ent[3])):
            assert np.array_equal(cache["positives"][f"{key}_dist"][1][0], row[:4])
            assert np.array_equal(sem_chain(p, config, row, role)[1][0], row[4:])

    def test_empty_vocab_rejected(self):
        with pytest.raises(ValueError):
            init_params(0, 1, HieConfig(dim=4), seed=0)


def sem_chain(p, config, row, role):
    """The semantic chain of one embedding row in one role, level by level.

    score_triples caches only the semantic residual; the per-role chains
    are those candidate_table builds.
    """
    return hie_model._chain(p, row[None, config.half:], role, "sem", config.levels)


def level1_terms(h, r, t, seed=None, norm_p=1, transform="diagonal"):
    """(distance, semantic) terms of a one-level model whose unit projections
    leave the given vectors as they are, in both halves."""
    half = len(h)
    config = HieConfig(dim=2 * half, levels=1, lambdas=(1.0,), norm_p=norm_p, transform=transform)
    p = init_params(2, 1, config, seed=0)
    p.ent[0] = np.concatenate([h, h])
    p.ent[1] = np.concatenate([t, t])
    p.rel[0] = np.concatenate([r, r])
    if seed is not None:
        p.transform_seed[0] = seed
    _, cache = score_triples(p, config, [(0, 0, 1)])
    return cache["d_dist"][0, 0], cache["d_sem"][0, 0]


class TestProjectLevel1:
    def test_ones_diagonal_is_identity(self):
        config = HieConfig(dim=6, levels=1, lambdas=(1.0,))
        p = init_params(3, 2, config, seed=0)
        _, cache = score_triples(p, config, [(1, 0, 2)])
        assert np.array_equal(cache["positives"]["h_dist"][0][0], p.ent[1, :3])
        assert np.array_equal(sem_chain(p, config, p.ent[1], "head")[0][0], p.ent[1, 3:])
        assert np.array_equal(cache["positives"]["r_dist"][0][0], p.rel[0, :3])
        assert np.array_equal(sem_chain(p, config, p.ent[2], "tail")[0][0], p.ent[2, 3:])

    def test_zero_embedding_projects_to_zero(self):
        config = HieConfig(dim=4, levels=1, lambdas=(1.0,))
        p = init_params(2, 1, config, seed=0)
        p.ent[0] = 0.0
        _, cache = score_triples(p, config, [(0, 0, 1)])
        assert np.all(cache["positives"]["h_dist"][0] == 0.0)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        config = HieConfig(dim=8, levels=1, lambdas=(1.0,))
        p = random_hie_params(rng, 5, 3, config)
        _, cache = score_triples(p, config, [(2, 1, 4)])
        hd, rd, td = (cache["positives"][f"{k}_dist"][0][0] for k in "hrt")
        hs, rs, ts = (sem_chain(p, config, row, role)[0][0]
                      for row, role in ((p.ent[2], "head"), (p.rel[1], "rel"), (p.ent[4], "tail")))
        for i in range(4):
            assert hd[i] == p.proj_head_dist[i] * p.ent[2, i]
            assert rd[i] == p.proj_rel_dist[i] * p.rel[1, i]
            assert td[i] == p.proj_tail_dist[i] * p.ent[4, i]
            assert hs[i] == p.proj_head_sem[i] * p.ent[2, 4 + i]
            assert rs[i] == p.proj_rel_sem[i] * p.rel[1, 4 + i]
            assert ts[i] == p.proj_tail_sem[i] * p.ent[4, 4 + i]
            assert cache["u_sem"][0][0, i] == (hs[i] + rs[i]) - ts[i]


class TestLiftLevel:
    def test_identity_extract_doubles_base_under_ones_diag(self):
        config = HieConfig(dim=8)
        p = init_params(3, 1, config, seed=0)
        p.extract_dist[0] = np.eye(4)
        _, cache = score_triples(p, config, [(0, 0, 1)])
        np.testing.assert_allclose(cache["positives"]["h_dist"][1][0], 2.0 * p.ent[0, :4], rtol=0, atol=0)

    def test_matches_matvec_oracle(self):
        rng = np.random.default_rng(11)
        config = HieConfig(dim=8, levels=3, lambdas=lambdas_for(3))
        p = random_hie_params(rng, 4, 2, config)
        _, cache = score_triples(p, config, [(0, 1, 3), (2, 0, 1)])
        positives = cache["positives"]
        for space, extract in (("dist", p.extract_dist[1]), ("sem", p.extract_sem[1])):
            for k, (key, role) in enumerate(hie_model.ROLES):
                bases = positives[f"bases_{space}"][k]
                chain = positives[f"{key}_dist"] if space == "dist" else hie_model._chain(
                    p, bases, role, "sem", config.levels)
                for row in range(2):
                    x, b = chain[1][row], bases[row]
                    expected = [
                        sum(x[i] * extract[i, j] for i in range(4)) + b[j] for j in range(4)
                    ]
                    np.testing.assert_allclose(chain[2][row], expected, rtol=1e-12)


class TestSemanticResidualChain:
    @pytest.mark.parametrize("flags", ABLATION_COMBOS)
    @pytest.mark.parametrize("dim", [8, 50])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_residual_is_head_plus_rel_minus_tail_chains(self, levels, dim, flags):
        # every level of the chain is linear in its base, so the one cached
        # residual chain is the three role chains combined
        config = HieConfig(dim=dim, levels=levels, lambdas=lambdas_for(levels), **flags)
        rng = np.random.default_rng(levels * 100 + dim)
        p = random_hie_params(rng, 12, 3, config)
        triples = np.stack([rng.integers(0, 12, 40), rng.integers(0, 3, 40), rng.integers(0, 12, 40)], axis=1)
        _, cache = score_triples(p, config, triples)
        read = 0 if config.disable_semantic else 1 if config.disable_semantic_deep else levels
        assert len(cache["u_sem"]) == read
        h, r, t = (hie_model._chain(p, base, role, "sem", levels)
                   for base, (_, role) in zip(cache["positives"]["bases_sem"], hie_model.ROLES))
        for j, v in enumerate(cache["u_sem"]):
            want = h[j] + r[j] - t[j]
            np.testing.assert_allclose(v, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))
            np.testing.assert_allclose(cache["d_sem"][:, j], np.linalg.norm(want, axis=1), rtol=1e-12)


class TestLevelDistance:
    def test_exact_fixed_point_is_zero(self):
        h = np.array([1.0, 2.0])
        seed = np.array([3.0, 0.5])
        r = np.array([2.0, 2.0])
        t = h * (seed * r)
        assert level1_terms(h, r, t, seed, 1, "diagonal")[0] == 0.0
        assert level1_terms(h, r, t, seed, 2, "diagonal")[0] == 0.0

    def test_forced_arithmetic(self):
        h = np.array([1.0, 1.0])
        seed = np.array([1.0, 1.0])
        r = np.array([2.0, 3.0])
        t = np.zeros(2)
        assert level1_terms(h, r, t, seed, 1, "diagonal")[0] == 5.0

    def test_matches_scalar_loop_both_kinds_and_norms(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            h, r, t, seed = (rng.normal(size=6) for _ in range(4))
            for norm_p in (1, 2):
                got = level1_terms(h, r, t, seed, norm_p, "diagonal")[0]
                exp = vec_norm([h[i] * seed[i] * r[i] - t[i] for i in range(6)], norm_p)
                assert got == pytest.approx(exp, rel=1e-12)
                got = level1_terms(h, r, t, seed, norm_p, "rank1")[0]
                inner = sum(h[i] * seed[i] for i in range(6))
                exp = vec_norm([inner * r[i] - t[i] for i in range(6)], norm_p)
                assert got == pytest.approx(exp, rel=1e-12)


class TestLevelSemantic:
    def test_translation_fixed_point(self):
        h, r = np.array([0.3, -1.0]), np.array([1.0, 2.0])
        assert level1_terms(h, r, h + r)[1] == 0.0

    def test_forced_sqrt2(self):
        got = level1_terms(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2))[1]
        assert got == pytest.approx(np.sqrt(2.0), rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=1e3))
    @settings(max_examples=40, deadline=None)
    def test_joint_scaling_is_homogeneous(self, c):
        rng = np.random.default_rng(9)
        h, r, t = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
        base = level1_terms(h, r, t)[1]
        scaled = level1_terms(c * h, c * r, c * t)[1]
        assert scaled == pytest.approx(c * base, rel=1e-9, abs=1e-12)


def total_of(params, config, h, r, t):
    return score_triples(params, config, [(h, r, t)])[0][0]


class TestScore:
    def test_zero_embeddings_score_zero(self):
        config = HieConfig(dim=8)
        p = init_params(3, 2, config, seed=0)
        p.ent[:] = 0.0
        p.rel[:] = 0.0
        totals, cache = score_triples(p, config, [(0, 0, 1)])
        assert totals[0] == 0.0
        assert np.all(cache["d_dist"] == 0.0) and np.all(cache["d_sem"] == 0.0)

    def test_forced_two_level_ablated_total(self):
        # distance terms (2, 4) at lambdas (.5, .5) with semantic off -> 3
        config = HieConfig(dim=2, levels=2, lambdas=(0.5, 0.5), disable_semantic=True)
        p = init_params(2, 1, config, seed=0)
        p.ent[0] = [2.0, 0.0]
        p.ent[1] = [0.0, 0.0]
        p.rel[0] = [1.0, 0.0]
        p.extract_dist[0] = [[np.sqrt(2.0) - 1.0]]
        totals, cache = score_triples(p, config, [(0, 0, 1)])
        np.testing.assert_allclose(cache["d_dist"][0], [2.0, 4.0], rtol=1e-12)
        assert totals[0] == pytest.approx(3.0, rel=1e-12)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for config in config_grid(levels_list=(1, 2, 3), dims=(4, 8), ablations=ABLATION_COMBOS):
            p = random_hie_params(rng, 6, 3, config)
            triples = np.stack(
                [rng.integers(0, 6, 2), rng.integers(0, 3, 2), rng.integers(0, 6, 2)], axis=1
            )
            totals, cache = score_triples(p, config, triples)
            for b, (h, r, t) in enumerate(triples):
                d_exp, s_exp, total_exp = hie_score_oracle(p, config, h, r, t)
                np.testing.assert_allclose(cache["d_dist"][b], d_exp, rtol=1e-10, atol=1e-12)
                np.testing.assert_allclose(cache["d_sem"][b], s_exp, rtol=1e-10, atol=1e-12)
                assert totals[b] == pytest.approx(total_exp, rel=1e-10, abs=1e-12)
                checked += 1
        assert checked >= 100

    def test_nonnegative_components(self):
        rng = np.random.default_rng(77)
        for config in config_grid(levels_list=(1, 2), dims=(4,), ablations=ABLATION_COMBOS):
            p = random_hie_params(rng, 5, 2, config)
            triples = np.stack(
                [rng.integers(0, 5, 5), rng.integers(0, 2, 5), rng.integers(0, 5, 5)], axis=1
            )
            totals, cache = score_triples(p, config, triples)
            assert np.all(cache["d_dist"] >= 0.0)
            assert np.all(cache["d_sem"] >= 0.0)
            assert np.all(totals >= 0.0)

    def test_breakdown_recombines_to_total(self):
        rng = np.random.default_rng(13)
        for config in config_grid(levels_list=(2,), dims=(8,), ablations=ABLATION_COMBOS):
            p = random_hie_params(rng, 5, 2, config)
            totals, cache = score_triples(p, config, [(0, 0, 1)])
            weights = level_weights(config, p.alpha)
            rebuilt = sum(
                lam * (w_d * dp + w_s * ds)
                for lam, (w_d, w_s), dp, ds in zip(
                    config.lambdas, weights, cache["d_dist"][0], cache["d_sem"][0]
                )
            )
            assert totals[0] == pytest.approx(rebuilt, rel=1e-12, abs=1e-15)

    def test_disable_semantic_ignores_semantic_parameters_exactly(self):
        rng = np.random.default_rng(4)
        config = HieConfig(dim=8, disable_semantic=True)
        p = random_hie_params(rng, 5, 2, config)
        before = total_of(p, config, 0, 0, 1)
        p.ent[0, 4:] += 3.0
        p.rel[0, 4:] -= 2.0
        p.proj_head_sem[:] = rng.normal(size=4)
        p.proj_rel_sem[:] = 9.0
        p.proj_tail_sem[:] = -1.0
        p.extract_sem[:] = rng.normal(size=p.extract_sem.shape)
        p.blend_logit[...] = 5.0
        assert total_of(p, config, 0, 0, 1) == before

    def test_disable_distance_ignores_distance_parameters_exactly(self):
        rng = np.random.default_rng(6)
        config = HieConfig(dim=8, disable_distance=True)
        p = random_hie_params(rng, 5, 2, config)
        before = total_of(p, config, 1, 1, 2)
        p.ent[1, :4] = 7.0
        p.rel[1, :4] = -3.0
        p.proj_head_dist[:] = 0.0
        p.proj_rel_dist[:] = 2.0
        p.proj_tail_dist[:] = rng.normal(size=4)
        p.transform_seed[:] = rng.normal(size=p.transform_seed.shape)
        p.extract_dist[:] = rng.normal(size=p.extract_dist.shape)
        p.blend_logit[...] = -4.0
        assert total_of(p, config, 1, 1, 2) == before

    def test_single_level_equals_two_level_with_degenerate_lambda(self):
        rng = np.random.default_rng(8)
        config2 = HieConfig(dim=8, levels=2, lambdas=(1.0, 0.0))
        p2 = random_hie_params(rng, 5, 2, config2)
        config1 = HieConfig(dim=8, levels=1, lambdas=(1.0,))
        p1 = init_params(5, 2, config1, seed=0)
        p1.ent = p2.ent
        p1.rel = p2.rel
        for name in (
            "proj_head_dist",
            "proj_tail_dist",
            "proj_rel_dist",
            "proj_head_sem",
            "proj_tail_sem",
            "proj_rel_sem",
        ):
            setattr(p1, name, getattr(p2, name))
        p1.transform_seed = p2.transform_seed[:1]
        p1.blend_logit = p2.blend_logit
        for h, r, t in [(0, 0, 1), (2, 1, 3), (4, 0, 4)]:
            assert total_of(p1, config1, h, r, t) == pytest.approx(
                total_of(p2, config2, h, r, t), rel=1e-12
            )

    def test_alpha_strictly_inside_unit_interval(self):
        config = HieConfig(dim=4)
        p = init_params(2, 1, config, seed=0)
        for logit in (-30.0, -1.0, 0.0, 2.5, 30.0):
            p.blend_logit[...] = logit
            assert 0.0 < p.alpha < 1.0
        assert sigmoid(np.array(0.0)) == 0.5


class TestScoreTriples:
    def test_matches_oracle_rowwise(self):
        rng = np.random.default_rng(21)
        for config in config_grid(levels_list=(1, 2), dims=(8,), ablations=ABLATION_COMBOS):
            p = random_hie_params(rng, 6, 3, config)
            triples = np.stack(
                [rng.integers(0, 6, 5), rng.integers(0, 3, 5), rng.integers(0, 6, 5)], axis=1
            )
            totals, _ = score_triples(p, config, triples)
            for i, (h, r, t) in enumerate(triples):
                assert totals[i] == pytest.approx(hie_score_oracle(p, config, h, r, t)[2], rel=1e-12)


class TestScoreBatch:
    def test_matches_score_triples_both_sides(self, monkeypatch):
        rng = np.random.default_rng(31)
        monkeypatch.setattr(kernels, "SLAB", 3)
        for config in config_grid(levels_list=(1, 2, 3), dims=(8, 50), ablations=ABLATION_COMBOS):
            p = random_hie_params(rng, 7, 3, config)
            triples = np.stack(
                [rng.integers(0, 7, 3), rng.integers(0, 3, 3), rng.integers(0, 7, 3)], axis=1
            )
            candidates = np.arange(7)
            for side in ("head", "tail"):
                got = score_batch(p, config, triples, candidates, side)
                rows = [
                    (c, r, t) if side == "head" else (h, r, c)
                    for h, r, t in triples
                    for c in candidates
                ]
                expected = score_triples(p, config, rows)[0].reshape(got.shape)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_true_candidate_column_equals_plain_score(self):
        rng = np.random.default_rng(41)
        config = HieConfig(dim=8)
        p = random_hie_params(rng, 5, 2, config)
        got = score_batch(p, config, [(0, 1, 3)], [3], "tail")
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(total_of(p, config, 0, 1, 3), rel=1e-12)

    def test_zero_parameter_model_scores_zero(self):
        config = HieConfig(dim=4)
        p = init_params(3, 1, config, seed=0)
        p.ent[:] = 0.0
        p.rel[:] = 0.0
        got = score_batch(p, config, [(0, 0, 1)], np.arange(3), "tail")
        assert np.all(got == 0.0)

    def test_bad_side_rejected(self):
        config = HieConfig(dim=4)
        p = init_params(3, 1, config, seed=0)
        with pytest.raises(ValueError):
            score_batch(p, config, [(0, 0, 1)], np.arange(3), "both")

    @pytest.mark.parametrize("transform", ["diagonal", "rank1"])
    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_given_table_scores_like_a_built_one_in_any_chunk(self, side, transform):
        rng = np.random.default_rng(43)
        config = HieConfig(dim=50, levels=3, lambdas=lambdas_for(3), transform=transform)
        p = random_hie_params(rng, 37, 3, config)
        triples = np.stack([rng.integers(0, 37, 9), rng.integers(0, 3, 9), rng.integers(0, 37, 9)], axis=1)
        candidates = np.arange(37)
        table = hie_model.candidate_table(p, config, candidates, side)
        want = score_batch(p, config, triples, candidates, side)
        assert np.array_equal(score_batch(p, config, triples, candidates, side, table=table), want)
        # a triple's row has the same bits whichever triples share its call
        for b in range(len(triples)):
            row = score_batch(p, config, triples[b : b + 1], candidates, side, table=table)
            assert np.array_equal(row[0], want[b])

    def test_wide_batches_rank_in_evaluation_sized_blocks(self, monkeypatch):
        # evaluate scores TRIPLE_CHUNK = SLAB_ROWS = 16 triples per call; wider batches
        # once got narrower slabs, or (B, 3,072) blocks, which cost more per triple
        assert kernels.SLAB == 5120
        # a block's three (SLAB_ROWS, SLAB) float64 arrays stay within 2 MiB
        assert 3 * 8 * kernels.SLAB_ROWS * kernels.SLAB <= 2 * 1024 * 1024
        blocks = []
        map_tiles = kernels.map_tiles
        monkeypatch.setattr(kernels, "map_tiles",
                            lambda fn, items: blocks.extend(items) or map_tiles(fn, items))
        config = HieConfig(dim=4)
        rng = np.random.default_rng(2)
        p = init_params(12000, 2, config, seed=0)
        triples = np.stack([rng.integers(0, 12000, 40), rng.integers(0, 2, 40),
                            rng.integers(0, 12000, 40)], axis=1)
        score_batch(p, config, triples, np.arange(12000), "tail")
        assert sorted({rows.stop - rows.start for rows, _ in blocks}) == [8, 16]
        assert sorted({cols.stop - cols.start for _, cols in blocks}) == [12000 - 2 * 5120, 5120]
        assert len(blocks) == 3 * 3

    def test_table_of_other_side_or_size_rejected(self):
        config = HieConfig(dim=4)
        p = init_params(3, 1, config, seed=0)
        table = hie_model.candidate_table(p, config, np.arange(3), "head")
        for side, candidates in (("tail", np.arange(3)), ("head", np.arange(2))):
            with pytest.raises(ValueError, match="table"):
                score_batch(p, config, [(0, 0, 1)], candidates, side, table=table)


class TestCandidateTable:
    @pytest.mark.parametrize("dim", [50, 64, 100])
    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_copies_of_a_row_get_its_chains(self, side, dim):
        # unpadded, the level lift gave the last rows of these tables other bits
        config = HieConfig(dim=dim, levels=3, lambdas=lambdas_for(3))
        p = random_hie_params(np.random.default_rng(4), 300, 3, config)
        for C in [*range(5, 40), 257, 300]:
            copies = [C // 2, C - 2, C - 1]
            p.ent[copies] = p.ent[0]
            table = hie_model.candidate_table(p, config, np.arange(C), side)
            for space in ("dist", "sem"):
                for level in table.rows[space]:
                    assert level.shape == (config.half, C)
                    assert np.array_equal(level[:, copies], np.repeat(level[:, :1], 3, axis=1)), C

    # (distance, semantic) entries at 3 levels under each of ABLATION_COMBOS, in its order
    LIVE_ENTRIES = [(3, 3), (0, 3), (3, 0), (1, 3), (3, 1), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("transform", ["diagonal", "rank1"])
    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("flags,entries", [pytest.param(flags, entries, id="-".join(flags) or "full")
                                               for flags, entries in zip(ABLATION_COMBOS, LIVE_ENTRIES)])
    def test_tables_hold_the_live_levels_only(self, flags, entries, side, transform):
        # each space holds one entry per level the score reads, each the un-ablated table's at that level
        full = HieConfig(dim=8, levels=3, lambdas=lambdas_for(3), transform=transform)
        p = random_hie_params(np.random.default_rng(2), 5, 2, full)
        want = hie_model.candidate_table(p, full, np.arange(5), side).rows
        rows = hie_model.candidate_table(p, HieConfig(**{**vars(full), **flags}), np.arange(5), side).rows
        assert (len(rows["dist"]), len(rows["sem"])) == entries
        for space in ("dist", "sem"):
            for level, full_level in zip(rows[space], want[space]):
                assert level is not None and np.array_equal(level, full_level)


TILE_CONFIGS = [
    HieConfig(dim=8, levels=levels, lambdas=lambdas_for(levels), norm_p=norm_p, transform=transform)
    for levels in (1, 2, 3) for norm_p in (1, 2) for transform in ("diagonal", "rank1")
] + [HieConfig(dim=8, levels=2, lambdas=(0.5, 0.5), **flags) for flags in ABLATION_COMBOS[1:]] + [
    # at half 32 this BLAS gives different bits to blocks not aligned to ROW_ALIGN rows
    HieConfig(dim=64, levels=3, lambdas=lambdas_for(3), norm_p=norm_p, transform="rank1")
    for norm_p in (1, 2)
]


def tile_config_id(config):
    flags = [name for name, on in vars(config).items() if name.startswith("disable_") and on]
    return "-".join([f"dim{config.dim}", f"{config.levels}lv", f"l{config.norm_p}", config.transform, *flags])


def chains_of(cache, key):
    """A cache's per-level arrays of key: the prepared positives hold each role's distance chain."""
    return cache["positives"][key] if key in ("h_dist", "r_dist", "t_dist") else cache[key]


class TestRowTiles:
    @pytest.mark.parametrize("config", TILE_CONFIGS, ids=tile_config_id)
    def test_tiles_match_one_tile(self, monkeypatch, config):
        # three whole tiles of ROW_ALIGN rows and a ragged fourth
        rng = np.random.default_rng(17)
        p = random_hie_params(rng, 50, 4, config)
        n = 3 * kernels.ROW_ALIGN + 77
        triples = np.stack([rng.integers(0, 50, n), rng.integers(0, 4, n), rng.integers(0, 50, n)], axis=1)
        upstream = rng.normal(size=n)
        runs = []
        for budget in (2**40, kernels.ROW_ALIGN * 8 * config.half):
            monkeypatch.setattr(kernels, "TILE_BYTES", budget)
            totals, cache = score_triples(p, config, triples)
            runs.append((totals, cache, hie_model.backward(p, config, cache, upstream)))
        assert kernels.tile_rows(config.half) == kernels.ROW_ALIGN
        (one_totals, one_cache, one_grads), (totals, cache, grads) = runs
        assert np.array_equal(totals, one_totals)
        for key in ("d_dist", "d_sem"):
            assert np.array_equal(cache[key], one_cache[key])
        for key in ("h_dist", "r_dist", "t_dist", "c_dist", "u_dist", "u_sem"):
            levels, one_levels = (chains_of(c, key) for c in (cache, one_cache))
            assert len(levels) == len(one_levels)
            for level, one_level in zip(levels, one_levels):
                assert level.shape == (n, config.half)
                assert np.array_equal(level, one_level)
        # each triple is its own tail-corrupted row: its tiled chain is the tails' chain built untiled
        assert cache["positives"]["t_dist"] is cache["c_dist"]
        if cache["c_dist"]:
            tails = p.ent[triples[:, 2], :config.half]
            untiled = hie_model._chain(p, tails, "tail", "dist", len(cache["c_dist"]))
            for level, tail in zip(cache["c_dist"], untiled):
                assert np.array_equal(level, tail)
        ent, rel, dense = grads
        one_ent, one_rel, one_dense = one_grads
        assert np.array_equal(ent, one_ent) and np.array_equal(rel, one_rel)
        assert set(dense) == set(one_dense)
        for name, want in one_dense.items():
            np.testing.assert_allclose(
                dense[name], want, rtol=0, atol=1e-12 * np.max(np.abs(want), initial=0.0))


@pytest.mark.parametrize("levels", [1, 2, 3])
@pytest.mark.parametrize("flags", ABLATION_COMBOS, ids=lambda flags: "-".join(flags) or "full")
def test_active_spaces_deep_flags_only_bite_below_level_one(flags, levels):
    config = HieConfig(dim=4, levels=levels, lambdas=lambdas_for(levels), **flags)
    # (distance, semantic) weights at alpha 0.25: both on blend, one on takes all, neither gets none
    want = {(True, True): (0.25, 0.75), (True, False): (1.0, 0.0), (False, True): (0.0, 1.0),
            (False, False): (0.0, 0.0)}
    weights = level_weights(config, 0.25)
    assert len(weights) == levels
    for level in range(1, levels + 1):
        # a space is on unless it is disabled, or deep-disabled and the level is deeper than level 1
        dist_on = not flags.get("disable_distance") and not (level > 1 and flags.get("disable_distance_deep"))
        sem_on = not flags.get("disable_semantic") and not (level > 1 and flags.get("disable_semantic_deep"))
        assert active_spaces(config, level) == (dist_on, sem_on)
        assert weights[level - 1] == want[dist_on, sem_on]


ANCHOR_CONFIGS = [
    HieConfig(dim=8, levels=levels, lambdas=lambdas_for(levels), norm_p=norm_p, transform=transform)
    for levels in (1, 2, 3) for norm_p in (1, 2) for transform in ("diagonal", "rank1")
] + [
    HieConfig(dim=8, levels=3, lambdas=lambdas_for(3), transform=transform, **flags)
    for flags in ABLATION_COMBOS[1:] for transform in ("diagonal", "rank1")
]


def anchored_case(rng, config, B=7, n=5, num_entities=12, num_relations=4):
    """Random params, then the positives and negatives of `anchored_batch`."""
    p = random_hie_params(rng, num_entities, num_relations, config)
    return (p, *anchored_batch(rng, B, n, num_entities, num_relations))


class TestAnchoredNegatives:
    """score_triples(negatives, positives=cache) against the scalar oracle and the same rows scored alone.

    Scored alone, as a flat (N, 3) batch, each row is its own positive and
    tail-corrupted, so a head-corrupted negative takes another route there.
    """

    @pytest.mark.parametrize("blend_logit", [None, 40.0, -800.0], ids=["blend", "alpha1", "alpha0"])
    @pytest.mark.parametrize("tile", [None, 4], ids=["one_tile", "ragged_tiles"])
    @pytest.mark.parametrize("config", ANCHOR_CONFIGS, ids=tile_config_id)
    def test_matches_flat_scores_and_gradients(self, monkeypatch, config, tile, blend_logit):
        if tile is not None:
            # 4-row tiles over 35 rows: the runs of one positive's rows span tiles
            monkeypatch.setattr(kernels, "ROW_ALIGN", 1)
            monkeypatch.setattr(kernels, "TILE_BYTES", tile * 8 * config.half)
        rng = np.random.default_rng(config.levels * 10 + config.norm_p)
        p, batch, negs = anchored_case(rng, config)
        if blend_logit is not None:
            p.blend_logit = np.asarray(blend_logit)
        B, n = negs.shape[:2]
        _, pos_cache = score_triples(p, config, batch)
        got, cache = score_triples(p, config, negs, positives=pos_cache)
        want, flat_cache = score_triples(p, config, negs.reshape(-1, 3))
        assert got.shape == (B * n,)
        close_to(got, [hie_score_oracle(p, config, *row)[2] for row in negs.reshape(-1, 3)], 1e-12)
        close_to(got, want, 1e-14)
        # a negative equal to its positive scores as the positive
        for b in (2, 3):
            close_to(got[b * n], score_triples(p, config, batch[b : b + 1])[0][0], 1e-14)

        upstream = rng.normal(size=B * n)
        ent, rel, dense = hie_model.backward(p, config, cache, upstream)
        assert ent.shape == (B * n + 2 * B, config.dim) and rel.shape == (B, config.dim)
        flat_ent, flat_rel, flat_dense = hie_model.backward(p, config, flat_cache, upstream)
        (ent_ids, rel_ids), (flat_ent_ids, flat_rel_ids) = cache["row_ids"], flat_cache["row_ids"]
        close_to(row_sums(12, ent_ids, ent), row_sums(12, flat_ent_ids, flat_ent), 1e-12)
        close_to(row_sums(4, rel_ids, rel), row_sums(4, flat_rel_ids, flat_rel), 1e-12)
        assert set(dense) == set(flat_dense)
        for name, want_grad in flat_dense.items():
            close_to(dense[name], want_grad, 1e-12)

    @pytest.mark.parametrize("config", ANCHOR_CONFIGS, ids=tile_config_id)
    def test_grad_check_passes(self, config):
        rng = np.random.default_rng(5)
        params = fd_friendly_hie_params(rng, 12, 4, config)
        batch = np.stack([rng.integers(0, 12, 4), rng.integers(0, 4, 4), rng.integers(0, 12, 4)], axis=1)
        tc = trainer.TrainConfig(gamma=3.0, alpha_temp=0.0, num_negatives=6)
        err = trainer.grad_check(params, config, tc, batch, fd_step=1e-6, rng=rng, floor=None)
        assert err < 1e-5

    def test_negative_that_changes_the_relation_or_both_entities_rejected(self):
        config = HieConfig(dim=8)
        rng = np.random.default_rng(3)
        p, batch, negs = anchored_case(rng, config)
        _, pos_cache = score_triples(p, config, batch)
        relation = negs.copy()
        relation[4, 1, 1] = (batch[4, 1] + 1) % 4
        both = negs.copy()
        both[5, 2, [0, 2]] = (batch[5, [0, 2]] + 1) % 12
        for bad in (relation, both):
            with pytest.raises(ValueError, match="keep its positive's relation"):
                score_triples(p, config, bad, positives=pos_cache)
        for bad in (negs.reshape(-1, 3), negs[:-1]):
            with pytest.raises(ValueError, match=r"\(B, n, 3\)"):
                score_triples(p, config, bad, positives=pos_cache)
