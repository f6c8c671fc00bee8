import numpy as np
import pytest

from hiekge import hie_model
from hiekge.baselines import (
    BaselineConfig,
    BaselineParams,
    candidate_table,
    init_params,
    score_batch,
    score_triples,
)

from oracles import distmult_oracle, rotate_oracle, transe_oracle


def score_of(params, h, r, t, norm_p=1):
    """One triple's score through the batch kernel."""
    config = BaselineConfig(kind=params.kind, dim=params.ent.shape[1], norm_p=norm_p)
    return score_triples(params, config, [(h, r, t)])[0][0]


ORACLES = {
    "transe": transe_oracle,
    "distmult": lambda params, h, r, t, p: distmult_oracle(params, h, r, t),
    "rotate": lambda params, h, r, t, p: rotate_oracle(params, h, r, t),
}


def make(kind, rng, num_entities=6, num_relations=3, dim=6, norm_p=1):
    config = BaselineConfig(kind=kind, dim=dim, norm_p=norm_p)
    params = init_params(num_entities, num_relations, config, seed=int(rng.integers(2**31)))
    return params, config


class TestConfig:
    def test_odd_dim_rejected_for_rotation(self):
        with pytest.raises(ValueError):
            BaselineConfig(kind="rotate", dim=5)
        BaselineConfig(kind="transe", dim=5)  # fine elsewhere

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            BaselineConfig(kind="complEx", dim=4)


class TestInit:
    def test_rotation_relations_are_phases(self):
        rng = np.random.default_rng(0)
        params, _ = make("rotate", rng, dim=8)
        assert np.all(params.rel >= -np.pi) and np.all(params.rel < np.pi)

    def test_deterministic(self):
        config = BaselineConfig(kind="transe", dim=4)
        a = init_params(5, 2, config, seed=9)
        b = init_params(5, 2, config, seed=9)
        assert np.array_equal(a.ent, b.ent) and np.array_equal(a.rel, b.rel)


class TestTransE:
    def test_translation_identity_scores_zero(self):
        params = BaselineParams(
            kind="transe",
            ent=np.array([[1.0, 2.0], [3.0, 1.0]]),
            rel=np.array([[2.0, -1.0]]),
        )
        assert score_of(params, 0, 0, 1, norm_p=1) == 0.0

    def test_forced_l1(self):
        params = BaselineParams(
            kind="transe",
            ent=np.array([[1.0, 0.0], [0.0, 0.0]]),
            rel=np.array([[0.0, 1.0]]),
        )
        assert score_of(params, 0, 0, 1, norm_p=1) == 2.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        params, config = make("transe", rng)
        for _ in range(20):
            h, r, t = rng.integers(0, 6), rng.integers(0, 3), rng.integers(0, 6)
            for p in (1, 2):
                assert score_of(params, h, r, t, p) == pytest.approx(
                    transe_oracle(params, h, r, t, p), rel=1e-12
                )

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        params, config = make("transe", rng)
        shift = rng.normal(size=params.ent.shape[1])
        shifted = BaselineParams(kind="transe", ent=params.ent + shift, rel=params.rel)
        for p in (1, 2):
            assert score_of(shifted, 0, 1, 3, p) == pytest.approx(
                score_of(params, 0, 1, 3, p), rel=1e-9
            )


class TestDistMult:
    def test_zero_factor_scores_zero(self):
        params = BaselineParams(
            kind="distmult", ent=np.array([[0.0, 0.0], [1.0, 2.0]]), rel=np.array([[3.0, 4.0]])
        )
        assert score_of(params, 0, 0, 1) == 0.0

    def test_forced_value(self):
        params = BaselineParams(
            kind="distmult", ent=np.array([[1.0, 1.0]]), rel=np.array([[1.0, 1.0]])
        )
        assert score_of(params, 0, 0, 0) == -2.0

    def test_head_tail_symmetry_exact(self):
        rng = np.random.default_rng(3)
        params, _ = make("distmult", rng)
        for _ in range(20):
            h, r, t = rng.integers(0, 6), rng.integers(0, 3), rng.integers(0, 6)
            assert score_of(params, h, r, t) == score_of(params, t, r, h)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        params, _ = make("distmult", rng)
        for _ in range(20):
            h, r, t = rng.integers(0, 6), rng.integers(0, 3), rng.integers(0, 6)
            assert score_of(params, h, r, t) == pytest.approx(
                distmult_oracle(params, h, r, t), rel=1e-12, abs=1e-14
            )


class TestRotatE:
    def test_identity_rotation_fixed_point(self):
        ent = np.array([[0.5, -1.0, 2.0, 0.25], [0.5, -1.0, 2.0, 0.25]])
        rel = np.zeros((1, 4))
        params = BaselineParams(kind="rotate", ent=ent, rel=rel)
        assert score_of(params, 0, 0, 1) == 0.0

    def test_quarter_turn(self):
        # 1+0i rotated by pi/2 lands on 0+1i
        ent = np.array([[1.0, 0.0], [0.0, 1.0]])
        rel = np.array([[np.pi / 2, 0.0]])
        params = BaselineParams(kind="rotate", ent=ent, rel=rel)
        assert score_of(params, 0, 0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_matches_complex_oracle(self):
        rng = np.random.default_rng(5)
        params, _ = make("rotate", rng, dim=6)
        for _ in range(20):
            h, r, t = rng.integers(0, 6), rng.integers(0, 3), rng.integers(0, 6)
            assert score_of(params, h, r, t) == pytest.approx(
                rotate_oracle(params, h, r, t), rel=1e-12, abs=1e-14
            )

    def test_rotation_preserves_pair_moduli(self):
        rng = np.random.default_rng(6)
        params, _ = make("rotate", rng, dim=8)
        h = params.ent[2]
        phase = params.rel[1, :4]
        hr, hi = h[0::2], h[1::2]
        rot_re = hr * np.cos(phase) - hi * np.sin(phase)
        rot_im = hr * np.sin(phase) + hi * np.cos(phase)
        np.testing.assert_allclose(
            rot_re**2 + rot_im**2, hr**2 + hi**2, rtol=1e-12
        )


class TestVectorizedPaths:
    @pytest.mark.parametrize("kind", ["transe", "distmult", "rotate"])
    @pytest.mark.parametrize("norm_p", [1, 2])
    def test_score_triples_matches_oracle(self, kind, norm_p):
        rng = np.random.default_rng(7)
        params, config = make(kind, rng, dim=6, norm_p=norm_p)
        triples = np.stack(
            [rng.integers(0, 6, 8), rng.integers(0, 3, 8), rng.integers(0, 6, 8)], axis=1
        )
        totals, _ = score_triples(params, config, triples)
        for i, (h, r, t) in enumerate(triples):
            expected = ORACLES[kind](params, h, r, t, norm_p)
            assert totals[i] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("kind", ["transe", "distmult", "rotate"])
    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("dim", [6, 64])
    def test_score_batch_matches_score_triples(self, kind, side, dim, monkeypatch):
        # slabs of 4 over 6 candidates: one whole slab and one ragged one
        monkeypatch.setattr(hie_model, "slab_size", lambda B: 4)
        rng = np.random.default_rng(8)
        params, config = make(kind, rng, dim=dim, norm_p=2)
        triples = np.stack(
            [rng.integers(0, 6, 4), rng.integers(0, 3, 4), rng.integers(0, 6, 4)], axis=1
        )
        got = score_batch(params, config, triples, np.arange(6), side)
        rows = [(c, r, t) if side == "head" else (h, r, c) for h, r, t in triples for c in range(6)]
        expected = score_triples(params, config, rows)[0].reshape(got.shape)
        assert got == pytest.approx(expected, rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_distmult_table_scores_like_a_built_one(self, side):
        rng = np.random.default_rng(9)
        params, config = make("distmult", rng, dim=6)
        triples = np.stack([rng.integers(0, 6, 4), rng.integers(0, 3, 4), rng.integers(0, 6, 4)], axis=1)
        table = candidate_table(params, config, np.arange(6), side)
        assert table.shape == (512, 6) and not table[6:].any()
        got = score_batch(params, config, triples, np.arange(6), side, table=table)
        assert got.flags.c_contiguous
        assert np.array_equal(got, score_batch(params, config, triples, np.arange(6), side))

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_distance_model_table_scores_like_a_built_one(self, kind, side):
        rng = np.random.default_rng(9)
        params, config = make(kind, rng, dim=6)
        triples = np.stack([rng.integers(0, 6, 4), rng.integers(0, 3, 4), rng.integers(0, 6, 4)], axis=1)
        candidates = np.array([5, 0, 3, 3, 1])
        table = candidate_table(params, config, candidates, side)
        # the candidate rows, transposed; rotation rows as [real parts | imaginary parts]
        rows = params.ent[candidates]
        if kind == "rotate":
            rows = np.concatenate([rows[:, 0::2], rows[:, 1::2]], axis=1)
        assert np.array_equal(table, rows.T)
        got = score_batch(params, config, triples, candidates, side, table=table)
        assert np.array_equal(got, score_batch(params, config, triples, candidates, side))

    @pytest.mark.parametrize("kind", ["transe", "rotate"])
    def test_table_of_other_candidates_rejected(self, kind):
        params, config = make(kind, np.random.default_rng(9), dim=6)
        table = candidate_table(params, config, np.arange(6), "tail")
        with pytest.raises(ValueError, match="table"):
            score_batch(params, config, [(0, 0, 1)], np.arange(5), "tail", table=table)
