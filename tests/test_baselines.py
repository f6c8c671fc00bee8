import numpy as np
import pytest

from hiekge import kernels
from hiekge.baselines import (
    BaselineConfig,
    BaselineParams,
    backward,
    candidate_table,
    init_params,
    score_batch,
    score_triples,
)

from helpers import anchored_batch, close_to, row_sums
from oracles import distmult_oracle, rotate_oracle, transe_oracle


def score_of(kind, params, h, r, t, norm_p=1):
    """One triple's score under the given kind, through the batch kernel."""
    config = BaselineConfig(kind=kind, dim=params.ent.shape[1], norm_p=norm_p)
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

    @pytest.mark.parametrize("dim", [8.0, True, float("nan"), 0])
    def test_dim_must_be_a_positive_int(self, dim):
        with pytest.raises(ValueError, match="dim must be an int"):
            BaselineConfig(kind="transe", dim=dim)


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


class TestKindIsConfig:
    def test_one_params_scores_as_the_configs_kind(self):
        # the params hold no kind: the same tensors score as whichever kind the config names
        rng = np.random.default_rng(11)
        params = BaselineParams(ent=rng.normal(size=(5, 6)), rel=rng.uniform(-np.pi, np.pi, size=(2, 6)))
        triples = [(0, 1, 3), (4, 0, 2), (2, 1, 2)]
        scores = {}
        for kind, oracle in ORACLES.items():
            config = BaselineConfig(kind=kind, dim=6)
            scores[kind] = score_triples(params, config, triples)[0]
            expected = [oracle(params, h, r, t, config.norm_p) for h, r, t in triples]
            np.testing.assert_allclose(scores[kind], expected, rtol=1e-12, atol=1e-14)
        assert not np.allclose(scores["transe"], scores["distmult"])
        assert not np.allclose(scores["transe"], scores["rotate"])
        assert not np.allclose(scores["distmult"], scores["rotate"])


class TestTransE:
    def test_translation_identity_scores_zero(self):
        params = BaselineParams(
            ent=np.array([[1.0, 2.0], [3.0, 1.0]]),
            rel=np.array([[2.0, -1.0]]),
        )
        assert score_of("transe", params, 0, 0, 1, norm_p=1) == 0.0

    def test_forced_l1(self):
        params = BaselineParams(
            ent=np.array([[1.0, 0.0], [0.0, 0.0]]),
            rel=np.array([[0.0, 1.0]]),
        )
        assert score_of("transe", params, 0, 0, 1, norm_p=1) == 2.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(1)
        params, config = make("transe", rng)
        for _ in range(20):
            h, r, t = rng.integers(0, 6), rng.integers(0, 3), rng.integers(0, 6)
            for p in (1, 2):
                assert score_of("transe", params, h, r, t, p) == pytest.approx(
                    transe_oracle(params, h, r, t, p), rel=1e-12
                )

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        params, config = make("transe", rng)
        shift = rng.normal(size=params.ent.shape[1])
        shifted = BaselineParams(ent=params.ent + shift, rel=params.rel)
        for p in (1, 2):
            assert score_of("transe", shifted, 0, 1, 3, p) == pytest.approx(
                score_of("transe", params, 0, 1, 3, p), rel=1e-9
            )


class TestDistMult:
    def test_zero_factor_scores_zero(self):
        params = BaselineParams(ent=np.array([[0.0, 0.0], [1.0, 2.0]]), rel=np.array([[3.0, 4.0]]))
        assert score_of("distmult", params, 0, 0, 1) == 0.0

    def test_forced_value(self):
        params = BaselineParams(ent=np.array([[1.0, 1.0]]), rel=np.array([[1.0, 1.0]]))
        assert score_of("distmult", params, 0, 0, 0) == -2.0

    def test_head_tail_symmetry_exact(self):
        rng = np.random.default_rng(3)
        params, _ = make("distmult", rng)
        for _ in range(20):
            h, r, t = rng.integers(0, 6), rng.integers(0, 3), rng.integers(0, 6)
            assert score_of("distmult", params, h, r, t) == score_of("distmult", params, t, r, h)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        params, _ = make("distmult", rng)
        for _ in range(20):
            h, r, t = rng.integers(0, 6), rng.integers(0, 3), rng.integers(0, 6)
            assert score_of("distmult", params, h, r, t) == pytest.approx(
                distmult_oracle(params, h, r, t), rel=1e-12, abs=1e-14
            )


class TestRotatE:
    def test_identity_rotation_fixed_point(self):
        ent = np.array([[0.5, -1.0, 2.0, 0.25], [0.5, -1.0, 2.0, 0.25]])
        rel = np.zeros((1, 4))
        params = BaselineParams(ent=ent, rel=rel)
        assert score_of("rotate", params, 0, 0, 1) == 0.0

    def test_quarter_turn(self):
        # 1+0i rotated by pi/2 lands on 0+1i
        ent = np.array([[1.0, 0.0], [0.0, 1.0]])
        rel = np.array([[np.pi / 2, 0.0]])
        params = BaselineParams(ent=ent, rel=rel)
        assert score_of("rotate", params, 0, 0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_matches_complex_oracle(self):
        rng = np.random.default_rng(5)
        params, _ = make("rotate", rng, dim=6)
        for _ in range(20):
            h, r, t = rng.integers(0, 6), rng.integers(0, 3), rng.integers(0, 6)
            assert score_of("rotate", params, h, r, t) == pytest.approx(
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
        monkeypatch.setattr(kernels, "SLAB", 4)
        rng = np.random.default_rng(8)
        params, config = make(kind, rng, dim=dim, norm_p=2)
        triples = np.stack(
            [rng.integers(0, 6, 4), rng.integers(0, 3, 4), rng.integers(0, 6, 4)], axis=1
        )
        got = score_batch(params, config, triples, np.arange(6), side)
        rows = [(c, r, t) if side == "head" else (h, r, c) for h, r, t in triples for c in range(6)]
        expected = score_triples(params, config, rows)[0].reshape(got.shape)
        assert got == pytest.approx(expected, rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("kind", ["transe", "distmult", "rotate"])
    @pytest.mark.parametrize("side", ["head", "tail"])
    def test_table_scores_like_a_built_one(self, kind, side):
        rng = np.random.default_rng(9)
        params, config = make(kind, rng, dim=6)
        triples = np.stack([rng.integers(0, 6, 4), rng.integers(0, 3, 4), rng.integers(0, 6, 4)], axis=1)
        candidates = np.array([5, 0, 3, 3, 1])
        table = candidate_table(params, config, candidates, side)
        assert (table.side, table.size) == (side, 5)
        # the candidate rows, transposed; rotation rows as [real parts | imaginary parts]
        rows = params.ent[candidates]
        if kind == "rotate":
            rows = np.concatenate([rows[:, 0::2], rows[:, 1::2]], axis=1)
        assert np.array_equal(table.rows, rows.T)
        got = score_batch(params, config, triples, candidates, side, table=table)
        assert got.flags.c_contiguous
        assert np.array_equal(got, score_batch(params, config, triples, candidates, side))

    @pytest.mark.parametrize("kind", ["transe", "distmult", "rotate"])
    def test_table_of_other_candidates_rejected(self, kind):
        params, config = make(kind, np.random.default_rng(9), dim=6)
        table = candidate_table(params, config, np.arange(6), "tail")
        for candidates in (np.arange(5), np.array([5, 4])):
            with pytest.raises(ValueError, match="table"):
                score_batch(params, config, [(0, 0, 1)], candidates, "tail", table=table)
        # a table built for one side is refused for the other
        for side in ("head", "tail"):
            other = "tail" if side == "head" else "head"
            table = candidate_table(params, config, np.arange(6), side)
            with pytest.raises(ValueError, match="table"):
                score_batch(params, config, [(0, 0, 1)], np.arange(6), other, table=table)

    @pytest.mark.parametrize("kind", ["transe", "distmult", "rotate"])
    def test_bad_side_rejected(self, kind):
        params, config = make(kind, np.random.default_rng(9), dim=6)
        with pytest.raises(ValueError, match="corrupt_side"):
            candidate_table(params, config, np.arange(6), "both")
        with pytest.raises(ValueError, match="corrupt_side"):
            score_batch(params, config, [(0, 0, 1)], np.arange(6), "both")


def one_side_negatives(rng, batch, n, num_entities, side):
    """(B, n, 3) negatives that all replace their positive's head (side 0) or tail (side 2)."""
    negs = np.repeat(batch[:, None, :], n, axis=1)
    negs[:, :, side] = (batch[:, side, None] + rng.integers(1, num_entities, (len(batch), n))) % num_entities
    return negs


class TestAnchoredNegatives:
    """score_triples(negatives, positives=cache) against the scalar oracles and the same rows scored alone.

    Scored alone, as a flat (N, 3) batch, each row is its own positive and
    tail-corrupted, so a head-corrupted negative takes another route there.
    """

    @pytest.mark.parametrize("corrupt", ["mixed", "all_heads", "all_tails"])
    @pytest.mark.parametrize("norm_p", [1, 2])
    @pytest.mark.parametrize("kind", ["transe", "distmult", "rotate"])
    def test_matches_flat_scores_and_gradients(self, kind, norm_p, corrupt):
        rng = np.random.default_rng(11 + norm_p)
        params, config = make(kind, rng, num_entities=12, num_relations=4, dim=8, norm_p=norm_p)
        batch, negs = anchored_batch(rng, 7, 5, 12, 4)
        if corrupt != "mixed":
            negs = one_side_negatives(rng, batch, 5, 12, 0 if corrupt == "all_heads" else 2)
        B, n = negs.shape[:2]
        _, pos_cache = score_triples(params, config, batch)
        got, cache = score_triples(params, config, negs, positives=pos_cache)
        want, flat_cache = score_triples(params, config, negs.reshape(-1, 3))
        assert got.shape == (B * n,)
        close_to(got, [ORACLES[kind](params, *row, norm_p) for row in negs.reshape(-1, 3)], 1e-12)
        close_to(got, want, 1e-14)
        if corrupt == "mixed":
            # a negative equal to its positive scores as the positive
            for b in (2, 3):
                close_to(got[b * n], score_triples(params, config, batch[b : b + 1])[0][0], 1e-14)

        upstream = rng.normal(size=B * n)
        ent, rel, dense = backward(params, config, cache, upstream)
        assert ent.shape == (B * n + 2 * B, 8) and rel.shape == (B, 8) and dense == {}
        flat_ent, flat_rel, _ = backward(params, config, flat_cache, upstream)
        (ent_ids, rel_ids), (flat_ent_ids, flat_rel_ids) = cache["row_ids"], flat_cache["row_ids"]
        close_to(row_sums(12, ent_ids, ent), row_sums(12, flat_ent_ids, flat_ent), 1e-12)
        close_to(row_sums(4, rel_ids, rel), row_sums(4, flat_rel_ids, flat_rel), 1e-12)
        if kind == "rotate":
            # the phases live in the first d/2 columns; the rest are unused
            assert np.all(rel[:, 4:] == 0.0)

    @pytest.mark.parametrize("corrupt", ["mixed", "all_heads", "all_tails"])
    def test_distmult_negatives_score_like_the_triples_alone_bit_for_bit(self, corrupt):
        # -sum((e * kept) * r) is -sum((h * t) * r) whichever entity a row corrupts
        rng = np.random.default_rng(17)
        params, config = make("distmult", rng, num_entities=12, num_relations=4, dim=64)
        batch, negs = anchored_batch(rng, 7, 5, 12, 4)
        if corrupt != "mixed":
            negs = one_side_negatives(rng, batch, 5, 12, 0 if corrupt == "all_heads" else 2)
        _, pos_cache = score_triples(params, config, batch)
        got, _ = score_triples(params, config, negs, positives=pos_cache)
        alone = [score_triples(params, config, [row])[0][0] for row in negs.reshape(-1, 3)]
        assert np.array_equal(got, alone)

    @pytest.mark.parametrize("kind", ["transe", "distmult", "rotate"])
    def test_negative_that_changes_the_relation_or_both_entities_rejected(self, kind):
        rng = np.random.default_rng(3)
        params, config = make(kind, rng, num_entities=12, num_relations=4, dim=8)
        batch, negs = anchored_batch(rng, 7, 5, 12, 4)
        _, pos_cache = score_triples(params, config, batch)
        relation = negs.copy()
        relation[4, 1, 1] = (batch[4, 1] + 1) % 4
        both = negs.copy()
        both[5, 2, [0, 2]] = (batch[5, [0, 2]] + 1) % 12
        for bad in (relation, both):
            with pytest.raises(ValueError, match="keep its positive's relation"):
                score_triples(params, config, bad, positives=pos_cache)
        for bad in (negs.reshape(-1, 3), negs[:-1]):
            with pytest.raises(ValueError, match=r"\(B, n, 3\)"):
                score_triples(params, config, bad, positives=pos_cache)
