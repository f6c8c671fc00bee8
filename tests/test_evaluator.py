import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiekge import baselines, evaluator, kernels
from hiekge.baselines import BaselineConfig
from hiekge.baselines import init_params as init_baseline
from hiekge.evaluator import (
    CSV_HEADER,
    MetricsReport,
    RankResult,
    aggregate_metrics,
    evaluate,
    full_report,
    per_relation_metrics,
    rank_triple,
    report_csv_row,
    report_to_dict,
)
from hiekge.hie_model import HieConfig, init_params, score_triples
from hiekge.kg_data import (
    N_TO_N,
    ONE_TO_ONE,
    KnowledgeGraph,
    RelationCategory,
    build_filter_index,
    classify_relations,
)

from hiekge.trainer import MODELS, NumericError

from helpers import random_hie_params
from oracles import metrics_oracle, rank_oracle
from synthkg import build_synth_kg


class TestRankTriple:
    def test_strictly_smallest_score_ranks_first(self):
        row = [0.5, 0.1, 0.9, 0.3]
        assert rank_triple(row, 1, frozenset()) == 1

    def test_one_better_candidate_ranks_second(self):
        assert rank_triple([0.5, 0.1, 0.9], 0, frozenset()) == 2

    def test_filtered_candidates_do_not_count(self):
        assert rank_triple([0.5, 0.1, 0.9], 0, frozenset({1})) == 1

    def test_true_entity_never_excluded_by_filter(self):
        # even when the filter contains the true entity, its own score stays
        assert rank_triple([0.5, 0.1, 0.9], 0, frozenset({0, 1})) == 1

    def test_pessimistic_counts_ties_against(self):
        row = [2.0, 2.0, 2.0, 5.0]
        assert rank_triple(row, 0, frozenset(), "pessimistic") == 3
        assert rank_triple(row, 0, frozenset(), "strict") == 1

    def test_tied_rows_with_filter(self):
        row = [1.0, 1.0, 1.0, 1.0]
        assert rank_triple(row, 2, frozenset({0}), "pessimistic") == 3
        assert rank_triple(row, 2, frozenset({0}), "strict") == 1

    def test_worst_rank_is_candidate_count(self):
        row = [0.0, 1.0, 2.0, 9.0]
        assert rank_triple(row, 3, frozenset()) == 4

    def test_unknown_tie_break_rejected(self):
        with pytest.raises(ValueError):
            rank_triple([1.0, 2.0], 0, frozenset(), "optimistic")

    @pytest.mark.parametrize("tie", ["pessimistic", "strict"])
    def test_nan_true_score_raises(self, tie):
        # a NaN compares false with everything, so it used to rank first
        with pytest.raises(NumericError, match="non-finite"):
            rank_triple([1.0, np.nan, 2.0], 1, frozenset(), tie)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_competitor_raises(self, bad):
        # even a filtered-out competitor: the row as a whole is unusable
        with pytest.raises(NumericError, match="non-finite"):
            rank_triple([0.5, bad, 2.0], 0, frozenset())
        with pytest.raises(NumericError, match="non-finite"):
            rank_triple([0.5, bad, 2.0], 0, frozenset({1}))

    @given(
        scores=st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=30),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_counting_oracle(self, scores, data):
        true_entity = data.draw(st.integers(0, len(scores) - 1))
        filter_set = frozenset(
            data.draw(st.sets(st.integers(0, len(scores) - 1), max_size=len(scores)))
        )
        row = np.array(scores, dtype=np.float64)
        for pessimistic in (True, False):
            expected = rank_oracle(
                lambda c: row[c], len(row), true_entity, filter_set, pessimistic
            )
            got = rank_triple(
                row, true_entity, filter_set, "pessimistic" if pessimistic else "strict"
            )
            assert got == expected


def tiny_kg():
    """Nine entities, two relations, hand-written splits."""
    train = np.array(
        [[0, 0, 1], [1, 0, 2], [2, 0, 3], [3, 1, 0], [4, 0, 5], [5, 1, 4], [6, 0, 7]]
    )
    valid = np.array([[7, 1, 6], [0, 1, 8]])
    test = np.array([[8, 0, 0], [1, 1, 3], [4, 1, 2], [5, 0, 6]])
    return KnowledgeGraph(
        entity_names=[f"e{i}" for i in range(9)],
        relation_names=["fwd", "rev"],
        train=train,
        valid=valid,
        test=test,
        filter_index=build_filter_index(train, valid, test),
    )


def rescoring_oracle_ranks(params, config, kg, scalar_score, filtered, pessimistic=True):
    """Reference ranks from scoring one candidate at a time."""
    out = []
    index = kg.filter_index
    for h, r, t in kg.test.tolist():
        tail_filter = index.true_tails(h, r) if filtered else frozenset()
        head_filter = index.true_heads(r, t) if filtered else frozenset()
        tail_rank = rank_oracle(
            lambda c: scalar_score(params, config, h, r, c),
            kg.num_entities, t, tail_filter, pessimistic,
        )
        head_rank = rank_oracle(
            lambda c: scalar_score(params, config, c, r, t),
            kg.num_entities, h, head_filter, pessimistic,
        )
        out.append((head_rank, tail_rank))
    return out


def hie_scalar(params, config, h, r, t):
    return score_triples(params, config, [(h, r, t)])[0][0]


def baseline_scalar(params, config, h, r, t):
    return baselines.score_triples(params, config, [(h, r, t)])[0][0]


class TestEvaluateAgainstOracle:
    @pytest.mark.parametrize("filtered", [True, False])
    @pytest.mark.parametrize("tie", ["pessimistic", "strict"])
    def test_hie_ranks_equal_per_candidate_rescoring(self, monkeypatch, filtered, tie):
        kg = tiny_kg()
        config = HieConfig(dim=8, levels=2, lambdas=(0.5, 0.5))
        params = random_hie_params(np.random.default_rng(11), kg.num_entities, 2, config)
        monkeypatch.setattr(evaluator, "TRIPLE_CHUNK", 3)
        results = evaluate(params, config, kg, tie_break=tie, filtered=filtered)
        expected = rescoring_oracle_ranks(
            params, config, kg, hie_scalar, filtered, pessimistic=(tie == "pessimistic")
        )
        got = [(res.head_rank, res.tail_rank) for res in results]
        assert got == expected

    @pytest.mark.parametrize("kind", ["transe", "distmult", "rotate"])
    @pytest.mark.parametrize("filtered", [True, False])
    def test_baseline_ranks_equal_per_candidate_rescoring(self, kind, filtered):
        kg = tiny_kg()
        config = BaselineConfig(kind=kind, dim=6)
        params = init_baseline(kg.num_entities, 2, config, seed=5)
        results = evaluate(params, config, kg, filtered=filtered)
        expected = rescoring_oracle_ranks(params, config, kg, baseline_scalar, filtered)
        got = [(res.head_rank, res.tail_rank) for res in results]
        assert got == expected

    def test_synthetic_kg_oracle_spot_check(self, monkeypatch):
        # larger vocabulary, chunked scoring paths exercised
        kg = build_synth_kg(num_entities=24, seed=3)
        config = HieConfig(dim=4)
        params = random_hie_params(np.random.default_rng(7), kg.num_entities, 4, config)
        monkeypatch.setattr(evaluator, "TRIPLE_CHUNK", 5)
        monkeypatch.setattr(kernels, "SLAB", 7)
        results = evaluate(params, config, kg)
        expected = rescoring_oracle_ranks(params, config, kg, hie_scalar, True)
        got = [(res.head_rank, res.tail_rank) for res in results]
        assert got == expected

    def test_filtered_never_worse_than_raw(self):
        kg = tiny_kg()
        config = HieConfig(dim=8)
        params = random_hie_params(np.random.default_rng(2), kg.num_entities, 2, config)
        raw = evaluate(params, config, kg, filtered=False)
        filt = evaluate(params, config, kg, filtered=True)
        for a, b in zip(filt, raw):
            assert a.head_rank <= b.head_rank
            assert a.tail_rank <= b.tail_rank

    def test_nan_entity_row_raises_numeric_error(self):
        kg = tiny_kg()
        config = HieConfig(dim=8)
        params = random_hie_params(np.random.default_rng(5), kg.num_entities, 2, config)
        params.ent[4, 1] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            evaluate(params, config, kg)

    def test_single_entity_vocab_gives_rank_one(self):
        train = np.array([[0, 0, 0]])
        kg = KnowledgeGraph(
            entity_names=["only"],
            relation_names=["self"],
            train=train,
            valid=train.copy(),
            test=train.copy(),
            filter_index=build_filter_index(train, train, train),
        )
        config = HieConfig(dim=4)
        params = init_params(1, 1, config, seed=0)
        results = evaluate(params, config, kg)
        assert results[0].head_rank == 1 and results[0].tail_rank == 1

    def test_constant_scorer_separates_tie_breaks(self):
        kg = tiny_kg()
        config = HieConfig(dim=4)
        params = init_params(kg.num_entities, 2, config, seed=0)
        params.ent[:] = 0.0
        params.rel[:] = 0.0  # every candidate scores identically
        strict = evaluate(params, config, kg, tie_break="strict")
        pess = evaluate(params, config, kg, tie_break="pessimistic")
        index = kg.filter_index
        for s_res, p_res in zip(strict, pess):
            h, r, t = s_res.triple
            assert s_res.head_rank == 1 and s_res.tail_rank == 1
            expected_tail = kg.num_entities - len(index.true_tails(h, r) - {t})
            expected_head = kg.num_entities - len(index.true_heads(r, t) - {h})
            assert p_res.tail_rank == expected_tail
            assert p_res.head_rank == expected_head

    def test_entity_relabeling_leaves_ranks_unchanged(self):
        kg = tiny_kg()
        config = HieConfig(dim=8)
        rng = np.random.default_rng(4)
        params = random_hie_params(rng, kg.num_entities, 2, config)
        base = evaluate(params, config, kg)

        perm = rng.permutation(kg.num_entities)
        inv = np.argsort(perm)

        def remap(arr):
            out = arr.copy()
            out[:, 0] = perm[arr[:, 0]]
            out[:, 2] = perm[arr[:, 2]]
            return out

        train, valid, test = remap(kg.train), remap(kg.valid), remap(kg.test)
        relabeled = KnowledgeGraph(
            entity_names=[kg.entity_names[i] for i in inv],
            relation_names=kg.relation_names,
            train=train,
            valid=valid,
            test=test,
            filter_index=build_filter_index(train, valid, test),
        )
        import copy

        params2 = copy.deepcopy(params)
        params2.ent = params.ent[inv]
        other = evaluate(params2, config, relabeled)
        assert [(r.head_rank, r.tail_rank) for r in base] == [
            (r.head_rank, r.tail_rank) for r in other
        ]

    def test_rank_bounds(self):
        kg = tiny_kg()
        config = HieConfig(dim=4)
        params = random_hie_params(np.random.default_rng(9), kg.num_entities, 2, config)
        for res in evaluate(params, config, kg):
            assert 1 <= res.head_rank <= kg.num_entities
            assert 1 <= res.tail_rank <= kg.num_entities

    def test_empty_split_rejected(self):
        kg = tiny_kg()
        kg.test = np.zeros((0, 3), dtype=np.int64)
        config = HieConfig(dim=4)
        params = init_params(kg.num_entities, 2, config, seed=0)
        with pytest.raises(ValueError):
            evaluate(params, config, kg)

    def test_unknown_tie_break_rejected(self):
        kg = tiny_kg()
        config = HieConfig(dim=4)
        params = init_params(kg.num_entities, 2, config, seed=0)
        with pytest.raises(ValueError):
            evaluate(params, config, kg, tie_break="mean")


# every model and norm, and both hie transforms; B=16 makes the default
# slabs (5,120 candidates, for every model) smaller than SLAB_ENTITIES.
# Three levels at dim 100 lift the candidate chains through a GEMM whose
# remainder rows BLAS computes with another kernel.
SLAB_MODELS = [
    HieConfig(dim=64, levels=2, lambdas=(0.5, 0.5), norm_p=norm_p, transform=transform)
    for transform in ("diagonal", "rank1") for norm_p in (1, 2)
] + [HieConfig(dim=100, levels=3, lambdas=(0.25, 0.5, 0.25), transform=transform)
     for transform in ("diagonal", "rank1")
] + [BaselineConfig(kind=kind, dim=64, norm_p=norm_p)
     for kind in ("transe", "distmult", "rotate") for norm_p in (1, 2)]
SLAB_ENTITIES = 5120 + 1301
# the models whose ranking runs through `kernels.slab_sums`, at a width that keeps 512-triple calls quick
WIDE_MODELS = [
    HieConfig(dim=8, levels=2, lambdas=(0.5, 0.5), norm_p=norm_p, transform=transform)
    for transform in ("diagonal", "rank1") for norm_p in (1, 2)
] + [BaselineConfig(kind="transe", dim=8, norm_p=norm_p) for norm_p in (1, 2)] + [
    BaselineConfig(kind="rotate", dim=8)]


# Small tables run through BLAS's small-matrix and remainder kernels, where
# unpadded products gave a copy of a row other bits (see CHANGES.md): at 15
# entities the three-level lift, at 301 DistMult and the rank-1 head product.
TIE_ENTITIES = (15, 61, 301, SLAB_ENTITIES)


def slab_case(config, seed, entities=SLAB_ENTITIES):
    """Parameters over `entities` entities and 16 test triples for one SLAB_MODELS entry."""
    rng = np.random.default_rng(seed)
    assert kernels.SLAB < SLAB_ENTITIES
    if isinstance(config, HieConfig):
        params = random_hie_params(rng, entities, 5, config)
    else:
        params = init_baseline(entities, 5, config, seed=seed)
    triples = np.stack([rng.integers(0, entities, 16), rng.integers(0, 5, 16),
                        rng.integers(0, entities, 16)], axis=1)
    return params, triples


def one_slab_scores(monkeypatch, params, config, *args):
    """score_batch of params' model with every candidate in one slab."""
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "SLAB", SLAB_ENTITIES)
        return MODELS[config.kind].score_batch(params, config, *args)


def slab_model_id(config):
    if isinstance(config, HieConfig):
        return f"hie-{config.transform}-l{config.norm_p}" + ("-dim100-3lv" if config.levels == 3 else "")
    return f"{config.kind}-l{config.norm_p}"


class TestSlabInvariance:
    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("config", SLAB_MODELS, ids=slab_model_id)
    def test_default_slabs_score_like_one_slab(self, config, side, monkeypatch):
        params, triples = slab_case(config, 3)
        candidates = np.arange(SLAB_ENTITIES)
        got = MODELS[config.kind].score_batch(params, config, triples, candidates, side)
        want = one_slab_scores(monkeypatch, params, config, triples, candidates, side)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("entities", TIE_ENTITIES)
    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("config", SLAB_MODELS, ids=slab_model_id)
    def test_tied_candidates_rank_alike_in_any_slab(self, config, side, entities, monkeypatch):
        # copies of the first triple's true entity in the first row, the
        # middle and the last two rows; at SLAB_ENTITIES those are the first
        # and last default slabs
        params, triples = slab_case(config, 4, entities)
        col = 0 if side == "head" else 2
        true = int(triples[0, col])
        copies = sorted({1, entities // 2, entities - 2, entities - 1} - {true})
        params.ent[copies] = params.ent[true]
        candidates = np.arange(entities)
        by_slab = [MODELS[config.kind].score_batch(params, config, triples, candidates, side),
                   one_slab_scores(monkeypatch, params, config, triples, candidates, side)]
        for b in range(len(triples)):
            for tie in ("pessimistic", "strict"):
                ranks = [rank_triple(s[b], int(triples[b, col]), frozenset(), tie) for s in by_slab]
                assert ranks[0] == ranks[1], (b, tie)
        row = by_slab[0][0]
        assert np.all(row[copies] == row[true])
        pess, strict = (rank_triple(row, true, frozenset(), tie) for tie in ("pessimistic", "strict"))
        assert pess - strict == len(copies)


    @pytest.mark.parametrize("side", ["head", "tail"])
    @pytest.mark.parametrize("config", WIDE_MODELS, ids=slab_model_id)
    def test_wide_batch_scores_like_evaluation_chunks(self, config, side):
        # 512 triples in one call run in row blocks of SLAB_ROWS triples; they
        # once ran as one (512, 3,072) block per slab, at 3x the cost per triple
        rng = np.random.default_rng(6)
        if isinstance(config, HieConfig):
            params = random_hie_params(rng, SLAB_ENTITIES, 5, config)
        else:
            params = init_baseline(SLAB_ENTITIES, 5, config, seed=6)
        triples = np.stack([rng.integers(0, SLAB_ENTITIES, 512), rng.integers(0, 5, 512),
                            rng.integers(0, SLAB_ENTITIES, 512)], axis=1)
        model, candidates = MODELS[config.kind], np.arange(SLAB_ENTITIES)
        table = model.candidate_table(params, config, candidates, side)
        wide = model.score_batch(params, config, triples, candidates, side, table=table)
        chunks = [model.score_batch(params, config, triples[start : start + evaluator.TRIPLE_CHUNK],
                                    candidates, side, table=table)
                  for start in range(0, len(triples), evaluator.TRIPLE_CHUNK)]
        assert len(chunks) == 32
        assert np.array_equal(wide, np.concatenate(chunks))


@pytest.mark.parametrize("config", [
    HieConfig(dim=8, levels=2, lambdas=(0.5, 0.5)),
    HieConfig(dim=8, levels=2, lambdas=(0.5, 0.5), transform="rank1"),
    BaselineConfig(kind="distmult", dim=8),
], ids=lambda c: getattr(c, "kind", None) or f"hie-{c.transform}")
def test_ranks_do_not_depend_on_triple_chunk(monkeypatch, config):
    # evaluate builds each side's candidate table once and shares it across chunks
    kg = build_synth_kg(num_entities=40, seed=2)
    rng = np.random.default_rng(8)
    if isinstance(config, HieConfig):
        params = random_hie_params(rng, kg.num_entities, kg.num_relations, config)
    else:
        params = init_baseline(kg.num_entities, kg.num_relations, config, seed=8)
    n = len(kg.test)
    runs = []
    for chunk in (1, 5, n):
        monkeypatch.setattr(evaluator, "TRIPLE_CHUNK", chunk)
        runs.append(evaluate(params, config, kg))
    assert n > 5 and len(runs[0]) == n
    assert runs[0] == runs[1] == runs[2]


def results_from_pairs(pairs, relation=0):
    return [
        RankResult(triple=(0, relation, 1), head_rank=h, tail_rank=t) for h, t in pairs
    ]


class TestAggregateMetrics:
    def test_fixed_rank_multiset(self):
        # ranks 1,2,3,10,1,1: exactly three of the six sit at rank 1
        results = results_from_pairs([(1, 2), (3, 10), (1, 1)])
        rep = aggregate_metrics(results)
        assert rep.mr == pytest.approx(3.0, abs=1e-12)
        assert rep.mrr == pytest.approx((1 + 0.5 + 1 / 3 + 0.1 + 1 + 1) / 6, abs=1e-12)
        assert rep.hits1 == pytest.approx(3 / 6, abs=1e-12)
        assert rep.hits3 == pytest.approx(5 / 6, abs=1e-12)
        assert rep.hits10 == pytest.approx(1.0, abs=1e-12)
        assert rep.count == 3

    def test_single_pair(self):
        rep = aggregate_metrics(results_from_pairs([(1, 2)]))
        assert rep.mr == 1.5
        assert rep.mrr == 0.75
        assert rep.hits1 == 0.5
        assert rep.hits3 == 1.0
        assert rep.count == 1

    def test_all_rank_one_is_perfect(self):
        rep = aggregate_metrics(results_from_pairs([(1, 1)] * 5))
        assert (rep.mr, rep.mrr, rep.hits1, rep.hits3, rep.hits10) == (1.0, 1.0, 1.0, 1.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_metrics([])

    def test_thousand_random_pairs_match_oracle(self):
        rng = np.random.default_rng(0)
        pairs = [(int(a), int(b)) for a, b in rng.integers(1, 500, size=(1000, 2))]
        rep = aggregate_metrics(results_from_pairs(pairs))
        want = metrics_oracle(pairs)
        assert rep.mr == pytest.approx(want["mr"], abs=1e-12)
        assert rep.mrr == pytest.approx(want["mrr"], abs=1e-12)
        assert rep.hits1 == pytest.approx(want["hits1"], abs=1e-12)
        assert rep.hits3 == pytest.approx(want["hits3"], abs=1e-12)
        assert rep.hits10 == pytest.approx(want["hits10"], abs=1e-12)

    @given(
        pairs=st.lists(
            st.tuples(st.integers(1, 100), st.integers(1, 100)), min_size=1, max_size=60
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, pairs):
        rep = aggregate_metrics(results_from_pairs(pairs))
        assert rep.mr >= 1.0
        assert 0.0 < rep.mrr <= 1.0
        assert rep.hits1 <= rep.hits3 <= rep.hits10
        assert rep.count == len(pairs)
        # the mean reciprocal rank can never beat hits@1 plus half the rest
        assert rep.mrr <= rep.hits1 + (1.0 - rep.hits1) / 2 + 1e-12


class TestPerRelationMetrics:
    def test_single_relation_equals_global(self):
        results = results_from_pairs([(1, 4), (2, 2), (7, 1)], relation=3)
        categories = {3: RelationCategory(ONE_TO_ONE, 1.0, 1.0)}
        per_relation, per_category = per_relation_metrics(results, categories)
        assert per_relation[3] == aggregate_metrics(results)
        assert per_category[ONE_TO_ONE] == aggregate_metrics(results)

    def test_weighted_mean_identity(self):
        results = results_from_pairs([(1, 2), (5, 9)], relation=0) + results_from_pairs(
            [(3, 3), (2, 8), (4, 1)], relation=1
        )
        categories = {
            0: RelationCategory(ONE_TO_ONE, 1.0, 1.0),
            1: RelationCategory(N_TO_N, 2.0, 2.0),
        }
        per_relation, _ = per_relation_metrics(results, categories)
        total = aggregate_metrics(results)
        counts = {rid: rep.count for rid, rep in per_relation.items()}
        blended = sum(per_relation[rid].mr * counts[rid] for rid in counts) / sum(
            counts.values()
        )
        assert blended == pytest.approx(total.mr, rel=1e-12)

    def test_category_groups_merge_relations(self):
        results = results_from_pairs([(1, 2)], relation=0) + results_from_pairs(
            [(3, 4), (5, 6)], relation=1
        )
        categories = {
            0: RelationCategory(N_TO_N, 3.0, 3.0),
            1: RelationCategory(N_TO_N, 2.0, 2.0),
        }
        per_relation, per_category = per_relation_metrics(results, categories)
        assert set(per_relation) == {0, 1}
        assert per_category[N_TO_N].count == 3
        assert per_category[N_TO_N] == aggregate_metrics(results)

    def test_missing_category_names_relation(self):
        results = results_from_pairs([(1, 1)], relation=7)
        with pytest.raises(ValueError, match="7"):
            per_relation_metrics(results, {})

    def test_synth_kg_categories_cover_all_relations(self):
        kg = build_synth_kg(num_entities=20, seed=0)
        categories = classify_relations(kg.train)
        config = HieConfig(dim=4)
        params = random_hie_params(np.random.default_rng(1), kg.num_entities, 4, config)
        results = evaluate(params, config, kg)
        report = full_report(results, categories)
        assert report.per_relation is not None
        assert sum(rep.count for rep in report.per_relation.values()) == report.count
        assert report.mr == aggregate_metrics(results).mr


class TestReportSerialization:
    def test_report_dict_keys_and_values(self):
        results = results_from_pairs([(1, 2), (3, 10), (1, 1)])
        doc = report_to_dict(full_report(results))
        assert list(doc) == ["mr", "mrr", "hits1", "hits3", "hits10", "count", "per_relation", "per_category"]
        assert doc["mr"] == 3.0
        assert doc["count"] == 3
        assert doc["per_relation"] is None and doc["per_category"] is None

    def test_report_dict_nested_and_conventions(self):
        results = results_from_pairs([(1, 2)], relation=0)
        categories = {0: RelationCategory(ONE_TO_ONE, 1.0, 1.0)}
        doc = report_to_dict(
            full_report(results, categories),
            conventions={"tie_break": "pessimistic", "filtered": True},
        )
        assert doc["per_relation"]["0"]["mr"] == 1.5
        assert doc["per_category"][ONE_TO_ONE]["count"] == 1
        assert doc["conventions"] == {"tie_break": "pessimistic", "filtered": True}

    def test_csv_row_matches_header(self):
        rep = MetricsReport(mr=3.0, mrr=0.5, hits1=0.25, hits3=0.5, hits10=1.0, count=4)
        row = report_csv_row(rep)
        assert CSV_HEADER == "mr,mrr,hits1,hits3,hits10,count"
        assert row == "3.000000,0.500000,0.250000,0.500000,1.000000,4"
        assert len(row.split(",")) == len(CSV_HEADER.split(","))
