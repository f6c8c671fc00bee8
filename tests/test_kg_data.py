import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiekge.kg_data import (
    N_TO_N,
    N_TO_ONE,
    ONE_TO_N,
    ONE_TO_ONE,
    DataError,
    as_triple_array,
    build_filter_index,
    classify_relations,
    dataset_stats,
    load_kg,
    load_triples,
    sample_batch,
    write_dictionary,
)

from synthkg import GROUP, NEXT, PAIR, build_synth_kg


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write("\t".join(row) + "\n")


class TestLoadTriples:
    def test_two_lines_two_entities_one_relation(self, tmp_path):
        path = tmp_path / "train.txt"
        write_tsv(path, [("a", "r1", "b"), ("b", "r1", "a")])
        triples, ents, rels = load_triples(path)
        assert triples.shape == (2, 3)
        assert len(ents) == 2 and len(rels) == 1

    def test_first_seen_order_and_file_order(self, tmp_path):
        path = tmp_path / "t.txt"
        write_tsv(path, [("x", "r", "y"), ("z", "q", "x")])
        triples, ents, rels = load_triples(path)
        assert ents == {"x": 0, "y": 1, "z": 2}
        assert rels == {"r": 0, "q": 1}
        assert triples.tolist() == [[0, 0, 1], [2, 1, 0]]

    def test_grows_existing_vocabs_in_place(self, tmp_path):
        path = tmp_path / "t.txt"
        write_tsv(path, [("b", "r", "c")])
        ents = {"a": 0}
        triples, ents2, _ = load_triples(path, ents, {})
        assert ents2 is ents
        assert ents == {"a": 0, "b": 1, "c": 2}
        assert triples.tolist() == [[1, 0, 2]]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        with open(path, "w") as f:
            f.write("a\tr\tb\n")
            f.write("only two\tfields\n")
        with pytest.raises(DataError, match=r":2:"):
            load_triples(path)

    def test_non_utf8_bytes_raise_data_error_naming_the_file(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"a\tr\tb\nca\xf1on\tr\tb\n")
        with pytest.raises(DataError, match="latin1.txt: not UTF-8"):
            load_triples(path)

    def test_duplicates_dropped_with_warning(self, tmp_path):
        path = tmp_path / "dup.txt"
        write_tsv(path, [("a", "r", "b"), ("a", "r", "b"), ("a", "r", "c")])
        with pytest.warns(UserWarning, match="duplicate"):
            triples, _, _ = load_triples(path)
        assert len(triples) == 2

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"a\tr\tb\r\nc\tr\td\r\n")
        triples, ents, _ = load_triples(path)
        assert len(triples) == 2
        assert "b" in ents and "d" in ents  # no stray \r glued onto names

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_triples(tmp_path / "nope.txt")


@st.composite
def name_triples(draw):
    name = st.text(
        alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=8,
    )
    return draw(st.lists(st.tuples(name, name, name), min_size=1, max_size=30))


class TestVocabRoundtrip:
    @given(rows=name_triples())
    @settings(max_examples=60, deadline=None)
    def test_ids_dense_and_names_recoverable(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("hyp") / "t.txt"
        write_tsv(path, rows)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # duplicate rows are fine here
            triples, ents, rels = load_triples(path)
        assert sorted(ents.values()) == list(range(len(ents)))
        assert sorted(rels.values()) == list(range(len(rels)))
        ent_names = {i: n for n, i in ents.items()}
        rel_names = {i: n for n, i in rels.items()}
        seen = set()
        for h, r, t in triples:
            seen.add((ent_names[h], rel_names[r], ent_names[t]))
        assert seen == set(rows)


class TestLoadKg:
    def make_dir(self, tmp_path):
        write_tsv(tmp_path / "train.txt", [("a", "r", "b"), ("b", "r", "c")])
        write_tsv(tmp_path / "valid.txt", [("a", "r", "c")])
        write_tsv(tmp_path / "test.txt", [("c", "s", "d")])
        return tmp_path

    def test_shared_vocab_and_stats(self, tmp_path):
        kg = load_kg(self.make_dir(tmp_path))
        assert kg.entity_names == ["a", "b", "c", "d"]
        assert kg.relation_names == ["r", "s"]
        assert dataset_stats(kg) == {
            "entities": 4,
            "relations": 2,
            "train": 2,
            "valid": 1,
            "test": 1,
        }

    def test_ids_within_bounds_everywhere(self, tmp_path):
        kg = load_kg(self.make_dir(tmp_path))
        for split in (kg.train, kg.valid, kg.test):
            assert split[:, [0, 2]].max() < kg.num_entities
            assert split[:, 1].max() < kg.num_relations

    def test_filter_index_is_union_of_splits(self, tmp_path):
        kg = load_kg(self.make_dir(tmp_path))
        everything = {
            (int(h), int(r), int(t))
            for split in (kg.train, kg.valid, kg.test)
            for h, r, t in split
        }
        from_index = {
            (h, r, t) for (h, r), ts in kg.filter_index.tails_of.items() for t in ts
        }
        assert from_index == everything


class TestFilterIndex:
    def test_union_across_splits(self):
        index = build_filter_index([(0, 0, 1)], [], [(0, 0, 2)])
        assert index.true_tails(0, 0) == {1, 2}
        assert index.true_heads(0, 1) == {0}

    def test_empty_splits_give_empty_index(self):
        index = build_filter_index([], [], [])
        assert index.tails_of == {} and index.heads_of == {}
        assert index.true_tails(3, 1) == frozenset()

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(7)
        splits = [
            [(int(h), int(r), int(t)) for h, r, t in zip(*[rng.integers(0, 6, 10) for _ in range(3)])]
            for _ in range(3)
        ]
        index = build_filter_index(*splits)
        flat = [x for s in splits for x in s]
        for h in range(6):
            for r in range(6):
                for t in range(6):
                    expected = any(x == (h, r, t) for x in flat)
                    assert (t in index.true_tails(h, r)) == expected
                    assert (h in index.true_heads(r, t)) == expected


class TestClassifyRelations:
    def test_single_triple_is_one_to_one(self):
        cats = classify_relations([(0, 0, 1)])
        assert cats[0].category == ONE_TO_ONE
        assert cats[0].hco == 1.0 and cats[0].tcs == 1.0

    def test_forced_n_to_one(self):
        cats = classify_relations([(0, 0, 2), (1, 0, 2)])
        assert cats[0].hco == 2.0 and cats[0].tcs == 1.0
        assert cats[0].category == N_TO_ONE

    def test_forced_one_to_n(self):
        cats = classify_relations([(2, 0, 0), (2, 0, 1)])
        assert cats[0].category == ONE_TO_N

    def test_forced_n_to_n(self):
        cats = classify_relations([(0, 0, 1), (0, 0, 2), (1, 0, 1), (1, 0, 2)])
        assert cats[0].category == N_TO_N

    def test_threshold_is_inclusive(self):
        # hco = 3/2 = tcs: exactly eta counts as the "N" side
        triples = [(0, 0, 2), (1, 0, 2), (0, 0, 3)]
        assert classify_relations(triples, eta=1.5)[0].category == N_TO_N
        assert classify_relations(triples, eta=1.5000001)[0].category == ONE_TO_ONE

    def test_absent_relation_excluded(self):
        cats = classify_relations([(0, 5, 1)])
        assert set(cats) == {5}

    def test_empty_train_raises(self):
        with pytest.raises(DataError):
            classify_relations([])

    @pytest.mark.parametrize("eta", [0.0, -1.0, np.nan, np.inf])
    def test_bad_eta_raises(self, eta):
        with pytest.raises(ValueError, match="eta"):
            classify_relations([(0, 0, 1)], eta=eta)

    def test_synthetic_structure(self):
        kg = build_synth_kg(num_entities=40, holdout_frac=0.0)
        cats = classify_relations(kg.train)
        assert cats[NEXT].category == ONE_TO_ONE
        assert cats[PAIR].category == ONE_TO_ONE
        assert cats[GROUP].category == N_TO_ONE
        assert cats[GROUP].hco == 4.0

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 5)),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=1.0, max_value=4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_stats_at_least_one_and_match_thresholds(self, triples, eta):
        cats = classify_relations(triples, eta=eta)
        for cat in cats.values():
            assert cat.hco >= 1.0 and cat.tcs >= 1.0
            head_n = cat.hco >= eta
            tail_n = cat.tcs >= eta
            expected = {
                (False, False): ONE_TO_ONE,
                (False, True): ONE_TO_N,
                (True, False): N_TO_ONE,
                (True, True): N_TO_N,
            }[(head_n, tail_n)]
            assert cat.category == expected


class TestSampleBatch:
    def test_deterministic_under_seed(self):
        train = as_triple_array([(i, 0, i + 1) for i in range(10)])
        a = sample_batch(train, 32, np.random.default_rng(5))
        b = sample_batch(train, 32, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_rows_come_from_train(self):
        train = as_triple_array([(i, 0, i + 1) for i in range(10)])
        batch = sample_batch(train, 64, np.random.default_rng(0))
        assert batch.shape == (64, 3)
        pool = {tuple(row) for row in train.tolist()}
        assert all(tuple(row) in pool for row in batch.tolist())

    def test_single_triple_train(self):
        batch = sample_batch([(3, 1, 4)], 1, np.random.default_rng(0))
        assert batch.tolist() == [[3, 1, 4]]

    def test_empty_train_raises(self):
        with pytest.raises(DataError):
            sample_batch([], 4, np.random.default_rng(0))

    def test_bad_batch_size_raises(self):
        with pytest.raises(ValueError):
            sample_batch([(0, 0, 1)], 0, np.random.default_rng(0))


class TestWriteDictionary:
    def test_format(self, tmp_path):
        path = tmp_path / "ents.dict"
        write_dictionary(path, ["a", "b"])
        assert path.read_text() == "0\ta\n1\tb\n"


class TestSynthKg:
    def test_every_entity_trains_and_splits_disjoint(self):
        kg = build_synth_kg(num_entities=100, seed=3)
        seen = set(kg.train[:, 0]) | set(kg.train[:, 2])
        assert seen == set(range(100))
        train = {tuple(x) for x in kg.train.tolist()}
        valid = {tuple(x) for x in kg.valid.tolist()}
        test = {tuple(x) for x in kg.test.tolist()}
        assert not train & valid and not train & test and not valid & test
        assert len(valid) and len(test)
