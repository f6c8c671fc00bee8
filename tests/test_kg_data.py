import warnings

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

from oracles import classify_relations_oracle, filter_index_oracle, load_triples_oracle
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


def load_outcome(load, path, entity_vocab, relation_vocab):
    """What one loader does with a file: its result or error, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            triples, ents, rels = load(path, entity_vocab, relation_vocab)
        except ValueError as exc:  # DataError is a ValueError; the oracle raises the base class
            outcome = ("error", str(exc))
        else:
            outcome = ("ok", triples.dtype, triples.shape, triples.tolist(),
                       list(ents.items()), list(rels.items()))
    return outcome, [(w.category, str(w.message)) for w in caught]


def assert_loader_matches_oracle(path, entity_vocab=(), relation_vocab=()):
    entity_vocab, relation_vocab = dict(entity_vocab), dict(relation_vocab)
    ents, rels = dict(entity_vocab), dict(relation_vocab)
    got = load_outcome(load_triples, path, ents, rels)
    want = load_outcome(load_triples_oracle, path, dict(entity_vocab), dict(relation_vocab))
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        # The loader decodes the whole file before it checks a line. The oracle
        # checks each line as its read chunk decodes, so a malformed line can come
        # first: one before the bad bytes' chunk, or before a truncated end.
        want = (("error", f"{path}: not UTF-8 text ({exc.reason})"), [])
    assert got == want
    if got[0][0] == "error":
        with pytest.raises(DataError):
            load_triples(path)
        # the loader checks the whole file before either vocabulary grows
        assert list(ents.items()) == list(entity_vocab.items())
        assert list(rels.items()) == list(relation_vocab.items())


# characters that str.splitlines would break a line at, plus spaces
SPLITLINES_CHARS = ["\x85", "\u2028", "\u2029", "\v", "\f", "\x1c", "\x1d", "\x1e", " "]
NAME = st.text(
    alphabet=st.sampled_from(SPLITLINES_CHARS + ["a", "b", "\xe9", "\ufeff"])
    | st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=4,
)
BOM = "\ufeff".encode("utf-8")
TERMINATOR = st.sampled_from(["\n", "\r\n", "\r"])
NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"])


@st.composite
def triple_files(draw):
    """(file bytes, names for pre-filled vocabularies) of one triple file."""
    pool = draw(st.lists(NAME, min_size=1, max_size=6, unique=True))
    name = st.sampled_from(pool)
    lines = ["\t".join(row) for row in draw(st.lists(st.tuples(name, name, name), max_size=16))]
    if lines and draw(st.booleans()):  # repeated lines, anywhere
        lines = draw(st.permutations(lines + draw(st.lists(st.sampled_from(lines), max_size=6))))
    if draw(st.integers(0, 3)) == 0:  # one malformed line; a blank one has one empty field
        fields = draw(st.lists(name, min_size=1, max_size=5).filter(lambda f: len(f) != 3))
        empty_name = draw(st.lists(name | st.just(""), min_size=3, max_size=3).filter(lambda f: "" in f))
        bad = draw(st.sampled_from(["", "\t".join(fields), "\t".join(empty_name)]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    ends = [draw(TERMINATOR) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no final terminator
    data = "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        data = BOM + data
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(NOT_UTF8) + data[at:]
    known = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
    return data, known


class TestLoaderMatchesOracle:
    """load_triples against the line-by-line reader in tests/oracles.py."""

    @given(case=triple_files(), prefill=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_property(self, tmp_path_factory, case, prefill):
        data, known = case
        path = tmp_path_factory.mktemp("hyp") / "t.txt"
        path.write_bytes(data)
        ents = {name: i for i, name in enumerate(known)} if prefill else {}
        rels = {name: i for i, name in enumerate(reversed(known))} if prefill else {}
        assert_loader_matches_oracle(path, ents, rels)

    @pytest.mark.parametrize(
        "data",
        [
            b"a\tr\tb\na\tr\tb\nb\tr\ta\na\tr\tb\n",  # duplicates
            b"a\tr\tb\r\nc\tr\td\r\n",  # CRLF
            b"a\tr\tb\rc\tr\td\r",  # lone CR
            b"a\tr\tb\r\nc\tq\td\re\tr\tf\ng\tr\th\r",  # mixed
            b"a\tr\tb\nc\tr\td",  # no final newline
            b"a\tr\tb\n\nc\tr\td\n",  # blank middle line
            b"a\tr\tb\r\r\nc\tr\td\n",  # CR then CRLF: a blank line
            b"a\tr\tb\n\n",  # blank last line
            b"\n",
            b"",
            b"\t\t\n\t\t\n",  # empty names
            b"a\t\tb\n",  # an empty relation
            b"a\tr\tb\nc\tr\t\nonly\ttwo\n",  # an empty tail before a wrong field count
            b"a\tr\tb\nonly\ttwo\n\tr\tb\n",  # a wrong field count before an empty head
            b"\xef\xbb\xbfa\tr\tb\n",  # a byte-order mark
            b"\xef\xbb\xbf",
            b"\xef\xbb\xbf\xef\xbb\xbfa\tr\tb\n",  # only the first mark is one
            "a\tr\tb\n\ufeffa\tr\u2028\ufeff\tb\ufeff\n".encode(),  # later ones are characters
            b"a\tr\tb\nonly\ttwo\na\tr\n",  # first malformed line wins
            b"a b\tr s\tc d\n",  # spaces
            "a\x85b\tr\u2028s\tc\x0bd\ne\x0cf\tr\u2028s\ta\x85b\n".encode(),  # splitlines breaks
            b"a\tr\tb\nca\xf1on\tr\tb\n",  # not UTF-8
            b"a\tr\tb\n\xe2\x82",  # truncated at the end
            b"only\ttwo\n\xc3",  # a malformed line and a truncated end: not UTF-8
        ],
    )
    def test_examples(self, tmp_path, data):
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        assert_loader_matches_oracle(path)

    def test_byte_order_mark_is_not_part_of_a_name(self, tmp_path):
        # "\ufeffa" was once an entity of its own, which "a" in another split never matched
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"a\tr\tb\nb\tr\t\xef\xbb\xbfa\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, want = load_triples(marked), load_triples(plain)
        assert got[0].tolist() == want[0].tolist() == [[0, 0, 1], [1, 0, 2]]
        assert got[1:] == want[1:] == ({"a": 0, "b": 1, "\ufeffa": 2}, {"r": 0})

    @pytest.mark.parametrize("data,message", [
        (b"a\t\tb\n", ":1: empty relation name"),
        (b"a\tr\tb\n\tr\tb\n", ":2: empty head name"),
        (b"a\tr\tb\nc\tr\t\r\n", ":2: empty tail name"),
        (b"a\tr\tb\nonly\ttwo\n\tr\tb\n", ":2: expected 3 tab-separated fields, got 2"),
        (b"a\tr\t\nonly\ttwo\n", ":1: empty tail name"),
    ])
    def test_first_line_with_an_empty_name_or_wrong_fields_is_named(self, tmp_path, data, message):
        # an empty name once loaded as the entity or relation ""
        path = tmp_path / "t.txt"
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"t.txt{message}$"):
            load_triples(path)

    def test_prefilled_vocabularies_keep_order(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"z\tq\ta\nb\tr\tz\n")
        assert_loader_matches_oracle(path, {"a": 0, "y": 1}, {"r": 0})
        _, ents, rels = load_triples(path, {"a": 0, "y": 1}, {"r": 0})
        assert list(ents.items()) == [("a", 0), ("y", 1), ("z", 2), ("b", 3)]
        assert list(rels.items()) == [("r", 0), ("q", 1)]


@st.composite
def name_triples(draw):
    # a file whose first name starts with "\ufeff" starts with a byte-order mark, which is no name's
    name = st.text(
        alphabet=st.characters(blacklist_characters="\t\n\r\ufeff", blacklist_categories=("Cs",)),
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
        # every id pair in a window one wider than the id space on each side
        entities = range(-1, kg.num_entities + 1)
        relations = range(-1, kg.num_relations + 1)
        index = kg.filter_index
        from_tails = {(h, r, t) for h in entities for r in relations for t in index.true_tails(h, r)}
        from_heads = {(h, r, t) for r in relations for t in entities for h in index.true_heads(r, t)}
        assert from_tails == everything
        assert from_heads == everything


class TestFilterIndex:
    def test_union_across_splits(self):
        index = build_filter_index([(0, 0, 1)], [], [(0, 0, 2)])
        assert index.true_tails(0, 0) == {1, 2}
        assert index.true_heads(0, 1) == {0}

    def test_empty_splits_give_empty_index(self):
        index = build_filter_index([], [], [])
        for a in range(-1, 5):
            for b in range(-1, 5):
                assert index.true_tails(a, b) == frozenset()
                assert index.true_heads(a, b) == frozenset()
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


    def test_out_of_range_ids_find_nothing(self):
        # with two relations, head 0 under relation 3 would share the key of (1, 1)
        index = build_filter_index([(1, 1, 7), (0, 0, 2)], [], [])
        assert index.true_tails(1, 1) == {7}
        for head, rel in [(0, 3), (-1, 1), (1, -1), (8, 0), (2**70, 0), (0, 2**70)]:
            assert index.true_tails(head, rel) == frozenset()
        for rel, tail in [(1, -1), (-1, 7), (2, 7), (0, 8), (0, 2**70), (2**70, 2)]:
            assert index.true_heads(rel, tail) == frozenset()
        assert index.true_tails(np.int64(1), np.int64(1)) == {7}

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_filter_index([(0, 0, -1)], [], [])

    @given(
        st.lists(
            st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 6)), max_size=25),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_lookups_match_oracle(self, splits):
        index = build_filter_index(*splits)
        tails_of, heads_of = filter_index_oracle(*splits)
        for a in range(-2, 10):
            for b in range(-2, 10):
                tails = index.true_tails(a, b)
                heads = index.true_heads(a, b)
                assert type(tails) is frozenset and type(heads) is frozenset
                assert tails == tails_of.get((a, b), set())
                assert heads == heads_of.get((a, b), set())
                assert all(type(x) is int for x in tails | heads)


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

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from([0, 1, 7, 2**38]), st.integers(0, 6)),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.5, max_value=4.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_oracle(self, triples, eta):
        cats = classify_relations(triples, eta=eta)
        assert {r: (c.category, c.hco, c.tcs) for r, c in cats.items()} == (
            classify_relations_oracle(triples, eta)
        )
        assert list(cats) == sorted(cats)
        assert all(type(c.hco) is float and type(c.tcs) is float for c in cats.values())


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
