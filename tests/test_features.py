"""Character/POS n-grams, scaling, vocabulary build and serialization."""

import hashlib
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styloprof.errors import ConfigError, DataError
from styloprof.features import (
    CHAR,
    LINEAR,
    LOG2,
    POS,
    FeatureKey,
    ScalingPolicy,
    SparseMatrix,
    Vocabulary,
    build_vocabulary,
    char_ngrams,
    default_policy,
    pos_ngrams,
    vectorize,
)

from styloprof.corpus import CorpusSpec, Document, LabelSet, Sample, save_flat_csv
from styloprof.experiment import as_samples, extract_counts, prepare_corpus, sample_counts
from styloprof.normalize import default_rules
from styloprof.synthetic import marker_corpus

from oracles import (featurekey_sample_counts, featurekey_vectorize, featurekey_vocabulary_file,
                     featurekey_vocabulary_keys, matrix_from_rows, ngram_reference,
                     pos_ngram_reference)


def row_entries(X, r=0) -> dict:
    """Row r of a `SparseMatrix` as a column -> value dict."""
    cols, values = X.row(r)
    return dict(zip(cols.tolist(), values.tolist()))

# the worked single-word example, frozen from the documented convention
SELF_DEFENSE_UNIGRAMS = list("self-defense")
SELF_DEFENSE_BIGRAMS = [
    "_s", "se", "el", "lf", "f-", "-d", "de", "ef", "fe", "en", "ns", "se", "e_",
]
SELF_DEFENSE_TRIGRAMS = [
    "_se", "sel", "elf", "lf-", "f-d", "-de", "def", "efe", "fen", "ens", "nse", "se_",
]

EXAMPLE_STREAM = [
    "REF@USERNAME", "REF@USERNAME", "N", "V", "P", "N", "F", "N", "F",
]


class TestCharNgrams:
    def test_self_defense_multiset(self):
        expected = Counter(SELF_DEFENSE_UNIGRAMS + SELF_DEFENSE_BIGRAMS + SELF_DEFENSE_TRIGRAMS)
        assert char_ngrams("self-defense") == expected

    def test_self_defense_counts_per_order(self):
        grams = char_ngrams("self-defense")
        by_order = Counter(len(gram) for gram in grams.elements())
        assert by_order == {1: 12, 2: 13, 3: 12}

    def test_empty_text(self):
        assert char_ngrams("") == Counter()

    def test_whitespace_only(self):
        assert char_ngrams(" \t\n ") == Counter()

    def test_single_char_token(self):
        grams = char_ngrams("a")
        assert grams == Counter({"a": 1, "_a": 1, "a_": 1, "_a_": 1})

    def test_tokens_padded_independently(self):
        # inter-word space never appears inside a gram
        grams = char_ngrams("ab cd")
        assert "b " not in grams
        assert "bc" not in grams
        assert grams["ab"] == 1
        assert grams["_c"] == 1

    @given(st.text(alphabet="abæ😀_- ", max_size=40))
    @settings(max_examples=300)
    def test_matches_brute_force_reference(self, text):
        got = char_ngrams(text)
        want = ngram_reference(text, 1, 3)
        assert {(CHAR, tuple(gram)): v for gram, v in got.items()} == want

    @given(st.text(max_size=40), st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=300)
    def test_matches_reference_any_orders(self, text, a, b):
        lo, hi = min(a, b), max(a, b)
        got = {gram: v for gram, v in char_ngrams(text).items() if lo <= len(gram) <= hi}
        want = ngram_reference(text, lo, hi)
        assert {(CHAR, tuple(gram)): v for gram, v in got.items()} == want

    @given(st.text(alphabet="abcdefg-xyz", min_size=1, max_size=12))
    @settings(max_examples=300)
    def test_count_conservation_single_token(self, token):
        # pad-free tokens of length L yield L unigrams, L+1 bigrams, L trigrams
        length = len(token)
        by_order = Counter(len(gram) for gram in char_ngrams(token).elements())
        assert by_order == {1: length, 2: length + 1, 3: length}


class TestPosNgrams:
    def test_example_stream_multiset(self):
        grams = pos_ngrams(EXAMPLE_STREAM)
        assert sum(grams.values()) == 24
        want = pos_ngram_reference(EXAMPLE_STREAM, 1, 3)
        assert {(POS, gram): v for gram, v in grams.items()} == want
        # spot checks straight from the printed list
        assert grams[("REF@USERNAME", "REF@USERNAME")] == 1
        assert grams[("N", "F")] == 2
        assert grams[("F", "N", "F")] == 1

    def test_no_padding(self):
        grams = pos_ngrams(["N", "V"])
        assert sum(grams.values()) == 3  # N, V, NV; no _N or V_ and no trigram
        assert all("_" not in gram for gram in grams)

    def test_empty_stream(self):
        assert pos_ngrams([]) == Counter()

    @given(st.lists(st.sampled_from(["N", "V", "A", "REF#LINK"]), max_size=25))
    @settings(max_examples=200)
    def test_matches_reference(self, stream):
        got = pos_ngrams(stream)
        want = pos_ngram_reference(stream, 1, 3)
        assert {(POS, gram): v for gram, v in got.items()} == want

    @given(st.lists(st.sampled_from("NVAR"), min_size=1, max_size=25))
    @settings(max_examples=200)
    def test_window_count(self, stream):
        total = sum(max(0, len(stream) - n + 1) for n in (1, 2, 3))
        assert sum(pos_ngrams(stream).values()) == total


class TestScalingPolicy:
    def test_spanish_default(self):
        assert default_policy("es") == ScalingPolicy(LINEAR, LOG2)

    @pytest.mark.parametrize("language", ["en", "it", "nl"])
    def test_other_languages_all_linear(self, language):
        assert default_policy(language) == ScalingPolicy(LINEAR, LINEAR)

    def test_unknown_language(self):
        with pytest.raises(ConfigError):
            default_policy("de")

    def test_log2_scaling_exact(self):
        vocab = Vocabulary([], [("N",)], min_df=1)
        X = vectorize([(Counter(), Counter({("N",): 3})), (Counter(), Counter({("N",): 1}))],
                      vocab, ScalingPolicy(LINEAR, LOG2))
        assert row_entries(X, 0) == {0: 2.0}  # log2(1 + 3)
        assert row_entries(X, 1) == {0: 1.0}

    def test_linear_scaling_identity(self):
        vocab = Vocabulary(["a"], [], min_df=1)
        X = vectorize([(Counter({"a": 7}), Counter())], vocab, ScalingPolicy(LINEAR, LINEAR))
        assert row_entries(X) == {0: 7.0}

    def test_channels_scaled_independently(self):
        vocab = Vocabulary(["a"], [("N",)], min_df=1)
        X = vectorize([(Counter({"a": 3}), Counter({("N",): 3}))], vocab, ScalingPolicy(LINEAR, LOG2))
        assert row_entries(X) == {vocab.char_index["a"]: 3.0, vocab.pos_index[("N",)]: 2.0}


class TestVectorize:
    def make_vocab(self):
        return Vocabulary(["a", "b"], [("N",)], min_df=1)

    def test_dimension_is_vocab_size(self):
        vocab = self.make_vocab()
        X = vectorize([(Counter(), Counter())], vocab, ScalingPolicy(LINEAR, LINEAR))
        assert X.dimension == len(vocab)
        assert len(X) == 1
        assert row_entries(X) == {}

    def test_one_row_per_sample_columns_sorted(self):
        vocab = self.make_vocab()
        samples = [(Counter({"b": 2, "a": 1}), Counter({("N",): 4})), (Counter(), Counter()),
                   (Counter({"b": 1}), Counter())]
        X = vectorize(samples, vocab, ScalingPolicy(LINEAR, LINEAR))
        assert X.indptr.tolist() == [0, 3, 3, 4]
        assert X.indices.tolist() == [0, 1, 2, 1]
        assert X.entries.tolist() == [1.0, 2.0, 4.0, 1.0]

    def test_oov_grams_dropped(self):
        vocab = self.make_vocab()
        X = vectorize([(Counter({"z": 5}), Counter({("V",): 5}))], vocab, ScalingPolicy(LINEAR, LINEAR))
        assert row_entries(X) == {}

    def test_empty_vocabulary_rejected(self):
        vocab = Vocabulary([], [], min_df=1)
        with pytest.raises(DataError):
            vectorize([(Counter(), Counter())], vocab, ScalingPolicy(LINEAR, LINEAR))

    @given(
        st.dictionaries(st.sampled_from(["a", "b"]), st.integers(1, 50)),
        st.sampled_from([LINEAR, LOG2]),
    )
    @settings(max_examples=200)
    def test_monotone_in_counts(self, counts, scale):
        vocab = self.make_vocab()
        policy = ScalingPolicy(scale, scale)
        base = row_entries(vectorize([(Counter(counts), Counter())], vocab, policy))
        for key in counts:
            bumped = Counter(counts)
            bumped[key] += 1
            after = row_entries(vectorize([(bumped, Counter())], vocab, policy))
            col = vocab.char_index[key]
            assert after[col] >= base[col]

    def test_vocab_lookup_is_a_bijection(self):
        vocab = self.make_vocab()
        cols = list(vocab.char_index.values()) + list(vocab.pos_index.values())
        assert sorted(cols) == list(range(len(vocab)))
        assert list(vocab.char_index) == vocab.char_grams
        assert list(vocab.pos_index) == vocab.pos_grams


class TestSparseMatrix:
    """The constructor is the one place the layout is checked."""

    def test_from_rows_sorts_columns(self):
        X = matrix_from_rows([{2: 1.5, 0: -1.0}, {}, {1: 3.0}], 3)
        assert len(X) == 3
        assert X.indptr.tolist() == [0, 2, 2, 3]
        assert X.indices.tolist() == [0, 2, 1]
        assert X.entries.tolist() == [-1.0, 1.5, 3.0]
        cols, values = X.row(0)
        assert cols.tolist() == [0, 2] and values.tolist() == [-1.0, 1.5]
        assert np.shares_memory(values, X.entries)

    def test_no_rows(self):
        assert len(matrix_from_rows([], 4)) == 0

    def test_from_entries_any_order_trailing_empty_rows(self):
        X = SparseMatrix.from_entries([2, 0, 0, 2], [1, 2, 0, 0], [4.0, 1.5, -1.0, 3.0], 4, 3)
        assert X.indptr.tolist() == [0, 2, 2, 4, 4]
        assert X.indices.tolist() == [0, 2, 0, 1]
        assert X.entries.tolist() == [-1.0, 1.5, 3.0, 4.0]

    def test_from_entries_repeated_pair_rejected(self):
        with pytest.raises(DataError, match="ascending"):
            SparseMatrix.from_entries([0, 0], [1, 1], [1.0, 2.0], 1, 2)

    @pytest.mark.parametrize("indptr, indices, entries, dimension, message", [
        ([0, 1], [0], [float("nan")], 1, "non-finite"),
        ([0, 1], [0], [float("inf")], 1, "non-finite"),
        ([0, 1], [5], [1.0], 2, "column"),
        ([0, 1], [-1], [1.0], 2, "column"),
        ([0, 2], [1, 0], [1.0, 1.0], 2, "ascending"),
        ([0, 2], [1, 1], [1.0, 1.0], 2, "ascending"),
        ([0, 2, 1], [0, 1], [1.0, 1.0], 2, "row pointers"),
        ([1, 2], [0, 1], [1.0, 1.0], 2, "row pointers"),
        ([0, 3], [0, 1], [1.0, 1.0], 2, "row pointers"),
        ([0, 2], [0, 1], [1.0], 2, "row pointers"),
        ([], [], [], 2, "row pointers"),
        ([0, 0], [], [], 0, "dimension"),
    ], ids=["nan", "inf", "column-high", "column-negative", "unsorted", "repeated",
            "indptr-decreasing", "indptr-start", "indptr-end", "short-entries", "no-indptr",
            "no-columns"])
    def test_malformed_layout_rejected(self, indptr, indices, entries, dimension, message):
        with pytest.raises(DataError, match=message):
            SparseMatrix(indptr, indices, entries, dimension)

    def test_columns_restart_at_each_row(self):
        X = SparseMatrix([0, 2, 4], [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0], 2)
        assert X.row(1)[0].tolist() == [0, 1]


class TestBuildVocabulary:
    def sample(self, text, tags):
        return (char_ngrams(text), pos_ngrams(tags))

    def test_min_df_counts_distinct_samples(self):
        samples = [
            self.sample("aa aa aa", ["N"]),  # "aa" repeated within ONE sample
            self.sample("bb", ["N"]),
            self.sample("bb", ["V"]),
        ]
        vocab = build_vocabulary(samples, min_df=2)
        # "aa"-derived grams appear in one sample only, however many times
        assert "aa" not in vocab.char_grams
        assert "bb" in vocab.char_grams
        assert ("N",) in vocab.pos_grams
        assert ("V",) not in vocab.pos_grams

    def test_order_independence(self):
        rng = random.Random(5)
        samples = [self.sample(t, s) for t, s in [
            ("hola que tal", ["P", "N"]),
            ("que tal hola", ["N", "P"]),
            ("adios ya", ["V", "N", "P"]),
            ("ya hola", ["P", "P"]),
        ]]
        reference = build_vocabulary(samples, min_df=2)
        for _ in range(5):
            shuffled = samples[:]
            rng.shuffle(shuffled)
            vocab = build_vocabulary(shuffled, min_df=2)
            assert vocab == reference
            assert vocab.content_hash() == reference.content_hash()

    def test_keys_sorted_by_channel_then_gram(self):
        vocab = build_vocabulary([self.sample("ba", ["V", "N"])] * 2, min_df=2)
        assert vocab.char_grams == sorted(vocab.char_grams)
        assert vocab.pos_grams == sorted(vocab.pos_grams)
        columns = list(vocab.char_index.values()) + list(vocab.pos_index.values())
        assert columns == list(range(len(vocab)))

    def test_empty_training_set_rejected(self):
        with pytest.raises(DataError):
            build_vocabulary([])

    def test_bad_min_df_rejected(self):
        with pytest.raises(ConfigError):
            build_vocabulary([self.sample("a", ["N"])], min_df=0)

    def test_min_df_one_keeps_everything(self):
        counts = self.sample("xy", ["N"])
        vocab = build_vocabulary([counts], min_df=1)
        assert (set(vocab.char_grams), set(vocab.pos_grams)) == (set(counts[0]), set(counts[1]))


NASTY_CHAR_GRAMS = ["\t", "\na", "\r", "\\n", "␟", "a␟b"]
NASTY_POS_GRAMS = [("REF@USERNAME", "N"), ("\\U",), ("a\\", "u241f")]


class TestVocabularySerialization:
    def test_round_trip(self, tmp_path):
        vocab = build_vocabulary(
            [(char_ngrams("hola que"), pos_ngrams(["N", "V"]))] * 2, min_df=2
        )
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded == vocab
        assert loaded.content_hash() == vocab.content_hash()

    def test_round_trip_hostile_units(self, tmp_path):
        vocab = Vocabulary(sorted(NASTY_CHAR_GRAMS), sorted(NASTY_POS_GRAMS), min_df=1)
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert Vocabulary.load(path) == vocab

    def test_round_trip_gzip(self, tmp_path):
        vocab = Vocabulary(["a"], [], min_df=1)
        path = tmp_path / "vocab.tsv.gz"
        vocab.save(path)
        assert Vocabulary.load(path) == vocab

    def test_hash_tracks_content(self):
        v1 = Vocabulary(["a"], [], min_df=1)
        v2 = Vocabulary(["b"], [], min_df=1)
        assert v1.content_hash() != v2.content_hash()
        assert v1.content_hash() == Vocabulary(["a"], [], min_df=2).content_hash()

    def test_wrong_format_line_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("some-other-format\tx\n", encoding="utf-8")
        with pytest.raises(DataError, match="vocab"):
            Vocabulary.load(path)

    def test_out_of_order_columns_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text(
            "styloprof-vocab-v1\tchar=2\tpos=0\tmin_df=1\nchar\ta\t1\nchar\tb\t0\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="out of order"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("char_grams, pos_grams", [
        (["a", "a"], []),
        ([], [("N", "V"), ("N", "V")]),
    ], ids=["char", "pos"])
    def test_repeated_key_rejected(self, char_grams, pos_grams):
        with pytest.raises(DataError, match="repeated"):
            Vocabulary(char_grams, pos_grams, min_df=1)

    def test_bad_escape_rejected(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text(
            "styloprof-vocab-v1\tchar=1\tpos=0\tmin_df=1\nchar\t\\q\t0\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="escape"):
            Vocabulary.load(path)

    @pytest.mark.parametrize("unit, gram", [
        ("\\q", None), ("N\\", None), ("\\", None), ("\\\\U", "\\U"), ("\\t", "\t"),
        ("a\\U\\n\\r\\\\b", "a␟\n\r\\b"),
    ])
    def test_escape_sequences(self, tmp_path, unit, gram):
        """A known escape decodes; an unknown one or a trailing backslash
        is rejected with the unit named."""
        path = tmp_path / "vocab.tsv"
        path.write_text(f"styloprof-vocab-v1\tchar=0\tpos=1\tmin_df=1\npos\t{unit}\t0\n",
                        encoding="utf-8")
        if gram is None:
            with pytest.raises(DataError, match=re.escape(
                    f"bad escape sequence in vocabulary unit: {unit!r}")):
                Vocabulary.load(path)
        else:
            assert Vocabulary.load(path).pos_grams == [(gram,)]

    @given(
        char_grams=st.sets(st.text(alphabet="ab\\\t\n␟U", min_size=1, max_size=3), max_size=8),
        pos_grams=st.sets(st.lists(st.text(alphabet="ab\\\t\n␟U", min_size=1, max_size=3),
                                   min_size=1, max_size=3).map(tuple), max_size=8),
    )
    @settings(max_examples=100)
    def test_round_trip_fuzzed_units(self, char_grams, pos_grams, tmp_path_factory):
        vocab = Vocabulary(sorted(char_grams), sorted(pos_grams), min_df=1)
        path = tmp_path_factory.mktemp("vocab") / "v.tsv"
        vocab.save(path)
        assert Vocabulary.load(path) == vocab


corpus_docs = st.lists(
    st.tuples(st.text(alphabet="ab_- \t\n\\␟é😀", max_size=24),
              st.lists(st.sampled_from(["N", "V", "F", "REF@USERNAME", "a\\␟"]), max_size=8)),
    min_size=1, max_size=3,
)


class TestPlainKeysMatchFeatureKeyReference:
    """Plain per-channel keys give what FeatureKey keys everywhere gave:
    the same vocabulary keys, file bytes and hash, and the same rows, each
    the reference's entries in column order."""

    @given(corpus=st.lists(corpus_docs, min_size=1, max_size=6), min_df=st.integers(1, 3),
           char_scale=st.sampled_from([LINEAR, LOG2]), pos_scale=st.sampled_from([LINEAR, LOG2]))
    @settings(max_examples=150, deadline=None)
    def test_vocabulary_and_vectors(self, corpus, min_df, char_scale, pos_scale, tmp_path_factory):
        samples = [
            Sample(id=f"s{i}", labels=LabelSet(gender="Female"), documents=[
                Document(id=f"s{i}/{j}", text=text, pos_tags=tuple(tags))
                for j, (text, tags) in enumerate(docs)])
            for i, docs in enumerate(corpus)
        ]
        counts = [sample_counts(s) for s in samples]
        ref_counts = [featurekey_sample_counts(s.documents) for s in samples]
        for sample, ref in zip(samples, ref_counts):
            chars, tags = extract_counts(sample)
            assert list(chars.items()) == list(ref[0].items())
            assert list(tags.items()) == list(ref[1].items())

        vocab = build_vocabulary(counts, min_df=min_df)
        ref_keys = featurekey_vocabulary_keys(ref_counts, min_df)
        assert ([FeatureKey(CHAR, tuple(gram)) for gram in vocab.char_grams]
                + [FeatureKey(POS, gram) for gram in vocab.pos_grams]) == ref_keys
        ref_text, ref_hash = featurekey_vocabulary_file(ref_keys, min_df)
        assert vocab.content_hash() == ref_hash
        folder = tmp_path_factory.mktemp("vocab")
        vocab.save(folder / "new.tsv")
        assert (folder / "new.tsv").read_bytes() == ref_text.encode("utf-8")
        if not ref_keys:
            return
        loaded = Vocabulary.load(folder / "new.tsv")
        policy = ScalingPolicy(char_scale, pos_scale)
        matrices = [vectorize(counts, vocab, policy), vectorize(counts, loaded, policy)]
        for r, (ref_chars, ref_tags) in enumerate(ref_counts):
            want = sorted(featurekey_vectorize(ref_chars, ref_tags, ref_keys, policy).items())
            for X in matrices:
                cols, values = X.row(r)
                assert list(zip(cols.tolist(), values.tolist())) == want


gram_counts = st.integers(0, 6)  # zero counts are dropped


class TestFlatVectorizeMatchesReference:
    """The flat gather of `vectorize` gives, row by row, the reference's
    entries in column order: log2 or linear on either channel, zero counts
    and out-of-vocabulary grams dropped, empty and all-out-of-vocabulary
    rows kept."""

    CHAR_GRAMS = ["_b", "a", "ab_"]
    POS_GRAMS = [("N",), ("N", "V"), ("REF@USERNAME",)]
    KEYS = ([FeatureKey(CHAR, tuple(gram)) for gram in CHAR_GRAMS]
            + [FeatureKey(POS, gram) for gram in POS_GRAMS])

    @given(st.lists(st.tuples(
               st.dictionaries(st.sampled_from(["a", "_b", "ab_", "z", "zz_"]), gram_counts),
               st.dictionaries(st.sampled_from([("N",), ("N", "V"), ("REF@USERNAME",), ("V",)]),
                               gram_counts)),
               max_size=8),
           st.sampled_from([LINEAR, LOG2]), st.sampled_from([LINEAR, LOG2]))
    @settings(max_examples=300)
    def test_rows(self, samples, char_scale, pos_scale):
        samples.append(({"z": 3, "zz_": 1}, {("V",): 2}))  # every gram out of vocabulary
        vocab = Vocabulary(self.CHAR_GRAMS, self.POS_GRAMS, min_df=1)
        policy = ScalingPolicy(char_scale, pos_scale)
        X = vectorize([(Counter(c), Counter(p)) for c, p in samples], vocab, policy)
        assert len(X) == len(samples) and X.dimension == len(self.KEYS)
        for r, (chars, tags) in enumerate(samples):
            want = featurekey_vectorize({FeatureKey(CHAR, tuple(g)): n for g, n in chars.items()},
                                        {FeatureKey(POS, g): n for g, n in tags.items()},
                                        self.KEYS, policy)
            cols, values = X.row(r)
            assert list(zip(cols.tolist(), values.tolist())) == sorted(want.items())

    def test_log2_entries_are_math_log2(self):
        vocab = Vocabulary(self.CHAR_GRAMS, self.POS_GRAMS, min_df=1)
        counts = [1, 2, 3, 7, 1000, 123457, 2**40 + 1]
        X = vectorize([(Counter({"a": n}), Counter({("N",): n})) for n in counts],
                      vocab, ScalingPolicy(LOG2, LOG2))
        assert X.entries.tolist() == [math.log2(1.0 + n) for n in counts for _ in range(2)]

    def test_no_samples(self):
        vocab = Vocabulary(self.CHAR_GRAMS, self.POS_GRAMS, min_df=1)
        X = vectorize([], vocab, ScalingPolicy(LOG2, LOG2))
        assert len(X) == 0 and X.indptr.tolist() == [0] and X.entries.size == 0
        assert X.dimension == len(self.KEYS)


class TestContentHashGolden:
    """`content_hash` digests of keys that need escapes, fixed when the
    escapes were done one character at a time: the table-driven escape
    writes the same bytes."""

    @pytest.mark.parametrize("char_grams, pos_grams, digest", [
        (["\\"], [],
         "a2e65b2584ca7f1e2886b9bb909dc03f63f7b4376a650ae8aa6ba88140d4e93d"),
        (["\t\n\r"], [],
         "2202057f81ec27a90dfbf88e213711522f165327c8dd01d3e4d620a118f26b62"),
        (["␟"], [("N␟", "V")],
         "116f167d082db26204ed3dd70b344a7fd91c2c0c698c8d2e872e668f70bda915"),
        ([], [("a\\b", "N"), ("U␟\\n", "\t\r\n")],
         "3823e98d9baa7246fa20efbe128c85b0898b36480a0fde7219ba29bec9f93a8b"),
        (["_a"], [("N", "V", "REF@USERNAME")],
         "db731b98d5119a4d258d24d518dbd46048bfed4b3944eb362262b18f75b47403"),
    ], ids=["backslash", "tab-newline-return", "unit-separator", "pos-mixed", "plain"])
    def test_digest(self, char_grams, pos_grams, digest, tmp_path):
        vocab = Vocabulary(sorted(char_grams), sorted(pos_grams), min_df=1)
        assert vocab.content_hash() == digest
        vocab.save(tmp_path / "v.tsv")
        assert Vocabulary.load(tmp_path / "v.tsv").content_hash() == digest


class TestRealisticVocabularyGolden:
    """A vocabulary built the way a run builds one, from a seeded synthetic
    corpus through `prepare_corpus`, `sample_counts` and `build_vocabulary`:
    its hash and its file bytes are fixed."""

    def test_hash_and_file(self, tmp_path):
        save_flat_csv(marker_corpus(n_docs=120, seed=11, marker_rate=0.5), str(tmp_path / "c.csv"))
        spec = CorpusSpec("FlatCsv", str(tmp_path / "c.csv"), "es", grouping_k=3)
        prepared = prepare_corpus(spec, default_rules("es"), {}, [])
        vocab = build_vocabulary([sample_counts(s) for s in as_samples(prepared)], min_df=2)
        assert (len(vocab.char_index), len(vocab.pos_index)) == (258, 10)
        assert vocab.content_hash() == "d7482f47b8269534dc1337f1e64b2703cdda85cf355930e089eb5fd11583a015"
        vocab.save(tmp_path / "v.tsv")
        digest = hashlib.sha256((tmp_path / "v.tsv").read_bytes()).hexdigest()
        assert digest == "b370e43f73f038f1cd23e7829fef427709a14d6fa7d40cf3d4c5f83fb431ad5e"


def strictly_ascending(grams) -> bool:
    return all(a < b for a, b in zip(grams, grams[1:]))


class TestVocabularyOrder:
    """A vocabulary constructs exactly when each gram list strictly
    ascends, and every one that constructs saves and loads back equal."""

    @given(char_grams=st.lists(st.text(alphabet="ab_\\␟\t", min_size=1, max_size=3), max_size=6),
           pos_grams=st.lists(st.lists(st.sampled_from(["N", "V", "a\\␟"]), min_size=1,
                                       max_size=3).map(tuple), max_size=6),
           tidy=st.booleans())
    @settings(max_examples=200)
    def test_constructs_only_when_ascending(self, char_grams, pos_grams, tidy, tmp_path_factory):
        if tidy:
            char_grams, pos_grams = sorted(set(char_grams)), sorted(set(pos_grams))
        if not (strictly_ascending(char_grams) and strictly_ascending(pos_grams)):
            with pytest.raises(DataError, match="repeated vocabulary key|out of order"):
                Vocabulary(char_grams, pos_grams, min_df=1)
            return
        vocab = Vocabulary(char_grams, pos_grams, min_df=2)
        path = tmp_path_factory.mktemp("vocab") / "v.tsv"
        vocab.save(path)
        loaded = Vocabulary.load(path)
        assert loaded == vocab
        assert loaded.content_hash() == vocab.content_hash()
        assert len(loaded) == len(char_grams) + len(pos_grams)
