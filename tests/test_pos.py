"""POS tag reduction, REF relabeling, tagged-file ingestion, fallback tagger."""

import gzip
import os
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styloprof.errors import DataError
from styloprof.pos import (
    REF_HASHTAG,
    REF_LINK,
    REF_USERNAME,
    TaggedToken,
    fallback_tag,
    ingest_tagged_file,
    load_lexicon,
    reduce_tag,
    relabel,
    simple_tokenize,
)

from oracles import reference_fallback_tag, reference_relabel, reference_tokenize

# tokens of the normalized example tweet with plausible fine tags
EXAMPLE_TOKENS = [
    TaggedToken("I", "PRP"),
    TaggedToken("was", "VBD"),
    TaggedToken("just", "RB"),
    TaggedToken("watching", "VBG"),
    TaggedToken("``update", "NN"),
    TaggedToken("10.''", "Z"),
    TaggedToken("@us", ""),
    TaggedToken("htt", ""),
]


class TestReduceTag:
    @pytest.mark.parametrize(
        "fine,reduced",
        [
            ("NCFS000", "N"),
            ("VMIP3S0", "V"),
            ("AQ0CS0", "A"),
            ("rb", "R"),
            ("Z", "Z"),
        ],
    )
    def test_first_letter_uppercased(self, fine, reduced):
        assert reduce_tag(fine) == reduced

    @pytest.mark.parametrize("tag", [REF_USERNAME, REF_LINK, REF_HASHTAG])
    def test_ref_tags_pass_through(self, tag):
        assert reduce_tag(tag) == tag

    def test_empty_tag_rejected(self):
        with pytest.raises(DataError):
            reduce_tag("")

    @given(st.text(min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_idempotent(self, tag):
        once = reduce_tag(tag)
        assert reduce_tag(once) == once


class TestRelabel:
    def test_example_stream(self):
        assert relabel(EXAMPLE_TOKENS) == [
            "P", "V", "R", "V", "N", "Z", REF_USERNAME, REF_LINK,
        ]

    def test_empty_list(self):
        assert relabel([]) == []

    def test_hashtag_token(self):
        tokens = [TaggedToken("#tbt", ""), TaggedToken("great", "AQ0CS0")]
        assert relabel(tokens) == [REF_HASHTAG, "A"]

    def test_special_surfaces_override_tagger_output(self):
        # whatever a tagger said about the marker tokens is discarded
        tokens = [TaggedToken("@us", "NP00000"), TaggedToken("htt", "NCMS000")]
        assert relabel(tokens) == [REF_USERNAME, REF_LINK]

    def test_bare_hash_is_not_a_hashtag(self):
        with pytest.raises(DataError):
            relabel([TaggedToken("#", "")])

    def test_untagged_ordinary_token_rejected(self):
        with pytest.raises(DataError, match="mystery"):
            relabel([TaggedToken("mystery", "")])

    @given(
        st.lists(
            st.sampled_from(
                [
                    TaggedToken("@us", ""),
                    TaggedToken("htt", ""),
                    TaggedToken("#go", ""),
                    TaggedToken("word", "NC"),
                    TaggedToken("runs", "VM"),
                    TaggedToken("!", "Fat"),
                ]
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200)
    def test_length_preserving_and_position_stable(self, tokens):
        stream = relabel(tokens)
        assert len(stream) == len(tokens)
        for tok, tag in zip(tokens, stream):
            if tok.surface == "@us":
                assert tag == REF_USERNAME
            elif tok.surface == "htt":
                assert tag == REF_LINK
            elif tok.surface.startswith("#"):
                assert tag == REF_HASHTAG
            else:
                assert tag == reduce_tag(tok.fine_tag)
                assert len(tag) == 1 and tag.isupper()


class TestIngestTaggedFile:
    def test_single_document(self, tmp_path):
        path = tmp_path / "doc.tags"
        path.write_text("I\tPRP\nrun\tVBP\n", encoding="utf-8")
        docs = ingest_tagged_file(path)
        assert docs == [[TaggedToken("I", "PRP"), TaggedToken("run", "VBP")]]

    def test_blank_line_separates_documents(self, tmp_path):
        path = tmp_path / "doc.tags"
        path.write_text("a\tN\n\nb\tV\nc\tN\n", encoding="utf-8")
        docs = ingest_tagged_file(path)
        assert [len(d) for d in docs] == [1, 2]

    def test_gzip_variant(self, tmp_path):
        path = tmp_path / "doc.tags.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("a\tN\n")
        assert ingest_tagged_file(path) == [[TaggedToken("a", "N")]]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "doc.tags"
        path.write_text("a\tN\nabc\nb\tV\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2:"):
            ingest_tagged_file(path)

    def test_empty_fields_rejected(self, tmp_path):
        path = tmp_path / "doc.tags"
        path.write_text("a\t\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1:"):
            ingest_tagged_file(path)

    def test_trailing_document_without_blank_line(self, tmp_path):
        path = tmp_path / "doc.tags"
        path.write_text("a\tN\n\nb\tV", encoding="utf-8")
        assert len(ingest_tagged_file(path)) == 2


class TestFallbackTagger:
    def test_lexicon_lookup(self):
        tagged = fallback_tag(["I", "run"], {"i": "P", "run": "V"})
        assert [t.fine_tag for t in tagged] == ["P", "V"]

    def test_lookup_is_case_insensitive(self):
        tagged = fallback_tag(["Run", "RUN"], {"run": "V"})
        assert [t.fine_tag for t in tagged] == ["V", "V"]

    @pytest.mark.parametrize("token", ["123", "10.5", "1,52", "3.14.15"])
    def test_numeric_tokens(self, token):
        assert fallback_tag([token], {})[0].fine_tag == "Z"

    @pytest.mark.parametrize("token", ["!", "...", "!!!", "¿?", ":)"])
    def test_punctuation_tokens(self, token):
        assert fallback_tag([token], {})[0].fine_tag == "F"

    def test_unknown_word_defaults_to_noun(self):
        assert fallback_tag(["flurble"], {})[0].fine_tag == "N"

    def test_surfaces_preserved(self):
        tokens = ["Hey", "123", "!"]
        assert [t.surface for t in fallback_tag(tokens, {})] == tokens

    def test_total_over_arbitrary_input(self):
        tagged = fallback_tag(["", "@us", "htt", "#x"], {})
        assert len(tagged) == 4


class TestLoadLexicon:
    def test_basic_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("# comment\nthe\tD\nRun\tv\n", encoding="utf-8")
        lex = load_lexicon(path)
        assert lex == {"the": "D", "run": "V"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("oops\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1:"):
            load_lexicon(path)


class TestLexiconMemo:
    """`load_lexicon` parses a file again only when its path or text
    changed, and hands out one read-only mapping per parse."""

    def test_same_content_same_object(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("casa\tN\nes\tV\n", encoding="utf-8")
        first = load_lexicon(path)
        assert load_lexicon(path) is first
        assert load_lexicon(str(path)) is first

    def test_rewrite_with_restored_mtime_is_reread(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("casa\tN\n", encoding="utf-8")
        before = os.stat(path)
        assert load_lexicon(path) == {"casa": "N"}
        path.write_text("casa\tV\n", encoding="utf-8")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert load_lexicon(path) == {"casa": "V"}

    def test_malformed_file_raises_every_call(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("casa\tN\noops\n", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(DataError, match=":2:"):
                load_lexicon(path)

    def test_read_only(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("casa\tN\n", encoding="utf-8")
        lexicon = load_lexicon(path)
        with pytest.raises(TypeError):
            lexicon["casa"] = "V"
        assert load_lexicon(path) == {"casa": "N"}

    def test_holds_one_lexicon(self, tmp_path):
        paths = [tmp_path / "a.tsv", tmp_path / "b.tsv"]
        paths[0].write_text("casa\tN\n", encoding="utf-8")
        paths[1].write_text("es\tV\n", encoding="utf-8")
        first = load_lexicon(paths[0])
        assert load_lexicon(paths[1]) == {"es": "V"}
        # the second lexicon replaced the first: loading it again parses anew
        again = load_lexicon(paths[0])
        assert again == first and again is not first

    def test_gzip_twin(self, tmp_path):
        data = "# words\ncasa\tN\nRun\tv\n".encode("utf-8")
        (tmp_path / "lex.tsv").write_bytes(data)
        (tmp_path / "lex.tsv.gz").write_bytes(gzip.compress(data))
        assert load_lexicon(tmp_path / "lex.tsv.gz") == load_lexicon(tmp_path / "lex.tsv") \
            == {"casa": "N", "run": "V"}


class TestSimpleTokenize:
    def test_keeps_markers_and_hashtags_whole(self):
        assert simple_tokenize("@us said #yes !") == ["@us", "said", "#yes", "!"]

    def test_peels_surrounding_punctuation(self):
        assert simple_tokenize("(hello), world!") == ["(", "hello", "),", "world", "!"]

    def test_pure_punctuation_chunk(self):
        assert simple_tokenize("!!! ...") == ["!!!", "..."]

    def test_empty_and_whitespace(self):
        assert simple_tokenize("") == []
        assert simple_tokenize("   \n\t ") == []

    @given(st.text(alphabet="ab @#!.", max_size=40))
    @settings(max_examples=200)
    def test_reassembles_to_the_words(self, text):
        # tokens of each chunk concatenate back to the chunk
        tokens = simple_tokenize(text)
        assert "".join(tokens) == "".join(text.split())


def test_letters_and_digits_are_never_punctuation_or_symbols():
    """`simple_tokenize` keeps a chunk for which `str.isalnum()` holds
    whole without scanning it, which is right only while no such
    character is in a P* or S* category of this Python's Unicode data."""
    clashes = [hex(cp) for cp in range(sys.maxunicode + 1)
               if chr(cp).isalnum() and unicodedata.category(chr(cp))[0] in "PS"]
    assert clashes == []


# letters with and without case, digits of several scripts, numbers that
# are not decimal, a combining mark, punctuation and symbols, the marker
# and hashtag prefixes
TAGGER_ALPHABET = "aZñßǅ9٣²Ⅻ́.,!?¿()\"'-_@#:;€+😀"
tagger_words = st.one_of(
    st.text(alphabet=TAGGER_ALPHABET, min_size=1, max_size=6),
    st.sampled_from(["@us", "htt", "#tag", "#", "10.5", "1,52", "3.14.15", ":)", "¿?", "...",
                     "Run", "RUN", "run!", "(run)", "@us,", "#ß"]),
)
tagger_texts = st.lists(st.tuples(tagger_words, st.sampled_from([" ", "  ", "\t", "\n"])),
                        max_size=12).map(lambda parts: "".join(w + sep for w, sep in parts))
tagger_lexicons = st.dictionaries(
    st.sampled_from(["run", "a", "ñ", "ß", "10.5", "@us", "#tag", "!", "z9"]),
    st.sampled_from(["V", "NC", "vmip", "ß", "REF@USERNAME", "REFX", "Z", ""]),
    max_size=5)


class TestTaggerMatchesReferenceLoops:
    """Tokenizer, fallback tagger and relabel agree with the per-character
    and per-marker loops of `oracles`, also on lexicon values that are
    several letters, REF tags or empty."""

    @given(tagger_texts, tagger_lexicons)
    @settings(max_examples=300, deadline=None)
    def test_tokens_tags_and_stream(self, text, lexicon):
        tokens = simple_tokenize(text)
        assert tokens == reference_tokenize(text)
        tagged = fallback_tag(tokens, lexicon)
        assert all(type(tok) is TaggedToken for tok in tagged)
        assert [(tok.surface, tok.fine_tag) for tok in tagged] == reference_fallback_tag(tokens, lexicon)
        try:
            want = reference_relabel(reference_fallback_tag(tokens, lexicon))
        except DataError as exc:
            with pytest.raises(DataError) as got:
                relabel(tagged)
            assert str(got.value) == str(exc)
        else:
            assert relabel(tagged) == want

    def test_empty_lexicon_value_raises(self):
        tagged = fallback_tag(["run", "@us", "#tag"], {"run": "", "@us": "", "#tag": ""})
        assert relabel(tagged[1:]) == [REF_USERNAME, REF_HASHTAG]
        with pytest.raises(DataError, match="'run' has no POS tag and no special form"):
            relabel(tagged)
