"""Text normalization: rewrite rules, idempotence, span bookkeeping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from styloprof.errors import ConfigError
from styloprof.normalize import (
    MENTION_PATTERN,
    NormalizationRule,
    default_rules,
    hashtag_rule,
    load_rules,
    normalize,
)

from oracles import reference_normalize

TWEET_IN = "I was just watching ``update 10.'' @MKBHD http://t.co/P9Dn7t8zSl"
TWEET_OUT = "I was just watching ``update 10.'' @us htt"

# alphabet biased toward rule-relevant material
FUZZ_ALPHABET = "abchttps:/@_#.!?0123456789 \n\táñ😀"
fuzz_text = st.text(alphabet=FUZZ_ALPHABET, max_size=80)


class TestNormalizeExamples:
    def test_printed_tweet_byte_for_byte(self):
        assert normalize(TWEET_IN).text == TWEET_OUT

    def test_empty_input(self):
        result = normalize("")
        assert result.text == ""
        assert result.rewrites == []

    def test_mixed_mentions_and_urls(self):
        got = normalize("@a @b_2 see https://x.y/z?q=1 and http://q.r")
        assert got.text == "@us @us see htt and htt"

    def test_mention_keeps_trailing_punctuation(self):
        assert normalize("hi @MKBHD, bye").text == "hi @us, bye"

    def test_url_swallows_at_sign(self):
        # urls run first, so the @ inside never becomes a mention
        assert normalize("http://x.com/@user rest").text == "htt rest"

    def test_url_absorbs_until_whitespace_only(self):
        assert normalize("http://a.b\nnext").text == "htt\nnext"

    def test_bare_scheme_prefix_is_a_url(self):
        # \S* allows an empty tail
        assert normalize("see http:// end").text == "see htt end"

    def test_flooding_and_case_preserved(self):
        text = "Sooooo COOL!!! :) 😀😀"
        assert normalize(text).text == text

    def test_at_without_word_char_untouched(self):
        assert normalize("a @ b @! c").text == "a @ b @! c"

    def test_rewrite_log_records_both_spans(self):
        result = normalize(TWEET_IN)
        by_rule = {rw.rule for rw in result.rewrites}
        assert by_rule == {"urls", "mentions"}
        for rw in result.rewrites:
            a, b = rw.original_span
            c, d = rw.replacement_span
            assert TWEET_OUT[c:d] in ("htt", "@us")
            assert TWEET_IN[a:b] in ("@MKBHD", "http://t.co/P9Dn7t8zSl")


class TestDefaultRules:
    @pytest.mark.parametrize("language", ["es", "en", "it", "nl"])
    def test_each_language_gets_urls_then_mentions(self, language):
        rules = default_rules(language)
        assert [r.name for r in rules] == ["urls", "mentions"]

    def test_rule_sets_identical_across_languages(self):
        assert default_rules("nl") == default_rules("es")

    def test_unknown_language_rejected(self):
        with pytest.raises(ConfigError):
            default_rules("xx")

    def test_hashtag_rule_is_optional_extra(self):
        rules = default_rules("es") + [hashtag_rule()]
        assert normalize("#tbt wow", rules).text == "#ht wow"
        # and without it hashtags pass through
        assert normalize("#tbt wow").text == "#tbt wow"


class TestNormalizeProperties:
    @given(fuzz_text)
    @settings(max_examples=300)
    def test_idempotent(self, text):
        once = normalize(text).text
        assert normalize(once).text == once

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_idempotent_general_unicode(self, text):
        once = normalize(text).text
        assert normalize(once).text == once

    @given(fuzz_text)
    @settings(max_examples=300)
    def test_length_bound(self, text):
        result = normalize(text)
        assert len(result.text) <= len(text) + 3 * len(result.rewrites)

    @given(st.text(alphabet="abc def.!?123", max_size=60))
    @settings(max_examples=200)
    def test_non_interference(self, text):
        # no @-word, no scheme prefix: returned verbatim
        result = normalize(text)
        assert result.text == text
        assert result.rewrites == []

    @given(fuzz_text)
    @settings(max_examples=300)
    def test_untouched_spans_identical(self, text):
        """Everything outside the logged rewrites survives unchanged."""
        result = normalize(text)
        prev_orig = prev_new = 0
        for rw in result.rewrites:
            a, b = rw.original_span
            c, d = rw.replacement_span
            assert prev_orig <= a <= b <= len(text)
            assert prev_new <= c <= d <= len(result.text)
            assert text[prev_orig:a] == result.text[prev_new:c]
            prev_orig, prev_new = b, d
        assert text[prev_orig:] == result.text[prev_new:]

    @given(fuzz_text.filter(lambda s: "htt" not in s))
    @settings(max_examples=300)
    def test_url_rewrites_introduce_the_markers(self, text):
        result = normalize(text)
        url_count = sum(1 for rw in result.rewrites if rw.rule == "urls")
        produced = sum(
            1
            for rw in result.rewrites
            if rw.rule == "urls"
            and result.text[rw.replacement_span[0] : rw.replacement_span[1]] == "htt"
        )
        assert produced == url_count
        assert result.text.count("htt") == url_count


RULE_FILES = {
    "two-rule file": "r1\ta\tX\nr2\tb\tY\n",
    # `s#` overlaps the tail of an `@us` marker
    "partial-overlap file": "mentions\t@\\w+\t@us\nz\ts#\tZ\n",
    # `d` deletes, so `e` may start where a deletion left nothing
    "deletion file": "d\ta\t\ne\tbc\tY\n",
    # each rule overlaps part of the replacement before it
    "chain file": "x\ta\txyz\nw\tzb\tW\nv\tyW\tV\n",
    # a match may end inside an `xyz` replacement, and two may share one
    "inner file": "x\ta\txyz\nw\tbx|zc\tW\n",
}
RULE_SETS = ["default", "default+hashtags", "mentions+hashtags", *RULE_FILES]
# the rule sets whose matches cover every replacement they overlap whole
WHOLE_COVER_SETS = ["default", "default+hashtags", "mentions+hashtags", "two-rule file"]
# pieces that make the rules' matches meet, nest and abut
splice_texts = st.lists(st.sampled_from(["http://", "@", "#", "a", "b", "c", "s", "u", "t", "y", "z",
                                         "X", "W", ":", "/", " "]),
                        max_size=16).map("".join)


@pytest.fixture(scope="module")
def rule_sets(tmp_path_factory):
    folder = tmp_path_factory.mktemp("rules")
    files = {}
    for name, content in RULE_FILES.items():
        path = folder / (name.replace(" ", "-") + ".tsv")
        path.write_text(content, encoding="utf-8")
        files[name] = load_rules(path)
    return {"default": default_rules("es"),
            "default+hashtags": default_rules("es") + [hashtag_rule()],
            "mentions+hashtags": [NormalizationRule("mentions", MENTION_PATTERN, "@us"), hashtag_rule()],
            **files}


def splice(text: str, rewrites, output: str) -> str:
    """`text` with each logged original span replaced by its span of
    `output`, in original order; asserts that no two original spans overlap."""
    pieces, cursor = [], 0
    for rule, (a, b), (c, d) in sorted(rewrites, key=lambda rw: rw[1]):
        assert cursor <= a, f"original spans overlap at {a}: {rewrites}"
        pieces += [text[cursor:a], output[c:d]]
        cursor = b
    return "".join(pieces) + text[cursor:]


def logged(result) -> list:
    return [(rw.rule, rw.original_span, rw.replacement_span) for rw in result.rewrites]


class TestRewriteSpans:
    def test_match_after_a_replacement_starts_where_it_ended(self, rule_sets):
        result = normalize(":#@u#t", rule_sets["default+hashtags"])
        assert [(rw.rule, rw.original_span) for rw in result.rewrites] == \
            [("mentions", (2, 4)), ("hashtags", (4, 6))]
        result = normalize("ab", rule_sets["two-rule file"])
        assert [(rw.rule, rw.original_span) for rw in result.rewrites] == \
            [("r1", (0, 1)), ("r2", (1, 2))]

    def test_partial_overlap_absorbs_the_whole_replacement(self, rule_sets):
        result = normalize("@a#", rule_sets["partial-overlap file"])
        assert result.text == "@uZ"
        assert logged(result) == [("z", (0, 3), (0, 3))]

    def test_match_after_a_deletion_maps_past_it(self, rule_sets):
        result = normalize("abc", rule_sets["deletion file"])
        assert result.text == "Y"
        assert logged(result) == [("d", (0, 1), (0, 0)), ("e", (1, 3), (0, 1))]

    def test_chain_of_partial_overlaps(self, rule_sets):
        result = normalize("ab", rule_sets["chain file"])
        assert result.text == "xV"
        assert logged(result) == [("v", (0, 2), (0, 2))]

    def test_matches_sharing_a_replacement_merge_into_one_entry(self, rule_sets):
        result = normalize("bac", rule_sets["inner file"])
        assert result.text == "WyW"
        assert logged(result) == [("w", (0, 3), (0, 3))]
        result = normalize("ba", rule_sets["inner file"])
        assert result.text == "Wyz"
        assert logged(result) == [("w", (0, 2), (0, 3))]

    @pytest.mark.parametrize("name", RULE_SETS)
    @given(text=splice_texts)
    @settings(max_examples=300)
    def test_splicing_the_log_rebuilds_the_output(self, rule_sets, name, text):
        result = normalize(text, rule_sets[name])
        assert splice(text, logged(result), result.text) == result.text
        assert [rw.replacement_span for rw in result.rewrites] == \
            sorted(rw.replacement_span for rw in result.rewrites)

    @pytest.mark.parametrize("name", WHOLE_COVER_SETS)
    @given(text=splice_texts | fuzz_text)
    @settings(max_examples=300)
    def test_log_matches_the_pass_by_pass_reference(self, rule_sets, name, text):
        result = normalize(text, rule_sets[name])
        reference = reference_normalize(text, rule_sets[name])
        assert result.text == reference.text
        assert logged(result) == logged(reference)


class TestRuleFiles:
    def test_load_and_apply(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text(
            "# comment line\n"
            "urls\thttps?://\\S*\thtt\n"
            "mentions\t@\\w+\t@us\n"
            "\n"
            "hashtags\t#\\w+\t#ht\n",
            encoding="utf-8",
        )
        rules = load_rules(path)
        assert [r.name for r in rules] == ["urls", "mentions", "hashtags"]
        assert normalize("#x @y http://z", rules).text == "#ht @us htt"

    def test_wrong_field_count_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("urls\thttps?://\\S*\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=":1:"):
            load_rules(path)

    def test_bad_pattern_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# comment\nbroken\t[unclosed\tx\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"rules\.tsv:2: bad pattern: unterminated character set"):
            load_rules(path)

    def test_bad_pattern_rejected_where_the_rule_is_built(self):
        with pytest.raises(ConfigError, match="bad pattern"):
            NormalizationRule("broken", "[unclosed", "x")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "rules.tsv"
        path.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="no rules"):
            load_rules(path)

    def test_non_fixed_point_replacement_rejected(self, tmp_path):
        # "x1x" rewrites to "xx1xx" under the rule itself, so applying the
        # set twice would keep changing the text
        path = tmp_path / "rules.tsv"
        path.write_text("nums\t\\d+\tx1x\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="fixed point"):
            load_rules(path)

    def test_empty_rule_list_rejected(self):
        with pytest.raises(ConfigError):
            normalize("anything", [])

    def test_custom_rule_object(self):
        rule = NormalizationRule("digits", r"\d+", "<num>")
        assert normalize("a 12 b 345", [rule]).text == "a <num> b <num>"
