"""Phase-one dynamic normalization of social-network text.

Lexically variable elements whose stylistic role does not depend on their
spelling (user mentions, hyperlinks) are rewritten into fixed marker
strings, so that downstream character n-grams see one stable token per
element instead of an open vocabulary of usernames and URLs.  Everything
else -- case, punctuation, emoji, character flooding -- is preserved
byte for byte.

Default rule set (applied in this order):

* ``urls``:     ``https?://`` plus the following run of non-whitespace -> ``htt``
* ``mentions``: ``@`` plus one or more word characters               -> ``@us``

URLs are rewritten first so an ``@`` inside a URL is never misread as a
mention.  Each rule is applied in one left-to-right scan; overlapping
candidate matches resolve leftmost-longest (the regex engine's behaviour
for these patterns).

Every substitution is logged as a ``Rewrite``: the span it consumed in the
original input and the span it fills in the output, in order of both.  A
later rule's match absorbs every earlier replacement it overlaps, even in
part, into one entry of its own that covers all of them and whatever of
them the match left in the text.  Logged spans never overlap, so splicing
the log into the input rebuilds the output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import LANGUAGES, read_lines
from .errors import ConfigError

URL_PATTERN = r"https?://\S*"
MENTION_PATTERN = r"@\w+"
HASHTAG_PATTERN = r"#\w+"  # optional rule, not in the default set

MENTION_MARKER = "@us"
LINK_MARKER = "htt"


@dataclass(frozen=True)
class NormalizationRule:
    """One rewrite rule: a regex scanned left to right, non-overlapping.

    The pattern is compiled once, when the rule is built; a bad pattern
    raises ConfigError there."""

    name: str
    pattern: str
    replacement: str
    regex: re.Pattern = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "regex", re.compile(self.pattern))
        except re.error as exc:
            raise ConfigError(f"bad pattern: {exc}") from exc


@dataclass(frozen=True)
class Rewrite:
    """One substitution: spans refer to the original input and final output."""

    rule: str
    original_span: tuple[int, int]
    replacement_span: tuple[int, int]


@dataclass
class NormalizedText:
    text: str
    rewrites: list[Rewrite] = field(default_factory=list)


def default_rules(language: str) -> list[NormalizationRule]:
    """Rule set for a supported language.

    Currently identical for all four languages; this function is the
    extension point for per-language rules.
    """
    if language not in LANGUAGES:
        raise ConfigError(f"unsupported language {language!r}; expected one of {LANGUAGES}")
    return [
        NormalizationRule("urls", URL_PATTERN, LINK_MARKER),
        NormalizationRule("mentions", MENTION_PATTERN, MENTION_MARKER),
    ]


def hashtag_rule() -> NormalizationRule:
    """Optional text-phase hashtag rewrite; not applied by default because
    hashtag bodies carry stylistic characters worth keeping."""
    return NormalizationRule("hashtags", HASHTAG_PATTERN, "#ht")


def normalize(text: str, rules: list[NormalizationRule] | None = None) -> NormalizedText:
    """Rewrite `text` under `rules` (default: urls then mentions).

    Total over unicode input.  The rewrite log records, for every
    substitution, the span consumed in the original input and the span of
    the fixed marker in the output; all characters outside logged original
    spans are emitted unchanged, so splicing the log rebuilds the output.
    """
    if rules is None:
        rules = default_rules("es")
    if not rules:
        raise ConfigError("rule list must be non-empty")
    log: list[Rewrite] = []
    for rule in rules:
        spans = [m.span() for m in rule.regex.finditer(text) if m.end() > m.start()]
        if not spans:
            continue
        # One walk over the matches and the log, both in `text` order.  For a
        # position of `text` outside every logged replacement, its original
        # position is itself + shift and its output position itself + delta.
        pieces, merged, n = [], [], len(log)
        i = cursor = shift = delta = end = 0
        for a, b in spans:
            if a < end:  # the last absorbed replacement reaches into this match too
                merged.pop()
            else:
                while i < n and log[i].replacement_span[1] <= a:  # kept: ends at or before the match
                    rw = log[i]
                    merged.append(Rewrite(rw.rule, rw.original_span,
                                          (rw.replacement_span[0] + delta, rw.replacement_span[1] + delta)))
                    shift = rw.original_span[1] - rw.replacement_span[1]
                    i += 1
                start = min(a, log[i].replacement_span[0]) if i < n else a
                head = (start + shift, start + delta)
            pieces += (text[cursor:a], rule.replacement)
            cursor = b
            delta = a + delta + len(rule.replacement) - b
            end = max(end, b)
            while i < n and log[i].replacement_span[0] < b:  # absorbed: overlaps the match
                end = max(end, log[i].replacement_span[1])
                shift = log[i].original_span[1] - log[i].replacement_span[1]
                i += 1
            merged.append(Rewrite(rule.name, (head[0], end + shift), (head[1], end + delta)))
        merged += [Rewrite(rw.rule, rw.original_span,
                           (rw.replacement_span[0] + delta, rw.replacement_span[1] + delta)) for rw in log[i:]]
        pieces.append(text[cursor:])
        text, log = "".join(pieces), merged
    return NormalizedText(text=text, rewrites=log)


def load_rules(path) -> list[NormalizationRule]:
    """Read a rule file: one rule per line, ``name<TAB>pattern<TAB>replacement``.

    Blank lines and ``#`` comments are skipped.  Rules apply in file order.
    Each replacement must be a fixed point of the whole rule set, otherwise
    normalization would not be idempotent and the file is rejected.
    """
    rules: list[NormalizationRule] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        try:
            rules.append(NormalizationRule(*parts))
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if not rules:
        raise ConfigError(f"{path}: no rules defined")
    for rule in rules:
        if normalize(rule.replacement, rules).text != rule.replacement:
            raise ConfigError(
                f"{path}: replacement {rule.replacement!r} of rule {rule.name!r} "
                "is not a fixed point of the rule set (normalization would not be idempotent)"
            )
    return rules
