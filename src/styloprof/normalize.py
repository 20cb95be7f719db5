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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import read_lines
from .errors import ConfigError

SUPPORTED_LANGUAGES = ("es", "en", "it", "nl")

URL_PATTERN = r"https?://\S*"
MENTION_PATTERN = r"@\w+"
HASHTAG_PATTERN = r"#\w+"  # optional rule, not in the default set


@dataclass(frozen=True)
class NormalizationRule:
    """One rewrite rule: a regex scanned left to right, non-overlapping."""

    name: str
    pattern: str
    replacement: str

    def compiled(self) -> re.Pattern:
        return re.compile(self.pattern)


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
    if language not in SUPPORTED_LANGUAGES:
        raise ConfigError(f"unsupported language {language!r}; expected one of {SUPPORTED_LANGUAGES}")
    return [
        NormalizationRule("urls", URL_PATTERN, "htt"),
        NormalizationRule("mentions", MENTION_PATTERN, "@us"),
    ]


def hashtag_rule() -> NormalizationRule:
    """Optional text-phase hashtag rewrite; not applied by default because
    hashtag bodies carry stylistic characters worth keeping."""
    return NormalizationRule("hashtags", HASHTAG_PATTERN, "#ht")


def _apply_one(text: str, rule: NormalizationRule):
    """Single left-to-right pass of one rule.

    Returns (new_text, matches) where each match is
    ((start, end) in `text`, (start, end) in `new_text`).
    """
    pieces = []
    matches = []
    cursor = 0
    out_len = 0
    for m in rule.compiled().finditer(text):
        if m.start() == m.end():
            continue
        pieces.append(text[cursor : m.start()])
        out_len += m.start() - cursor
        pieces.append(rule.replacement)
        matches.append(((m.start(), m.end()), (out_len, out_len + len(rule.replacement))))
        out_len += len(rule.replacement)
        cursor = m.end()
    pieces.append(text[cursor:])
    return "".join(pieces), matches


def _compose(rewrites: list[Rewrite], pass_matches, rule_name: str) -> list[Rewrite]:
    """Fold one rule pass into the accumulated rewrite log.

    `rewrites` carry spans as (original input, current text); the pass was
    applied to the current text.  A pass match may swallow earlier
    replacements whole (e.g. a mention match absorbing an adjacent ``htt``),
    in which case the entries merge and the original span widens to cover
    everything the match ultimately came from.
    """
    # Map a current-text position to an original-text position.  `right`
    # selects which side to snap to when the position falls strictly
    # inside an earlier replacement; its two ends map to the ends of
    # what it replaced.
    def to_original(pos: int, right: bool) -> int:
        shift = 0
        for rw in rewrites:
            a, b = rw.replacement_span
            if pos <= a:
                break
            if pos < b:
                return rw.original_span[1] if right else rw.original_span[0]
            shift = rw.original_span[1] - b
        return pos + shift

    merged: list[Rewrite] = []
    survivors = list(rewrites)
    offset = 0  # cumulative length delta of the current pass
    for (a, b), (c, d) in pass_matches:
        keep = []
        for rw in survivors:
            ra, rb = rw.replacement_span
            if rb <= a or ra >= b:
                keep.append(rw)
            # else: fully covered by this match; merged below
        survivors = keep
        merged.append(Rewrite(rule_name, (to_original(a, False), to_original(b, True)), (c, d)))
        offset += (d - c) - (b - a)
    # Remaining earlier rewrites: shift their output spans by the deltas of
    # pass matches occurring before them.
    shifted = []
    for rw in survivors:
        ra, rb = rw.replacement_span
        delta = 0
        for (a, b), (c, d) in pass_matches:
            if b <= ra:
                delta += (d - c) - (b - a)
        shifted.append(Rewrite(rw.rule, rw.original_span, (ra + delta, rb + delta)))
    out = shifted + merged
    out.sort(key=lambda rw: rw.replacement_span)
    return out


def normalize(text: str, rules: list[NormalizationRule] | None = None) -> NormalizedText:
    """Rewrite `text` under `rules` (default: urls then mentions).

    Total over unicode input.  The rewrite log records, for every
    substitution, the span consumed in the original input and the span of
    the fixed marker in the output; all characters outside logged original
    spans are emitted unchanged.
    """
    if rules is None:
        rules = default_rules("es")
    if not rules:
        raise ConfigError("rule list must be non-empty")
    rewrites: list[Rewrite] = []
    current = text
    for rule in rules:
        current, matches = _apply_one(current, rule)
        rewrites = _compose(rewrites, matches, rule.name)
    return NormalizedText(text=current, rewrites=rewrites)


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
        name, pattern, replacement = parts
        try:
            re.compile(pattern)
        except re.error as exc:
            raise ConfigError(f"{path}:{lineno}: bad pattern: {exc}") from exc
        rules.append(NormalizationRule(name, pattern, replacement))
    if not rules:
        raise ConfigError(f"{path}: no rules defined")
    for rule in rules:
        if normalize(rule.replacement, rules).text != rule.replacement:
            raise ConfigError(
                f"{path}: replacement {rule.replacement!r} of rule {rule.name!r} "
                "is not a fixed point of the rule set (normalization would not be idempotent)"
            )
    return rules
