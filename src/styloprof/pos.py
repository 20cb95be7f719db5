"""Reduced POS tag streams with special reference tags.

Fine-grained EAGLES-style tags (e.g. ``NCFS000``) are reduced to their
first-level category letter (``N``).  Tokens produced by the text
normalization phase -- mentions (``@us``), links (``htt``) -- plus
hashtags are relabeled with dedicated tags so their interaction with the
grammatical tags survives into POS n-grams.

A POS stream is a plain list of strings: single uppercase category
letters, or one of the three REF tags.

`load_lexicon` reads the lexicon file on every call but parses it only
when the (path, text) pair differs from the last one parsed: the parsed
mapping is held in a one-entry memo for the life of the process and
shared, read-only, by every caller.

Without external tags, `simple_tokenize`, `fallback_tag` and `relabel`
produce the stream.  Most chunks of a tweet are plain words: the
tokenizer keeps a chunk for which `str.isalnum()` holds whole, since no
letter or digit is in a punctuation (P*) or symbol (S*) category, and
scans the characters of the other chunks only.
"""

from __future__ import annotations

import os
import re
import unicodedata
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .corpus import open_text, read_lines, split_lines
from .errors import DataError
from .normalize import HASHTAG_PATTERN, LINK_MARKER, MENTION_MARKER

REF_USERNAME = "REF@USERNAME"
REF_LINK = "REF#LINK"
REF_HASHTAG = "REF#HASHTAG"

_HASHTAG = re.compile(HASHTAG_PATTERN)
_NUMERIC = re.compile(r"\d+(?:[.,]\d+)*")
_MARKER_TAGS = {MENTION_MARKER: REF_USERNAME, LINK_MARKER: REF_LINK}


class TaggedToken(NamedTuple):
    surface: str
    fine_tag: str


def reduce_tag(fine_tag: str) -> str:
    """First-level category of a fine-grained tag; REF tags pass through."""
    if not fine_tag:
        raise DataError("empty POS tag")
    if fine_tag.startswith("REF"):
        return fine_tag
    # some characters uppercase to more than one (ß -> SS); a category is
    # always exactly one letter
    return fine_tag[0].upper()[0]


def relabel(tokens: list[TaggedToken]) -> list[str]:
    """Reduced, relabeled tag stream for tokens of a *normalized* document.

    Special surfaces override whatever the tagger produced: ``@us`` ->
    REF@USERNAME, ``htt`` -> REF#LINK, ``#``+word chars -> REF#HASHTAG.
    Output has exactly one tag per token, in order.
    """
    stream = []
    for surface, fine_tag in tokens:
        tag = _MARKER_TAGS.get(surface)
        if tag is None:
            if surface[:1] == "#" and _HASHTAG.match(surface):
                tag = REF_HASHTAG
            elif not fine_tag:
                raise DataError(f"token {surface!r} has no POS tag and no special form")
            else:
                tag = reduce_tag(fine_tag)
        stream.append(tag)
    return stream


def ingest_tagged_file(path) -> list[list[TaggedToken]]:
    """Read externally produced tags: ``surface<TAB>fine_tag`` per line,
    blank line between documents.  Returns one token list per document."""
    docs: list[list[TaggedToken]] = []
    current: list[TaggedToken] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            if current:
                docs.append(current)
                current = []
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected `surface<TAB>tag`, got {len(parts)} field(s)")
        surface, tag = parts
        if not surface or not tag:
            raise DataError(f"{path}:{lineno}: empty surface or tag")
        current.append(TaggedToken(surface, tag))
    if current:
        docs.append(current)
    return docs


def _is_punct_only(token: str) -> bool:
    return all(unicodedata.category(c)[0] in ("P", "S") for c in token)


def fallback_tag(tokens: list[str], lexicon: Mapping[str, str]) -> list[TaggedToken]:
    """Deterministic lexicon tagger used when no external tags are supplied.

    Lookup is on the lowercased surface; unknown words default to ``N``
    (the majority open class), digit tokens to ``Z``, punctuation-only
    tokens to ``F``.  A baseline, not a substitute for a real tagger.
    """
    tagged = []
    lookup = lexicon.get
    for tok in tokens:
        cat = lookup(tok.lower())
        if cat is None:
            if _NUMERIC.fullmatch(tok):
                cat = "Z"
            elif tok and _is_punct_only(tok):
                cat = "F"
            else:
                cat = "N"
        tagged.append(TaggedToken(tok, cat))
    return tagged


# ((path, text), mapping) of the last lexicon parsed
_lexicon_memo: tuple[tuple[str, str], Mapping[str, str]] | None = None


def load_lexicon(path) -> Mapping[str, str]:
    """Lexicon file: ``word<TAB>letter`` per line, ``#`` comments allowed.

    The file is read on every call and parsed only when its path or text
    differs from the last lexicon parsed, so an edited file is always
    re-read and an unchanged one returns the same read-only mapping.  A
    malformed file raises on every call: errors are never memoized."""
    global _lexicon_memo
    with open_text(path) as fh:
        key = os.fspath(path), fh.read()
    if _lexicon_memo is None or _lexicon_memo[0] != key:
        lexicon: dict[str, str] = {}
        for lineno, line in enumerate(split_lines(key[1]), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise DataError(f"{path}:{lineno}: expected `word<TAB>letter`")
            lexicon[parts[0].lower()] = parts[1].upper()
        _lexicon_memo = key, MappingProxyType(lexicon)
    return _lexicon_memo[1]


_KEEP_PREFIX = "@#"  # starts a mention marker or hashtag


def simple_tokenize(text: str) -> list[str]:
    """Whitespace tokenizer that peels leading/trailing punctuation into
    separate tokens, leaving normalization markers and hashtags intact."""
    tokens: list[str] = []
    for chunk in text.split():
        if chunk.isalnum():  # no letter or digit is punctuation or a symbol
            tokens.append(chunk)
            continue
        if _is_punct_only(chunk):
            tokens.append(chunk)
            continue
        i, j = 0, len(chunk)
        while i < j and _is_punct_only(chunk[i]) and chunk[i] not in _KEEP_PREFIX:
            i += 1
        while j > i and _is_punct_only(chunk[j - 1]) and chunk[j - 1] not in _KEEP_PREFIX:
            j -= 1
        if i:
            tokens.append(chunk[:i])
        if i < j:
            tokens.append(chunk[i:j])
        if j < len(chunk):
            tokens.append(chunk[j:])
    return tokens
