"""Character and POS n-gram features over a shared sparse vocabulary.

Character n-grams: the text is whitespace-tokenized, every token is padded
with a single ``_`` on each side, and all windows of the requested orders
are emitted except windows made of pad marks only.  For ``self-defense``
and orders 1..3 this yields 12 unigrams, 13 bigrams and 12 trigrams.

POS n-grams: plain windows over the unpadded tag stream.

Grams are counted under plain keys, one key type per channel: a char
gram is its window string (``"_se"``), a POS gram its tuple of tags.
`build_vocabulary` and `vectorize` take those counts as they are; only
the vocabulary's own columns are named by `FeatureKey(channel, gram)`,
which is also what the vocabulary file and `content_hash` are made of.

Counts are per *sample* (all documents pooled) and scaled either linearly
or as log2(1 + count), selectable per channel.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import ConfigError, DataError

CHAR = "char"
POS = "pos"
PAD = "_"

LINEAR = "linear"
LOG2 = "log2"


class FeatureKey(NamedTuple):
    channel: str  # CHAR or POS
    gram: tuple[str, ...]


class ScalingPolicy(NamedTuple):
    char_scale: str = LINEAR
    pos_scale: str = LINEAR


def default_policy(language: str, task: str = "gender") -> ScalingPolicy:
    """Per-language scaling defaults: log-scaled POS counts for Spanish,
    linear everywhere else.  `task` is accepted for symmetry but unused."""
    if language == "es":
        return ScalingPolicy(LINEAR, LOG2)
    if language in ("en", "it", "nl"):
        return ScalingPolicy(LINEAR, LINEAR)
    raise ConfigError(f"unsupported language {language!r}")


def _check_order(n_min: int, n_max: int) -> None:
    if not (1 <= n_min <= n_max <= 3):
        raise ConfigError(f"n-gram orders must satisfy 1 <= n_min <= n_max <= 3, got ({n_min}, {n_max})")


def char_ngrams(text: str, n_min: int = 1, n_max: int = 3) -> Counter:
    """Multiset of padded character n-grams of orders n_min..n_max, keyed
    by the window itself (``"_ab"``).  Keys first appear token by token,
    lower orders first, so pooled counts keep a stable order."""
    _check_order(n_min, n_max)
    windows: list[str] = []
    for token in text.split():
        padded = PAD + token + PAD
        grams = padded
        for n in range(1, n_max + 1):
            if n > 1:
                grams = list(map(str.__add__, grams, padded[n - 1 :]))
            if n >= n_min:
                windows += grams
    counts = Counter(windows)
    for n in range(n_min, n_max + 1):
        counts.pop(PAD * n, None)
    return counts


def pos_ngrams(stream: list[str], n_min: int = 1, n_max: int = 3) -> Counter:
    """Multiset of unpadded tag n-grams of orders n_min..n_max, keyed by
    the tuple of tags."""
    _check_order(n_min, n_max)
    grams: Counter = Counter()
    for n in range(n_min, n_max + 1):
        grams.update(zip(*(stream[i:] for i in range(n))))
    return grams


@dataclass
class SparseVector:
    entries: dict[int, float]
    dimension: int


@dataclass
class Vocabulary:
    """Bijection between feature keys and column ids, ordered by channel
    then lexicographic gram so construction order never matters.

    `vectorize` looks grams up in one index per channel, keyed the way
    `char_ngrams` (a string) and `pos_ngrams` (a tuple) key them.  A char
    gram's units must each be one character, so that the string names a
    single key."""

    keys: list[FeatureKey]
    min_df: int
    char_index: dict[str, int] = field(init=False, repr=False, compare=False)
    pos_index: dict[tuple[str, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.char_index, self.pos_index = {}, {}
        for col, key in enumerate(self.keys):
            if key.channel == CHAR:
                if any(len(unit) != 1 for unit in key.gram):
                    raise DataError(f"char gram {key.gram!r} has a unit that is not one character")
                self.char_index["".join(key.gram)] = col
            elif key.channel == POS:
                self.pos_index[key.gram] = col

    def __len__(self) -> int:
        return len(self.keys)

    def column(self, key: FeatureKey) -> int | None:
        if key.channel == CHAR:
            return self.char_index.get("".join(key.gram))
        if key.channel == POS:
            return self.pos_index.get(key.gram)
        return None

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for key in self.keys:
            h.update(_key_line(key).encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()

    def save(self, path) -> None:
        from .corpus import open_text

        n_char = sum(1 for k in self.keys if k.channel == CHAR)
        n_pos = len(self.keys) - n_char
        with open_text(path, "wt") as fh:
            fh.write(f"styloprof-vocab-v1\tchar={n_char}\tpos={n_pos}\tmin_df={self.min_df}\n")
            for col, key in enumerate(self.keys):
                fh.write(f"{_key_line(key)}\t{col}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        from .corpus import open_text

        with open_text(path) as fh:
            header = fh.readline().rstrip("\n").split("\t")
            if not header or header[0] != "styloprof-vocab-v1":
                raise DataError(f"{path}: not a styloprof-vocab-v1 file")
            try:
                min_df = int(dict(p.split("=", 1) for p in header[1:])["min_df"])
            except (KeyError, ValueError) as exc:
                raise DataError(f"{path}: bad vocabulary header") from exc
            keys = []
            for lineno, raw in enumerate(fh, start=2):
                parts = raw.rstrip("\n").split("\t")
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
                channel, joined, col = parts
                if channel not in (CHAR, POS):
                    raise DataError(f"{path}:{lineno}: unknown channel {channel!r}")
                try:
                    in_order = int(col) == len(keys)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: column {col!r} is not an integer") from None
                if not in_order:
                    raise DataError(f"{path}:{lineno}: columns out of order")
                keys.append(FeatureKey(channel, _split_units(joined)))
        try:
            return cls(keys=keys, min_df=min_df)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None


UNIT_SEP = "␟"  # printable unit-separator symbol

_ESCAPES = {"\\": "\\\\", UNIT_SEP: "\\U", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", "U": UNIT_SEP, "t": "\t", "n": "\n", "r": "\r"}


def _escape_unit(unit: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in unit)


def _unescape_unit(unit: str) -> str:
    out = []
    i = 0
    while i < len(unit):
        ch = unit[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(unit) or unit[i + 1] not in _UNESCAPES:
            raise DataError(f"bad escape sequence in vocabulary unit: {unit!r}")
        out.append(_UNESCAPES[unit[i + 1]])
        i += 2
    return "".join(out)


def _key_line(key: FeatureKey) -> str:
    return f"{key.channel}\t{UNIT_SEP.join(_escape_unit(u) for u in key.gram)}"


def _split_units(joined: str) -> tuple[str, ...]:
    return tuple(_unescape_unit(u) for u in joined.split(UNIT_SEP))


def build_vocabulary(samples: Iterable[tuple[Counter, Counter]], min_df: int = 2) -> Vocabulary:
    """Vocabulary of grams occurring in at least `min_df` distinct training
    samples, from (`char_ngrams`, `pos_ngrams`)-keyed count pairs.  Build
    from training data only."""
    if min_df < 1:
        raise ConfigError(f"min_df must be >= 1, got {min_df}")
    char_df: Counter = Counter()
    pos_df: Counter = Counter()
    n = 0
    for char_counts, pos_counts in samples:
        n += 1
        char_df.update(char_counts.keys())
        pos_df.update(pos_counts.keys())
    if n == 0:
        raise DataError("cannot build a vocabulary from an empty training set")
    # a string sorts like the tuple of its characters, so this is the
    # (channel, gram) order of the FeatureKeys
    char_grams = sorted(gram for gram, d in char_df.items() if d >= min_df)
    pos_grams = sorted(gram for gram, d in pos_df.items() if d >= min_df)
    keys = [FeatureKey(CHAR, tuple(gram)) for gram in char_grams]
    keys += [FeatureKey(POS, gram) for gram in pos_grams]
    return Vocabulary(keys=keys, min_df=min_df)


def vectorize(char_counts: Counter, pos_counts: Counter, vocab: Vocabulary,
              policy: ScalingPolicy) -> SparseVector:
    """Scaled sparse vector over `vocab` from `char_ngrams`- and
    `pos_ngrams`-keyed counts; out-of-vocabulary grams dropped."""
    if len(vocab) == 0:
        raise DataError("empty vocabulary")
    entries: dict[int, float] = {}
    for counts, index, scale in ((char_counts, vocab.char_index, policy.char_scale),
                                 (pos_counts, vocab.pos_index, policy.pos_scale)):
        column = index.get
        for gram, count in counts.items():
            col = column(gram)
            if col is None or count == 0:
                continue
            entries[col] = float(count) if scale == LINEAR else math.log2(1.0 + count)
    return SparseVector(entries=entries, dimension=len(vocab))
