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
or as log2(1 + count), selectable per channel.  `vectorize` turns a list
of samples into one `SparseMatrix` in compressed sparse row form, the
layout the learner trains on and predicts from.  It gathers each channel
flat, all samples' grams in one lookup pass, so no per-sample object is
built between the counts and the matrix.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .corpus import read_lines, write_lines
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


def default_policy(language: str) -> ScalingPolicy:
    """Per-language scaling defaults: log-scaled POS counts for Spanish,
    linear everywhere else."""
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


@dataclass(eq=False)
class SparseMatrix:
    """Samples by vocabulary columns in compressed sparse row form: row r
    holds the values `entries[indptr[r]:indptr[r + 1]]` at the columns
    `indices[indptr[r]:indptr[r + 1]]`, which ascend within the row.

    The constructor checks the layout once: `indptr` starts at 0, never
    decreases and ends at the stored-entry count; columns lie in
    [0, dimension) and ascend strictly within each row; every value is
    finite."""

    indptr: np.ndarray
    indices: np.ndarray
    entries: np.ndarray
    dimension: int

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.dimension < 1:
            raise DataError("feature dimension must be >= 1")
        nnz = self.entries.size
        if (self.indptr.ndim != 1 or self.indptr.size < 1 or self.indptr[0] != 0
                or self.indptr[-1] != nnz or self.indices.shape != self.entries.shape
                or np.any(np.diff(self.indptr) < 0)):
            raise DataError("malformed sparse row pointers")
        if nnz and (self.indices.min() < 0 or self.indices.max() >= self.dimension):
            raise DataError("feature column outside vector dimension")
        # (row, column) pairs as one key each: ascending keys mean columns
        # sorted and unique within every row
        rows = np.repeat(np.arange(len(self)), np.diff(self.indptr))
        if np.any(np.diff(rows * self.dimension + self.indices) <= 0):
            raise DataError("feature columns not strictly ascending within a row")
        if not np.all(np.isfinite(self.entries)):
            raise DataError("non-finite feature value")

    @classmethod
    def from_entries(cls, rows: np.ndarray, columns: np.ndarray, values: np.ndarray,
                     n: int, dimension: int) -> "SparseMatrix":
        """n rows from flat (row, column, value) triples in any order."""
        rows = np.asarray(rows, dtype=np.int64)
        columns = np.asarray(columns, dtype=np.int64)
        # one sort of (row, column) keys puts every row's columns in order
        order = np.argsort(rows * dimension + columns)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, columns[order], np.asarray(values, dtype=np.float64)[order], dimension)

    @classmethod
    def from_rows(cls, rows: Iterable[Mapping[int, float]], dimension: int) -> "SparseMatrix":
        """One row per column -> value mapping."""
        rows = list(rows)
        lengths = list(map(len, rows))
        return cls.from_entries(np.repeat(np.arange(len(rows)), lengths),
                                [col for row in rows for col in row],
                                [value for row in rows for value in row.values()],
                                len(rows), dimension)

    def __len__(self) -> int:
        return self.indptr.size - 1

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Columns and values of row r, as views into the matrix."""
        start, end = self.indptr[r], self.indptr[r + 1]
        return self.indices[start:end], self.entries[start:end]


@dataclass
class Vocabulary:
    """Bijection between feature keys and column ids, ordered by channel
    then lexicographic gram so construction order never matters.

    `vectorize` looks grams up in one index per channel, keyed the way
    `char_ngrams` (a string) and `pos_ngrams` (a tuple) key them.  A char
    gram's units must each be one character, so that the string names a
    single key, and no key may appear twice."""

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
                index, gram = self.char_index, "".join(key.gram)
            elif key.channel == POS:
                index, gram = self.pos_index, key.gram
            else:
                continue
            if gram in index:
                raise DataError(f"repeated vocabulary key {key.channel} {key.gram!r}")
            index[gram] = col

    def __len__(self) -> int:
        return len(self.keys)

    def content_hash(self) -> str:
        """SHA-256 of the vocabulary file's key lines without their column,
        each ended by a newline."""
        lines = "".join([f"{_key_line(key)}\n" for key in self.keys])
        return hashlib.sha256(lines.encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        n_char = sum(1 for k in self.keys if k.channel == CHAR)
        n_pos = len(self.keys) - n_char
        header = f"styloprof-vocab-v1\tchar={n_char}\tpos={n_pos}\tmin_df={self.min_df}"
        write_lines(path, [header] + [f"{_key_line(key)}\t{col}" for col, key in enumerate(self.keys)])

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = read_lines(path)
        header = (lines[0] if lines else "").split("\t")
        if header[0] != "styloprof-vocab-v1":
            raise DataError(f"{path}: not a styloprof-vocab-v1 file")
        try:
            fields = dict(p.split("=", 1) for p in header[1:])
            declared = {channel: int(fields[channel]) for channel in (CHAR, POS)}
            min_df = int(fields["min_df"])
        except (KeyError, ValueError) as exc:
            raise DataError(f"{path}: bad vocabulary header") from exc
        keys = []
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split("\t")
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
            vocab = cls(keys=keys, min_df=min_df)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        if not all(map(operator.lt, keys, keys[1:])):
            col = next(col for col in range(1, len(keys)) if keys[col] < keys[col - 1])
            raise DataError(f"{path}:{col + 2}: key not in (channel, gram) order")
        found = {CHAR: len(vocab.char_index), POS: len(vocab.pos_index)}
        if found != declared:
            raise DataError(f"{path}: header declares char={declared[CHAR]} pos={declared[POS]}, "
                            f"file holds char={found[CHAR]} pos={found[POS]}")
        return vocab


UNIT_SEP = "␟"  # printable unit-separator symbol

_ESCAPES = {"\\": "\\\\", UNIT_SEP: "\\U", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_UNESCAPES = {"\\": "\\", "U": UNIT_SEP, "t": "\t", "n": "\n", "r": "\r"}


_ESCAPE_TABLE = str.maketrans(_ESCAPES)
# a backslash and the character after it, or the end of the unit
_ESCAPE_SEQUENCE = re.compile(r"\\(.?)", re.DOTALL)


def _unescape_unit(unit: str) -> str:
    try:
        return _ESCAPE_SEQUENCE.sub(_unescape_sequence, unit)
    except KeyError:
        raise DataError(f"bad escape sequence in vocabulary unit: {unit!r}") from None


def _unescape_sequence(match: re.Match) -> str:
    return _UNESCAPES[match[1]]


def _key_line(key: FeatureKey) -> str:
    """The key as the vocabulary file writes it: channel, a tab, then the
    units escaped through `_ESCAPE_TABLE` and joined by `UNIT_SEP`."""
    units = UNIT_SEP.join([unit.translate(_ESCAPE_TABLE) for unit in key.gram])
    return f"{key.channel}\t{units}"


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


def vectorize(samples: Iterable[tuple[Counter, Counter]], vocab: Vocabulary,
              policy: ScalingPolicy) -> SparseMatrix:
    """One scaled row over `vocab` per sample, from (`char_ngrams`,
    `pos_ngrams`)-keyed count pairs; out-of-vocabulary grams and zero
    counts dropped.

    Each channel is gathered flat, with no per-row object: the grams of
    every sample are looked up in one pass over the chained keys and
    their counts read in one pass over the chained values, and
    `SparseMatrix.from_entries` puts every row's columns in order.  A
    log2 entry is `math.log2(1.0 + count)`, computed once per distinct
    count."""
    if len(vocab) == 0:
        raise DataError("empty vocabulary")
    pairs = list(samples)
    row_ids, columns, entries = [], [], []
    for channel, index, scale in ((0, vocab.char_index, policy.char_scale),
                                  (1, vocab.pos_index, policy.pos_scale)):
        counters = [pair[channel] for pair in pairs]
        lengths = np.fromiter(map(len, counters), dtype=np.int64, count=len(counters))
        total = int(lengths.sum())
        cols = np.fromiter(map(index.get, chain.from_iterable(counters), repeat(-1)),
                           dtype=np.int64, count=total)
        counts = np.fromiter(chain.from_iterable(map(dict.values, counters)),
                             dtype=np.float64, count=total)
        keep = (cols >= 0) & (counts != 0)
        counts = counts[keep]
        if scale != LINEAR:
            distinct, inverse = np.unique(counts, return_inverse=True)
            counts = np.array([math.log2(1.0 + c) for c in distinct.tolist()])[inverse]
        row_ids.append(np.repeat(np.arange(len(counters)), lengths)[keep])
        columns.append(cols[keep])
        entries.append(counts)
    return SparseMatrix.from_entries(np.concatenate(row_ids), np.concatenate(columns),
                                     np.concatenate(entries), len(pairs), len(vocab))
