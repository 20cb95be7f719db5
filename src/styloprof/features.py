"""Character and POS n-gram features over a shared sparse vocabulary.

Character n-grams: the text is whitespace-tokenized, every token is padded
with a single ``_`` on each side, and all windows of orders 1 to 3 are
emitted except windows made of pad marks only.  For ``self-defense``
this yields 12 unigrams, 13 bigrams and 12 trigrams.  `char_ngrams` takes
an optional dict from token to windows, which the caller owns: pass one
dict to every call over a batch of samples, as `experiment.batch_counts`
does, and each distinct token of the batch is windowed once.

POS n-grams: plain windows of orders 1 to 3 over the unpadded tag stream.

Grams are keyed one way per channel, from the counters to the
vocabulary: a char gram is its window string (``"_se"``), a POS gram its
tuple of tags.  `build_vocabulary`, `Vocabulary` and `vectorize` take
them as they are.

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
from typing import Iterable, NamedTuple

import numpy as np

from .corpus import LANGUAGES, key_values, read_lines, write_lines
from .errors import ConfigError, DataError

CHAR = "char"
POS = "pos"
PAD = "_"

LINEAR = "linear"
LOG2 = "log2"

MIN_DF = 2  # default document-frequency cut of a vocabulary


class FeatureKey(NamedTuple):
    """A gram named with its channel, the gram a tuple of units.  Only
    `experiment.extract_counts`, the benchmark's recount view, keys counts
    this way; the rest of the library keys grams as the counters do."""

    channel: str  # CHAR or POS
    gram: tuple[str, ...]


class ScalingPolicy(NamedTuple):
    char_scale: str = LINEAR
    pos_scale: str = LINEAR


def default_policy(language: str) -> ScalingPolicy:
    """Per-language scaling defaults: log-scaled POS counts for Spanish,
    linear everywhere else."""
    if language not in LANGUAGES:
        raise ConfigError(f"unsupported language {language!r}")
    return ScalingPolicy(LINEAR, LOG2 if language == "es" else LINEAR)


def _token_windows(token: str) -> tuple[str, ...]:
    """The padded windows of one token, unigrams then bigrams then
    trigrams, each in text order, without the windows of pad marks only."""
    padded = PAD + token + PAD
    bigrams = list(map(str.__add__, padded, padded[1:]))
    trigrams = list(map(str.__add__, bigrams, padded[2:]))
    if PAD in token:
        return tuple([w for w in chain(padded, bigrams, trigrams) if w.strip(PAD)])
    # without a pad mark inside, only the two pad unigrams are pad-only
    return (*token, *bigrams, *trigrams)


def char_ngrams(text: str, windows: dict[str, tuple[str, ...]] | None = None) -> Counter:
    """Multiset of padded character n-grams of orders 1 to 3, keyed by the
    window itself (``"_ab"``).  Keys first appear token by token, lower
    orders first, so pooled counts keep a stable order.

    `windows` maps tokens to their windows; entries are added for tokens
    not in it yet.  A caller that counts many texts passes one dict to
    every call so each distinct token is windowed once: the dict lives as
    long as the caller keeps it, and no cache outlives the caller."""
    if windows is None:
        windows = {}
    tokens = text.split()
    for token in set(tokens).difference(windows):
        windows[token] = _token_windows(token)
    return Counter(chain.from_iterable(map(windows.__getitem__, tokens)))


def pos_ngrams(stream: list[str]) -> Counter:
    """Multiset of unpadded tag n-grams of orders 1 to 3, keyed by the
    tuple of tags."""
    grams: Counter = Counter()
    for n in (1, 2, 3):
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

    def __len__(self) -> int:
        return self.indptr.size - 1

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Columns and values of row r, as views into the matrix."""
        start, end = self.indptr[r], self.indptr[r + 1]
        return self.indices[start:end], self.entries[start:end]


@dataclass
class Vocabulary:
    """Bijection between grams and column ids: the char grams, then the
    POS grams, each list strictly ascending, so the columns, the file and
    `content_hash` depend only on which grams there are.

    Grams are keyed the way `char_ngrams` (a string) and `pos_ngrams` (a
    tuple) key them, and `vectorize` looks them up in `char_index` and
    `pos_index`.  A gram out of order or repeated raises DataError."""

    char_grams: list[str]
    pos_grams: list[tuple[str, ...]]
    min_df: int
    char_index: dict[str, int] = field(init=False, repr=False, compare=False)
    pos_index: dict[tuple[str, ...], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for channel, grams in ((CHAR, self.char_grams), (POS, self.pos_grams)):
            if not all(map(operator.lt, grams, grams[1:])):
                i = next(i for i in range(1, len(grams)) if not grams[i - 1] < grams[i])
                what = "repeated vocabulary key" if grams[i] == grams[i - 1] else "gram out of order"
                raise DataError(f"{what} {channel} {grams[i]!r}")
        n_char = len(self.char_grams)
        self.char_index = dict(zip(self.char_grams, range(n_char)))
        self.pos_index = dict(zip(self.pos_grams, range(n_char, len(self))))

    def __len__(self) -> int:
        return len(self.char_grams) + len(self.pos_grams)

    def _gram_lines(self) -> list[str]:
        """The vocabulary file's key lines without their column: the
        channel, a tab, then the gram's units (a char gram's characters)
        escaped through `_ESCAPE_TABLE` and joined by `UNIT_SEP`."""
        return [f"{channel}\t{UNIT_SEP.join([unit.translate(_ESCAPE_TABLE) for unit in gram])}"
                for channel, grams in ((CHAR, self.char_grams), (POS, self.pos_grams))
                for gram in grams]

    def content_hash(self) -> str:
        """SHA-256 of the vocabulary file's key lines without their column,
        each ended by a newline."""
        lines = "".join([f"{line}\n" for line in self._gram_lines()])
        return hashlib.sha256(lines.encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        header = (f"styloprof-vocab-v1\tchar={len(self.char_grams)}\tpos={len(self.pos_grams)}"
                  f"\tmin_df={self.min_df}")
        write_lines(path, [header] + [f"{line}\t{col}" for col, line in enumerate(self._gram_lines())])

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = read_lines(path)
        header = (lines[0] if lines else "").split("\t")
        if header[0] != "styloprof-vocab-v1":
            raise DataError(f"{path}: not a styloprof-vocab-v1 file")
        try:
            n_char, n_pos, min_df = map(int, key_values(header[1:], (CHAR, POS, "min_df")))
        except (DataError, ValueError) as exc:
            raise DataError(f"{path}: bad vocabulary header: {exc}") from None
        if min_df < 1:
            raise DataError(f"{path}: bad vocabulary header: min_df must be >= 1, got {min_df}")
        declared = {CHAR: n_char, POS: n_pos}
        grams = {CHAR: [], POS: []}
        previous = ("", "")
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
            channel, joined, col = parts
            if channel not in (CHAR, POS):
                raise DataError(f"{path}:{lineno}: unknown channel {channel!r}")
            try:
                in_order = int(col) == lineno - 2
            except ValueError:
                raise DataError(f"{path}:{lineno}: column {col!r} is not an integer") from None
            if not in_order:
                raise DataError(f"{path}:{lineno}: columns out of order")
            units = [_unescape_unit(unit) for unit in joined.split(UNIT_SEP)]
            if channel == POS:
                gram = tuple(units)
            elif all(len(unit) == 1 for unit in units):
                gram = "".join(units)
            else:
                raise DataError(f"{path}:{lineno}: char gram {units!r} has a unit "
                                f"that is not one character")
            # (channel, gram) pairs ascend: the char block, then the POS block
            if (channel, gram) <= previous:
                what = ("repeated vocabulary key" if (channel, gram) == previous
                        else "key not in (channel, gram) order")
                raise DataError(f"{path}:{lineno}: {what}")
            previous = channel, gram
            grams[channel].append(gram)
        found = {channel: len(grams[channel]) for channel in (CHAR, POS)}
        if found != declared:
            raise DataError(f"{path}: header declares char={declared[CHAR]} pos={declared[POS]}, "
                            f"file holds char={found[CHAR]} pos={found[POS]}")
        return cls(grams[CHAR], grams[POS], min_df)


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


def build_vocabulary(samples: Iterable[tuple[Counter, Counter]], min_df: int = MIN_DF) -> Vocabulary:
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
    return Vocabulary(sorted(gram for gram, d in char_df.items() if d >= min_df),
                      sorted(gram for gram, d in pos_df.items() if d >= min_df), min_df)


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
