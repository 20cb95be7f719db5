r"""Corpus loading, document grouping and reproducible splits.

Two on-disk layouts are supported, both optionally gzip-compressed
(selected by a ``.gz`` extension):

* a truth directory: ``truth.txt`` with lines
  ``authorid:::gender:::ageband[:::E:::N:::A:::C:::O]`` next to one text
  file per author holding one document per line;
* a flat delimited file with header ``id,gender,text`` and RFC-4180
  quoting, read strictly: a quote left open or a stray quote is a data
  error, not text that runs on into the next rows.

A truth directory's files, like every other line-oriented file of the
package (rules, lexicon, POS sidecars, vocabulary, model, predictions,
results), are read by `read_lines` and written by `write_lines`; only a
flat file goes through the csv module.  A line ends at ``"\n"`` only
(``"\r\n"`` and ``"\r"`` read as ``"\n"``): any other separator, such as
``\v``, ``\f``, ``\x85`` or U+2028, stays inside its line.

Documents can be pooled into fixed-size per-class samples and split
into train/test partitions stratified by a chosen label, both fully
deterministic for a given seed.
"""

from __future__ import annotations

import csv
import gzip
import math
import os
import random
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConfigError, DataError

GENDERS = ("Female", "Male")
AGE_BANDS = ("18-24", "25-34", "35-49", "50-XX")
TRAIT_NAMES = ("E", "N", "A", "C", "O")
TRAIT_MIN, TRAIT_MAX = -0.5, 0.5

FORMATS = ("PanTruthDir", "FlatCsv")
LANGUAGES = ("es", "en", "it", "nl")

TRUTH_SEP = ":::"
# an author id names files inside the truth dir, so it holds none of these;
# nor a tab, which ends the id in the prediction and truth files
_ID_BREAKS = tuple(sep for sep in ("/", os.sep, os.altsep, "\0", "\t") if sep)
_ABSENT_TOKENS = ("XX", "XX-XX")


@contextmanager
def open_text(path, mode: str = "rt", newline=None):
    """Open a UTF-8 text file as a context manager, transparently gzipped
    when the name ends in .gz.  Modes must be text modes ("rt", "wt").
    Bytes that are not UTF-8 and a corrupt or truncated gzip stream,
    whenever the block meets them, raise a DataError naming the file."""
    path = os.fspath(path)
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, mode, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise DataError(f"{path}: corrupt gzip stream: {exc}") from None


def split_lines(text: str) -> list[str]:
    """The lines of `text`, split on "\n" only.  A final newline ends the
    last line and does not start another."""
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_lines(path) -> list[str]:
    """The lines of a text file opened by `open_text`, whose universal
    newlines turn "\r\n" and "\r" into "\n" first."""
    with open_text(path) as fh:
        return split_lines(fh.read())


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line followed by "\n", translating no newline."""
    with open_text(path, "wt", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def key_values(fields: Sequence[str], keys: Sequence[str]) -> list[str]:
    """The values of `key=value` header fields that name exactly `keys`,
    each once and in that order, as the file writers write them; a
    DataError otherwise."""
    pairs = [field.partition("=") for field in fields]
    if [key + sep for key, sep, _ in pairs] != [key + "=" for key in keys]:
        raise DataError(f"expected the fields {' '.join(key + '=' for key in keys)} in that order, "
                        f"got {' '.join(fields)!r}")
    return [value for _, _, value in pairs]


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class Document:
    id: str
    text: str
    pos_tags: tuple[str, ...] = ()

    def __post_init__(self):
        if any(not tag for tag in self.pos_tags):
            raise DataError(f"document {self.id!r}: empty POS tag")


@dataclass
class LabelSet:
    gender: str | None = None
    age_band: str | None = None
    traits: dict[str, float] | None = None

    def __post_init__(self):
        if self.gender is None and self.age_band is None and self.traits is None:
            raise DataError("a label set needs at least one of gender, age band or traits")
        if self.gender is not None and self.gender not in GENDERS:
            raise DataError(f"unknown gender {self.gender!r}")
        if self.age_band is not None and self.age_band not in AGE_BANDS:
            raise DataError(f"unknown age band {self.age_band!r}")
        if self.traits is not None:
            for name, value in self.traits.items():
                if name not in TRAIT_NAMES:
                    raise DataError(f"unknown trait {name!r}")
                if not (TRAIT_MIN <= value <= TRAIT_MAX):
                    raise DataError(f"trait {name} = {value} outside [{TRAIT_MIN}, {TRAIT_MAX}]")

    def class_key(self) -> tuple:
        traits = tuple(sorted(self.traits.items())) if self.traits is not None else None
        return (self.gender, self.age_band, traits)


@dataclass
class Sample:
    id: str
    documents: list[Document]
    labels: LabelSet

    def __post_init__(self):
        if not self.documents:
            raise DataError(f"sample {self.id!r} has no documents")


@dataclass
class LabeledDocument:
    document: Document
    labels: LabelSet


@dataclass
class CorpusSpec:
    format: str
    path: str
    language: str
    grouping_k: int | None = None
    delimiter: str = ","

    def __post_init__(self):
        if not self.path:
            raise ConfigError("path must not be empty")
        if len(self.delimiter) != 1:
            raise ConfigError("delimiter must be a single character")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown corpus format {self.format!r}; expected one of {FORMATS}")
        if self.language not in LANGUAGES:
            raise ConfigError(f"unsupported language {self.language!r}; expected one of {LANGUAGES}")
        if self.grouping_k is not None and self.grouping_k < 1:
            raise ConfigError(f"grouping_k must be a positive integer, got {self.grouping_k}")
        if self.grouping_k is not None and self.format != "FlatCsv":
            raise ConfigError("grouping_k applies only to FlatCsv corpora")


# ---------------------------------------------------------------------------
# label token parsing

def parse_gender(token: str) -> str:
    upper = token.strip().upper()
    if upper in ("F", "FEMALE"):
        return "Female"
    if upper in ("M", "MALE"):
        return "Male"
    raise ValueError(f"unrecognized gender token {token!r}")


def parse_age_band(token: str) -> str | None:
    """Canonical age band, or None for the explicit absent markers XX and
    XX-XX.  The open-ended band is stored as 50-XX whatever its surface."""
    upper = token.strip().upper()
    if upper in _ABSENT_TOKENS:
        return None
    if upper in ("18-24", "25-34", "35-49"):
        return upper
    if upper in ("50-XX", ">50", "50+"):
        return "50-XX"
    raise ValueError(f"unrecognized age band token {token!r}")


def render_age_band(band: str) -> str:
    return ">50" if band == "50-XX" else band


# ---------------------------------------------------------------------------
# loaders and writers

def plain_or_gz(path: str) -> str | None:
    """`path` if it exists, else `path` + ".gz" if that exists, else None."""
    for candidate in (path, path + ".gz"):
        if os.path.exists(candidate):
            return candidate
    return None


def truth_path(dirpath: str) -> str:
    found = plain_or_gz(os.path.join(dirpath, "truth.txt"))
    if found is None:
        raise DataError(f"{dirpath}: missing truth.txt")
    return found


def author_path(dirpath: str, author_id: str) -> str:
    found = plain_or_gz(os.path.join(dirpath, author_id + ".txt"))
    if found is None:
        raise DataError(f"{dirpath}: no document file for author {author_id!r}")
    return found


def _parse_truth_line(line: str, where: str) -> tuple[str, LabelSet]:
    parts = line.split(TRUTH_SEP)
    if len(parts) not in (3, 8):
        raise DataError(f"{where}: expected 3 or 8 ':::'-separated fields, got {len(parts)}")
    author_id = parts[0].strip()
    if not author_id:
        raise DataError(f"{where}: empty author id")
    if any(bad in author_id for bad in _ID_BREAKS):
        raise DataError(f"{where}: author id {author_id!r} holds a path separator, NUL or a tab")
    try:
        gender = parse_gender(parts[1])
        age_band = parse_age_band(parts[2])
    except ValueError as exc:
        raise DataError(f"{where}: {exc}") from None
    traits = None
    if len(parts) == 8:
        traits = {}
        for name, token in zip(TRAIT_NAMES, parts[3:]):
            try:
                traits[name] = float(token)
            except ValueError:
                raise DataError(f"{where}: unparsable {name} trait value {token!r}") from None
    try:
        return author_id, LabelSet(gender=gender, age_band=age_band, traits=traits)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None


def load_pan_truth_dir(spec: CorpusSpec) -> list[Sample]:
    """One Sample per truth.txt line, documents in author-file order."""
    if spec.format != "PanTruthDir":
        raise ConfigError(f"load_pan_truth_dir called with format {spec.format!r}")
    truth = truth_path(spec.path)
    samples = []
    listed: dict[str, int] = {}
    for lineno, raw in enumerate(read_lines(truth), start=1):
        line = raw.strip()
        if not line:
            continue
        author_id, labels = _parse_truth_line(line, f"{truth}:{lineno}")
        if author_id in listed:
            raise DataError(f"{truth}:{lineno}: author {author_id!r} already listed "
                            f"on line {listed[author_id]}")
        listed[author_id] = lineno
        doc_path = author_path(spec.path, author_id)
        texts = read_lines(doc_path)
        if not texts:
            raise DataError(f"{doc_path}: author file is empty")
        documents = [Document(id=f"{author_id}:{i}", text=text) for i, text in enumerate(texts)]
        samples.append(Sample(id=author_id, documents=documents, labels=labels))
    return samples


def save_pan_truth_dir(samples: list[Sample], dirpath: str) -> None:
    """Write `samples` as a truth dir that `load_pan_truth_dir` reads back
    as they are; every sample is checked before any file is written."""
    truth_lines = []
    for sample in samples:
        if (not sample.id or sample.id != sample.id.strip()
                or any(bad in sample.id for bad in (TRUTH_SEP, "\n", "\r") + _ID_BREAKS)):
            raise DataError(f"sample id {sample.id!r}: a truth dir cannot hold an empty id, "
                            f"{TRUTH_SEP!r}, a line break, a path separator, NUL, a tab "
                            f"or surrounding whitespace")
        labels = sample.labels
        if labels.gender is None:
            raise DataError(f"sample {sample.id!r}: this layout cannot omit gender")
        fields = [sample.id, labels.gender[0], labels.age_band or "XX"]
        if labels.traits is not None:
            missing = [t for t in TRAIT_NAMES if t not in labels.traits]
            if missing:
                raise DataError(f"sample {sample.id!r}: traits incomplete, missing {missing}")
            fields.extend(repr(labels.traits[t]) for t in TRAIT_NAMES)
        truth_lines.append(TRUTH_SEP.join(fields))
        for doc in sample.documents:
            if "\n" in doc.text or "\r" in doc.text:
                raise DataError(f"document {doc.id!r}: line-oriented layout cannot hold newlines")
    os.makedirs(dirpath, exist_ok=True)
    for sample in samples:
        write_lines(os.path.join(dirpath, sample.id + ".txt"), [doc.text for doc in sample.documents])
    write_lines(os.path.join(dirpath, "truth.txt"), truth_lines)


def _csv_rows(reader, path):
    """(row number, fields) for each record of a strict csv reader, the
    header being row 1.  What the csv module rejects (a quote left open at
    the end of the file, a stray quote, a field past its size limit)
    raises a DataError naming the file and the row."""
    rownum = 0
    try:
        for rownum, row in enumerate(reader, start=1):
            yield rownum, row
    except csv.Error as exc:
        raise DataError(f"{path}: row {rownum + 1}: malformed CSV: {exc}") from None


def load_flat_csv(spec: CorpusSpec) -> list[LabeledDocument]:
    """One labeled Document per data row, row order preserved."""
    if spec.format != "FlatCsv":
        raise ConfigError(f"load_flat_csv called with format {spec.format!r}")
    docs = []
    with open_text(spec.path, newline="") as fh:
        rows = _csv_rows(csv.reader(fh, delimiter=spec.delimiter, strict=True), spec.path)
        _, header = next(rows, (1, None))
        if header is None:
            raise DataError(f"{spec.path}: empty file, expected an id,gender,text header")
        columns = {}
        for required in ("id", "gender", "text"):
            if required not in header:
                raise DataError(f"{spec.path}: missing required column {required!r}")
            columns[required] = header.index(required)
        width = max(columns.values()) + 1
        for rownum, row in rows:
            if len(row) < width:
                raise DataError(f"{spec.path}: row {rownum}: expected at least {width} fields, got {len(row)}")
            gender_cell = row[columns["gender"]].strip()
            if not gender_cell:
                raise DataError(f"{spec.path}: row {rownum}: empty gender cell")
            try:
                gender = parse_gender(gender_cell)
            except ValueError as exc:
                raise DataError(f"{spec.path}: row {rownum}: {exc}") from None
            document = Document(id=row[columns["id"]], text=row[columns["text"]])
            docs.append(LabeledDocument(document=document, labels=LabelSet(gender=gender)))
    return docs


def save_flat_csv(docs: list[LabeledDocument], path: str, delimiter: str = CorpusSpec.delimiter) -> None:
    with open_text(path, "wt", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(["id", "gender", "text"])
        for doc in docs:
            if doc.labels.gender is None:
                raise DataError(f"document {doc.document.id!r}: this layout cannot omit gender")
            writer.writerow([doc.document.id, doc.labels.gender[0], doc.document.text])


# ---------------------------------------------------------------------------
# grouping and splitting

def group_into_samples(docs: list[LabeledDocument], k: int) -> list[Sample]:
    """Pool consecutive same-class documents into chunks of k.  A final
    short chunk per class is kept as its own sample, never merged."""
    if k < 1:
        raise ConfigError(f"chunk size must be >= 1, got {k}")
    if not docs:
        raise DataError("cannot group an empty document list")
    by_class: dict[tuple, list[LabeledDocument]] = {}
    for doc in docs:
        by_class.setdefault(doc.labels.class_key(), []).append(doc)
    samples = []
    for members in by_class.values():
        labels = members[0].labels
        tag = _class_tag(labels)
        for chunk_index, start in enumerate(range(0, len(members), k)):
            chunk = members[start : start + k]
            samples.append(Sample(
                id=f"{tag}#{chunk_index}",
                documents=[m.document for m in chunk],
                labels=labels,
            ))
    return samples


def _class_tag(labels: LabelSet) -> str:
    parts = []
    if labels.gender is not None:
        parts.append(labels.gender[0])
    if labels.age_band is not None:
        parts.append(render_age_band(labels.age_band))
    if labels.traits is not None:
        parts.append("T")
    return "|".join(parts)


def stratified_split(samples: list[Sample], train_fraction: float, seed: int,
                     key="gender") -> tuple[list[Sample], list[Sample]]:
    """Per class of the label `key` (gender or age_band), floor(train_fraction
    * n) samples go to train (at least one when the class has two or more),
    chosen by a seeded shuffle.  The returned lists keep the input order."""
    if key not in ("gender", "age_band"):
        raise ConfigError(f"unknown stratification label {key!r}")
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError(f"train fraction must lie in (0, 1), got {train_fraction}")
    if not samples:
        raise DataError("cannot split an empty sample list")
    by_class: dict[object, list[int]] = {}
    for index, sample in enumerate(samples):
        label = getattr(sample.labels, key)
        if label is None:
            raise DataError(f"sample {sample.id!r} lacks the stratification label")
        by_class.setdefault(label, []).append(index)
    # decimal-faithful fraction so that e.g. 0.29 * 100 floors to 29, not 28
    exact_fraction = Fraction(str(train_fraction))
    rng = random.Random(seed)
    train_indices = set()
    for indices in by_class.values():
        n = len(indices)
        n_train = math.floor(exact_fraction * n)
        if n >= 2 and n_train == 0:
            n_train = 1
        shuffled = list(indices)
        rng.shuffle(shuffled)
        train_indices.update(shuffled[:n_train])
    train = [s for i, s in enumerate(samples) if i in train_indices]
    test = [s for i, s in enumerate(samples) if i not in train_indices]
    return train, test
