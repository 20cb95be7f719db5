"""Corpus loading, document grouping and reproducible splits.

Two on-disk layouts are supported, both optionally gzip-compressed
(selected by a ``.gz`` extension):

* a truth directory: ``truth.txt`` with lines
  ``authorid:::gender:::ageband[:::E:::N:::A:::C:::O]`` next to one text
  file per author holding one document per line;
* a flat delimited file with header ``id,gender,text`` and RFC-4180
  quoting.

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
from typing import Iterable

from .errors import ConfigError, DataError

GENDERS = ("Female", "Male")
AGE_BANDS = ("18-24", "25-34", "35-49", "50-XX")
TRAIT_NAMES = ("E", "N", "A", "C", "O")
TRAIT_MIN, TRAIT_MAX = -0.5, 0.5

FORMATS = ("PanTruthDir", "FlatCsv")
LANGUAGES = ("es", "en", "it", "nl")

TRUTH_SEP = ":::"
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
        if self.format not in FORMATS:
            raise ConfigError(f"unknown corpus format {self.format!r}; expected one of {FORMATS}")
        if self.language not in LANGUAGES:
            raise ConfigError(f"unsupported language {self.language!r}; expected one of {LANGUAGES}")
        if self.grouping_k is not None and self.grouping_k < 1:
            raise ConfigError(f"grouping_k must be a positive integer, got {self.grouping_k}")


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

def truth_path(dirpath: str) -> str:
    for name in ("truth.txt", "truth.txt.gz"):
        candidate = os.path.join(dirpath, name)
        if os.path.exists(candidate):
            return candidate
    raise DataError(f"{dirpath}: missing truth.txt")


def author_path(dirpath: str, author_id: str) -> str:
    for name in (author_id + ".txt", author_id + ".txt.gz"):
        candidate = os.path.join(dirpath, name)
        if os.path.exists(candidate):
            return candidate
    raise DataError(f"{dirpath}: no document file for author {author_id!r}")


def _parse_truth_line(line: str, where: str) -> tuple[str, LabelSet]:
    parts = line.split(TRUTH_SEP)
    if len(parts) not in (3, 8):
        raise DataError(f"{where}: expected 3 or 8 ':::'-separated fields, got {len(parts)}")
    author_id = parts[0].strip()
    if not author_id:
        raise DataError(f"{where}: empty author id")
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
                value = float(token)
            except ValueError:
                raise DataError(f"{where}: unparsable {name} trait value {token!r}") from None
            if not (TRAIT_MIN <= value <= TRAIT_MAX):
                raise DataError(f"{where}: trait {name} = {value} outside [{TRAIT_MIN}, {TRAIT_MAX}]")
            traits[name] = value
    return author_id, LabelSet(gender=gender, age_band=age_band, traits=traits)


def load_pan_truth_dir(spec: CorpusSpec) -> list[Sample]:
    """One Sample per truth.txt line, documents in author-file order."""
    if spec.format != "PanTruthDir":
        raise ConfigError(f"load_pan_truth_dir called with format {spec.format!r}")
    truth = truth_path(spec.path)
    samples = []
    listed: dict[str, int] = {}
    with open_text(truth) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            author_id, labels = _parse_truth_line(line, f"{truth}:{lineno}")
            if author_id in listed:
                raise DataError(f"{truth}:{lineno}: author {author_id!r} already listed "
                                f"on line {listed[author_id]}")
            listed[author_id] = lineno
            doc_path = author_path(spec.path, author_id)
            with open_text(doc_path) as doc_fh:
                texts = doc_fh.read().splitlines()
            if not texts:
                raise DataError(f"{doc_path}: author file is empty")
            documents = [Document(id=f"{author_id}:{i}", text=text) for i, text in enumerate(texts)]
            samples.append(Sample(id=author_id, documents=documents, labels=labels))
    return samples


def save_pan_truth_dir(samples: list[Sample], dirpath: str) -> None:
    os.makedirs(dirpath, exist_ok=True)
    with open_text(os.path.join(dirpath, "truth.txt"), "wt", newline="") as truth_fh:
        for sample in samples:
            labels = sample.labels
            if labels.gender is None:
                raise DataError(f"sample {sample.id!r}: this layout cannot omit gender")
            fields = [sample.id, labels.gender[0], labels.age_band or "XX"]
            if labels.traits is not None:
                missing = [t for t in TRAIT_NAMES if t not in labels.traits]
                if missing:
                    raise DataError(f"sample {sample.id!r}: traits incomplete, missing {missing}")
                fields.extend(repr(labels.traits[t]) for t in TRAIT_NAMES)
            truth_fh.write(TRUTH_SEP.join(fields) + "\n")
            with open_text(os.path.join(dirpath, sample.id + ".txt"), "wt", newline="") as doc_fh:
                for doc in sample.documents:
                    if "\n" in doc.text or "\r" in doc.text:
                        raise DataError(f"document {doc.id!r}: line-oriented layout cannot hold newlines")
                    doc_fh.write(doc.text + "\n")


def load_flat_csv(spec: CorpusSpec) -> list[LabeledDocument]:
    """One labeled Document per data row, row order preserved."""
    if spec.format != "FlatCsv":
        raise ConfigError(f"load_flat_csv called with format {spec.format!r}")
    docs = []
    with open_text(spec.path, newline="") as fh:
        reader = csv.reader(fh, delimiter=spec.delimiter)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{spec.path}: empty file, expected an id,gender,text header")
        columns = {}
        for required in ("id", "gender", "text"):
            if required not in header:
                raise DataError(f"{spec.path}: missing required column {required!r}")
            columns[required] = header.index(required)
        width = max(columns.values()) + 1
        for rownum, row in enumerate(reader, start=2):
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


def save_flat_csv(docs: list[LabeledDocument], path: str, delimiter: str = ",") -> None:
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


def _label_getter(key: str):
    if key == "gender":
        return lambda sample: sample.labels.gender
    if key == "age_band":
        return lambda sample: sample.labels.age_band
    raise ConfigError(f"unknown stratification label {key!r}")


def stratified_split(samples: list[Sample], train_fraction: float, seed: int,
                     key="gender") -> tuple[list[Sample], list[Sample]]:
    """Per class, floor(train_fraction * n) samples go to train (at least
    one when the class has two or more), chosen by a seeded shuffle.  The
    returned lists keep the input order."""
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError(f"train fraction must lie in (0, 1), got {train_fraction}")
    if not samples:
        raise DataError("cannot split an empty sample list")
    getter = _label_getter(key)
    by_class: dict[object, list[int]] = {}
    for index, sample in enumerate(samples):
        label = getter(sample)
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
