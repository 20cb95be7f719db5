"""Synthetic labeled corpora with planted stylistic class markers.

Used by the end-to-end tests and the shipped demo configs: real corpora
are license-gated, so experiments are exercised on generated comments
where one class carries a distinctive emoticon and the other carries
character flooding.  Everything is seeded and reproducible.
"""

from __future__ import annotations

import random

from .corpus import Document, LabeledDocument, LabelSet, save_flat_csv

# neutral filler both classes share
_WORDS = (
    "hoy", "casa", "tarde", "amigo", "cosa", "gente", "tiempo", "nuevo",
    "mejor", "luego", "siempre", "nunca", "vamos", "gracias", "quiero",
    "bueno", "entonces", "claro", "mucho", "poco",
)

_EMOTICONS = (":)", ":D", "^^")
_FLOOD_PUNCT = ("!", "?")


def _filler(rng: random.Random) -> list[str]:
    return [rng.choice(_WORDS) for _ in range(rng.randint(6, 14))]


def _plant_emoticon(words: list[str], rng: random.Random) -> None:
    for _ in range(rng.randint(1, 3)):
        words.insert(rng.randrange(len(words) + 1), rng.choice(_EMOTICONS))


def _plant_flooding(words: list[str], rng: random.Random) -> None:
    j = rng.randrange(len(words))
    words[j] = words[j] + words[j][-1] * rng.randint(3, 6)
    words.insert(rng.randrange(len(words) + 1), rng.choice(_FLOOD_PUNCT) * rng.randint(3, 6))


def marker_corpus(n_docs: int = 400, seed: int = 0, marker_rate: float = 1.0) -> list[LabeledDocument]:
    """Alternating Female/Male comments; with probability `marker_rate`
    a Female comment gets emoticons and a Male comment gets flooding."""
    rng = random.Random(seed)
    docs = []
    for i in range(n_docs):
        female = i % 2 == 0
        words = _filler(rng)
        if rng.random() < marker_rate:
            if female:
                _plant_emoticon(words, rng)
            else:
                _plant_flooding(words, rng)
        docs.append(LabeledDocument(
            document=Document(id=f"d{i:04d}", text=" ".join(words)),
            labels=LabelSet(gender="Female" if female else "Male"),
        ))
    return docs


def write_marker_csv(path, n_docs: int = 400, seed: int = 0, marker_rate: float = 1.0) -> None:
    save_flat_csv(marker_corpus(n_docs=n_docs, seed=seed, marker_rate=marker_rate), path)

