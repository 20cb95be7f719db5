"""Seeded Zipfian tweet generator for the benchmark workloads.

The generator knows, for every document it writes, what the program
should make of it: the normalized text, the whitespace tokens the
character n-grams run over, the reduced POS stream (fallback tagger or
sidecar), and how many URLs and mentions it planted.  The independent
checks in ``checks.py`` compare the program's outputs against these.

Text is built from a fixed word inventory (the "language": syllable
words ranked by a Zipf law, with a lexicon category per word) so that
every seed sees the same language; the seed draws the documents, the
labels, the class-leaning word sets and the sidecar authors.

The profiled phenomena are planted as separate whitespace tokens:
mentions, URLs, hashtags, capitals and shouting, emoticons and emoji,
character flooding of words and punctuation, numbers, and trailing
punctuation attached to words.  Word types never contain ``_``, ``@``,
``#``, ``htt`` or a character repeated three times, so every rewrite the
program makes is one the generator planted, and no word collides with a
normalization marker or a flooded form.

Only the standard library is used, so the inputs do not depend on the
numpy version.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass, field

LANGUAGE_SEED = 1702_06467
N_WORD_TYPES = 30000
N_FUNCTION_WORDS = 60
ZIPF_EXPONENT = 0.95
OUT_OF_LEXICON_SHARE = 0.1

GENDERS = ("F", "M")
AGE_BANDS = ("18-24", "25-34", "35-49", "50-XX")
TRAIT_NAMES = ("E", "N", "A", "C", "O")

MENTION_MARKER = "@us"
LINK_MARKER = "htt"
REF_USERNAME = "REF@USERNAME"
REF_LINK = "REF#LINK"
REF_HASHTAG = "REF#HASHTAG"

_ONSETS = ("b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v", "z", "j", "ñ",
           "b", "c", "d", "l", "m", "n", "p", "r", "s", "t", "", "k", "w", "y", "h", "x",
           "ch", "ll", "br", "cr", "dr", "fr", "gr", "pr", "tr", "bl", "cl", "pl", "qu",
           "gu", "rr", "tl", "fl", "gl", "kr", "sk", "st")
_VOWELS = ("a", "e", "i", "o", "u", "a", "e", "o", "a", "e", "o", "á", "é", "í", "ó", "ú",
           "ia", "ie", "io", "ue", "ua", "ai", "ei", "à", "è", "ü", "ou", "eu", "ay", "oy")
_CODAS = ("", "", "", "", "", "", "n", "s", "r", "l", "d", "z", "k", "t", "m", "x", "ns", "rs")
_FUNCTION_CATEGORIES = ("D", "S", "C", "P")
_CONTENT_CATEGORIES = ("N",) * 10 + ("V",) * 5 + ("A",) * 3 + ("R",) * 2
FINE_TAGS = {
    "N": ("NCMS000", "NCFS000", "NCMP000", "NCFP000"),
    "V": ("VMIP3S0", "VMIP1S0", "VMN0000", "VMG0000"),
    "A": ("AQ0MS0", "AQ0FS0", "AQ0CP0"),
    "R": ("RG", "RN"),
    "D": ("DA0MS0", "DA0FS0", "DI0MS0"),
    "S": ("SP",),
    "C": ("CC", "CS"),
    "P": ("PP3MS000", "PR0CN000"),
    "F": ("Fc", "Fp", "Fat", "Fit", "Fs"),
    "I": ("I",),
    "Z": ("Z",),
}
_EMOTICONS = (":)", ":(", ";)", "^^", ":-)", ":'(", "😂", "😍", "👍", "😭", "🙏")
_ATTACHED_PUNCT = (",", ",", ".", ".", "!", "?", "...", "!!")
_FLOOD_PUNCT = ("!", "?")
_HANDLE_PARTS = ("ana", "luis", "mari", "pepe", "sofi", "javi", "lau", "dani", "edu", "nere",
                 "Carlos", "Lucia", "Pablo", "Irene", "Toni", "Bea", "Raul", "Sara")
_ALNUM = "abcdefghijkmnpqrstuvwxyzABCDEFGHJKLMNPQRSTUVWXYZ23456789"


def _forbidden(word: str) -> bool:
    if any(ch in word for ch in "_@#") or "htt" in word or "http" in word:
        return True
    return any(word[i] == word[i + 1] == word[i + 2] for i in range(len(word) - 2))


@dataclass(frozen=True)
class Language:
    """Fixed word inventory: words ranked by frequency, a category per
    word, and the lexicon file's subset of them."""

    words: tuple[str, ...]
    category: dict
    lexicon: dict
    cum_weights: tuple[float, ...]


def build_language() -> Language:
    rng = random.Random(LANGUAGE_SEED)
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < N_WORD_TYPES:
        n_syll = 1 if len(words) < N_FUNCTION_WORDS else rng.choice((1, 2, 2, 2, 2, 3, 3, 4))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                       for _ in range(n_syll))
        if len(word) < 2 or word in seen or _forbidden(word):
            continue
        seen.add(word)
        words.append(word)
    category = {}
    lexicon = {}
    for rank, word in enumerate(words):
        if rank < N_FUNCTION_WORDS:
            category[word] = _FUNCTION_CATEGORIES[rank % len(_FUNCTION_CATEGORIES)]
        else:
            category[word] = rng.choice(_CONTENT_CATEGORIES)
        if rank < N_FUNCTION_WORDS or rng.random() >= OUT_OF_LEXICON_SHARE:
            lexicon[word] = category[word]
    total = 0.0
    cum = []
    for rank in range(len(words)):
        total += 1.0 / (rank + 2.7) ** ZIPF_EXPONENT
        cum.append(total)
    return Language(words=tuple(words), category=category, lexicon=lexicon, cum_weights=tuple(cum))


# ---------------------------------------------------------------------------
# one tweet

@dataclass
class Style:
    """Per-tweet rates of the planted phenomena, plus extra word pools."""

    emoticon: float = 0.2
    flood: float = 0.15
    mention: float = 0.35
    url: float = 0.2
    hashtag: float = 0.2
    capital: float = 0.6
    shout: float = 0.02
    number: float = 0.1
    punct: float = 0.5
    lean_words: tuple = ()
    lean_rate: float = 0.0
    markers: list = field(default_factory=list)  # (word pool, per-tweet probability)


@dataclass
class Tweet:
    """One document and what the program should make of it.

    `pos` holds one entry per POS token: (raw surface, fallback category,
    sidecar category); categories are reduced tags or REF tags."""

    raw: str
    norm: str
    pos: list
    urls: int
    mentions: int


def _pos_entry(surface: str, norm_surface: str, fallback: str, sidecar: str):
    if norm_surface == MENTION_MARKER:
        return (surface, REF_USERNAME, REF_USERNAME)
    if norm_surface == LINK_MARKER:
        return (surface, REF_LINK, REF_LINK)
    if norm_surface.startswith("#"):
        return (surface, REF_HASHTAG, REF_HASHTAG)
    return (surface, fallback, sidecar)


def make_tweet(rng: random.Random, lang: Language, style: Style) -> Tweet:
    n_words = rng.randint(6, 18)
    words = rng.choices(lang.words, cum_weights=lang.cum_weights, k=n_words)
    if style.lean_rate:
        for i in range(n_words):
            if rng.random() < style.lean_rate:
                words[i] = rng.choice(style.lean_words)
    for pool, prob in style.markers:
        if rng.random() < prob:
            words.insert(rng.randrange(len(words) + 1), rng.choice(pool))

    # chunks: (raw chunk, normalized chunk, [pos entries])
    chunks = []
    flooded = rng.randrange(len(words)) if rng.random() < style.flood else -1
    for i, word in enumerate(words):
        cat = lang.category[word]
        fallback = lang.lexicon.get(word, "N")
        surface = word
        if i == flooded:
            surface = word + word[-1] * rng.randint(3, 5)
            fallback = "N"
        elif i == 0 and rng.random() < style.capital:
            surface = word[0].upper() + word[1:]
        elif rng.random() < style.shout:
            surface = word.upper()
        chunk_pos = [_pos_entry(surface, surface, fallback, cat)]
        chunk = surface
        if i == len(words) - 1 and rng.random() < style.punct or rng.random() < 0.06:
            mark = rng.choice(_ATTACHED_PUNCT)
            chunk = surface + mark
            chunk_pos.append(_pos_entry(mark, mark, "F", "F"))
        chunks.append([chunk, chunk, chunk_pos])

    def insert(raw: str, norm: str, fallback: str, sidecar: str):
        chunks.insert(rng.randrange(len(chunks) + 1), [raw, norm, [_pos_entry(raw, norm, fallback, sidecar)]])

    urls = mentions = 0
    if rng.random() < style.mention:
        for _ in range(rng.choice((1, 1, 2))):
            handle = rng.choice(_HANDLE_PARTS) + (str(rng.randint(1, 99)) if rng.random() < 0.6 else "")
            insert("@" + handle, MENTION_MARKER, "N", "N")
            mentions += 1
    if rng.random() < style.url:
        scheme = "https://t.co/" if rng.random() < 0.7 else "http://bit.ly/"
        insert(scheme + "".join(rng.choice(_ALNUM) for _ in range(rng.randint(6, 10))), LINK_MARKER, "N", "N")
        urls += 1
    if rng.random() < style.hashtag:
        tag = "#" + rng.choices(lang.words, cum_weights=lang.cum_weights, k=1)[0]
        insert(tag, tag, "N", "N")
    if rng.random() < style.emoticon:
        emo = rng.choice(_EMOTICONS)
        insert(emo, emo, "F", "I")
    if rng.random() < style.flood:
        run = rng.choice(_FLOOD_PUNCT) * rng.randint(3, 6)
        insert(run, run, "F", "F")
    if rng.random() < style.number:
        num = str(rng.randint(1, 2030))
        insert(num, num, "Z", "Z")

    raw = " ".join(c[0] for c in chunks)
    norm = " ".join(c[1] for c in chunks)
    pos = [entry for c in chunks for entry in c[2]]
    return Tweet(raw=raw, norm=norm, pos=pos, urls=urls, mentions=mentions)


# ---------------------------------------------------------------------------
# corpora

@dataclass
class FlatCorpus:
    """A FlatCsv corpus: one tweet per row, gender per row."""

    ids: list
    genders: list
    tweets: list


@dataclass
class Author:
    id: str
    gender: str
    age_band: str
    traits: dict
    tweets: list
    sidecar: bool


def _split_pools(rng: random.Random, lang: Language, n_pools: int, size: int, lo: int, hi: int):
    ranks = rng.sample(range(lo, hi), n_pools * size)
    return [tuple(lang.words[r] for r in ranks[i * size:(i + 1) * size]) for i in range(n_pools)]


def gender_pools(rng: random.Random, lang: Language) -> dict:
    """The word pool each gender leans to; drawn apart from the documents
    so that a training corpus and a fresh corpus can share it."""
    f_pool, m_pool = _split_pools(rng, lang, 2, 120, 80, 4000)
    return {"F": f_pool, "M": m_pool}


def gender_corpus(rng: random.Random, lang: Language, n_docs: int, pools: dict) -> FlatCorpus:
    """Balanced F/M tweets in random order.  F tweets lean to emoticons,
    M tweets to flooding, and each to its own word pool."""
    styles = {
        "F": Style(emoticon=0.35, flood=0.10, lean_words=pools["F"], lean_rate=0.25),
        "M": Style(emoticon=0.12, flood=0.35, lean_words=pools["M"], lean_rate=0.25),
    }
    genders = ["F", "M"] * (n_docs // 2) + ["F"] * (n_docs % 2)
    rng.shuffle(genders)
    tweets = [make_tweet(rng, lang, styles[g]) for g in genders]
    ids = [f"d{i:06d}" for i in range(n_docs)]
    return FlatCorpus(ids=ids, genders=genders, tweets=tweets)


def pan_corpus(rng: random.Random, lang: Language, n_authors: int, per_author: int,
               first_id: int = 0) -> list[Author]:
    """Authors with an age band and five traits; half carry a sidecar.

    Younger bands lean to emoticons, flooding and mentions, older ones to
    URLs and capitals, and each band to its own word pool.  Each trait has
    a marker pool whose per-tweet rate rises with the trait value."""
    band_pools = _split_pools(rng, lang, 4, 60, 80, 5000)
    trait_pools = _split_pools(rng, lang, 5, 12, 5000, 9000)
    band_rates = {
        "emoticon": (0.40, 0.26, 0.14, 0.06),
        "flood": (0.34, 0.22, 0.12, 0.05),
        "mention": (0.55, 0.40, 0.28, 0.18),
        "url": (0.08, 0.16, 0.26, 0.36),
        "capital": (0.25, 0.50, 0.70, 0.90),
    }
    bands = [AGE_BANDS[i % 4] for i in range(n_authors)]
    rng.shuffle(bands)
    genders = ["F", "M"] * (n_authors // 2) + ["F"] * (n_authors % 2)
    rng.shuffle(genders)
    sidecar_ids = set(rng.sample(range(n_authors), n_authors // 2))
    authors = []
    for i in range(n_authors):
        b = AGE_BANDS.index(bands[i])
        traits = {t: rng.randint(-5, 5) / 10 for t in TRAIT_NAMES}
        markers = [(trait_pools[j], traits[t] + 0.5) for j, t in enumerate(TRAIT_NAMES)] * 2
        style = Style(lean_words=band_pools[b], lean_rate=0.35, markers=markers,
                      **{name: rates[b] for name, rates in band_rates.items()})
        tweets = [make_tweet(rng, lang, style) for _ in range(per_author)]
        authors.append(Author(id=f"user{first_id + i:04d}", gender=genders[i], age_band=bands[i],
                              traits=traits, tweets=tweets, sidecar=i in sidecar_ids))
    return authors


def sidecar_lines(rng: random.Random, tweets) -> list[str]:
    """POS sidecar lines: `surface<TAB>fine_tag`, a blank line after each
    document.  Surfaces are raw; the program normalizes each one."""
    lines = []
    for tweet in tweets:
        for surface, _fallback, sidecar in tweet.pos:
            letter = sidecar if len(sidecar) == 1 else "N"
            lines.append(f"{surface}\t{rng.choice(FINE_TAGS[letter])}")
        lines.append("")
    return lines


# ---------------------------------------------------------------------------
# writers

def write_lexicon(lang: Language, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for word in lang.words:
            if word in lang.lexicon:
                fh.write(f"{word}\t{lang.lexicon[word]}\n")


def write_flat_csv(corpus: FlatCorpus, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "gender", "text"])
        for doc_id, gender, tweet in zip(corpus.ids, corpus.genders, corpus.tweets):
            writer.writerow([doc_id, gender, tweet.raw])


def write_pan_dir(rng: random.Random, authors: list[Author], dirpath) -> None:
    os.makedirs(dirpath, exist_ok=True)
    with open(os.path.join(dirpath, "truth.txt"), "w", encoding="utf-8", newline="") as truth:
        for a in authors:
            fields = [a.id, a.gender, a.age_band] + [f"{a.traits[t]:.1f}" for t in TRAIT_NAMES]
            truth.write(":::".join(fields) + "\n")
            with open(os.path.join(dirpath, a.id + ".txt"), "w", encoding="utf-8", newline="") as fh:
                fh.write("".join(t.raw + "\n" for t in a.tweets))
            if a.sidecar:
                with open(os.path.join(dirpath, a.id + ".pos"), "w", encoding="utf-8", newline="") as fh:
                    fh.write("\n".join(sidecar_lines(rng, a.tweets)) + "\n")
