"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the documented conventions
alone, in a different shape than the library code, so that agreement
between the two is evidence rather than tautology.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from styloprof.corpus import (Document, LabeledDocument, Sample, author_path, group_into_samples,
                              load_flat_csv, load_pan_truth_dir, truth_path)
from styloprof.errors import DataError
from styloprof.features import LINEAR, FeatureKey
from styloprof.normalize import normalize
from styloprof.pos import TaggedToken, fallback_tag, ingest_tagged_file, relabel, simple_tokenize

PAD = "_"


def ngram_reference(text: str, n_min: int, n_max: int) -> dict:
    """Brute-force padded character n-grams.

    Convention under test: whitespace tokens, one pad glyph per side,
    every window of each order sliced out, windows made of pad glyphs
    only are discarded.
    """
    counts: dict = {}
    for token in text.split():
        padded = f"{PAD}{token}{PAD}"
        for n in range(n_min, n_max + 1):
            windows = [padded[i : i + n] for i in range(len(padded) - n + 1)]
            for win in windows:
                if set(win) == {PAD}:
                    continue
                key = ("char", tuple(win))
                counts[key] = counts.get(key, 0) + 1
    return counts


def pos_ngram_reference(stream: list, n_min: int, n_max: int) -> dict:
    """Brute-force unpadded tag n-grams."""
    counts: dict = {}
    for n in range(n_min, n_max + 1):
        for i in range(len(stream) - n + 1):
            key = ("pos", tuple(stream[i : i + n]))
            counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# FeatureKey-keyed feature layer: every gram a FeatureKey(channel, tuple),
# one index over all keys.  The library keys grams by plain strings and
# tuples per channel instead; these pin that it builds the same
# vocabulary, file bytes and vectors, entry order included.

def featurekey_sample_counts(documents) -> tuple[Counter, Counter]:
    """Per-document reference counts, FeatureKey-keyed, pooled one
    document after another."""
    chars: Counter = Counter()
    tags: Counter = Counter()
    for doc in documents:
        chars.update({FeatureKey(*key): n for key, n in ngram_reference(doc.text, 1, 3).items()})
        tags.update({FeatureKey(*key): n
                     for key, n in pos_ngram_reference(list(doc.pos_tags), 1, 3).items()})
    return chars, tags


def featurekey_vocabulary_keys(samples, min_df: int) -> list:
    df: Counter = Counter()
    for char_counts, pos_counts in samples:
        seen = set(char_counts)
        seen.update(pos_counts)
        df.update(seen)
    return sorted(key for key, d in df.items() if d >= min_df)


def featurekey_vectorize(char_counts, pos_counts, keys, policy) -> dict:
    index = {key: col for col, key in enumerate(keys)}
    entries: dict = {}
    for counts, scale in ((char_counts, policy.char_scale), (pos_counts, policy.pos_scale)):
        for key, count in counts.items():
            col = index.get(key)
            if col is None or count == 0:
                continue
            entries[col] = float(count) if scale == LINEAR else math.log2(1.0 + count)
    return entries


# ---------------------------------------------------------------------------
# The fallback tagger one character and one token at a time: every chunk
# scanned for punctuation and symbols, each marker surface compared in
# turn.  The library skips the scan for letters-and-digits chunks and
# looks the markers up in one dict.

def _punct_or_symbols(text: str) -> bool:
    return all(unicodedata.category(c)[0] in ("P", "S") for c in text)


def reference_tokenize(text: str) -> list[str]:
    """Whitespace chunks with leading and trailing punctuation peeled off
    as one token each side; `@` and `#` stay on the word they start."""
    tokens = []
    for chunk in text.split():
        if _punct_or_symbols(chunk):
            tokens.append(chunk)
            continue
        i, j = 0, len(chunk)
        while i < j and _punct_or_symbols(chunk[i]) and chunk[i] not in "@#":
            i += 1
        while j > i and _punct_or_symbols(chunk[j - 1]) and chunk[j - 1] not in "@#":
            j -= 1
        tokens += [part for part in (chunk[:i], chunk[i:j], chunk[j:]) if part]
    return tokens


def reference_fallback_tag(tokens: list[str], lexicon: dict) -> list[tuple[str, str]]:
    """(surface, tag): the lowercased lexicon entry, else Z for numbers,
    F for punctuation and symbols only, N for anything else."""
    tagged = []
    for tok in tokens:
        tag = lexicon.get(tok.lower())
        if tag is None:
            if re.fullmatch(r"\d+(?:[.,]\d+)*", tok):
                tag = "Z"
            elif tok and _punct_or_symbols(tok):
                tag = "F"
            else:
                tag = "N"
        tagged.append((tok, tag))
    return tagged


def reference_relabel(tagged: list[tuple[str, str]]) -> list[str]:
    """REF tags for the mention and link markers and for hashtags, else
    the first letter of the tag uppercased, a REF tag kept whole; a token
    with neither raises `DataError`."""
    stream = []
    for surface, tag in tagged:
        if surface == "@us":
            stream.append("REF@USERNAME")
        elif surface == "htt":
            stream.append("REF#LINK")
        elif re.match(r"#\w+", surface):
            stream.append("REF#HASHTAG")
        elif not tag:
            raise DataError(f"token {surface!r} has no POS tag and no special form")
        elif tag.startswith("REF"):
            stream.append(tag)
        else:
            stream.append(tag[0].upper()[0])
    return stream


# ---------------------------------------------------------------------------
# Per-row loops over a `SparseMatrix`: one margin at a time, summed in
# Python, and the two primal objectives built on it.  The library computes
# all margins of a matrix in one numpy product instead.

def loop_margin(weights, bias, X, r: int) -> float:
    """Bias plus weight * value for each stored entry of row r, in order."""
    total = bias
    for k in range(X.indptr[r], X.indptr[r + 1]):
        total += weights[X.indices[k]] * X.entries[k]
    return float(total)


def hinge_objective(weights, bias, X, y, c_param: float) -> float:
    """0.5 (|w|^2 + b^2) + C sum_i max(0, 1 - y_i margin_i)."""
    reg = 0.5 * (float(weights @ weights) + bias * bias)
    loss = 0.0
    for r, label in enumerate(y):
        loss += max(0.0, 1.0 - label * loop_margin(weights, bias, X, r))
    return reg + c_param * loss


def epsilon_objective(weights, bias, X, targets, c_param: float, epsilon: float) -> float:
    """0.5 (|w|^2 + b^2) + C sum_i max(0, |margin_i - t_i| - eps)."""
    reg = 0.5 * (float(weights @ weights) + bias * bias)
    loss = 0.0
    for r, t in enumerate(targets):
        loss += max(0.0, abs(loop_margin(weights, bias, X, r) - t) - epsilon)
    return reg + c_param * loss


def random_hinge_instances(count: int, seed: int, dim: int = 3, max_points: int = 20):
    """Random small classification instances: (entries, labels) pairs.

    Each instance has 4..max_points points with sparse features in
    [-2, 2] over `dim` coordinates and both labels present.
    """
    rng = random.Random(seed)
    instances = []
    for _ in range(count):
        n = rng.randint(4, max_points)
        rows = []
        labels = []
        for _ in range(n):
            entries = {j: rng.uniform(-2.0, 2.0) for j in range(dim) if rng.random() < 0.8}
            rows.append(entries)
            labels.append(rng.choice([1, -1]))
        if all(lab == labels[0] for lab in labels):
            labels[0] = -labels[0]
        instances.append((rows, labels, dim))
    return instances


def subgradient_hinge_oracle(instances, c_param: float, steps: int = 10**6) -> np.ndarray:
    """Best objective value reached by projected subgradient descent.

    Minimizes 0.5 * ||v||^2 + C * sum_i max(0, 1 - y_i * v . x~_i) over the
    bias-augmented vector v, batched across all instances.  Step size
    1/(t+1) (the objective is 1-strongly convex); iterates are projected
    onto the ball ||v|| <= sqrt(2 * C * n), which contains the minimizer
    because the optimum value is at most the value at v = 0.  The best
    objective seen is tracked every few steps and at the tail.

    Padding: absent points get x~ = 0, y = +1, so they never move the
    gradient; each contributes a constant C to the padded objective,
    subtracted before returning.
    """
    n_inst = len(instances)
    max_n = max(len(rows) for rows, _, _ in instances)
    dim_aug = max(dim for _, _, dim in instances) + 1

    points = np.zeros((n_inst, max_n, dim_aug))
    labels = np.ones((n_inst, max_n))
    n_real = np.zeros(n_inst)
    for b, (rows, labs, dim) in enumerate(instances):
        n_real[b] = len(rows)
        for i, (entries, lab) in enumerate(zip(rows, labs)):
            for j, value in entries.items():
                points[b, i, j] = value
            points[b, i, dim_aug - 1] = 1.0
            labels[b, i] = lab

    signed = labels[:, :, None] * points
    scaled = c_param * signed
    radius = np.sqrt(2.0 * c_param * max_n)

    # batched matmuls over the instance axis b; vectors carry a unit axis
    # so each product is (b, n, d) @ (b, d, 1) or (b, 1, n) @ (b, n, d)
    v = np.zeros((n_inst, dim_aug, 1))
    v_row = v.reshape(n_inst, 1, dim_aug)
    sq_norm = np.zeros(n_inst)
    best = np.full(n_inst, np.inf)
    margins = np.empty((n_inst, max_n, 1))
    slack = np.empty((n_inst, max_n))
    active = np.empty((n_inst, 1, max_n))
    loss = np.empty((n_inst, 1, 1))
    pull = np.empty((n_inst, 1, dim_aug))
    value = np.empty(n_inst)
    scale = np.empty(n_inst)
    norm = np.empty(n_inst)
    sq_out = sq_norm.reshape(n_inst, 1, 1)

    for step in range(steps):
        np.matmul(signed, v, out=margins)
        np.subtract(1.0, margins[:, :, 0], out=slack)
        np.greater(slack, 0.0, out=active[:, 0, :])
        if step % 4 == 0 or step > steps - 2000:
            np.matmul(active, slack[:, :, None], out=loss)
            np.multiply(loss[:, 0, 0], c_param, out=value)
            value += 0.5 * sq_norm
            np.minimum(best, value, out=best)
        np.matmul(active, scaled, out=pull)
        eta = 1.0 / (step + 1.0)
        v *= 1.0 - eta
        pull *= eta
        v_row += pull
        np.matmul(v_row, v, out=sq_out)
        np.sqrt(sq_norm, out=norm)
        np.maximum(norm, 1e-30, out=norm)
        np.divide(radius, norm, out=scale)
        np.minimum(scale, 1.0, out=scale)
        v *= scale[:, None, None]
        scale *= scale
        sq_norm *= scale

    return best - c_param * (max_n - n_real)


def random_separable_instance(rng: random.Random, dim: int = 3, margin: float = 0.5):
    """A linearly separable instance with a comfortable margin."""
    true_w = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
    true_b = rng.uniform(-0.5, 0.5)
    rows = []
    labels = []
    while len(rows) < rng.randint(6, 16):
        entries = {j: rng.uniform(-3.0, 3.0) for j in range(dim)}
        score = sum(true_w[j] * entries[j] for j in range(dim)) + true_b
        if abs(score) < margin:
            continue
        rows.append(entries)
        labels.append(1 if score >= 0 else -1)
    if all(lab == labels[0] for lab in labels):
        return random_separable_instance(rng, dim, margin)
    return rows, labels, dim


# ---------------------------------------------------------------------------
# Per-family dual coordinate descent loops: the alpha-form hinge solver and
# the beta-form epsilon-insensitive solver, one loop each, as they stood
# before the library merged them into a single box-constrained core.  Each
# loop runs on one of two states: the weights w = sum_i b_i x_i, or the
# margins u = Q b for Q = X X' + 1 in plain Python lists, the kernel form
# that LIBSVM keeps.  The library must reproduce the loop on the state its
# n^2 <= nnz rule picks bit for bit: weights, bias and epoch counts.

def _reference_rows(X) -> list:
    """(columns, values) per row of a `SparseMatrix`, copied out of it."""
    bounds = X.indptr.tolist()
    return [(X.indices[a:b].copy(), X.entries[a:b].copy()) for a, b in zip(bounds, bounds[1:])]


def _weight_state(X):
    """Q's diagonal and margin(i), add(i, step), sweep(b), result(b) on
    the bias-augmented weights."""
    dim = X.dimension
    rows = _reference_rows(X)
    w = np.zeros(dim + 1)

    def margin(i):
        ind, val = rows[i]
        return float(w[ind] @ val) + w[dim]

    def add(i, step):
        ind, val = rows[i]
        w[ind] += step * val
        w[dim] += step

    def sweep(b):
        pass

    def result(b):
        return w[:dim], float(w[dim])

    return [float(v @ v) + 1.0 for _, v in rows], margin, add, sweep, result


def _gram_state(X):
    """The same five on the margins u = Q b.  Q[i][j] sums the products
    at the columns rows i and j share, in column order, plus 1; after
    every sweep u is summed again from b, and the result is w = X'b
    accumulated row after row with the exact sum of b as the bias."""
    rows = [dict(zip(ind.tolist(), val.tolist())) for ind, val in _reference_rows(X)]
    Q = []
    for a in rows:
        line = []
        for b in rows:
            total = 0.0
            for col in sorted(a.keys() & b.keys()):
                total += a[col] * b[col]
            line.append(total + 1.0)
        Q.append(line)
    u = [0.0] * len(rows)

    def margin(i):
        return u[i]

    def add(i, step):
        for k, q in enumerate(Q[i]):
            u[k] += step * q

    def sweep(b):
        for k, line in enumerate(Q):
            total = 0.0
            for q, coef in zip(line, b):
                total += q * coef
            u[k] = total

    def result(b):
        w = [0.0] * X.dimension
        for row, coef in zip(rows, b):
            for col, value in row.items():
                w[col] += coef * value
        return np.array(w), float(sum(Fraction(coef) for coef in b))

    return [line[i] for i, line in enumerate(Q)], margin, add, sweep, result


def reference_solve_hinge(X, y, cfg, gram=False):
    """L1-hinge SVM over alpha in [0, C]; returns (weights, bias, epochs,
    whether the last sweep met the tolerance)."""
    qii, margin, add, sweep, result = (_gram_state if gram else _weight_state)(X)
    c = cfg.c_param
    alpha = np.zeros(len(y))
    order = list(range(len(y)))
    rng = random.Random(cfg.seed)
    epochs = 0
    for _ in range(cfg.epochs):
        epochs += 1
        rng.shuffle(order)
        worst = 0.0
        for i in order:
            g = y[i] * margin(i) - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= c:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg != 0.0:
                worst = max(worst, abs(pg))
                new_a = min(max(a - g / qii[i], 0.0), c)
                delta = new_a - a
                if delta != 0.0:
                    alpha[i] = new_a
                    add(i, delta * y[i])
        sweep([label * a for label, a in zip(y, alpha)])
        if worst < cfg.tolerance:
            break
    return (*result([label * a for label, a in zip(y, alpha)]), epochs, worst < cfg.tolerance)


def reference_solve_eps(X, t, cfg, gram=False):
    """Epsilon-insensitive regression over beta in [-C, C]; returns
    (weights, bias, epochs, whether the last sweep met the tolerance)."""
    qii, margin, add, sweep, result = (_gram_state if gram else _weight_state)(X)
    c, eps = cfg.c_param, cfg.epsilon
    beta = np.zeros(len(t))
    order = list(range(len(t)))
    rng = random.Random(cfg.seed)
    epochs = 0
    for _ in range(cfg.epochs):
        epochs += 1
        rng.shuffle(order)
        worst = 0.0
        for i in order:
            g = margin(i) - t[i]
            gp, gn = g + eps, g - eps
            b = beta[i]
            if b >= c:
                violation = max(gp, 0.0)
            elif b <= -c:
                violation = max(-gn, 0.0)
            elif b > 0.0:
                violation = abs(gp)
            elif b < 0.0:
                violation = abs(gn)
            else:
                violation = max(-gp, gn, 0.0)
            worst = max(worst, violation)
            zp = b - gp / qii[i]
            zn = b - gn / qii[i]
            if zp > 0.0:
                new_b = min(zp, c)
            elif zn < 0.0:
                new_b = max(zn, -c)
            else:
                new_b = 0.0
            delta = new_b - b
            if delta != 0.0:
                beta[i] = new_b
                add(i, delta)
        sweep(beta.tolist())
        if worst < cfg.tolerance:
            break
    return (*result(beta.tolist()), epochs, worst < cfg.tolerance)


# ---------------------------------------------------------------------------
# Corpus preparation in two branches, one per layout, as it stood before
# the library took one sidecar loop for both: a flat file comes back as
# ungrouped documents plus its grouping_k, a truth dir as one sample per
# author, and `reference_as_samples` groups the former on demand.  The
# library groups at preparation and must give the same samples, documents,
# tags, labels, POS source, fingerprint and warnings.

@dataclass
class ReferencePrepared:
    samples: list | None
    docs: list | None
    grouping_k: int | None
    pos_source: str
    fingerprint: str


def _reference_sidecar(base: str):
    for candidate in (base + ".pos", base + ".pos.gz"):
        if os.path.exists(candidate):
            return candidate
    return None


def _reference_fingerprint(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(set(paths), key=os.path.basename):
        h.update(os.path.basename(path).encode("utf-8"))
        h.update(b"\x00")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _reference_streams(sidecar, n_docs, owner, rules):
    blocks = ingest_tagged_file(sidecar)
    if len(blocks) != n_docs:
        raise DataError(f"{sidecar}: {len(blocks)} tagged documents but {owner}")
    return [relabel([TaggedToken(normalize(tok.surface, rules).text, tok.fine_tag) for tok in block])
            for block in blocks]


def _reference_document(doc, rules, lexicon, stream):
    text = normalize(doc.text, rules).text
    tags = stream if stream is not None else relabel(fallback_tag(simple_tokenize(text), lexicon))
    return Document(id=doc.id, text=text, pos_tags=tuple(tags))


def reference_prepare_corpus(spec, rules, lexicon, warnings) -> ReferencePrepared:
    if spec.format == "FlatCsv":
        if not os.path.exists(spec.path):
            raise DataError(f"corpus file not found: {spec.path}")
        sidecar = _reference_sidecar(spec.path)
        fingerprint = _reference_fingerprint([spec.path] + ([sidecar] if sidecar else []))
        docs = load_flat_csv(spec)
        if sidecar:
            streams = _reference_streams(sidecar, len(docs), f"the corpus has {len(docs)} rows", rules)
            pos_source = "sidecar"
        else:
            streams = [None] * len(docs)
            pos_source = "fallback"
            warnings.append(f"no POS sidecar next to {spec.path}; used the fallback tagger")
        processed = [LabeledDocument(_reference_document(d.document, rules, lexicon, stream), d.labels)
                     for d, stream in zip(docs, streams)]
        return ReferencePrepared(None, processed, spec.grouping_k or 1, pos_source, fingerprint)

    if not os.path.isdir(spec.path):
        raise DataError(f"corpus directory not found: {spec.path}")
    samples = load_pan_truth_dir(spec)
    loaded = [truth_path(spec.path)]
    tagged = 0
    processed_samples = []
    for sample in samples:
        loaded.append(author_path(spec.path, sample.id))
        sidecar = _reference_sidecar(os.path.join(spec.path, sample.id))
        n_docs = len(sample.documents)
        if sidecar:
            loaded.append(sidecar)
            streams = _reference_streams(sidecar, n_docs, f"author {sample.id!r} has {n_docs}", rules)
            tagged += 1
        else:
            streams = [None] * n_docs
        processed_samples.append(Sample(
            id=sample.id, labels=sample.labels,
            documents=[_reference_document(doc, rules, lexicon, stream)
                       for doc, stream in zip(sample.documents, streams)]))
    if tagged == len(samples):
        pos_source = "sidecar"
    elif tagged == 0:
        pos_source = "fallback"
        warnings.append(f"no POS sidecars in {spec.path}; used the fallback tagger")
    else:
        pos_source = f"mixed({tagged}/{len(samples)} sidecars)"
        warnings.append(f"POS sidecars found for only {tagged} of {len(samples)} authors in {spec.path}")
    return ReferencePrepared(processed_samples, None, None, pos_source, _reference_fingerprint(loaded))


def reference_as_samples(prepared: ReferencePrepared, k=None) -> list:
    if prepared.samples is not None:
        return prepared.samples
    return group_into_samples(prepared.docs, k if k is not None else prepared.grouping_k)
