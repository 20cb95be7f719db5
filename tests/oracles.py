"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the documented conventions
alone, in a different shape than the library code, so that agreement
between the two is evidence rather than tautology.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

from styloprof.features import LINEAR, FeatureKey

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
