"""Independent checks of the program's outputs.

Nothing here imports styloprof.  Every expected value is computed from
the generator's own record of what it wrote (normalized text, POS
streams, labels, planted URLs and mentions) with code written apart from
the program: brute-force n-gram counting, a vocabulary rebuilt from
those counts, margins as counts · weights + bias, and the primal
objectives in numpy.  Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

import numpy as np

PAD = "_"
UNIT_SEP = "␟"
_ESCAPES = {"\\": "\\\\", UNIT_SEP: "\\U", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# n-gram recount

def _char_windows(text: str, windows: list) -> None:
    for token in text.split():
        padded = PAD + token + PAD
        for n in (1, 2, 3):
            windows.extend([padded[i:i + n] for i in range(len(padded) - n + 1)])


def _pos_windows(stream, windows: list) -> None:
    for n in (1, 2, 3):
        windows.extend([tuple(stream[i:i + n]) for i in range(len(stream) - n + 1)])


def sample_counts(texts, streams) -> tuple[Counter, Counter]:
    """Pooled counts of every window of 1 to 3 characters of every
    whitespace token padded with one `_` per side, except windows made
    of pads only, and of every window of 1 to 3 POS tags."""
    windows: list = []
    for text in texts:
        _char_windows(text, windows)
    chars = Counter(windows)
    for pad_only in [w for w in chars if not w.strip(PAD)]:
        del chars[pad_only]
    windows = []
    for stream in streams:
        _pos_windows(stream, windows)
    return chars, Counter(windows)


def check_recount(expected: dict, program: dict) -> list[str]:
    """`expected[sid] = (texts, streams)`; `program[sid]` holds the
    program's pooled counts as `{"char": [[gram, n]], "pos": [[units, n]]}`.
    Also checks the closed-form totals: 3L+1 char grams per token of
    length L and 3T-3 POS grams per document of T tags."""
    failures = []
    if not program:
        return ["no n-gram counts were dumped"]
    for sid, counts in program.items():
        if sid not in expected:
            failures.append(f"n-gram counts for unknown sample {sid}")
            continue
        texts, streams = expected[sid]
        chars, tags = sample_counts(texts, streams)
        got_chars = Counter({gram: n for gram, n in counts["char"]})
        got_tags = Counter({tuple(units): n for units, n in counts["pos"]})
        if got_chars != chars:
            failures.append(f"{sid}: char n-gram counts differ from the recount")
        if got_tags != tags:
            failures.append(f"{sid}: POS n-gram counts differ from the recount")
        char_total = sum(3 * len(tok) + 1 for text in texts for tok in text.split())
        pos_total = sum(3 * len(s) - 3 for s in streams)
        if sum(got_chars.values()) != char_total:
            failures.append(f"{sid}: {sum(got_chars.values())} char grams, expected sum(3L+1) = {char_total}")
        if sum(got_tags.values()) != pos_total:
            failures.append(f"{sid}: {sum(got_tags.values())} POS grams, expected sum(3T-3) = {pos_total}")
    return failures


# ---------------------------------------------------------------------------
# normalization

def check_rewrites(expected_lines, planted: dict, normalized_lines, log_lines) -> list[str]:
    """`styloprof normalize` output against the generator's normalized
    text, and its rewrite log's count per rule against `planted`."""
    failures = []
    if len(normalized_lines) != len(expected_lines):
        failures.append(f"normalize wrote {len(normalized_lines)} lines for {len(expected_lines)} documents")
    bad = sum(1 for got, want in zip(normalized_lines, expected_lines) if got != want)
    if bad:
        failures.append(f"{bad} normalized documents differ from the generator's text")
    per_rule = Counter(line.split("\t")[1] for line in log_lines if line)
    for rule in sorted(set(per_rule) | set(planted)):
        if per_rule[rule] != planted.get(rule, 0):
            failures.append(f"rule {rule}: {per_rule[rule]} rewrites logged, {planted.get(rule, 0)} planted")
    return failures


# ---------------------------------------------------------------------------
# vocabulary and vectors

def _escape(unit: str) -> str:
    return "".join(_ESCAPES.get(ch, ch) for ch in unit)


def key_line(key) -> str:
    channel, gram = key
    return f"{channel}\t{UNIT_SEP.join(_escape(u) for u in gram)}"


def vocabulary(train_counts, min_df: int) -> list:
    """Keys `("char", gram)` / `("pos", units)` present in at least
    `min_df` training samples, char keys first, each channel sorted."""
    df_char: Counter = Counter()
    df_pos: Counter = Counter()
    for chars, tags in train_counts:
        df_char.update(chars.keys())
        df_pos.update(tags.keys())
    chars = sorted(g for g, d in df_char.items() if d >= min_df)
    tags = sorted(g for g, d in df_pos.items() if d >= min_df)
    return [("char", g) for g in chars] + [("pos", g) for g in tags]


def vocab_hash(keys) -> str:
    h = hashlib.sha256()
    for key in keys:
        h.update(key_line(key).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def read_vocab_file(text: str) -> tuple[list, str]:
    """Keys of a `styloprof-vocab-v1` file and the hash of its key lines."""
    lines = text.splitlines()
    keys = []
    h = hashlib.sha256()
    for line in lines[1:]:
        channel, joined, _col = line.split("\t")
        h.update(f"{channel}\t{joined}\n".encode("utf-8"))
        units = tuple(joined.split(UNIT_SEP))
        keys.append((channel, "".join(units) if channel == "char" else units))
    return keys, h.hexdigest()


def matrix(counts, keys, pos_log2: bool):
    """Rows of (column, value) as flat numpy arrays: row ids, columns,
    values.  Char counts are linear; POS counts log2(1 + n) when asked."""
    index = {key: col for col, key in enumerate(keys)}
    rows, cols, vals = [], [], []
    for r, (chars, tags) in enumerate(counts):
        for gram, n in chars.items():
            col = index.get(("char", gram))
            if col is not None:
                rows.append(r)
                cols.append(col)
                vals.append(float(n))
        for gram, n in tags.items():
            col = index.get(("pos", gram))
            if col is not None:
                rows.append(r)
                cols.append(col)
                vals.append(math.log2(1.0 + n) if pos_log2 else float(n))
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            np.array(vals, dtype=np.float64), len(counts))


def margins(X, weights, bias):
    """Margins and the sum of absolute terms (the scale of rounding error)."""
    rows, cols, vals, n = X
    terms = vals * weights[cols]
    return (np.bincount(rows, weights=terms, minlength=n) + bias,
            np.bincount(rows, weights=np.abs(terms), minlength=n) + abs(bias))


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * (1.0 + abs(scale))


def check_margins(X, weights, bias, reported, positive, negative) -> list[str]:
    """`reported` is a list of (label, margin) per row of X."""
    mine, scale = margins(X, weights, bias)
    failures = []
    for r, (label, margin) in enumerate(reported):
        if not _close(margin, mine[r], scale[r]):
            failures.append(f"row {r}: margin {margin!r}, recomputed {mine[r]!r}")
        elif abs(mine[r]) > REL_TOL * (1.0 + scale[r]):
            want = positive if mine[r] >= 0.0 else negative
            if label != want:
                failures.append(f"row {r}: label {label}, margin {mine[r]!r} says {want}")
    return failures[:5] + ([f"... {len(failures) - 5} more"] if len(failures) > 5 else [])


def check_ovr(X, submodels, classes, reported) -> list[str]:
    """Age predictions: argmax of per-class margins, and its value."""
    per_class = [margins(X, w, b) for w, b in submodels]
    failures = []
    for r, (label, margin) in enumerate(reported):
        values = [m[0][r] for m in per_class]
        scale = max(m[1][r] for m in per_class)
        best = max(range(len(values)), key=lambda i: (values[i], -i))
        if not _close(margin, values[best], scale):
            failures.append(f"row {r}: max margin {margin!r}, recomputed {values[best]!r}")
        runner_up = max((v for i, v in enumerate(values) if i != best), default=-math.inf)
        if values[best] - runner_up > REL_TOL * (1.0 + scale) and label != classes[best]:
            failures.append(f"row {r}: label {label}, recomputed argmax {classes[best]}")
    return failures[:5] + ([f"... {len(failures) - 5} more"] if len(failures) > 5 else [])


def check_traits_values(X, regressors, reported, lo=-0.5, hi=0.5) -> list[str]:
    """`regressors[name] = (w, b)`; `reported` is a list of {name: value}."""
    failures = []
    for name, (w, b) in regressors.items():
        mine, scale = margins(X, w, b)
        for r, values in enumerate(reported):
            got = values[name]
            if not lo <= got <= hi:
                failures.append(f"row {r}: trait {name} = {got!r} outside [{lo}, {hi}]")
            elif not _close(got, min(max(mine[r], lo), hi), scale[r]):
                failures.append(f"row {r}: trait {name} = {got!r}, recomputed {mine[r]!r}")
    return failures[:5] + ([f"... {len(failures) - 5} more"] if len(failures) > 5 else [])


# ---------------------------------------------------------------------------
# solver objectives

def hinge_objective(X, y, weights, bias, c_param) -> float:
    m, _ = margins(X, weights, bias)
    loss = np.maximum(0.0, 1.0 - np.asarray(y, dtype=np.float64) * m).sum()
    return 0.5 * (float(weights @ weights) + bias * bias) + c_param * float(loss)


def epsilon_objective(X, targets, weights, bias, c_param, epsilon) -> float:
    m, _ = margins(X, weights, bias)
    loss = np.maximum(0.0, np.abs(m - np.asarray(targets, dtype=np.float64)) - epsilon).sum()
    return 0.5 * (float(weights @ weights) + bias * bias) + c_param * float(loss)


def check_objective(name: str, mine: float, history) -> list[str]:
    if not history:
        return [f"{name}: the solver reported no epoch objectives"]
    last = history[-1]
    if abs(mine - last) > 1e-8 * max(1.0, abs(mine)):
        return [f"{name}: last epoch objective {last!r}, recomputed {mine!r}"]
    return []


# ---------------------------------------------------------------------------
# scores

def accuracy(pred, truth) -> float:
    return sum(p == t for p, t in zip(pred, truth)) / len(truth)


def check_accuracy(pred, truth, reported: float) -> list[str]:
    """Recomputed accuracy equals the reported one and beats always
    answering the majority class of the evaluated samples."""
    failures = []
    if len(pred) != len(truth) or not truth:
        return [f"{len(pred)} predictions for {len(truth)} truths"]
    mine = accuracy(pred, truth)
    if mine != reported:
        failures.append(f"reported accuracy {reported!r}, recomputed {mine!r}")
    majority = max(Counter(truth).values()) / len(truth)
    if mine <= majority:
        failures.append(f"accuracy {mine:.4f} does not beat the majority-class rate {majority:.4f}")
    return failures


def rmse(pred, truth) -> float:
    return math.sqrt(sum((p - t) ** 2 for p, t in zip(pred, truth)) / len(truth))


def check_trait_rmse(pred_rows, truth_rows, train_rows, names, reported_mean: float) -> list[str]:
    """Mean per-trait RMSE equals the report and beats predicting each
    trait's training mean."""
    mine = sum(rmse([p[n] for p in pred_rows], [t[n] for t in truth_rows]) for n in names) / len(names)
    baseline = 0.0
    for n in names:
        mean = sum(row[n] for row in train_rows) / len(train_rows)
        baseline += rmse([mean] * len(truth_rows), [t[n] for t in truth_rows])
    baseline /= len(names)
    failures = []
    if abs(mine - reported_mean) > 1e-12:
        failures.append(f"reported mean trait RMSE {reported_mean!r}, recomputed {mine!r}")
    if mine >= baseline:
        failures.append(f"mean trait RMSE {mine:.4f} does not beat the training-mean predictor {baseline:.4f}")
    return failures


# ---------------------------------------------------------------------------
# program file readers (formats documented in the program's README)

def read_model(text: str) -> dict:
    lines = text.splitlines()
    kind = lines[0].split("\t")[1]
    fields = {}
    vectors = []
    for line in lines[1:]:
        tag, _, rest = line.partition("\t")
        if tag == "bias":
            vectors.append([float(rest), None])
        elif tag == "weights":
            vectors[-1][1] = np.array([float(v) for v in rest.split()], dtype=np.float64)
        else:
            fields[tag] = rest.split("\t")
    config = dict(part.split("=", 1) for part in fields["config"])
    return {
        "kind": kind,
        "vocab_hash": fields["vocab_hash"][0],
        "policy": tuple(fields["policy"]),
        "c_param": float(config["c_param"]),
        "epsilon": float(config["epsilon"]),
        "epochs": int(config["epochs"]),
        "labels": [tok[2:] for tok in fields.get("labels", fields.get("classes", []))],
        "traits": fields.get("traits"),
        "vectors": [(w, b) for b, w in vectors],
    }


def read_result(text: str) -> dict:
    """Key/value lines of a result file's provenance and metrics sections."""
    values = {}
    for line in text.split("\n## timing\n")[0].splitlines():
        parts = line.split("\t")
        if len(parts) == 2:
            values[parts[0]] = parts[1]
    return values
