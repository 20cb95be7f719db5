"""Linear max-margin models trained by dual coordinate descent.

Three model families share one solver core, `_solve`: exact one-coordinate
steps (Hsieh et al., ICML 2008) on min 1/2 b'Qb - t'b + eps |b|_1 over
lo <= b <= hi, the form both the hinge and the epsilon-insensitive duals
take (Ho & Lin, JMLR 2012).  The families differ only in t, eps and the box:

* binary SVM (L1 hinge loss) for gender: t = y, eps = 0, box [0, C] for
  y = +1 and [-C, 0] for y = -1 (b = y alpha);
* one-vs-rest SVM for the four age bands: one binary problem per class;
* epsilon-insensitive linear regression for the five personality traits:
  t = the targets, box [-C, C].

The solver keeps its state in one of two forms, chosen per training
matrix of n samples and shared by every problem trained on it:

* the row form keeps w = sum_i b_i x_i; a margin gathers row i of X and
  a step scatters a multiple of it back, as LIBLINEAR does;
* the Gram form keeps the margins u = Qb of Q = X X' + 1, as LIBSVM does
  (Chang & Lin, ACM TIST 2011); a margin reads u[i] and a step adds a
  multiple of Q's row i, so it costs O(n) however long the rows are.
  After every sweep u is summed again from b, and w = X'b is formed once
  at the end.

The Gram form is used when n^2 <= nnz(X), which keeps Q no larger than
X, and when n <= 4 * epochs, so that building Q (about n nnz / 2 entries
read) never reads more than the whole row-form solve (2 nnz per sweep)
(`_prepare`).  A few dozen samples of pooled tweets each pass, a
thousand rows trained for 20 epochs do not.  Both forms visit the
coordinates in the same order, and their steps differ only in rounding.

The bias is handled by augmenting every vector with a constant-1
feature, so it is regularized together with the weights; all objective
values reported here include the bias in the regularizer.  Training is
deterministic for a fixed seed: the seed drives the per-epoch coordinate
permutations and nothing else.

Every model is k linear heads, as LIBLINEAR stores its models (Fan et
al., JMLR 2008): one (bias, weights) pair per head, one head for a
binary model's two labels, one per class for one-vs-rest and one per
trait for regression.  `_heads` gives that layout, and `_model`, the one
constructor behind the trainers and `load_model`, builds a model from
it; the training config is kept once, in `ModelBundle.config`.  A model
file holds the header lines (kind, `vocab_hash`, `policy`, `config`,
`dim`), the labels line (`labels`, `classes` or `traits`), then a
`bias` and a `weights` line per head.

Every family trains on and predicts from one `SparseMatrix`, the
compressed sparse rows `features.vectorize` builds.  `margins` computes
X W' + b for a stack of weight vectors; it gives both the row form's
per-epoch primal objective and the predictions, one product over a
model's heads that `predict` decodes per model kind: the sign for a
binary model, the first argmax for one-vs-rest and a clamp to the trait
range for the regressors.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import TRAIT_NAMES, TRAIT_MAX, TRAIT_MIN, key_values, read_lines, write_lines
from .errors import DataError
from .features import LINEAR, LOG2, ScalingPolicy, SparseMatrix

MODEL_FORMAT = "styloprof-model-v1"
REST_LABEL = "rest"


@dataclass(frozen=True)
class TrainConfig:
    c_param: float = 1.0
    epochs: int = 50
    tolerance: float = 1e-4
    seed: int = 0
    epsilon: float = 0.1  # regression only

    def __post_init__(self):
        for name in ("c_param", "tolerance", "epsilon"):
            if not np.isfinite(getattr(self, name)):
                raise DataError(f"{name} must be finite, got {getattr(self, name)}")
        if self.c_param <= 0:
            raise DataError(f"c_param must be positive, got {self.c_param}")
        if self.epochs < 1:
            raise DataError(f"epochs must be a positive integer, got {self.epochs}")
        if self.tolerance <= 0:
            raise DataError(f"tolerance must be positive, got {self.tolerance}")
        if self.epsilon < 0:
            raise DataError(f"epsilon must be non-negative, got {self.epsilon}")


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    label_positive: object
    label_negative: object
    epoch_objectives: list[float] = field(default_factory=list, repr=False)
    # met the tolerance before the epoch cap; None when read from a file
    converged: bool | None = field(default=None, repr=False)


@dataclass
class OneVsRestModel:
    classes: list
    models: list[LinearModel]

    def __post_init__(self):
        if len(self.models) != len(self.classes) or len(self.classes) < 2:
            raise DataError("one-vs-rest model needs one submodel per class and >= 2 classes")


@dataclass
class TraitRegressor:
    weights: dict[str, np.ndarray]
    biases: dict[str, float]
    epoch_objectives: dict[str, list[float]] = field(default_factory=dict, repr=False)
    converged: dict[str, bool | None] = field(default_factory=dict, repr=False)


class _Head(NamedTuple):
    """One linear head, as `_solve` returns it: the weights and the bias,
    with the primal objective after every epoch and whether the last epoch
    met the tolerance (empty and None for a head read from a file)."""
    weights: np.ndarray
    bias: float
    objectives: Sequence[float] = ()
    converged: bool | None = None


def _heads(model) -> tuple[str, list, list[_Head]]:
    """Every model as k linear heads: the tag of its labels line, its
    labels and its heads in file order.  A binary model has one head for
    its positive and negative label, a one-vs-rest model one per class
    and a trait regressor one per trait.  `_model` is the inverse."""
    if isinstance(model, TraitRegressor):
        return "traits", list(TRAIT_NAMES), [
            _Head(model.weights[name], model.biases[name], model.epoch_objectives.get(name, ()),
                  model.converged.get(name)) for name in TRAIT_NAMES]
    if isinstance(model, OneVsRestModel):
        return "classes", model.classes, [_heads(sub)[2][0] for sub in model.models]
    return "labels", [model.label_positive, model.label_negative], [
        _Head(model.weights, model.bias, model.epoch_objectives, model.converged)]


def _model(tag: str, labels: Sequence, heads: Sequence[_Head]):
    """The one constructor behind the trainers and `load_model`: the model
    whose labels line has `tag` and `labels`, with `heads` in file order."""
    if tag == "labels":
        (head,) = heads
        positive, negative = labels
        return LinearModel(weights=head.weights, bias=head.bias, label_positive=positive,
                           label_negative=negative, epoch_objectives=list(head.objectives),
                           converged=head.converged)
    if tag == "classes":
        return OneVsRestModel(classes=list(labels), models=[
            _model("labels", (cls, REST_LABEL), [head]) for cls, head in zip(labels, heads)])
    if tuple(labels) != TRAIT_NAMES:
        raise DataError(f"unexpected trait list {tuple(labels)}")
    named = dict(zip(labels, heads))
    return TraitRegressor(weights={name: head.weights for name, head in named.items()},
                          biases={name: head.bias for name, head in named.items()},
                          epoch_objectives={name: list(head.objectives) for name, head in named.items()},
                          converged={name: head.converged for name, head in named.items()})


# ---------------------------------------------------------------------------
# margins and the primal objective (bias included in the regularizer, see
# module docstring)

def margins(X: SparseMatrix, weights: np.ndarray, biases) -> np.ndarray:
    """X W' + b: one row per sample of X and one column per row of the
    (models, dimension) `weights`."""
    weights = np.atleast_2d(weights)
    if weights.shape[1] != X.dimension:
        raise DataError(f"dimension mismatch: matrix has {X.dimension} columns, "
                        f"model has {weights.shape[1]}")
    out = np.tile(np.asarray(biases, dtype=np.float64), (len(X), 1))
    nonempty = np.diff(X.indptr) > 0
    if X.entries.size:
        out[nonempty] += np.add.reduceat(np.take(weights, X.indices, axis=1) * X.entries,
                                         X.indptr[:-1][nonempty], axis=1).T
    return out


def _primal(sq_norm: float, m: np.ndarray, t: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            eps) -> float:
    """Primal objective of `_solve`'s problem from |w|^2 (bias included)
    and the margins m: per sample max(hi (r - eps), lo (r + eps), 0) with
    r = t - m, which is C max(0, 1 - y margin) for the hinge and
    C max(0, |margin - t| - eps) for regression."""
    r = t - m
    loss = np.maximum(np.maximum(hi * (r - eps), lo * (r + eps)), 0.0).sum()
    return 0.5 * sq_norm + float(loss)


# ---------------------------------------------------------------------------
# the solver's two forms (module docstring).  Each keeps the state of one
# solve at a time: `start` resets it, `margin` reads sample i's margin,
# `step` writes back a change of b_i, `sweep` gives |w|^2 and every margin
# for the primal, and `weights` maps b to the weights and bias.

class _RowForm:
    """w = sum_i b_i x_i, the bias last, kept in full: a margin gathers
    row i of X and a step scatters a multiple of it back."""

    def __init__(self, X: SparseMatrix):
        self.X = X
        self.rows = [X.row(r) for r in range(len(X))]
        self.qii = [float(v @ v) + 1.0 for _, v in self.rows]

    def start(self) -> None:
        self.w = np.zeros(self.X.dimension + 1)

    def margin(self, i: int):
        ind, val = self.rows[i]
        return float(self.w[ind] @ val) + self.w.item(-1)

    def step(self, i: int, delta: float) -> None:
        ind, val = self.rows[i]
        self.w[ind] += delta * val
        self.w[-1] += delta

    # einsum, not `w @ w`: past 10,000 columns BLAS wakes a worker thread
    # that then spins for the rest of training
    def sweep(self, beta: list) -> tuple[float, np.ndarray]:
        w = self.w
        return float(np.einsum("i,i->", w, w)), margins(self.X, w[:-1], w[-1:])[:, 0]

    def weights(self, beta: list) -> tuple[np.ndarray, float]:
        return self.w[:-1].copy(), float(self.w[-1])


class _GramForm:
    """u = Qb for the Gram matrix Q = X X' + 1 kept in full: a margin reads
    u[i] and a step adds a multiple of Q's row i, whatever the rows'
    lengths.  Q is built once, a row at a time, with every x_i . x_j
    summed in column order; no dense copy of X and no BLAS call."""

    def __init__(self, X: SparseMatrix):
        n = len(X)
        self.X = X
        self.counts = np.diff(X.indptr)
        owner = np.repeat(np.arange(n), self.counts)
        Q = np.empty((n, n))
        dense = np.zeros(X.dimension)
        for i in range(n):
            start, end = X.indptr[i], X.indptr[i + 1]
            dense[X.indices[start:end]] = X.entries[start:end]
            products = dense[X.indices[start:]]
            products *= X.entries[start:]
            Q[i, i:] = np.bincount(owner[start:], weights=products, minlength=n)[i:]
            Q[i:, i] = Q[i, i:]
            dense[X.indices[start:end]] = 0.0
        Q += 1.0
        self.Q = Q
        self.qii = Q.diagonal().tolist()

    def start(self) -> None:
        self.u = np.zeros(len(self.Q))

    def margin(self, i: int):
        return self.u.item(i)

    def step(self, i: int, delta: float) -> None:
        self.u += delta * self.Q[i]

    def sweep(self, beta: list) -> tuple[float, np.ndarray]:
        """b'Qb, which is |w|^2, and u recomputed from b in sequence, so
        that the steps' rounding does not build up."""
        beta = np.array(beta)
        self.u = np.cumsum(self.Q * beta, axis=1)[:, -1].copy()
        return float(np.einsum("i,i->", beta, self.u)), self.u

    def weights(self, beta: list) -> tuple[np.ndarray, float]:
        """w = X'b, each column summed in row order, and the bias sum(b)."""
        X = self.X
        w = np.bincount(X.indices, weights=X.entries * np.repeat(beta, self.counts),
                        minlength=X.dimension)
        return w, math.fsum(beta)


def _prepare(X: SparseMatrix, epochs: int):
    """The form to solve on X for up to `epochs` sweeps, shared by every
    problem trained on it: the Gram form when no average row is shorter
    than the sample count (n^2 <= nnz), which keeps Q no larger than X,
    and when building Q, n nnz / 2 entries read, costs no more than the
    row form's whole solve, 2 nnz entries per sweep (n <= 4 epochs); the
    row form otherwise.  Both are bounds from entry counts alone, not a
    timing of either form."""
    n = len(X)
    if n == 0:
        raise DataError("empty training set")
    return _GramForm(X) if n * n <= X.indptr[-1] and n <= 4 * epochs else _RowForm(X)


# ---------------------------------------------------------------------------
# solver

def _solve(form, t, lo, hi, eps, cfg: TrainConfig):
    """Dual coordinate descent (module docstring) with Q_ij = x_i . x_j + 1
    and w = sum_i b_i x_i, on either form.  Stops once a full sweep finds
    no projected-gradient violation reaching the tolerance, or at the
    epoch cap.  Returns a `_Head`: the weights, the bias, the primal
    objective after every sweep and whether the last sweep met the tolerance."""
    arrays = [np.asarray(v, dtype=np.float64) for v in (t, lo, hi)]
    qii, margin, step = form.qii, form.margin, form.step
    form.start()
    beta = [0.0] * len(t)
    order = list(range(len(t)))
    rng = random.Random(cfg.seed)
    objectives = []
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        worst = 0.0
        for i in order:
            g = margin(i) - t[i]
            gp, gn = g + eps, g - eps
            b = beta[i]
            if b >= hi[i]:
                violation = max(gp, 0.0)
            elif b <= lo[i]:
                violation = max(-gn, 0.0)
            elif b > 0.0:
                violation = abs(gp)
            elif b < 0.0:
                violation = abs(gn)
            else:
                violation = max(-gp, gn, 0.0)
            if violation == 0.0:  # the step below would not move b
                continue
            worst = max(worst, violation)
            zp = b - gp / qii[i]
            zn = b - gn / qii[i]
            if zp > 0.0:
                new_b = min(zp, hi[i])
            elif zn < 0.0:
                new_b = max(zn, lo[i])
            else:
                new_b = 0.0
            delta = new_b - b
            if delta != 0.0:
                beta[i] = new_b
                step(i, delta)
        objectives.append(_primal(*form.sweep(beta), *arrays, eps))
        if worst < cfg.tolerance:
            break
    return _Head(*form.weights(beta), objectives, bool(worst < cfg.tolerance))


# ---------------------------------------------------------------------------
# public training and prediction

def _fit_hinge(form, signs: list[int], cfg: TrainConfig) -> _Head:
    """L1-hinge SVM: t = y, eps = 0 and the box b = y alpha, alpha in [0, C]."""
    c = cfg.c_param
    lo = [0.0 if s > 0 else -c for s in signs]
    hi = [c if s > 0 else 0.0 for s in signs]
    return _solve(form, signs, lo, hi, 0.0, cfg)


def train_binary(X: SparseMatrix, y: Sequence[int], cfg: TrainConfig,
                 label_positive=1, label_negative=-1) -> LinearModel:
    if len(X) != len(y):
        raise DataError(f"{len(X)} rows but {len(y)} labels")
    if len(X) < 2:
        raise DataError("need at least two training samples")
    if any(label not in (1, -1) for label in y):
        raise DataError("binary labels must be +1 or -1")
    signs = [int(label) for label in y]
    if len(set(signs)) < 2:
        raise DataError("training data contains a single class; both classes are required")
    return _model("labels", (label_positive, label_negative),
                  [_fit_hinge(_prepare(X, cfg.epochs), signs, cfg)])


def train_ovr(X: SparseMatrix, y: Sequence, cfg: TrainConfig) -> OneVsRestModel:
    """One binary model per class (that class against the rest); class
    order is first appearance in the training labels."""
    if len(X) != len(y):
        raise DataError(f"{len(X)} rows but {len(y)} labels")
    classes = list(dict.fromkeys(y))
    if len(classes) < 2:
        raise DataError("one-vs-rest training needs at least two distinct classes")
    form = _prepare(X, cfg.epochs)
    return _model("classes", classes, [_fit_hinge(form, [1 if label == cls else -1 for label in y], cfg)
                                       for cls in classes])


def _target_rows(targets: Sequence[Mapping]) -> list[dict[str, float]]:
    rows = []
    for row in targets:
        if not isinstance(row, Mapping):
            raise DataError(f"trait targets must map trait names to values, got {type(row).__name__}")
        missing = [name for name in TRAIT_NAMES if name not in row]
        if missing:
            raise DataError(f"trait targets missing {missing}")
        values = {name: float(row[name]) for name in TRAIT_NAMES}
        for name, value in values.items():
            if not (TRAIT_MIN <= value <= TRAIT_MAX):
                raise DataError(f"trait {name} target {value} outside [{TRAIT_MIN}, {TRAIT_MAX}]")
        rows.append(values)
    return rows


def train_traits(X: SparseMatrix, targets: Sequence[Mapping], cfg: TrainConfig) -> TraitRegressor:
    """Five independent epsilon-insensitive regressions, one per trait."""
    rows = _target_rows(targets)
    if len(X) != len(rows):
        raise DataError(f"{len(X)} rows but {len(rows)} target rows")
    form = _prepare(X, cfg.epochs)
    lo, hi = [-cfg.c_param] * len(rows), [cfg.c_param] * len(rows)
    return _model("traits", TRAIT_NAMES, [_solve(form, [row[name] for row in rows], lo, hi,
                                                 cfg.epsilon, cfg) for name in TRAIT_NAMES])


def predict(model, X: SparseMatrix) -> list:
    """One prediction per row of X, from one `margins` product: (class,
    margin) for a binary model, the boundary itself going to the positive
    class; (class, margin) of the first class with the largest margin for
    one-vs-rest; a trait -> value dict, each clamped to the trait range,
    for a regressor.  Margins and values are Python floats."""
    tag, labels, heads = _heads(model)
    # np.stack would copy a binary model's one weight vector on every call
    weights = heads[0].weights if len(heads) == 1 else np.stack([head.weights for head in heads])
    values = margins(X, weights, [head.bias for head in heads])
    if tag == "traits":
        return [dict(zip(labels, row)) for row in np.clip(values, TRAIT_MIN, TRAIT_MAX).tolist()]
    if tag == "classes":
        return [(labels[best], top)
                for best, top in zip(values.argmax(axis=1).tolist(), values.max(axis=1).tolist())]
    positive, negative = labels
    return [(positive if v >= 0.0 else negative, v) for v in values[:, 0].tolist()]


# ---------------------------------------------------------------------------
# model files

@dataclass
class ModelBundle:
    kind: str  # binary | ovr | traits
    vocab_hash: str
    policy: ScalingPolicy
    config: TrainConfig
    model: object


# model kind -> the tag of its labels line in a model file
_LABELS_TAG = {"binary": "labels", "ovr": "classes", "traits": "traits"}
# the config line's keys, in the order save_model writes them
_CONFIG_KEYS = ("c_param", "epochs", "tolerance", "seed", "epsilon")


def _encode_label(label) -> str:
    if isinstance(label, bool):
        raise DataError("boolean class labels are not supported")
    if isinstance(label, int):
        return f"i:{label}"
    label = str(label)
    if any(ch in label for ch in "\t\n\r"):
        raise DataError(f"class label {label!r} contains control characters")
    return f"s:{label}"


def _decode_label(token: str):
    if token.startswith("i:"):
        try:
            return int(token[2:])
        except ValueError:
            raise DataError(f"malformed integer class label {token!r}") from None
    if token.startswith("s:"):
        return token[2:]
    raise DataError(f"malformed class label token {token!r}")


def _format_weights(weights: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in weights)


def _parse_weights(text: str, dim: int) -> np.ndarray:
    parts = text.split()
    if len(parts) != dim:
        raise DataError(f"expected {dim} weights, got {len(parts)}")
    try:
        weights = np.array([float(p) for p in parts], dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"malformed weight: {exc}") from None
    if not np.all(np.isfinite(weights)):
        raise DataError("non-finite weight")
    return weights


def _parse_finite(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"malformed {what} {token!r}") from None
    if not np.isfinite(value):
        raise DataError(f"non-finite {what} {token!r}")
    return value


def save_model(bundle: ModelBundle, path) -> None:
    """The header, the training config, `dim`, the labels line, then a
    `bias` and a `weights` line per head (`_heads`)."""
    if bundle.kind not in _LABELS_TAG:
        raise DataError(f"unknown model kind {bundle.kind!r}")
    tag, labels, heads = _heads(bundle.model)
    if tag != _LABELS_TAG[bundle.kind]:
        raise DataError(f"a {bundle.kind!r} bundle cannot hold a {type(bundle.model).__name__}")
    cfg = bundle.config
    lines = [
        f"{MODEL_FORMAT}\t{bundle.kind}",
        f"vocab_hash\t{bundle.vocab_hash or '-'}",
        f"policy\t{bundle.policy.char_scale}\t{bundle.policy.pos_scale}",
        (f"config\tc_param={cfg.c_param!r}\tepochs={cfg.epochs}"
         f"\ttolerance={cfg.tolerance!r}\tseed={cfg.seed}\tepsilon={cfg.epsilon!r}"),
        f"dim\t{heads[0].weights.shape[0]}",
        "\t".join([tag, *(labels if tag == "traits" else map(_encode_label, labels))]),
    ]
    for head in heads:
        lines.append(f"bias\t{head.bias!r}")
        lines.append(f"weights\t{_format_weights(head.weights)}")
    write_lines(path, lines)


class _LineReader:
    def __init__(self, lines, path):
        self.lines = lines
        self.path = path
        self.pos = 0

    def take(self, tag: str, count: int | None = None) -> list[str]:
        """Fields after `tag` on the next line; exactly `count` if given."""
        if self.pos >= len(self.lines):
            raise DataError(f"{self.path}: truncated model file, expected a {tag!r} line")
        parts = self.lines[self.pos].split("\t")
        if parts[0] != tag:
            raise DataError(f"{self.path}: expected a {tag!r} line, found {parts[0]!r}")
        if count is not None and len(parts) - 1 != count:
            raise DataError(f"{self.path}: {tag!r} line needs {count} field(s), found {len(parts) - 1}")
        self.pos += 1
        return parts[1:]


def load_model(path, expected_vocab_hash: str | None = None) -> ModelBundle:
    lines = read_lines(path)
    if not lines:
        raise DataError(f"{path}: empty model file")
    head = lines[0].split("\t")
    if head[0] != MODEL_FORMAT:
        raise DataError(f"{path}: unsupported model format {head[0]!r}, expected {MODEL_FORMAT}")
    if len(head) != 2 or head[1] not in _LABELS_TAG:
        raise DataError(f"{path}: malformed model header")
    kind = head[1]
    reader = _LineReader(lines, path)
    reader.pos = 1
    (vocab_hash,) = reader.take("vocab_hash", 1)
    vocab_hash = "" if vocab_hash == "-" else vocab_hash  # how save_model writes no hash
    char_scale, pos_scale = reader.take("policy", 2)
    if char_scale not in (LINEAR, LOG2) or pos_scale not in (LINEAR, LOG2):
        raise DataError(f"{path}: unknown scaling in policy line")
    policy = ScalingPolicy(char_scale, pos_scale)
    cfg_fields = reader.take("config")
    try:
        c_param, epochs, tolerance, seed, epsilon = key_values(cfg_fields, _CONFIG_KEYS)
        cfg = TrainConfig(c_param=float(c_param), epochs=int(epochs), tolerance=float(tolerance),
                          seed=int(seed), epsilon=float(epsilon))
    except (DataError, ValueError) as exc:
        raise DataError(f"{path}: malformed config line: {exc}") from None
    (dim_token,) = reader.take("dim", 1)
    try:
        dim = int(dim_token)
    except ValueError:
        raise DataError(f"{path}: malformed dimension {dim_token!r}") from None
    if dim < 1:
        raise DataError(f"{path}: dimension must be >= 1, got {dim}")

    def read_head() -> _Head:
        (bias_token,) = reader.take("bias", 1)
        (text,) = reader.take("weights", 1)
        try:
            bias = _parse_finite(bias_token, "bias")
            return _Head(_parse_weights(text, dim), bias)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None

    tag = _LABELS_TAG[kind]
    # a binary model's positive and negative label share its one head
    tokens = reader.take(tag, 2 if tag == "labels" else None)
    labels = tokens if tag == "traits" else [_decode_label(token) for token in tokens]
    heads = [read_head() for _ in range(1 if tag == "labels" else len(labels))]
    try:
        model = _model(tag, labels, heads)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if reader.pos != len(lines):
        raise DataError(f"{path}: trailing content after model body")
    bundle = ModelBundle(kind=kind, vocab_hash=vocab_hash, policy=policy, config=cfg, model=model)
    if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
        raise DataError(f"{path}: model was trained against vocabulary {vocab_hash[:12]}…, "
                        f"expected {expected_vocab_hash[:12]}…")
    return bundle
