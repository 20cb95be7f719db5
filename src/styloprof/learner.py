"""Linear max-margin models trained by dual coordinate descent.

Three model families share one solver core:

* binary SVM (L1 hinge loss) for gender,
* one-vs-rest SVM for the four age bands,
* epsilon-insensitive linear regression for the five personality traits.

The bias is handled by augmenting every vector with a constant-1
feature, so it is regularized together with the weights; all objective
values reported here include the bias in the regularizer.  Training is
deterministic for a fixed seed: the seed drives the per-epoch coordinate
permutations and nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import TRAIT_NAMES, TRAIT_MAX, TRAIT_MIN
from .errors import DataError
from .features import LINEAR, LOG2, ScalingPolicy, SparseVector

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
    c_param: float
    label_positive: object
    label_negative: object
    epoch_objectives: list[float] = field(default_factory=list, repr=False)


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
    epsilon: float
    c_param: float
    epoch_objectives: dict[str, list[float]] = field(default_factory=dict, repr=False)


# ---------------------------------------------------------------------------
# sparse input preparation

def _prepare(X: Sequence[SparseVector]):
    """Index/value arrays per sample, sorted by column, plus the shared
    dimension and the same entries laid out flat for whole-set margins:
    (rows that have entries, where each of them starts, columns, values).
    Rejects non-finite values and out-of-range columns."""
    if not X:
        raise DataError("empty training set")
    dim = X[0].dimension
    if dim < 1:
        raise DataError("feature dimension must be >= 1")
    idxs, vals = [], []
    for x in X:
        if x.dimension != dim:
            raise DataError(f"dimension mismatch: {x.dimension} vs {dim}")
        ind = np.fromiter(x.entries.keys(), dtype=np.int64, count=len(x.entries))
        val = np.fromiter(x.entries.values(), dtype=np.float64, count=len(x.entries))
        if ind.size:
            if ind.min() < 0 or ind.max() >= dim:
                raise DataError("feature column outside vector dimension")
            if not np.all(np.isfinite(val)):
                raise DataError("non-finite feature value")
            order = np.argsort(ind, kind="stable")
            ind, val = ind[order], val[order]
        idxs.append(ind)
        vals.append(val)
    lengths = np.array([ind.size for ind in idxs])
    nonempty = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[nonempty]
    return dim, idxs, vals, (nonempty, starts, np.concatenate(idxs), np.concatenate(vals))


def _margin(weights: np.ndarray, bias: float, x: SparseVector) -> float:
    if x.dimension != weights.shape[0]:
        raise DataError(f"dimension mismatch: vector has {x.dimension}, model has {weights.shape[0]}")
    total = bias
    for col, value in x.entries.items():
        total += weights[col] * value
    return float(total)


# ---------------------------------------------------------------------------
# objectives (bias included in the regularizer, see module docstring)

def hinge_objective(weights: np.ndarray, bias: float, X: Sequence[SparseVector],
                    y: Sequence[int], c_param: float) -> float:
    reg = 0.5 * (float(weights @ weights) + bias * bias)
    loss = 0.0
    for x, label in zip(X, y):
        loss += max(0.0, 1.0 - label * _margin(weights, bias, x))
    return reg + c_param * loss


def epsilon_objective(weights: np.ndarray, bias: float, X: Sequence[SparseVector],
                      targets: Sequence[float], c_param: float, epsilon: float) -> float:
    reg = 0.5 * (float(weights @ weights) + bias * bias)
    loss = 0.0
    for x, t in zip(X, targets):
        loss += max(0.0, abs(_margin(weights, bias, x) - t) - epsilon)
    return reg + c_param * loss


def _margins(w, dim, flat, n) -> np.ndarray:
    """Margins of all n samples in one pass over the flat layout."""
    nonempty, starts, cols, values = flat
    margins = np.full(n, w[dim])
    if starts.size:
        margins[nonempty] += np.add.reduceat(values * w[cols], starts)
    return margins


# einsum, not `w @ w`: past 10,000 columns BLAS wakes a worker thread
# that then spins for the rest of training
def _primal_hinge(w, dim, flat, y: np.ndarray, c_param) -> float:
    loss = np.maximum(0.0, 1.0 - y * _margins(w, dim, flat, y.size)).sum()
    return 0.5 * float(np.einsum("i,i->", w, w)) + c_param * float(loss)


def _primal_eps(w, dim, flat, t: np.ndarray, c_param, epsilon) -> float:
    loss = np.maximum(0.0, np.abs(_margins(w, dim, flat, t.size) - t) - epsilon).sum()
    return 0.5 * float(np.einsum("i,i->", w, w)) + c_param * float(loss)


# ---------------------------------------------------------------------------
# solvers

def _solve_hinge(dim, idxs, vals, flat, y, cfg: TrainConfig):
    """Dual coordinate descent on the L1-hinge SVM.  Each coordinate step
    minimizes the dual exactly; stops when no projected-gradient
    violation reaches the tolerance over a full sweep."""
    n = len(y)
    c = cfg.c_param
    y_arr = np.asarray(y, dtype=np.float64)
    w = np.zeros(dim + 1)
    alpha = np.zeros(n)
    qii = [float(v @ v) + 1.0 for v in vals]
    order = list(range(n))
    rng = random.Random(cfg.seed)
    objectives = []
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        worst = 0.0
        for i in order:
            ind, val = idxs[i], vals[i]
            margin = float(w[ind] @ val) + w[dim]
            g = y[i] * margin - 1.0
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
                    w[ind] += (delta * y[i]) * val
                    w[dim] += delta * y[i]
        objectives.append(_primal_hinge(w, dim, flat, y_arr, c))
        if worst < cfg.tolerance:
            break
    return w, objectives


def _solve_eps(dim, idxs, vals, flat, t, cfg: TrainConfig):
    """Dual coordinate descent on the epsilon-insensitive regression,
    one box-constrained coefficient per sample in [-C, C]."""
    n = len(t)
    c = cfg.c_param
    eps = cfg.epsilon
    t_arr = np.asarray(t, dtype=np.float64)
    w = np.zeros(dim + 1)
    beta = np.zeros(n)
    qii = [float(v @ v) + 1.0 for v in vals]
    order = list(range(n))
    rng = random.Random(cfg.seed)
    objectives = []
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        worst = 0.0
        for i in order:
            ind, val = idxs[i], vals[i]
            g = float(w[ind] @ val) + w[dim] - t[i]
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
                w[ind] += delta * val
                w[dim] += delta
        objectives.append(_primal_eps(w, dim, flat, t_arr, c, eps))
        if worst < cfg.tolerance:
            break
    return w, objectives


# ---------------------------------------------------------------------------
# public training and prediction

def train_binary(X: Sequence[SparseVector], y: Sequence[int], cfg: TrainConfig,
                 label_positive=1, label_negative=-1) -> LinearModel:
    if len(X) != len(y):
        raise DataError(f"{len(X)} vectors but {len(y)} labels")
    if len(X) < 2:
        raise DataError("need at least two training samples")
    if any(label not in (1, -1) for label in y):
        raise DataError("binary labels must be +1 or -1")
    signs = [int(label) for label in y]
    if len(set(signs)) < 2:
        raise DataError("training data contains a single class; both classes are required")
    dim, idxs, vals, flat = _prepare(X)
    w, objectives = _solve_hinge(dim, idxs, vals, flat, signs, cfg)
    return LinearModel(weights=w[:dim].copy(), bias=float(w[dim]), c_param=cfg.c_param,
                       label_positive=label_positive, label_negative=label_negative,
                       epoch_objectives=objectives)


def predict_binary(model: LinearModel, x: SparseVector):
    """(class, margin); the boundary itself goes to the positive class."""
    margin = _margin(model.weights, model.bias, x)
    label = model.label_positive if margin >= 0.0 else model.label_negative
    return label, margin


def train_ovr(X: Sequence[SparseVector], y: Sequence, cfg: TrainConfig,
              classes: Sequence | None = None) -> OneVsRestModel:
    """One binary model per class (that class against the rest); class
    order is first appearance in the training labels."""
    if len(X) != len(y):
        raise DataError(f"{len(X)} vectors but {len(y)} labels")
    seen = list(dict.fromkeys(y))
    if classes is None:
        classes = seen
    else:
        classes = list(classes)
        missing = [c for c in classes if c not in seen]
        if missing:
            raise DataError(f"classes absent from training data: {missing}")
        unknown = [c for c in seen if c not in classes]
        if unknown:
            raise DataError(f"training labels outside the declared classes: {unknown}")
    if len(classes) < 2:
        raise DataError("one-vs-rest training needs at least two distinct classes")
    models = []
    for cls in classes:
        y_bin = [1 if label == cls else -1 for label in y]
        models.append(train_binary(X, y_bin, cfg, label_positive=cls, label_negative=REST_LABEL))
    return OneVsRestModel(classes=classes, models=models)


def ovr_margins(model: OneVsRestModel, x: SparseVector) -> list[float]:
    return [_margin(m.weights, m.bias, x) for m in model.models]


def predict_ovr(model: OneVsRestModel, x: SparseVector):
    """Argmax of per-class margins; ties go to the earliest class."""
    margins = ovr_margins(model, x)
    best = 0
    for i in range(1, len(margins)):
        if margins[i] > margins[best]:
            best = i
    return model.classes[best]


def _target_rows(targets) -> list[dict[str, float]]:
    rows = []
    for row in targets:
        if isinstance(row, Mapping):
            values = {name: float(row[name]) for name in TRAIT_NAMES if name in row}
            if len(values) != len(TRAIT_NAMES):
                missing = [n for n in TRAIT_NAMES if n not in row]
                raise DataError(f"trait targets missing {missing}")
        else:
            seq = list(row)
            if len(seq) != len(TRAIT_NAMES):
                raise DataError(f"expected {len(TRAIT_NAMES)} trait values, got {len(seq)}")
            values = {name: float(v) for name, v in zip(TRAIT_NAMES, seq)}
        for name, value in values.items():
            if not (TRAIT_MIN <= value <= TRAIT_MAX):
                raise DataError(f"trait {name} target {value} outside [{TRAIT_MIN}, {TRAIT_MAX}]")
        rows.append(values)
    return rows


def train_traits(X: Sequence[SparseVector], targets, cfg: TrainConfig) -> TraitRegressor:
    """Five independent epsilon-insensitive regressions, one per trait."""
    rows = _target_rows(targets)
    if len(X) != len(rows):
        raise DataError(f"{len(X)} vectors but {len(rows)} target rows")
    dim, idxs, vals, flat = _prepare(X)
    weights, biases, histories = {}, {}, {}
    for name in TRAIT_NAMES:
        t = [row[name] for row in rows]
        w, objectives = _solve_eps(dim, idxs, vals, flat, t, cfg)
        weights[name] = w[:dim].copy()
        biases[name] = float(w[dim])
        histories[name] = objectives
    return TraitRegressor(weights=weights, biases=biases, epsilon=cfg.epsilon,
                          c_param=cfg.c_param, epoch_objectives=histories)


def predict_traits(model: TraitRegressor, x: SparseVector) -> dict[str, float]:
    """Per-trait prediction clamped to the trait range."""
    out = {}
    for name in TRAIT_NAMES:
        raw = _margin(model.weights[name], model.biases[name], x)
        out[name] = min(max(raw, TRAIT_MIN), TRAIT_MAX)
    return out


# ---------------------------------------------------------------------------
# model files

@dataclass
class ModelBundle:
    kind: str  # binary | ovr | traits
    vocab_hash: str
    policy: ScalingPolicy
    config: TrainConfig
    model: object


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
    parts = text.split() if text else []
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
    from .corpus import open_text

    if bundle.kind not in ("binary", "ovr", "traits"):
        raise DataError(f"unknown model kind {bundle.kind!r}")
    cfg = bundle.config
    lines = [
        f"{MODEL_FORMAT}\t{bundle.kind}",
        f"vocab_hash\t{bundle.vocab_hash or '-'}",
        f"policy\t{bundle.policy.char_scale}\t{bundle.policy.pos_scale}",
        (f"config\tc_param={cfg.c_param!r}\tepochs={cfg.epochs}"
         f"\ttolerance={cfg.tolerance!r}\tseed={cfg.seed}\tepsilon={cfg.epsilon!r}"),
    ]
    if bundle.kind == "binary":
        model = bundle.model
        lines.append(f"dim\t{model.weights.shape[0]}")
        lines.append(f"labels\t{_encode_label(model.label_positive)}\t{_encode_label(model.label_negative)}")
        lines.append(f"bias\t{model.bias!r}")
        lines.append(f"weights\t{_format_weights(model.weights)}")
    elif bundle.kind == "ovr":
        model = bundle.model
        lines.append(f"dim\t{model.models[0].weights.shape[0]}")
        lines.append("classes\t" + "\t".join(_encode_label(c) for c in model.classes))
        for sub in model.models:
            lines.append(f"bias\t{sub.bias!r}")
            lines.append(f"weights\t{_format_weights(sub.weights)}")
    else:
        model = bundle.model
        lines.append(f"dim\t{model.weights[TRAIT_NAMES[0]].shape[0]}")
        lines.append("traits\t" + "\t".join(TRAIT_NAMES))
        for name in TRAIT_NAMES:
            lines.append(f"bias\t{model.biases[name]!r}")
            lines.append(f"weights\t{_format_weights(model.weights[name])}")
    with open_text(path, "wt", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


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
    from .corpus import open_text

    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty model file")
    head = lines[0].split("\t")
    if head[0] != MODEL_FORMAT:
        raise DataError(f"{path}: unsupported model format {head[0]!r}, expected {MODEL_FORMAT}")
    if len(head) != 2 or head[1] not in ("binary", "ovr", "traits"):
        raise DataError(f"{path}: malformed model header")
    kind = head[1]
    reader = _LineReader(lines, path)
    reader.pos = 1
    (vocab_hash,) = reader.take("vocab_hash", 1)
    char_scale, pos_scale = reader.take("policy", 2)
    if char_scale not in (LINEAR, LOG2) or pos_scale not in (LINEAR, LOG2):
        raise DataError(f"{path}: unknown scaling in policy line")
    policy = ScalingPolicy(char_scale, pos_scale)
    try:
        cfg_fields = dict(part.split("=", 1) for part in reader.take("config"))
        cfg = TrainConfig(c_param=float(cfg_fields["c_param"]), epochs=int(cfg_fields["epochs"]),
                          tolerance=float(cfg_fields["tolerance"]), seed=int(cfg_fields["seed"]),
                          epsilon=float(cfg_fields["epsilon"]))
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: malformed config line") from exc
    (dim_token,) = reader.take("dim", 1)
    try:
        dim = int(dim_token)
    except ValueError:
        raise DataError(f"{path}: malformed dimension {dim_token!r}") from None

    def read_vector():
        (bias_token,) = reader.take("bias", 1)
        weight_parts = reader.take("weights")
        text = weight_parts[0] if weight_parts else ""
        try:
            return _parse_finite(bias_token, "bias"), _parse_weights(text, dim)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None

    if kind == "binary":
        pos_token, neg_token = reader.take("labels", 2)
        bias, weights = read_vector()
        model = LinearModel(weights=weights, bias=bias, c_param=cfg.c_param,
                            label_positive=_decode_label(pos_token),
                            label_negative=_decode_label(neg_token))
    elif kind == "ovr":
        classes = [_decode_label(tok) for tok in reader.take("classes")]
        submodels = []
        for cls in classes:
            bias, weights = read_vector()
            submodels.append(LinearModel(weights=weights, bias=bias, c_param=cfg.c_param,
                                         label_positive=cls, label_negative=REST_LABEL))
        model = OneVsRestModel(classes=classes, models=submodels)
    else:
        names = tuple(reader.take("traits"))
        if names != TRAIT_NAMES:
            raise DataError(f"{path}: unexpected trait list {names}")
        weights, biases = {}, {}
        for name in TRAIT_NAMES:
            bias, vector = read_vector()
            biases[name] = bias
            weights[name] = vector
        model = TraitRegressor(weights=weights, biases=biases,
                               epsilon=cfg.epsilon, c_param=cfg.c_param)
    if reader.pos != len(lines):
        raise DataError(f"{path}: trailing content after model body")
    bundle = ModelBundle(kind=kind, vocab_hash=vocab_hash, policy=policy, config=cfg, model=model)
    if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
        raise DataError(f"{path}: model was trained against vocabulary {vocab_hash[:12]}…, "
                        f"expected {expected_vocab_hash[:12]}…")
    return bundle
