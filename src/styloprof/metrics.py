"""Evaluation metrics: per-class precision/recall/F-score, accuracy, RMSE.

Conventions: confusion rows are truth and columns are predictions; a
zero denominator yields a score of 0 and sets a warning flag instead of
raising; F is the harmonic mean of P and R (0 when both are 0).
Reports keep the integer counts so exact rationals can be recovered
next to the 3-decimal renderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .corpus import TRAIT_NAMES
from .errors import DataError


@dataclass
class ConfusionMatrix:
    classes: list
    counts: list[list[int]]  # counts[i][j] = truth class i predicted as class j

    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(len(self.classes)))


@dataclass
class ClassScores:
    label: object
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_score: float
    zero_division: bool = False


@dataclass
class ClassReport:
    per_class: list[ClassScores]
    accuracy: float
    correct: int
    total: int
    warnings: list[str] = field(default_factory=list)


def confusion(y_true: Sequence, y_pred: Sequence, classes: Sequence) -> ConfusionMatrix:
    if len(y_true) != len(y_pred):
        raise DataError(f"length mismatch: {len(y_true)} truths vs {len(y_pred)} predictions")
    if not y_true:
        raise DataError("cannot evaluate zero samples")
    index = {label: i for i, label in enumerate(classes)}
    if len(index) != len(classes):
        raise DataError("duplicate class labels")
    counts = [[0] * len(classes) for _ in classes]
    for truth, pred in zip(y_true, y_pred):
        if truth not in index:
            raise DataError(f"true label {truth!r} not among the declared classes")
        if pred not in index:
            raise DataError(f"predicted label {pred!r} not among the declared classes")
        counts[index[truth]][index[pred]] += 1
    return ConfusionMatrix(classes=list(classes), counts=counts)


def report(cm: ConfusionMatrix) -> ClassReport:
    total = cm.total()
    if total == 0:
        raise DataError("empty confusion matrix")
    per_class = []
    warnings = []
    for i, label in enumerate(cm.classes):
        tp = cm.counts[i][i]
        fp = sum(cm.counts[r][i] for r in range(len(cm.classes))) - tp
        fn = sum(cm.counts[i]) - tp
        zero_division = False
        if tp + fp == 0:
            precision = 0.0
            zero_division = True
            warnings.append(f"class {label!r}: no predictions, precision set to 0")
        else:
            precision = tp / (tp + fp)
        if tp + fn == 0:
            recall = 0.0
            zero_division = True
            warnings.append(f"class {label!r}: no true samples, recall set to 0")
        else:
            recall = tp / (tp + fn)
        f_score = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        per_class.append(ClassScores(label=label, tp=tp, fp=fp, fn=fn,
                                     precision=precision, recall=recall,
                                     f_score=f_score, zero_division=zero_division))
    return ClassReport(per_class=per_class, accuracy=cm.trace() / total,
                       correct=cm.trace(), total=total, warnings=warnings)


def rmse(pred: Sequence[float], truth: Sequence[float]) -> float:
    if len(pred) != len(truth):
        raise DataError(f"length mismatch: {len(pred)} predictions vs {len(truth)} truths")
    if not len(pred):
        raise DataError("RMSE of zero samples is undefined")
    total = 0.0
    for p, t in zip(pred, truth):
        total += (p - t) ** 2
    return math.sqrt(total / len(pred))


@dataclass
class TraitReport:
    per_trait: dict[str, float]
    mean: float


def trait_rmse_report(pred_by_trait: Mapping[str, Sequence[float]],
                      truth_by_trait: Mapping[str, Sequence[float]]) -> TraitReport:
    """Per-trait RMSE plus the suite score, the arithmetic mean of the
    five per-trait values."""
    per_trait = {}
    for name in TRAIT_NAMES:
        if name not in pred_by_trait or name not in truth_by_trait:
            raise DataError(f"missing trait {name!r} in predictions or truths")
        per_trait[name] = rmse(pred_by_trait[name], truth_by_trait[name])
    return TraitReport(per_trait=per_trait, mean=sum(per_trait.values()) / len(per_trait))


def render_report(rep: ClassReport) -> str:
    """Delimited table with columns class, P, R, F, A; the accuracy is a
    single value so it is printed on the first row only."""
    lines = ["class\tP\tR\tF\tA"]
    for i, scores in enumerate(rep.per_class):
        accuracy_cell = f"{rep.accuracy:.3f}" if i == 0 else ""
        lines.append(f"{scores.label}\t{scores.precision:.3f}"
                     f"\t{scores.recall:.3f}\t{scores.f_score:.3f}\t{accuracy_cell}")
    return "\n".join(lines)


def render_trait_report(rep: TraitReport) -> str:
    lines = ["trait\tRMSE"]
    for name, value in rep.per_trait.items():
        lines.append(f"{name}\t{value:.3f}")
    lines.append(f"Mean\t{rep.mean:.3f}")
    return "\n".join(lines)
