"""Classification metrics: confusion counts, precision/recall/F1, rank AUROC.

Zero-denominator conventions: a class never predicted has precision 0, a
class never present has recall 0, and F1 is 0 whenever precision + recall is
0.  The macro average weights every class equally.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from segfl.flowdata import CLASS_NAMES

N_CLASSES = len(CLASS_NAMES)


def confusion(true_labels, pred_labels) -> np.ndarray:
    """``N_CLASSES`` x ``N_CLASSES`` counts with rows = true class, columns = predicted class."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    pred_labels = np.asarray(pred_labels, dtype=np.int64)
    if true_labels.shape != pred_labels.shape or true_labels.ndim != 1:
        raise ValueError(
            f"label vectors must be 1-d and equal length, got "
            f"{true_labels.shape} and {pred_labels.shape}"
        )
    for name, vec in (("true", true_labels), ("pred", pred_labels)):
        if len(vec) and (vec.min() < 0 or vec.max() >= N_CLASSES):
            raise ValueError(f"{name} labels outside [0, {N_CLASSES})")
    cells = np.bincount(true_labels * N_CLASSES + pred_labels, minlength=N_CLASSES * N_CLASSES)
    return cells.reshape(N_CLASSES, N_CLASSES)


@dataclass(frozen=True)
class ClassScores:
    """Per-class precision/recall/F1, accuracy and macro-F1 for one confusion matrix."""

    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    accuracy: float
    macro_f1: float


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.where(den > 0, num / np.where(den > 0, den, 1), 0.0)


def prf1(counts: np.ndarray) -> ClassScores:
    """Precision/recall/F1 per class, accuracy and macro-F1."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {counts.shape}")
    tp = np.diag(counts)
    predicted = counts.sum(axis=0)
    actual = counts.sum(axis=1)
    total = counts.sum()
    if total == 0:
        raise ValueError("confusion matrix is all zeros")

    precision = _safe_div(tp, predicted)
    recall = _safe_div(tp, actual)
    f1 = _safe_div(2 * precision * recall, precision + recall)
    return ClassScores(
        precision=precision,
        recall=recall,
        f1=f1,
        accuracy=float(tp.sum() / total),
        macro_f1=float(f1.mean()),
    )


def macro_f1_score(true_labels, pred_labels) -> float:
    return prf1(confusion(true_labels, pred_labels)).macro_f1


def _positive_rank_sum(scores: np.ndarray, positive: np.ndarray) -> float:
    """Sum of the positives' midranks of ``scores`` (ties share their mean rank).

    Midranks are half-integers, so the sum is exact in any order; a NaN score
    makes every rank NaN.
    """
    order = np.argsort(scores)
    ranked = scores[order]
    if np.isnan(ranked[-1]):  # NaN sorts last
        return float("nan")
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    counts = np.diff(starts, append=len(ranked))
    positives = np.add.reduceat(positive[order], starts, dtype=np.int64)
    return float(np.sum((starts + (counts + 1) / 2.0) * positives))


def auroc_ovr_macro(true_labels, probabilities) -> float:
    """One-vs-rest macro AUROC from class-probability rows.

    Each class present in ``true_labels`` contributes its binary AUROC
    computed by the rank statistic (midranks for ties); classes absent from
    the labels are excluded from the mean with a warning.

    Args:
        true_labels: (n,) int class codes.
        probabilities: (n, n_classes) rows summing to 1 (checked to 1e-6).

    Returns:
        Mean AUROC over the included classes, in [0, 1].
    """
    true_labels = np.asarray(true_labels, dtype=np.int64)
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.ndim != 2 or len(probs) != len(true_labels):
        raise ValueError(
            f"probabilities shape {probs.shape} does not match {len(true_labels)} labels"
        )
    if len(true_labels) == 0:
        raise ValueError("cannot compute AUROC on zero samples")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("probability rows must sum to 1")

    aucs = []
    for cls in range(probs.shape[1]):
        positive = true_labels == cls
        n_pos = int(positive.sum())
        n_neg = len(true_labels) - n_pos
        if n_pos == 0:
            warnings.warn(f"class {cls} absent from true labels; excluded from macro AUROC")
            continue
        if n_neg == 0:
            warnings.warn(f"class {cls} has no negatives; excluded from macro AUROC")
            continue
        positive_rank_sum = _positive_rank_sum(probs[:, cls], positive)
        aucs.append((positive_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    if not aucs:
        raise ValueError("AUROC undefined: no class has both positives and negatives")
    return float(np.mean(aucs))
