"""Confusion counts, precision/recall/F1, and rank-based AUROC."""

from __future__ import annotations

from collections import Counter

import math

import numpy as np
import pytest
from scipy.stats import rankdata

from segfl.metrics import ClassScores, auroc_ovr_macro, confusion, macro_f1_score, prf1


def _oracle_confusion(true_labels, pred_labels, n_classes):
    tally = Counter(zip(true_labels, pred_labels))
    return [[tally[(t, p)] for p in range(n_classes)] for t in range(n_classes)]


def _oracle_auroc_macro(true_labels, probabilities):
    """O(n^2) pairwise comparison count: (wins + half the ties) / (pos * neg)."""
    n_classes = len(probabilities[0])
    per_class = []
    for cls in range(n_classes):
        pos = [p[cls] for t, p in zip(true_labels, probabilities) if t == cls]
        neg = [p[cls] for t, p in zip(true_labels, probabilities) if t != cls]
        if not pos or not neg:
            continue
        wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
        per_class.append(wins / (len(pos) * len(neg)))
    return sum(per_class) / len(per_class)


def _rankdata_auroc_macro(true_labels, probabilities):
    """The rank statistic over ``scipy.stats.rankdata`` midranks, summed in row order."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    aucs = []
    for cls in range(probabilities.shape[1]):
        positive = true_labels == cls
        n_pos = int(positive.sum())
        n_neg = len(true_labels) - n_pos
        if n_pos and n_neg:
            ranks = rankdata(probabilities[:, cls], method="average")
            aucs.append((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return float(np.mean(aucs))


def _add_at_confusion(true_labels, pred_labels, n_classes):
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (np.asarray(true_labels), np.asarray(pred_labels)), 1)
    return counts


def test_confusion_matches_add_at_oracle():
    rng = np.random.default_rng(13)
    for n in (0, 1, 2, 17, 1000):
        true = rng.integers(0, 3, size=n)
        pred = rng.integers(0, 3, size=n)
        got = confusion(true, pred)
        assert got.dtype == np.int64 and got.shape == (3, 3)
        assert np.array_equal(got, _add_at_confusion(true, pred, 3)), n


def _eighths(rng, n):
    """Probability rows quantised to 1/8: every score is one of nine values."""
    return rng.multinomial(8, [0.3, 0.45, 0.25], size=n) / 8.0


def test_auroc_matches_rankdata_oracle_bit_for_bit():
    rng = np.random.default_rng(37)
    cases = []
    for n in (3, 10, 64, 1000, 20_000):
        cases.append((rng.permutation(np.arange(n) % 3), _eighths(rng, n)))  # full of ties
    raw = rng.random((500, 3)) + 0.01
    cases.append((rng.integers(0, 3, size=500), raw / raw.sum(axis=1, keepdims=True)))
    low = rng.integers(0, 5, size=300) / 8.0
    constant_middle = np.column_stack([low, np.full(300, 0.5), 0.5 - low])
    cases.append((rng.integers(0, 3, size=300), constant_middle))
    cases.append((np.arange(300) % 3, np.full((300, 3), 1.0 / 3.0)))  # every column constant
    one_positive = np.where(np.arange(50) == 31, 2, np.arange(50) % 2)  # class 2 once
    cases.append((one_positive, _eighths(rng, 50)))
    for true, probs in cases:
        got = auroc_ovr_macro(true, probs)
        want = _rankdata_auroc_macro(true, probs)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (len(true), got, want)


def test_auroc_nan_score_column_gives_nan():
    rng = np.random.default_rng(43)
    true = rng.integers(0, 3, size=40)
    probs = _eighths(rng, 40)
    probs[7, 1] = np.nan  # the row-sum check cannot see a NaN
    assert math.isnan(auroc_ovr_macro(true, probs))
    assert math.isnan(_rankdata_auroc_macro(true, probs))
    probs[:, 1] = np.nan
    assert math.isnan(auroc_ovr_macro(true, probs))


def test_empty_label_vectors():
    assert np.array_equal(confusion([], []), np.zeros((3, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="zero samples"):
        auroc_ovr_macro([], np.zeros((0, 3)))


def test_confusion_matches_hand_tally():
    rng = np.random.default_rng(3)
    true = rng.integers(0, 3, size=20)
    pred = rng.integers(0, 3, size=20)
    assert np.array_equal(confusion(true, pred), _oracle_confusion(true.tolist(), pred.tolist(), 3))


def test_confusion_perfect_prediction_is_diagonal():
    true = np.array([0, 0, 1, 2, 2, 2])
    counts = confusion(true, true)
    assert np.array_equal(counts, np.diag([2, 1, 3]))


def test_confusion_constant_prediction_fills_one_column():
    true = np.array([0, 1, 2, 1])
    counts = confusion(true, np.zeros(4, dtype=int))
    assert np.array_equal(counts, [[1, 0, 0], [2, 0, 0], [1, 0, 0]])


def test_confusion_input_validation():
    with pytest.raises(ValueError, match="equal length"):
        confusion([0, 1], [0])
    with pytest.raises(ValueError, match="true labels"):
        confusion([0, 3], [0, 0])
    with pytest.raises(ValueError, match="pred labels"):
        confusion([0, 1], [0, -1])


def test_prf1_perfect_diagonal():
    scores = prf1(np.diag([4, 5, 6]))
    assert np.all(scores.precision == 1.0)
    assert np.all(scores.recall == 1.0)
    assert np.all(scores.f1 == 1.0)
    assert scores.accuracy == 1.0
    assert scores.macro_f1 == 1.0


def test_prf1_two_class_hand_case():
    # [[5, 5], [0, 10]]: class 0 is predicted only when true (precision 1)
    # but found half the time (recall 0.5, F1 = 2/3); class 1 is always
    # found (recall 1) with precision 10/15.
    scores = prf1(np.array([[5, 5], [0, 10]]))
    assert scores.precision == pytest.approx([1.0, 10 / 15], abs=1e-15)
    assert scores.recall == pytest.approx([0.5, 1.0], abs=1e-15)
    assert scores.f1 == pytest.approx([2 / 3, 0.8], abs=1e-15)
    assert scores.accuracy == pytest.approx(0.75, abs=1e-15)


def test_prf1_macro_is_plain_mean():
    counts = np.array([[8, 1, 0], [2, 5, 1], [0, 3, 4]])
    scores = prf1(counts)
    assert scores.macro_f1 == pytest.approx(float(scores.f1.mean()), abs=0)


def test_prf1_zero_denominator_conventions():
    # Class 2 never occurs and is never predicted: precision, recall and F1
    # all fall back to 0 rather than dividing by zero.
    counts = np.array([[3, 0, 0], [1, 2, 0], [0, 0, 0]])
    scores = prf1(counts)
    assert scores.precision[2] == 0.0
    assert scores.recall[2] == 0.0
    assert scores.f1[2] == 0.0
    # Class never predicted but present: precision 0, recall 0, f1 0.
    never_predicted = prf1(np.array([[0, 4, 0], [0, 1, 0], [0, 0, 2]]))
    assert never_predicted.precision[0] == 0.0
    assert never_predicted.recall[0] == 0.0
    assert never_predicted.f1[0] == 0.0


def test_prf1_rejects_empty_and_non_square():
    with pytest.raises(ValueError, match="all zeros"):
        prf1(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="square"):
        prf1(np.zeros((2, 3)))


def test_macro_f1_score_end_to_end():
    true = [0, 0, 1, 1, 2, 2]
    pred = [0, 1, 1, 1, 2, 0]
    # class 0: p=1/2 r=1/2 f1=1/2; class 1: p=2/3 r=1 f1=4/5; class 2: p=1 r=1/2 f1=2/3
    expected = (0.5 + 0.8 + 2 / 3) / 3
    assert macro_f1_score(true, pred) == pytest.approx(expected, abs=1e-12)


def test_auroc_perfect_separation_is_one():
    true = np.array([0, 0, 1, 1, 2, 2])
    probs = np.eye(3)[true] * 0.7 + 0.1  # e.g. [0.8, 0.1, 0.1], rows sum to 1
    assert auroc_ovr_macro(true, probs) == pytest.approx(1.0, abs=0)


def test_auroc_constant_scores_give_half():
    true = np.array([0, 1, 2, 0, 1, 2])
    probs = np.full((6, 3), 1.0 / 3.0)
    assert auroc_ovr_macro(true, probs) == pytest.approx(0.5, abs=1e-15)


def test_auroc_small_fixture_matches_pairwise_oracle():
    true = [0, 0, 0, 1, 1, 1, 2, 2, 2, 0, 1, 2]
    rng = np.random.default_rng(17)
    raw = rng.random((12, 3)) + 0.01
    probs = raw / raw.sum(axis=1, keepdims=True)
    expected = _oracle_auroc_macro(true, probs.tolist())
    assert auroc_ovr_macro(true, probs) == pytest.approx(expected, abs=1e-12)


def test_auroc_matches_oracle_with_ties():
    # Quantized probabilities force plenty of exact rank ties.
    rng = np.random.default_rng(29)
    for trial in range(20):
        n = int(rng.integers(6, 40))
        true = rng.integers(0, 3, size=n)
        if len(np.unique(true)) < 2:
            continue
        raw = np.round(rng.random((n, 3)) * 4) / 4 + 0.01
        probs = raw / raw.sum(axis=1, keepdims=True)
        expected = _oracle_auroc_macro(true.tolist(), probs.tolist())
        assert auroc_ovr_macro(true, probs) == pytest.approx(expected, abs=1e-12), f"trial {trial}"


def test_auroc_absent_class_warns_and_is_excluded():
    true = np.array([0, 0, 1, 1])  # class 2 never occurs
    raw = np.random.default_rng(5).random((4, 3)) + 0.01
    probs = raw / raw.sum(axis=1, keepdims=True)
    with pytest.warns(UserWarning, match="class 2 absent"):
        got = auroc_ovr_macro(true, probs)
    expected = _oracle_auroc_macro(true.tolist(), probs.tolist())
    assert got == pytest.approx(expected, abs=1e-12)


def test_auroc_single_class_is_undefined():
    probs = np.full((3, 3), 1.0 / 3.0)
    with pytest.raises(ValueError, match="AUROC undefined"):
        with pytest.warns(UserWarning):
            auroc_ovr_macro(np.array([1, 1, 1]), probs)


def test_auroc_depends_only_on_score_order():
    # Shrinking all rows toward the uniform point keeps every per-class
    # ranking, so the AUROC cannot change.
    rng = np.random.default_rng(41)
    true = rng.integers(0, 3, size=30)
    raw = rng.random((30, 3)) + 0.01
    probs = raw / raw.sum(axis=1, keepdims=True)
    squeezed = 0.4 * probs + 0.6 / 3.0  # rows still sum to 1
    assert auroc_ovr_macro(true, squeezed) == pytest.approx(
        auroc_ovr_macro(true, probs), abs=1e-12
    )


def test_auroc_input_validation():
    with pytest.raises(ValueError, match="zero samples"):
        auroc_ovr_macro(np.zeros(0, dtype=int), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="sum to 1"):
        auroc_ovr_macro(np.array([0, 1]), np.array([[0.9, 0.2, 0.2], [0.2, 0.5, 0.3]]))
    with pytest.raises(ValueError, match="does not match"):
        auroc_ovr_macro(np.array([0, 1, 2]), np.ones((2, 3)) / 3)
