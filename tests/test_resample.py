"""NearMiss-3 undersampling against an exhaustive brute-force oracle."""

from __future__ import annotations

import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial

from segfl.flowdata import LabeledDataset
from segfl.resample import ResampleConfig, nearmiss3_undersample


def _oracle_kept_indices(features, labels, k: int, target_ratio: float) -> list[int]:
    """Literal two-stage NearMiss-3 on raw Python floats.

    Stage 1: for every minority sample, its k nearest majority samples (by
    Euclidean distance, ties to the lower original index) become candidates.
    Stage 2: candidates are ranked by average distance to their own k nearest
    minority samples, largest first (ties to the lower index), and the top
    ``target`` survive.  Returns all kept original indices, sorted.
    """
    features = [list(map(float, row)) for row in features]
    labels = list(map(int, labels))
    counts: dict[int, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    majority = min(lab for lab, c in counts.items() if c == max(counts.values()))
    target = round(target_ratio * min(counts.values()))

    majority_idx = [i for i, lab in enumerate(labels) if lab == majority]
    minority_idx = [i for i, lab in enumerate(labels) if lab != majority]
    if len(majority_idx) <= target:
        return sorted(range(len(labels)))

    def dist(i, j):
        return math.dist(features[i], features[j])

    candidates = set()
    for m in minority_idx:
        by_distance = sorted(majority_idx, key=lambda j: (dist(m, j), j))
        candidates.update(by_distance[: min(k, len(majority_idx))])

    if len(candidates) < target:
        kept_majority = sorted(candidates)
    else:
        scored = []
        for c in sorted(candidates):
            nearest = sorted(minority_idx, key=lambda m: (dist(c, m), m))
            nearest = nearest[: min(k, len(minority_idx))]
            scored.append((-sum(dist(c, m) for m in nearest) / len(nearest), c))
        scored.sort()
        kept_majority = [c for _, c in scored[:target]]

    return sorted(minority_idx + kept_majority)


def _rows_multiset(dataset: LabeledDataset):
    rows = np.column_stack([dataset.features, dataset.labels])
    return sorted(map(tuple, rows.tolist()))


def test_config_validation():
    with pytest.raises(ValueError, match="neighbors_k"):
        ResampleConfig(neighbors_k=0)
    with pytest.raises(ValueError, match="target_ratio"):
        ResampleConfig(target_ratio=0.5)


def test_single_class_is_an_error():
    data = LabeledDataset(np.zeros((5, 2)), np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError, match="two classes"):
        nearmiss3_undersample(data, ResampleConfig())


def test_dataset_already_at_target_passes_through_unchanged():
    # 20 majority vs 10 minority is exactly the 2:1 target: a no-op.
    rng = np.random.default_rng(0)
    data = LabeledDataset(
        rng.normal(size=(30, 2)),
        np.array([0] * 20 + [1] * 10, dtype=np.int64),
    )
    out = nearmiss3_undersample(data, ResampleConfig(neighbors_k=3, target_ratio=2.0))
    assert _rows_multiset(out) == _rows_multiset(data)
    # A ratio whose target overflows to inf keeps the majority whole too.
    out = nearmiss3_undersample(data, ResampleConfig(neighbors_k=3, target_ratio=1.0e308))
    assert _rows_multiset(out) == _rows_multiset(data)


def test_toy_selection_matches_oracle():
    rng = np.random.default_rng(12)
    data = LabeledDataset(
        rng.uniform(size=(30, 2)),
        np.array([0] * 24 + [1] * 6, dtype=np.int64),
    )
    config = ResampleConfig(neighbors_k=3, target_ratio=2.0)
    out = nearmiss3_undersample(data, config)
    kept = _oracle_kept_indices(data.features, data.labels, 3, 2.0)
    expected = data.subset(kept)
    assert np.array_equal(out.features, expected.features)
    assert np.array_equal(out.labels, expected.labels)


def test_selection_matches_oracle_across_random_datasets():
    rng = np.random.default_rng(77)
    for trial in range(8):
        n_minority = int(rng.integers(4, 15))
        n_other = int(rng.integers(4, 12))
        n_majority = int(rng.integers(3 * n_minority, 60))
        labels = np.array([0] * n_majority + [1] * n_other + [2] * n_minority)
        order = rng.permutation(len(labels))  # interleave the classes
        data = LabeledDataset(rng.uniform(size=(len(labels), 3)), labels[order])
        k = int(rng.integers(1, 5))
        ratio = float(rng.choice([1.0, 1.5, 2.0, 2.5]))
        out = nearmiss3_undersample(data, ResampleConfig(neighbors_k=k, target_ratio=ratio))
        kept = _oracle_kept_indices(data.features, data.labels, k, ratio)
        assert np.array_equal(out.features, data.subset(kept).features), f"trial {trial}"
        assert np.array_equal(out.labels, data.subset(kept).labels), f"trial {trial}"


def test_minority_samples_pass_through_exactly():
    rng = np.random.default_rng(3)
    labels = np.array([0] * 40 + [1] * 8 + [2] * 5)
    data = LabeledDataset(rng.uniform(size=(len(labels), 2)), labels)
    out = nearmiss3_undersample(data, ResampleConfig())
    for cls in (1, 2):
        original = data.features[data.labels == cls]
        kept = out.features[out.labels == cls]
        assert np.array_equal(
            np.sort(kept, axis=0), np.sort(original, axis=0)
        ), f"class {cls} was modified"


def test_majority_count_hits_target_and_ratio():
    # 170 : 12 : 10 collapses to 20 : 12 : 10, i.e. a 2 : 1.2 : 1 ratio.
    rng = np.random.default_rng(8)
    labels = np.array([0] * 170 + [1] * 12 + [2] * 10)
    data = LabeledDataset(rng.uniform(size=(len(labels), 2)), labels)
    out = nearmiss3_undersample(data, ResampleConfig(neighbors_k=3, target_ratio=2.0))
    counts = np.bincount(out.labels, minlength=3)
    assert counts.tolist() == [20, 12, 10]


def test_selected_majority_are_stage1_candidates():
    rng = np.random.default_rng(21)
    labels = np.array([0] * 50 + [1] * 7)
    data = LabeledDataset(rng.uniform(size=(len(labels), 2)), labels)
    k = 4
    out = nearmiss3_undersample(data, ResampleConfig(neighbors_k=k, target_ratio=2.0))

    candidates = set()
    majority_idx = [i for i in range(len(labels)) if labels[i] == 0]
    for m in range(50, 57):
        by_distance = sorted(
            majority_idx, key=lambda j: (math.dist(data.features[m], data.features[j]), j)
        )
        candidates.update(by_distance[:k])
    candidate_rows = {tuple(data.features[i]) for i in candidates}
    for row in out.features[out.labels == 0]:
        assert tuple(row) in candidate_rows


def test_row_permutation_yields_the_same_multiset():
    rng = np.random.default_rng(5)
    labels = np.array([0] * 40 + [1] * 6)
    features = rng.uniform(size=(len(labels), 2))
    config = ResampleConfig(neighbors_k=3, target_ratio=2.0)
    base = nearmiss3_undersample(LabeledDataset(features, labels), config)
    perm = rng.permutation(len(labels))
    shuffled = nearmiss3_undersample(LabeledDataset(features[perm], labels[perm]), config)
    assert _rows_multiset(base) == _rows_multiset(shuffled)


def test_small_candidate_pool_keeps_pool_and_warns(caplog):
    # One minority point with k=1 yields a single candidate, far below target.
    features = np.vstack([np.linspace(0, 1, 30).reshape(30, 1), [[0.5]]])
    labels = np.array([0] * 30 + [1])
    data = LabeledDataset(np.hstack([features, np.zeros((31, 1))]), labels)
    with caplog.at_level(logging.WARNING, logger="segfl.resample"):
        out = nearmiss3_undersample(data, ResampleConfig(neighbors_k=1, target_ratio=2.0))
    assert "candidate pool" in caplog.text
    assert int((out.labels == 0).sum()) == 1
    assert int((out.labels == 1).sum()) == 1


def _grid_dataset(rng, n, dims, step):
    """Few distinct values and duplicated rows, like real flow exports.

    On an integer or quarter-step grid every squared distance is exact in
    float64, so ``math.dist`` in the oracle and numpy agree on every tie.
    """
    features = rng.integers(0, 4, size=(n, dims)) * step
    features[rng.integers(0, n, n // 3)] = features[rng.integers(0, n, n // 3)]
    labels = rng.choice(3, size=n, p=[0.7, 0.2, 0.1])
    return LabeledDataset(features, labels.astype(np.int64))


class _CountingTree(scipy.spatial.cKDTree):
    """A cKDTree that records the neighbour count of every query."""

    widths: list[int] = []

    def query(self, x, k=1, **kwargs):
        self.widths.append(k)
        return super().query(x, k=k, **kwargs)


def test_tie_heavy_selection_matches_oracle(monkeypatch):
    monkeypatch.setattr(_CountingTree, "widths", [])
    monkeypatch.setattr(scipy.spatial, "cKDTree", _CountingTree)
    rng = np.random.default_rng(404)
    for trial in range(12):
        dims = int(rng.integers(1, 5))
        data = _grid_dataset(rng, int(rng.integers(40, 160)), dims, (1.0, 0.25)[trial % 2])
        k = int(rng.integers(1, 6))
        ratio = float(rng.choice([1.0, 1.5, 2.0]))
        out = nearmiss3_undersample(data, ResampleConfig(neighbors_k=k, target_ratio=ratio))
        kept = _oracle_kept_indices(data.features, data.labels, k, ratio)
        assert np.array_equal(out.features, data.subset(kept).features), f"trial {trial}"
        assert np.array_equal(out.labels, data.subset(kept).labels), f"trial {trial}"
    # Ties at the k-th neighbour sent some rows back to the tree with a wider query.
    assert max(_CountingTree.widths) > 2 * 5


def test_kth_neighbour_inside_a_run_of_equal_distances(monkeypatch):
    # Minority rows at the origin and at (10, 10).  Majority rows 1-8 lie at
    # distance 1 from the origin (duplicates included) and row 9 at 2; rows
    # 10-13 lie at distance 1 from (10, 10) and rows 14-15 at 2.  With k = 3
    # both third neighbours fall inside a run of equal distances, so the
    # lowest row indices of each run must win.  The origin's first proposals
    # (k + m = 6 rows, all at distance 1) cannot settle that, so its row is
    # queried again.  The target (8) exceeds the pool (6), so the kept
    # majority rows are exactly the stage-1 neighbours.
    monkeypatch.setattr(_CountingTree, "widths", [])
    monkeypatch.setattr(scipy.spatial, "cKDTree", _CountingTree)
    ring = [[0, 1], [1, 0], [0, -1], [-1, 0], [0, 1], [1, 0], [-1, 0], [0, -1]]
    around = [[10, 11], [11, 10], [10, 9], [9, 10], [12, 10], [10, 12]]
    features = np.array([[0, 0]] + ring + [[2, 0]] + around + [[10, 10]], dtype=np.float64)
    labels = np.array([1] + [0] * 15 + [1])
    data = LabeledDataset(features, labels)
    out = nearmiss3_undersample(data, ResampleConfig(neighbors_k=3, target_ratio=4.0))
    kept = _oracle_kept_indices(features, labels, 3, 4.0)
    assert np.array_equal(out.features, data.subset(kept).features)
    assert [i for i in kept if labels[i] == 0] == [1, 2, 3, 10, 11, 12]
    assert max(_CountingTree.widths) > 6


def test_memory_stays_far_below_the_dense_distance_matrix():
    # 70k majority rows against 30k minority rows: a dense minority x
    # majority float64 matrix alone would be 16.8 GB.
    rng = np.random.default_rng(100)
    labels = np.array([0] * 70_000 + [1] * 20_000 + [2] * 10_000)[rng.permutation(100_000)]
    data = LabeledDataset(rng.random((100_000, 7)), labels)
    tracemalloc.start()
    try:
        out = nearmiss3_undersample(data, ResampleConfig(neighbors_k=3, target_ratio=2.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20, f"peak {peak / 2**20:.0f} MiB"
    assert np.bincount(out.labels).tolist() == [20_000, 20_000, 10_000]
