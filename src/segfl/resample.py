"""Majority-class undersampling in the NearMiss-3 style.

Two stages over Euclidean distances on already-scaled features: first the
majority samples that are among the k nearest neighbours of any minority
sample become candidates, then candidates are kept in order of *largest*
average distance to their own k nearest minority samples until the target
majority count is reached.  Minority classes pass through untouched and row
order is preserved, so the procedure is fully deterministic; distance ties
fall back to original row order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from segfl.flowdata import LabeledDataset

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ResampleConfig:
    """neighbors_k nearest neighbours; majority target = ratio x smallest class."""

    neighbors_k: int = 3
    target_ratio: float = 2.0

    def __post_init__(self):
        if self.neighbors_k < 1:
            raise ValueError(f"neighbors_k must be >= 1, got {self.neighbors_k}")
        if not np.isfinite(self.target_ratio):
            raise ValueError(f"target_ratio must be finite, got {self.target_ratio}")
        if self.target_ratio < 1.0:
            raise ValueError(f"target_ratio must be >= 1, got {self.target_ratio}")


# Relative gap by which the tree's farthest proposal must exceed the exact
# k-th distance before a row's neighbours are final.  Tree and exact
# distances differ only by rounding (~1e-15 relative), so any non-proposed
# row is then strictly farther than the k-th and cannot win a tie.
_TIE_MARGIN = 1e-9
# Elements in one block's (rows, width, features) difference temporary
# (32 MiB of float64), however wide the fallback grows.
_BLOCK_ELEMENTS = 1 << 22


def _k_nearest(points: np.ndarray, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each query's k nearest ``points``, ordered by (exact distance, index).

    A KD-tree proposes ``k + m`` neighbours per query; their distances are
    recomputed in numpy, pair by pair, so values and tie order do not depend
    on the tree's arithmetic.  A query whose tree distances cannot rule out
    a tie at the k-th neighbour is asked again with ``m`` doubled, up to
    every point.

    Returns:
        (indices into ``points``, exact distances), both (len(queries), k).
    """
    from scipy.spatial import cKDTree  # large; loaded only once a shard has rows to drop

    n = len(points)
    # Sliding-midpoint splits and 32-point leaves build and query faster than the
    # defaults; the exact re-ranking below keeps results independent of the tree.
    tree = cKDTree(points, balanced_tree=False, leafsize=32)
    nearest = np.empty((len(queries), k), dtype=np.intp)
    distances = np.empty((len(queries), k), dtype=np.float64)
    pending = np.arange(len(queries))
    m = k
    while len(pending):
        width = min(n, k + m)
        block = max(1, _BLOCK_ELEMENTS // (width * points.shape[1]))
        retry = []
        for start in range(0, len(pending), block):
            rows = pending[start : start + block]
            tree_dist, cols = tree.query(queries[rows], k=width)
            tree_dist = tree_dist.reshape(len(rows), width)
            cols = cols.reshape(len(rows), width)
            diff = queries[rows, None, :] - points[cols]
            exact = np.sqrt((diff * diff).sum(axis=-1))
            order = np.lexsort((cols, exact))
            exact = np.take_along_axis(exact, order, axis=1)[:, :k]
            settled = (width == n) | (tree_dist[:, -1] > exact[:, -1] * (1.0 + _TIE_MARGIN))
            nearest[rows[settled]] = np.take_along_axis(cols, order, axis=1)[settled, :k]
            distances[rows[settled]] = exact[settled]
            retry.append(rows[~settled])
        pending = np.concatenate(retry)
        m *= 2
    return nearest, distances


def nearmiss3_undersample(dataset: LabeledDataset, config: ResampleConfig) -> LabeledDataset:
    """Reduce the majority class toward ``target_ratio`` x the smallest class.

    Args:
        dataset: scaled features and labels; at least two classes present.
        config: neighbour count and target majority ratio.

    Returns:
        A new dataset containing every minority-class sample and the selected
        majority samples, in original row order.  If the majority class is
        already at or below the target, ``dataset`` itself is returned; if the
        candidate pool is smaller than the target, the whole pool is kept and
        a warning is logged.
    """
    labels = dataset.labels
    counts = np.bincount(labels)
    if np.count_nonzero(counts) < 2:
        raise ValueError("undersampling needs at least two classes")

    majority_class = np.argmax(counts)  # argmax ties -> lower code
    majority_count = int(counts.max())
    smallest_count = int(counts[counts > 0].min())
    # A target at or above the majority count keeps the shard; min() also keeps a huge
    # ratio's product from overflowing int().
    target = int(round(min(config.target_ratio * smallest_count, majority_count)))
    if majority_count <= target:
        return dataset

    majority_idx = np.flatnonzero(labels == majority_class)
    minority_idx = np.flatnonzero(labels != majority_class)
    majority_pts = dataset.features[majority_idx]
    minority_pts = dataset.features[minority_idx]
    k = config.neighbors_k

    # Stage 1: majority samples that are k-nearest to any minority sample.
    nearest_per_minority, _ = _k_nearest(majority_pts, minority_pts, min(k, len(majority_idx)))
    candidates = np.unique(nearest_per_minority)  # positions into majority_idx

    if len(candidates) < target:
        logger.warning(
            "NearMiss-3 candidate pool (%d) smaller than target (%d); keeping the whole pool",
            len(candidates),
            target,
        )
        kept_majority = majority_idx[candidates]
    else:
        # Stage 2: keep candidates whose k nearest minority samples are on
        # average the farthest.  Stable sort on (-avg distance, row index).
        _, nearest_dist = _k_nearest(
            minority_pts, majority_pts[candidates], min(k, len(minority_idx))
        )
        avg_dist = nearest_dist.mean(axis=1)
        order = np.lexsort((majority_idx[candidates], -avg_dist))
        kept_majority = majority_idx[candidates[order[:target]]]

    kept = np.sort(np.concatenate([minority_idx, kept_majority]))
    return dataset.subset(kept)
