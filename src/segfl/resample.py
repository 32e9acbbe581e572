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
        if self.target_ratio < 1.0:
            raise ValueError(f"target_ratio must be >= 1, got {self.target_ratio}")


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances, rows of ``a`` against rows of ``b``.

    Chunked over rows of ``a`` to bound the broadcast temporary; each pair's
    arithmetic is independent, so chunking cannot change any value.
    """
    out = np.empty((len(a), len(b)), dtype=np.float64)
    chunk = max(1, (1 << 22) // max(1, b.size))
    for start in range(0, len(a), chunk):
        diff = a[start : start + chunk, None, :] - b[None, :, :]
        out[start : start + chunk] = np.sqrt((diff * diff).sum(axis=2))
    return out


def _k_nearest(distances: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries per row, ties to lower index."""
    order = np.argsort(distances, axis=1, kind="stable")
    return order[:, :k]


def nearmiss3_undersample(dataset: LabeledDataset, config: ResampleConfig) -> LabeledDataset:
    """Reduce the majority class toward ``target_ratio`` x the smallest class.

    Args:
        dataset: scaled features and labels; at least two classes present.
        config: neighbour count and target majority ratio.

    Returns:
        A new dataset containing every minority-class sample and the selected
        majority samples, in original row order.  If the majority class is
        already at or below the target it is returned unchanged; if the
        candidate pool is smaller than the target, the whole pool is kept and
        a warning is logged.
    """
    labels = dataset.labels
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) < 2:
        raise ValueError("undersampling needs at least two classes")

    majority_class = classes[np.argmax(counts)]  # argmax ties -> lower code
    majority_count = int(counts.max())
    smallest_count = int(counts.min())
    target = int(round(config.target_ratio * smallest_count))
    if majority_count <= target:
        return dataset.subset(np.arange(dataset.sample_count))

    majority_idx = np.flatnonzero(labels == majority_class)
    minority_idx = np.flatnonzero(labels != majority_class)
    majority_pts = dataset.features[majority_idx]
    minority_pts = dataset.features[minority_idx]
    k = config.neighbors_k

    # Stage 1: majority samples that are k-nearest to any minority sample.
    dist_min_maj = _pairwise_distances(minority_pts, majority_pts)
    nearest_per_minority = _k_nearest(dist_min_maj, min(k, len(majority_idx)))
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
        dist_cand_min = dist_min_maj[:, candidates].T
        nearest_minority = _k_nearest(dist_cand_min, min(k, len(minority_idx)))
        avg_dist = np.take_along_axis(dist_cand_min, nearest_minority, axis=1).mean(axis=1)
        order = np.lexsort((majority_idx[candidates], -avg_dist))
        kept_majority = majority_idx[candidates[order[:target]]]

    kept = np.sort(np.concatenate([minority_idx, kept_majority]))
    return dataset.subset(kept)
