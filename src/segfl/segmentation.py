"""Worker evaluation and regrouping.

At every evaluation boundary each worker's recent validation scores are
averaged, centered on the group mean, and squashed through a sigmoid.
Workers whose squashed score falls below ``0.5 - fineness * 0.01`` no longer
fit their group: each one either moves to the existing group whose global
model already serves its validation data at least as well as its own recent
average, or — together with the other leftover misfits — seeds a new group,
capacity permitting.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from segfl.nnet import ModelParams

# Each fineness step tightens the cutoff by one percentage point below 0.5.
_FINENESS_STEP = 0.01


@dataclass(frozen=True)
class SegmentationConfig:
    """Knobs for the evaluation/regrouping cycle.

    fineness: cutoff steps below 0.5 (7 -> threshold 0.43).
    eval_every: rounds between evaluations.
    window: how many recent validation scores feed a worker's average.
    max_groups: hard cap on simultaneously live groups.
    """

    fineness: int = 7
    eval_every: int = 3
    window: int = 3
    max_groups: int = 3

    def __post_init__(self):
        cutoff = threshold(self)
        if self.fineness < 0 or cutoff <= 0:
            raise ValueError(f"fineness {self.fineness} leaves no usable threshold {cutoff}")
        for name in ("eval_every", "window", "max_groups"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def threshold(config: SegmentationConfig) -> float:
    try:
        return 0.5 - config.fineness * _FINENESS_STEP
    except OverflowError:  # a fineness beyond float range
        return float("-inf") if config.fineness > 0 else float("inf")


@dataclass(frozen=True)
class EvalScores:
    """Per-worker window means and sigmoid scores of their offsets from the group mean."""

    worker_ids: tuple[int, ...]
    window_mean: np.ndarray  # C_i: mean recent validation macro-F1
    score: np.ndarray  # sigmoid(d_i), d_i = C_i minus the group mean

    def mean_of(self, worker_id: int) -> float:
        return float(self.window_mean[self.worker_ids.index(worker_id)])

    def score_of(self, worker_id: int) -> float:
        return float(self.score[self.worker_ids.index(worker_id)])


def eval_score(windows: Mapping[int, Sequence[float]]) -> EvalScores:
    """Score each worker's recent validation average against the group.

    Args:
        windows: worker id -> recent validation macro-F1 values (most recent
            window entries; at least one each).

    Returns:
        EvalScores over the workers in ascending id order.  The offsets sum
        to zero by construction; identical windows give every worker 0.5.
    """
    if not windows:
        raise ValueError("eval_score needs at least one worker window")
    worker_ids = tuple(sorted(windows))
    means = []
    for wid in worker_ids:
        values = np.asarray(windows[wid], dtype=np.float64)
        if values.size == 0:
            raise ValueError(f"worker {wid} has an empty validation window")
        means.append(values.mean())
    window_mean = np.array(means)
    offset = window_mean - window_mean.mean()
    score = 1.0 / (1.0 + np.exp(-offset))
    return EvalScores(worker_ids=worker_ids, window_mean=window_mean, score=score)


@dataclass(frozen=True)
class SegmentationPlan:
    """Each evaluated worker's group: its own, a better-fitting one, or a new one."""

    destinations: dict[int, int]  # worker id -> group id, in ascending worker id
    new_group: Optional[ModelParams]  # the parameters of the group founded as new_id


def segment(
    group_id: int,
    scores: EvalScores,
    live_group_ids: Sequence[int],
    config: SegmentationConfig,
    local_params: Mapping[int, ModelParams],
    cross_fit: Callable[[int, int], float],
    new_id: int,
) -> SegmentationPlan:
    """Plan the regrouping of one group's members.

    Args:
        group_id: the group being evaluated.
        scores: EvalScores for exactly this group's members.
        live_group_ids: ids of all currently live groups (including this one).
        config: segmentation knobs.
        local_params: each member's current local parameters (used to seed a
            new group with their unweighted mean).
        cross_fit: callback giving a misfit's validation macro-F1 under
            another group's global model.
        new_id: the id a group founded by this plan takes.

    Returns:
        A plan giving every member one destination group.  A misfit moves to
        the candidate group with the best cross_fit value (ties to the lower
        group id) if that value reaches its own window mean; leftover misfits
        seed one new group if the live-group cap allows, and otherwise stay put.
    """
    cutoff = threshold(config)
    other_groups = sorted(gid for gid in live_group_ids if gid != group_id)
    destinations: dict[int, int] = {}
    leftovers: list[int] = []
    for wid, score in zip(scores.worker_ids, scores.score):
        destinations[wid] = group_id
        if not score < cutoff:  # fits its group
            continue
        best: tuple[float, int] | None = None
        for gid in other_groups:
            fit = cross_fit(wid, gid)
            if best is None or fit > best[0]:
                best = (fit, gid)
        if best is not None and best[0] >= scores.mean_of(wid):
            destinations[wid] = best[1]
        else:
            leftovers.append(wid)

    new_group = None
    if leftovers and len(live_group_ids) < config.max_groups:
        seeds = np.stack([local_params[wid].flat for wid in leftovers])
        new_group = ModelParams(seeds.mean(axis=0), local_params[leftovers[0]].spec)
        destinations.update(dict.fromkeys(leftovers, new_id))
    return SegmentationPlan(destinations, new_group)
