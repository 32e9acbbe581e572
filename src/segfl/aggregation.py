"""Parameter aggregation: the three-component update of a group's global vector.

A group's global vector is refreshed as a convex blend of (alpha) its former
value, (beta) the sample-count-weighted mean of the participating workers'
vectors, and (gamma) the unweighted mean of the other groups' global vectors.
With no other groups the gamma mass is folded back into alpha and beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from segfl.nnet import ModelParams

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class AggregationWeights:
    alpha: float = 0.2
    beta: float = 0.6
    gamma: float = 0.2

    def __post_init__(self):
        weights = {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}
        for name, value in weights.items():
            if not value >= 0:  # NaN fails too
                raise ValueError(f"{name} must be non-negative, got {value}")
        total = sum(weights.values())
        shown = ", ".join(f"{name}={value}" for name, value in weights.items())
        if not abs(total - 1.0) <= _WEIGHT_TOL:
            raise ValueError(f"alpha + beta + gamma must sum to 1; got {shown} (sum {total!r})")
        # A group without peer groups (every fl round) renormalises alpha and beta alone.
        if not self.alpha + self.beta > 0:
            raise ValueError(
                f"alpha + beta must be positive, since a group without peers blends only "
                f"those two; got {shown}"
            )


@dataclass(frozen=True)
class LocalContribution:
    params: ModelParams
    sample_count: int

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")


def _check_same_shape(all_params: list[ModelParams]) -> None:
    spec = all_params[0].spec
    for p in all_params[1:]:
        if p.spec != spec:
            raise ValueError(f"mismatched layer specs: {p.spec.dims} vs {spec.dims}")


def weighted_aggregate(
    former_global: ModelParams,
    contributions: list[LocalContribution],
    other_globals: list[ModelParams],
    weights: AggregationWeights,
) -> ModelParams:
    """Blend the former global, the workers' weighted mean, and peer globals.

    The worker term weights each contribution by its sample count over the
    participants' total.  When ``other_globals`` is empty the gamma term is
    dropped and alpha/beta are renormalized to keep the blend convex.

    Returns a new ModelParams; no input is modified.
    """
    alpha, beta, gamma = weights.alpha, weights.beta, weights.gamma
    if not contributions:
        raise ValueError("weighted_aggregate needs at least one contribution")
    _check_same_shape(
        [former_global] + [c.params for c in contributions] + list(other_globals)
    )

    if not other_globals:
        alpha, beta = alpha / (alpha + beta), beta / (alpha + beta)
        gamma = 0.0

    total = sum(c.sample_count for c in contributions)
    worker_term = np.zeros_like(former_global.flat)
    for c in contributions:
        worker_term += (c.sample_count / total) * c.params.flat

    blended = alpha * former_global.flat + beta * worker_term
    if other_globals:
        peer_term = np.stack([g.flat for g in other_globals]).mean(axis=0)
        blended += gamma * peer_term
    return ModelParams(blended, former_global.spec)
