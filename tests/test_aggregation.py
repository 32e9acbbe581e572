"""The three-component blend, checked against a scalar oracle and reference averaging."""

from __future__ import annotations

import numpy as np
import pytest

from segfl.aggregation import AggregationWeights, LocalContribution, weighted_aggregate
from segfl.nnet import LayerSpec, ModelParams


def _oracle_blend(former, worker_vectors, counts, peer_vectors, alpha, beta, gamma):
    """Pure-Python, per-coordinate restatement of the update rule."""
    if not peer_vectors:
        alpha, beta, gamma = alpha / (alpha + beta), beta / (alpha + beta), 0.0
    total = sum(counts)
    out = []
    for j in range(len(former)):
        worker = sum(counts[i] / total * worker_vectors[i][j] for i in range(len(counts)))
        peer = sum(v[j] for v in peer_vectors) / len(peer_vectors) if peer_vectors else 0.0
        out.append(alpha * former[j] + beta * worker + gamma * peer)
    return out


def _vec_spec(length: int) -> LayerSpec:
    # input_dim=length-1 with no hidden layer and one output gives exactly
    # `length` parameters: length-1 weights plus one bias.
    return LayerSpec(input_dim=length - 1, hidden_dims=(), output_dim=1)


def _params(values) -> ModelParams:
    values = np.asarray(values, dtype=np.float64)
    return ModelParams(values, _vec_spec(len(values)))


def fedavg(contributions: list[LocalContribution]) -> ModelParams:
    """Reference averaging: the unweighted per-coordinate mean, counts ignored."""
    stacked = np.stack([c.params.flat for c in contributions])
    return ModelParams(stacked.mean(axis=0), contributions[0].params.spec)


def test_fedavg_single_contribution_is_identity():
    contribution = LocalContribution(_params([1.5, -2.0, 0.25]), 10)
    out = fedavg([contribution])
    assert np.array_equal(out.flat, [1.5, -2.0, 0.25])


def test_fedavg_two_vectors_hand_case():
    out = fedavg([LocalContribution(_params([1.0, 1.0]), 5), LocalContribution(_params([3.0, 3.0]), 1)])
    assert np.array_equal(out.flat, [2.0, 2.0]), "fedavg ignores sample counts"


def test_fedavg_matches_brute_force_mean():
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        length = int(rng.integers(2, 30))
        vectors = [rng.normal(size=length) for _ in range(k)]
        out = fedavg([LocalContribution(_params(v), int(rng.integers(1, 100))) for v in vectors])
        expected = [sum(v[j] for v in vectors) / k for j in range(length)]
        assert np.allclose(out.flat, expected, rtol=0, atol=1e-12)


def test_contribution_rejects_non_positive_count():
    with pytest.raises(ValueError, match="sample_count"):
        LocalContribution(_params([0.0, 0.0]), 0)


def test_weighted_aggregate_hand_case_no_peers():
    # Two workers, counts 1 and 3: weighted mean = (2 + 3*5)/4 = 4.25 per
    # coordinate.  With alpha = gamma = 0 the update is that mean verbatim
    # (gamma folds away because there are no other groups).
    out = weighted_aggregate(
        _params([100.0, 100.0]),
        [LocalContribution(_params([2.0, 2.0]), 1), LocalContribution(_params([5.0, 5.0]), 3)],
        [],
        AggregationWeights(alpha=0.0, beta=1.0, gamma=0.0),
    )
    assert np.allclose(out.flat, [4.25, 4.25], rtol=0, atol=1e-15)


def test_alpha_one_keeps_former_global_exactly():
    former = _params([0.5, -1.25, 3.0])
    out = weighted_aggregate(
        former,
        [LocalContribution(_params([9.0, 9.0, 9.0]), 4)],
        [_params([7.0, 7.0, 7.0])],
        AggregationWeights(alpha=1.0, beta=0.0, gamma=0.0),
    )
    assert np.array_equal(out.flat, former.flat)
    assert out is not former and out.flat is not former.flat


def test_equal_counts_pure_beta_reduces_to_fedavg():
    rng = np.random.default_rng(77)
    vectors = [rng.normal(size=6) for _ in range(4)]
    contributions = [LocalContribution(_params(v), 13) for v in vectors]
    blended = weighted_aggregate(
        _params(np.zeros(6)), contributions, [], AggregationWeights(0.0, 1.0, 0.0)
    )
    assert np.allclose(blended.flat, fedavg(contributions).flat, rtol=0, atol=1e-12)


def test_gamma_renormalizes_when_no_other_groups():
    # (0.2, 0.6, 0.2) with no peers must behave as (0.25, 0.75).
    former = _params([8.0, 8.0])
    contribution = [LocalContribution(_params([4.0, 4.0]), 2)]
    out = weighted_aggregate(former, contribution, [], AggregationWeights(0.2, 0.6, 0.2))
    assert np.allclose(out.flat, [0.25 * 8.0 + 0.75 * 4.0] * 2, rtol=0, atol=1e-12)


def test_weight_validation():
    former = _params([1.0, 1.0])
    contribution = [LocalContribution(_params([2.0, 2.0]), 1)]
    with pytest.raises(ValueError, match="non-negative"):
        weighted_aggregate(former, contribution, [], AggregationWeights(-0.1, 0.9, 0.2))
    with pytest.raises(ValueError, match="sum to 1"):
        weighted_aggregate(former, contribution, [], AggregationWeights(0.5, 0.4, 0.3))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-negative|sum to 1"):
            weighted_aggregate(former, contribution, [], AggregationWeights(0.5, 0.5, bad))
        with pytest.raises(ValueError, match="non-negative|sum to 1"):
            weighted_aggregate(former, contribution, [], AggregationWeights(bad, 0.5, 0.0))
    with pytest.raises(ValueError, match="alpha \\+ beta"):
        weighted_aggregate(former, contribution, [], AggregationWeights(0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="at least one"):
        weighted_aggregate(former, [], [], AggregationWeights(0.2, 0.6, 0.2))
    longer = [LocalContribution(_params([1.0, 2.0, 3.0]), 1)]
    with pytest.raises(ValueError, match="mismatched"):
        weighted_aggregate(former, longer, [], AggregationWeights(0.2, 0.6, 0.2))


def test_blend_matches_oracle_across_random_instances():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        length = int(rng.integers(2, 51))
        k = int(rng.integers(1, 9))
        m = int(rng.integers(0, 4))
        raw = rng.random(3) + 0.05
        alpha, beta, gamma = (raw / raw.sum()).tolist()
        former = rng.normal(size=length)
        vectors = [rng.normal(size=length) for _ in range(k)]
        counts = [int(rng.integers(1, 500)) for _ in range(k)]
        peers = [rng.normal(size=length) for _ in range(m)]

        out = weighted_aggregate(
            _params(former),
            [LocalContribution(_params(v), c) for v, c in zip(vectors, counts)],
            [_params(p) for p in peers],
            AggregationWeights(alpha, beta, gamma),
        )
        expected = _oracle_blend(former, vectors, counts, peers, alpha, beta, gamma)
        assert np.allclose(out.flat, expected, rtol=0, atol=1e-12), f"trial {trial}"


def test_blend_stays_inside_coordinate_envelope():
    # A convex combination can never leave [min, max] of its ingredients.
    rng = np.random.default_rng(404)
    for _ in range(50):
        length = int(rng.integers(2, 20))
        former = rng.normal(size=length)
        vectors = [rng.normal(size=length) for _ in range(3)]
        peers = [rng.normal(size=length) for _ in range(2)]
        out = weighted_aggregate(
            _params(former),
            [LocalContribution(_params(v), int(rng.integers(1, 50))) for v in vectors],
            [_params(p) for p in peers],
            AggregationWeights(0.3, 0.5, 0.2),
        )
        everything = np.stack([former, *vectors, *peers])
        assert np.all(out.flat <= everything.max(axis=0) + 1e-12)
        assert np.all(out.flat >= everything.min(axis=0) - 1e-12)


def test_contribution_order_does_not_matter():
    rng = np.random.default_rng(55)
    vectors = [rng.normal(size=8) for _ in range(5)]
    counts = [3, 11, 2, 7, 5]
    former = _params(rng.normal(size=8))
    peers = [_params(rng.normal(size=8))]
    weights = AggregationWeights(0.2, 0.6, 0.2)

    forward_order = [LocalContribution(_params(v), c) for v, c in zip(vectors, counts)]
    shuffled = [forward_order[i] for i in (4, 2, 0, 3, 1)]
    a = weighted_aggregate(former, forward_order, peers, weights)
    b = weighted_aggregate(former, shuffled, peers, weights)
    assert np.allclose(a.flat, b.flat, rtol=0, atol=1e-12)


def test_rescaling_all_counts_changes_nothing():
    rng = np.random.default_rng(66)
    vectors = [rng.normal(size=5) for _ in range(3)]
    counts = [2, 9, 4]
    former = _params(rng.normal(size=5))
    weights = AggregationWeights(0.4, 0.6, 0.0)

    base = weighted_aggregate(
        former, [LocalContribution(_params(v), c) for v, c in zip(vectors, counts)], [], weights
    )
    scaled = weighted_aggregate(
        former,
        [LocalContribution(_params(v), 10 * c) for v, c in zip(vectors, counts)],
        [],
        weights,
    )
    assert np.allclose(base.flat, scaled.flat, rtol=0, atol=1e-12)


def test_inputs_are_never_mutated():
    former = _params([1.0, 2.0])
    worker = _params([3.0, 4.0])
    peer = _params([5.0, 6.0])
    weighted_aggregate(
        former, [LocalContribution(worker, 2)], [peer], AggregationWeights(0.2, 0.6, 0.2)
    )
    assert np.array_equal(former.flat, [1.0, 2.0])
    assert np.array_equal(worker.flat, [3.0, 4.0])
    assert np.array_equal(peer.flat, [5.0, 6.0])
