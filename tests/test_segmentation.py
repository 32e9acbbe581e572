"""Evaluation scoring and the regrouping planner."""

from __future__ import annotations

import math

import numpy as np
import pytest

from segfl.nnet import LayerSpec, ModelParams
from segfl.segmentation import (
    EvalScores,
    SegmentationConfig,
    eval_score,
    segment,
    threshold,
)

_SPEC = LayerSpec(input_dim=2, hidden_dims=(), output_dim=1)  # 3 parameters


def _params(values) -> ModelParams:
    return ModelParams(np.asarray(values, dtype=np.float64), _SPEC)


def _oracle_scores(window_values: dict[int, list[float]]):
    """Scalar restatement: mean, center on group mean, logistic squash."""
    ids = sorted(window_values)
    means = {w: sum(v) / len(v) for w, v in window_values.items()}
    group_mean = sum(means[w] for w in ids) / len(ids)
    return {w: 1.0 / (1.0 + math.exp(-(means[w] - group_mean))) for w in ids}


def test_two_worker_hand_case():
    scores = eval_score({1: [0.9], 2: [0.7]})
    assert scores.worker_ids == (1, 2)
    oracle = _oracle_scores({1: [0.9], 2: [0.7]})
    assert scores.score_of(1) == pytest.approx(oracle[1], abs=1e-12)
    assert scores.score_of(2) == pytest.approx(oracle[2], abs=1e-12)
    # Four-decimal spot values for the logistic at +/-0.1.
    assert scores.score_of(1) == pytest.approx(0.5250, abs=1e-4)
    assert scores.score_of(2) == pytest.approx(0.4750, abs=1e-4)


def test_identical_windows_score_exactly_half():
    scores = eval_score({1: [0.8, 0.8], 2: [0.8, 0.8], 3: [0.8, 0.8]})
    # The group mean may land an ulp away from the common value; the scores
    # must still collapse to one half exactly.
    assert np.all(scores.score == 0.5)


def test_single_worker_scores_half():
    scores = eval_score({42: [0.1, 0.9]})
    assert scores.worker_ids == (42,)
    assert scores.score_of(42) == 0.5


def test_offsets_sum_to_zero_and_match_oracle():
    rng = np.random.default_rng(100)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        windows = {
            int(wid): rng.random(int(rng.integers(1, 5))).tolist()
            for wid in rng.choice(1000, size=n, replace=False)
        }
        scores = eval_score(windows)
        oracle = _oracle_scores(windows)
        for wid in windows:
            assert scores.score_of(wid) == pytest.approx(oracle[wid], abs=1e-12)


def test_scores_are_invariant_to_a_common_shift():
    base = {1: [0.4, 0.5], 2: [0.6], 3: [0.7, 0.8, 0.9]}
    shifted = {w: [v + 0.125 for v in vals] for w, vals in base.items()}
    a, b = eval_score(base), eval_score(shifted)
    assert np.allclose(a.score, b.score, rtol=0, atol=1e-12)


def test_scores_are_monotone_in_window_mean():
    scores = eval_score({1: [0.2], 2: [0.5], 3: [0.8]})
    assert scores.score_of(1) < scores.score_of(2) < scores.score_of(3)


def test_eval_score_input_validation():
    with pytest.raises(ValueError, match="at least one worker"):
        eval_score({})
    with pytest.raises(ValueError, match="empty validation window"):
        eval_score({1: [0.5], 2: []})


def test_threshold_values():
    assert abs(threshold(SegmentationConfig(fineness=7)) - 0.43) < 1e-15
    assert threshold(SegmentationConfig(fineness=0)) == 0.5
    assert threshold(SegmentationConfig(fineness=10)) == pytest.approx(0.40, abs=1e-15)


def test_config_validation():
    with pytest.raises(ValueError, match="threshold"):
        SegmentationConfig(fineness=50)
    with pytest.raises(ValueError, match="eval_every"):
        SegmentationConfig(eval_every=0)
    with pytest.raises(ValueError, match="max_groups"):
        SegmentationConfig(max_groups=0)


def _fail_cross_fit(wid: int, gid: int) -> float:
    raise AssertionError(f"cross_fit should not be consulted (worker {wid}, group {gid})")


def test_segment_keeps_everyone_when_scores_are_close():
    scores = eval_score({1: [0.80], 2: [0.81], 3: [0.79]})
    plan = segment(
        group_id=1,
        scores=scores,
        live_group_ids=[1],
        config=SegmentationConfig(fineness=7),
        local_params={},
        cross_fit=_fail_cross_fit,
        new_id=2,
    )
    assert plan.destinations == {1: 1, 2: 1, 3: 1}
    assert plan.new_group is None


def _spread_scores() -> EvalScores:
    # Workers 3 and 4 trail the pack by enough to cross the 0.43 cutoff:
    # offsets are +/-0.3, and sigmoid(-0.3) ~= 0.4256 < 0.43.
    return eval_score({1: [0.90], 2: [0.90], 3: [0.30], 4: [0.30]})


def test_segment_spawns_group_seeded_with_mean_params():
    scores = _spread_scores()
    locals_ = {3: _params([1.0, 2.0, 3.0]), 4: _params([3.0, 4.0, 7.0])}
    plan = segment(
        group_id=1,
        scores=scores,
        live_group_ids=[1],
        config=SegmentationConfig(fineness=7, max_groups=3),
        local_params=locals_,
        cross_fit=_fail_cross_fit,
        new_id=2,
    )
    assert plan.destinations == {1: 1, 2: 1, 3: 2, 4: 2}
    assert plan.new_group is not None
    assert np.array_equal(plan.new_group.flat, [2.0, 3.0, 5.0])


def test_segment_respects_group_capacity():
    scores = _spread_scores()
    plan = segment(
        group_id=1,
        scores=scores,
        live_group_ids=[1, 2, 3],
        config=SegmentationConfig(fineness=7, max_groups=3),
        local_params={},
        cross_fit=lambda wid, gid: 0.0,  # no group fits better than their own mean
        new_id=4,
    )
    assert plan.new_group is None
    assert plan.destinations == {1: 1, 2: 1, 3: 1, 4: 1}, "at capacity, misfits stay put"


def test_segment_moves_misfit_to_better_fitting_group():
    scores = _spread_scores()
    fits = {(3, 2): 0.45, (3, 5): 0.10, (4, 2): 0.10, (4, 5): 0.05}
    plan = segment(
        group_id=1,
        scores=scores,
        live_group_ids=[1, 2, 5],
        config=SegmentationConfig(fineness=7, max_groups=3),
        local_params={},
        cross_fit=lambda wid, gid: fits[(wid, gid)],
        new_id=6,
    )
    # Worker 3's window mean is 0.30; group 2 serves it at 0.45 >= 0.30.
    # Worker 4's best cross fit (0.10) is below its own mean, and the group
    # cap is already reached, so it stays.
    assert plan.destinations == {1: 1, 2: 1, 3: 2, 4: 1}
    assert plan.new_group is None


def test_segment_breaks_cross_fit_ties_toward_lower_group_id():
    scores = _spread_scores()
    plan = segment(
        group_id=1,
        scores=scores,
        live_group_ids=[1, 4, 2],
        config=SegmentationConfig(fineness=7, max_groups=3),
        local_params={},
        cross_fit=lambda wid, gid: 0.99,  # every candidate looks equally good
        new_id=5,
    )
    assert plan.destinations == {1: 1, 2: 1, 3: 2, 4: 2}


def test_segment_exact_cutoff_stays():
    # A score exactly at the cutoff is not a misfit (strict less-than).
    config = SegmentationConfig(fineness=7)
    cut = threshold(config)
    scores = EvalScores(
        worker_ids=(1, 2),
        window_mean=np.array([0.9, 0.1]),
        score=np.array([0.57, cut]),
    )
    plan = segment(1, scores, [1], config, {}, _fail_cross_fit, 2)
    assert plan.destinations == {1: 1, 2: 1}


def test_lower_fineness_catches_a_superset_of_misfits():
    rng = np.random.default_rng(12)
    for trial in range(30):
        n = int(rng.integers(2, 7))
        windows = {w: rng.random(3).tolist() for w in range(1, n + 1)}
        scores = eval_score(windows)

        def misfits_at(fineness: int) -> set[int]:
            # With no other group to move to and room for one more, every misfit founds it.
            plan = segment(
                group_id=1,
                scores=scores,
                live_group_ids=[1],
                config=SegmentationConfig(fineness=fineness, max_groups=2),
                local_params={w: _params([0.0, 0.0, 0.0]) for w in windows},
                cross_fit=_fail_cross_fit,
                new_id=2,
            )
            return {w for w, g in plan.destinations.items() if g == 2}

        # fineness 3 -> cutoff 0.47 flags at least everyone that 7 -> 0.43 does.
        assert misfits_at(7) <= misfits_at(3), f"trial {trial}"


def test_every_member_is_planned_exactly_once():
    rng = np.random.default_rng(9)
    for trial in range(40):
        n = int(rng.integers(1, 8))
        ids = sorted(int(w) for w in rng.choice(50, size=n, replace=False))
        windows = {w: (rng.random(3) * 2 - 0.5).tolist() for w in ids}
        scores = eval_score(windows)
        live = [1] + sorted(int(g) for g in rng.choice(range(2, 10), size=int(rng.integers(0, 3)), replace=False))
        fits = {(w, g): float(rng.random()) for w in ids for g in live if g != 1}
        locals_ = {w: _params(rng.normal(size=3)) for w in ids}
        new_id = max(live) + 1
        plan = segment(
            group_id=1,
            scores=scores,
            live_group_ids=live,
            config=SegmentationConfig(fineness=int(rng.integers(0, 20)), max_groups=4),
            local_params=locals_,
            cross_fit=lambda w, g: fits[(w, g)],
            new_id=new_id,
        )
        assert list(plan.destinations) == ids, f"trial {trial}: a member not planned once"
        founders = [w for w, g in plan.destinations.items() if g == new_id]
        assert bool(founders) == (plan.new_group is not None), f"trial {trial}"
        assert set(plan.destinations.values()) <= set(live) | {new_id}, f"trial {trial}"
