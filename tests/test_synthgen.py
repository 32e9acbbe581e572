"""Synthetic flow generation: determinism, mix accuracy, divergence behavior."""

from __future__ import annotations

import os

import numpy as np
import pytest

from segfl import synthgen

from segfl.flowdata import (
    FLAG_CODES,
    PROTOCOL_CODES,
    LabeledDataset,
    fit_scaler,
    parse_flow_csv,
    write_flow_csv,
    CANONICAL_COLUMN_MAP,
)
from segfl.synthgen import (
    DEFAULT_CLASS_MIX,
    MAX_DIVERGENCE,
    ScenarioData,
    generate,
    make_profile,
    make_scenario,
    stream_scenario,
    to_records,
)


def test_generate_is_deterministic():
    profile = make_profile(divergence=0.3)
    a = generate(profile, 500, seed=11)
    b = generate(profile, 500, seed=11)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = generate(profile, 500, seed=12)
    assert not np.array_equal(a.features, c.features)


def test_class_counts_follow_the_mix_exactly():
    profile = make_profile(class_mix=(0.5, 0.3, 0.2))
    data = generate(profile, 10_000, seed=0)
    assert np.array_equal(np.bincount(data.labels, minlength=3), [5000, 3000, 2000])


def test_default_mix_is_seventeen_to_one_point_two_to_one():
    assert DEFAULT_CLASS_MIX[0] / DEFAULT_CLASS_MIX[2] == pytest.approx(17.0, abs=1e-12)
    assert DEFAULT_CLASS_MIX[1] / DEFAULT_CLASS_MIX[2] == pytest.approx(1.2, abs=1e-12)
    data = generate(make_profile(), 19_200, seed=4)
    counts = np.bincount(data.labels, minlength=3)
    assert np.array_equal(counts, [17_000, 1_200, 1_000])


def test_feature_invariants_hold():
    data = generate(make_profile(divergence=0.8), 3_000, seed=7)
    duration, protocol, src, dst, packets, nbytes, flags = data.features.T
    assert np.all(duration >= 0)
    assert np.all((src >= 0) & (src <= 65535)) and np.all(src == np.round(src))
    assert np.all((dst >= 0) & (dst <= 65535)) and np.all(dst == np.round(dst))
    assert np.all(packets >= 0) and np.all(packets == np.round(packets))
    assert np.all(nbytes >= 0) and np.all(nbytes == np.round(nbytes))
    assert np.all(np.isin(protocol, list(PROTOCOL_CODES.values())))
    assert np.all(np.isin(flags, list(FLAG_CODES.values())))
    assert set(np.unique(data.labels)) <= {0, 1, 2}


def test_zero_divergence_profiles_are_interchangeable():
    # Two ids at divergence 0 use identical distributions, so per-feature
    # means differ only by sampling noise (checked against 3 standard errors).
    a, b = make_scenario(2, ("A", "B"), sizes=6_000, divergence=0.0, seed=21).datasets
    for col in range(7):
        xs, ys = a.features[:, col], b.features[:, col]
        pooled_se = np.sqrt(xs.var() / len(xs) + ys.var() / len(ys))
        assert abs(xs.mean() - ys.mean()) <= 3 * pooled_se, f"feature column {col}"


def test_divergence_monotonically_separates_class_signatures():
    # Distance between per-class feature centroids (on a shared 0-1 scale)
    # grows with the divergence knob.
    base = generate(make_profile(divergence=0.0), 8_000, seed=33)
    scaler = fit_scaler(base)

    def signature_distance(divergence: float) -> float:
        other = generate(make_profile(divergence), 8_000, seed=34)
        total = 0.0
        for cls in range(3):
            mine = scaler.transform(base.features[base.labels == cls]).mean(axis=0)
            theirs = scaler.transform(other.features[other.labels == cls]).mean(axis=0)
            total += float(np.linalg.norm(mine - theirs))
        return total

    d0, d_half, d_full = (signature_distance(t) for t in (0.0, 0.5, 1.0))
    assert d0 < d_half < d_full
    assert d_full > 3 * d0, "full divergence should dominate sampling noise"


def test_generated_data_round_trips_through_csv(tmp_path):
    data = generate(make_profile(divergence=0.5), 200, seed=9)
    path = tmp_path / "flows.csv"
    write_flow_csv(to_records(data), path)
    parsed = parse_flow_csv(path, CANONICAL_COLUMN_MAP)
    assert np.array_equal(parsed.labels, data.labels)
    assert np.array_equal(parsed.features, data.features)


def test_generate_rejects_bad_sizes():
    with pytest.raises(ValueError, match="n must be"):
        generate(make_profile(), 0)


def test_profile_validation():
    with pytest.raises(ValueError, match="divergence"):
        make_profile(divergence=-0.5)
    with pytest.raises(ValueError, match="class_mix"):
        make_profile(class_mix=(0.9, 0.2, 0.2))


def _assert_draws(scenario, knobs, sizes, seed, class_mix=DEFAULT_CLASS_MIX):
    """Worker i's shard is ``generate`` of the profile at ``knobs[i]``, on its own stream."""
    assert len(scenario.datasets) == len(knobs)
    for i, (dataset, knob, size) in enumerate(zip(scenario.datasets, knobs, sizes)):
        worker_seed = int(np.random.SeedSequence([seed, 7919, i]).generate_state(1)[0])
        expected = generate(make_profile(knob, class_mix), size, worker_seed)
        assert dataset.features.tobytes() == expected.features.tobytes(), f"worker {i}"
        assert dataset.labels.tobytes() == expected.labels.tobytes(), f"worker {i}"


def test_scenario_spreads_knobs_by_first_appearance():
    scenario = make_scenario(4, ("A", "A", "B", "B"), sizes=(100, 100, 50, 50), divergence=0.8, seed=5)
    _assert_draws(scenario, (0, 0, 0.8, 0.8), (100, 100, 50, 50), seed=5)


def test_scenario_three_distinct_profiles_space_evenly():
    mix = (0.5, 0.3, 0.2)
    scenario = make_scenario(3, ("A", "B", "C"), sizes=60, divergence=1.0, class_mix=mix, seed=1)
    _assert_draws(scenario, (0, 0.5, 1.0), (60, 60, 60), seed=1, class_mix=mix)


def test_scenario_single_profile_sits_at_base():
    scenario = make_scenario(2, ("A",), sizes=40, divergence=1.0, seed=2)
    _assert_draws(scenario, (0, 0), (40, 40), seed=2)


def test_scenario_cycles_profiles_over_workers():
    scenario = make_scenario(5, ("A", "A", "A", "B", "B"), sizes=30, divergence=1.0, seed=3)
    _assert_draws(scenario, (0, 0, 0, 1, 1), (30,) * 5, seed=3)


def test_stream_scenario_checks_at_the_call_and_draws_one_shard_per_next():
    with pytest.raises(ValueError, match="class_mix"):
        stream_scenario(2, ("A", "B"), sizes=10, class_mix=(0.9, 0.2, 0.2))
    shards = stream_scenario(3, ("A", "B"), sizes=(30, 20, 10), seed=4)
    assert iter(shards) is shards
    drawn = list(shards)
    assert all(isinstance(shard, LabeledDataset) for shard in drawn)
    _assert_draws(ScenarioData(tuple(drawn)), (0, 1, 0), (30, 20, 10), seed=4)


def test_scenario_workers_draw_independent_data():
    scenario = make_scenario(2, ("A", "A"), sizes=300, divergence=0.0, seed=6)
    assert not np.array_equal(scenario.datasets[0].features, scenario.datasets[1].features)


def test_scenario_is_deterministic_in_the_master_seed():
    a = make_scenario(3, ("A", "B"), sizes=80, divergence=1.0, seed=9)
    b = make_scenario(3, ("A", "B"), sizes=80, divergence=1.0, seed=9)
    for x, y in zip(a.datasets, b.datasets):
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)


def test_scenario_validation():
    with pytest.raises(ValueError, match="n_workers"):
        make_scenario(0, ("A",), sizes=10)
    with pytest.raises(ValueError, match="non-empty"):
        make_scenario(2, (), sizes=10)
    with pytest.raises(ValueError, match="size"):
        make_scenario(2, ("A",), sizes=(10, 0))
    with pytest.raises(ValueError, match="int64"):
        make_scenario(2, ("A",), sizes=(10, 2**63))
    # Each shard alone fits in physical memory at 64 B a row; both together do not.
    half = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 64 // 2 + 1
    with pytest.raises(ValueError, match=f"sizes must fit in memory: {2 * half} rows at 64 B"):
        make_scenario(2, ("A",), sizes=half)
    with pytest.raises(ValueError, match="divergence must be at most 4.75.*got inf"):
        make_scenario(2, ("A", "B"), sizes=10, divergence=float("inf"))


def test_divergence_stops_where_a_mixture_weight_reaches_zero():
    weights = [c.weight for cls in make_profile(MAX_DIVERGENCE).class_params for c in cls]
    assert min(weights) == 0.0
    assert generate(make_profile(MAX_DIVERGENCE), 500, seed=1).sample_count == 500
    # Just past the bound, the interpolation would make that weight negative.
    beyond = MAX_DIVERGENCE * (1 + 1e-9)
    base, alt = synthgen._BASE[0][1], synthgen._ALT[0][1]
    assert synthgen._lerp(base.weight, alt.weight, beyond) < 0
    for value in (beyond, 5, 1e308, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="divergence must be"):
            make_profile(value)
