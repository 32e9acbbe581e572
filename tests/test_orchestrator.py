"""Round loop, aggregation wiring, regrouping, checkpoints, determinism."""

from __future__ import annotations

import weakref
from dataclasses import replace

import numpy as np
import pytest

from segfl.aggregation import AggregationWeights
from segfl.flowdata import LabeledDataset, write_flow_csv
from segfl.nnet import LayerSpec, ModelParams, TrainConfig, init_params, train_local
from segfl import orchestrator
from segfl.orchestrator import (
    DataSpec,
    ExperimentConfig,
    RunSinks,
    WorkerState,
    broadcast_initial,
    build_worker_data,
    derive_seed,
    evaluate_and_segment,
    load_checkpoint,
    run_experiment,
    run_round,
    write_checkpoint,
    _round_robin_window,
)
from segfl.resample import ResampleConfig
from segfl.segmentation import SegmentationConfig
from segfl.synthgen import generate, make_profile, to_records

_TOY_SPEC = LayerSpec(input_dim=2, hidden_dims=(), output_dim=3)


def _toy_worker(wid: int, rng: np.random.Generator, n_train: int = 12) -> WorkerState:
    test_labels = np.array([0, 1, 2, 0, 1, 2])
    return WorkerState(
        worker_id=wid,
        group_id=0,
        train=LabeledDataset(rng.random((n_train, 2)), rng.integers(0, 3, size=n_train)),
        validation=LabeledDataset(rng.random((6, 2)), rng.integers(0, 3, size=6)),
        test=LabeledDataset(rng.random((6, 2)), test_labels),
        sample_count=n_train,
        params=ModelParams(np.zeros(_TOY_SPEC.n_params), _TOY_SPEC),
    )


def _toy_config(**kwargs) -> ExperimentConfig:
    defaults = dict(
        mode="fl",
        rounds=5,
        participants_per_round=None,
        train=TrainConfig(epochs=1, batch_size=4, learning_rate=0.2, seed=0),
        weights=AggregationWeights(0.0, 1.0, 0.0),
        hidden_dims=(),
        seed=123,
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def _small_synthetic(**kwargs) -> ExperimentConfig:
    defaults = dict(
        mode="segmented_fl",
        rounds=4,
        participants_per_round=None,
        train=TrainConfig(epochs=1, batch_size=32, learning_rate=0.1, seed=0),
        weights=AggregationWeights(0.2, 0.6, 0.2),
        segmentation=SegmentationConfig(fineness=7, eval_every=2, window=2, max_groups=3),
        hidden_dims=(8,),
        resample=ResampleConfig(neighbors_k=3, target_ratio=2.0),
        seed=5,
        data=DataSpec(
            source="synthetic",
            n_workers=2,
            profiles=("A", "B"),
            sizes=(400, 400),
            divergence=1.0,
        ),
    )
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


def test_derive_seed_is_deterministic_and_tag_sensitive():
    assert derive_seed(7, "train", 1, 2) == derive_seed(7, "train", 1, 2)
    seen = {
        derive_seed(7, "train", 1, 2),
        derive_seed(7, "train", 2, 1),
        derive_seed(7, "val", 1, 2),
        derive_seed(8, "train", 1, 2),
        derive_seed(7, "train", 1, 3),
    }
    assert len(seen) == 5, "different tags must give different streams"
    assert all(0 <= s < 2**32 for s in seen)


def test_round_robin_window_cycles_and_wraps():
    members = [1, 2, 3, 4]
    assert _round_robin_window(members, 1, 3) == [1, 2, 3]
    assert _round_robin_window(members, 2, 3) == [4, 1, 2]
    assert _round_robin_window(members, 3, 3) == [3, 4, 1]
    assert _round_robin_window(members, 1, None) == members
    assert _round_robin_window(members, 1, 9) == members
    # Width 1 visits every member over len(members) consecutive rounds.
    visited = [_round_robin_window(members, r, 1)[0] for r in range(1, 5)]
    assert sorted(visited) == members


def test_build_worker_data_shapes_and_accounting():
    config = _small_synthetic()
    workers = build_worker_data(config)
    assert [w.worker_id for w in workers] == [1, 2]
    for worker in workers:
        assert worker.sample_count == worker.train.sample_count + worker.validation.sample_count
        assert worker.train.features.min() >= 0.0 and worker.train.features.max() <= 1.0
        assert worker.validation.features.min() >= 0.0 and worker.validation.features.max() <= 1.0
        assert set(np.unique(worker.train.labels)) <= {0, 1, 2}
        assert worker.test.sample_count > 0
        assert worker.val_history == []


def test_flow_files_are_prepared_one_raw_shard_at_a_time(tmp_path, monkeypatch):
    paths = []
    for i in range(4):
        paths.append(tmp_path / f"flows_{i + 1}.csv")
        write_flow_csv(to_records(generate(make_profile("A"), 400, seed=i)), paths[-1])
    returned, alive_at_read = [], []
    read_flows = orchestrator._read_flows

    def tracked(*args):
        alive_at_read.append(sum(ref() is not None for ref in returned))
        shard = read_flows(*args)
        returned.append(weakref.ref(shard))
        return shard

    monkeypatch.setattr(orchestrator, "_read_flows", tracked)
    data = DataSpec(source="files", paths=tuple(map(str, paths)))
    workers = build_worker_data(_small_synthetic(data=data))
    assert [w.worker_id for w in workers] == [1, 2, 3, 4]
    # Each file is read after the shard before it is prepared and dropped.
    assert alive_at_read == [0, 0, 0, 0]


def test_unscaled_training_copy_is_dropped_before_the_validation_split(monkeypatch):
    splits = []  # weak references to each split's (train, test), two splits per worker
    raw_train_dead = []
    split = orchestrator.train_test_split

    def tracked(*args):
        if len(splits) % 2:  # the worker's validation split
            raw_train_dead.append(splits[-1][0]() is None)
        result = split(*args)
        splits.append(tuple(map(weakref.ref, result)))
        return result

    monkeypatch.setattr(orchestrator, "train_test_split", tracked)
    for target_ratio in (2.0, 1.0e6):  # NearMiss-3 drops rows, then has nothing to drop
        splits.clear()
        resample = ResampleConfig(neighbors_k=3, target_ratio=target_ratio)
        assert len(build_worker_data(_small_synthetic(resample=resample))) == 2
    assert raw_train_dead == [True] * 4


def test_broadcast_initial_puts_everyone_in_one_group():
    rng = np.random.default_rng(0)
    workers_list = [_toy_worker(wid, rng) for wid in (1, 2, 3)]
    config = _toy_config()
    workers, groups = broadcast_initial(workers_list, config)
    assert set(groups) == {1}
    assert sorted(workers) == [1, 2, 3]
    for wid, worker in workers.items():
        assert worker.group_id == 1
        assert np.array_equal(worker.params.flat, groups[1].flat)
        assert worker.params is not groups[1]


def test_fl_rounds_match_a_reference_averaging_loop():
    # Full participation, equal shard sizes, pure worker term: every round
    # must equal train-everyone-then-average exactly.
    rng = np.random.default_rng(1)
    workers_list = [_toy_worker(wid, rng, n_train=10) for wid in (1, 2, 3)]
    config = _toy_config(rounds=5)
    workers, groups = broadcast_initial(workers_list, config)

    reference = init_params(_TOY_SPEC, derive_seed(config.seed, "init"))
    assert np.array_equal(groups[1].flat, reference.flat)

    for round_no in range(1, 6):
        trained = [
            train_local(
                reference,
                workers[wid].train,
                replace(config.train, seed=derive_seed(config.seed, "train", wid, round_no)),
            )
            for wid in (1, 2, 3)
        ]
        reference = ModelParams(np.stack([t.flat for t in trained]).mean(axis=0), _TOY_SPEC)
        run_round(workers, groups, round_no, config)
        assert np.allclose(groups[1].flat, reference.flat, rtol=0, atol=1e-12), (
            f"diverged at round {round_no}"
        )


def test_peer_group_term_uses_pre_round_snapshot():
    rng = np.random.default_rng(2)
    workers = {wid: _toy_worker(wid, rng) for wid in (1, 2, 3)}
    workers[1].sample_count, workers[2].sample_count, workers[3].sample_count = 10, 30, 12
    g1 = init_params(_TOY_SPEC, seed=101)
    g2 = init_params(_TOY_SPEC, seed=202)
    for wid, gid in ((1, 1), (2, 1), (3, 2)):
        workers[wid].group_id = gid
    groups = {1: g1.copy(), 2: g2.copy()}
    config = _toy_config(weights=AggregationWeights(0.5, 0.3, 0.2), seed=77)

    def _trained(wid: int, start: ModelParams) -> np.ndarray:
        out = train_local(
            start,
            workers[wid].train,
            replace(config.train, seed=derive_seed(config.seed, "train", wid, 1)),
        )
        return out.flat

    t1, t2, t3 = _trained(1, g1), _trained(2, g1), _trained(3, g2)
    run_round(workers, groups, 1, config)

    expected_g1 = 0.5 * g1.flat + 0.3 * ((10 * t1 + 30 * t2) / 40) + 0.2 * g2.flat
    # Group 2 blends against group 1's value from BEFORE this round's update.
    expected_g2 = 0.5 * g2.flat + 0.3 * t3 + 0.2 * g1.flat
    assert np.allclose(groups[1].flat, expected_g1, rtol=0, atol=1e-12)
    assert np.allclose(groups[2].flat, expected_g2, rtol=0, atol=1e-12)

    assert np.array_equal(workers[1].params.flat, t1)
    assert np.array_equal(workers[3].params.flat, t3)
    for wid in (1, 2, 3):
        assert len(workers[wid].val_history) == 1


def test_non_trainers_keep_the_downloaded_global():
    rng = np.random.default_rng(3)
    workers_list = [_toy_worker(wid, rng) for wid in (1, 2, 3)]
    config = _toy_config(participants_per_round=1, weights=AggregationWeights(0.2, 0.6, 0.2))
    workers, groups = broadcast_initial(workers_list, config)
    old_global = groups[1].flat.copy()

    run_round(workers, groups, 1, config)

    assert np.array_equal(workers[2].params.flat, old_global)
    assert np.array_equal(workers[3].params.flat, old_global)
    assert not np.array_equal(workers[1].params.flat, old_global), "worker 1 trained"
    assert not np.array_equal(groups[1].flat, old_global), "global was refreshed"


def test_round_report_rows_are_ordered_and_scored():
    rng = np.random.default_rng(4)
    workers_list = [_toy_worker(wid, rng) for wid in (1, 2)]
    config = _toy_config(rounds=1)
    workers, groups = broadcast_initial(workers_list, config)
    report = run_round(workers, groups, 1, config)
    assert report.round_no == 1
    assert [row.worker_id for row in report.workers] == [1, 2]
    for row in report.workers:
        assert row.group_id == 1
        assert 0.0 <= row.accuracy <= 1.0
        assert 0.0 <= row.macro_f1 <= 1.0
        assert 0.0 <= row.auroc <= 1.0
        assert row.train_loss >= 0.0
        assert len(row.precision) == len(row.recall) == len(row.f1) == 3


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    workers_list = [_toy_worker(wid, rng) for wid in (1, 2, 3)]
    config = _toy_config()
    workers, groups = broadcast_initial(workers_list, config)
    run_round(workers, groups, 1, config)

    target = write_checkpoint(tmp_path, 1, workers, groups)
    assert target.name == "round_0001"
    loaded = load_checkpoint(target)
    assert loaded["round"] == 1
    assert set(loaded["groups"]) == {1}
    assert loaded["groups"][1]["members"] == [1, 2, 3]
    assert loaded["groups"][1]["retired"] is False
    assert np.array_equal(loaded["groups"][1]["params"].flat, groups[1].flat)
    for wid in (1, 2, 3):
        assert loaded["workers"][wid]["group"] == 1
        assert loaded["workers"][wid]["val_history"] == workers[wid].val_history
        assert np.array_equal(loaded["workers"][wid]["params"].flat, workers[wid].params.flat)


def test_boundary_founds_a_group_that_a_later_plan_moves_into(tmp_path, monkeypatch):
    # Groups 1-3 are live.  Worker 3 misfits group 1 and fits nowhere, so it
    # founds group 4; worker 5 then misfits group 2 and moves into group 4.
    rng = np.random.default_rng(8)
    workers = {wid: _toy_worker(wid, rng) for wid in range(1, 7)}
    histories = {1: 0.9, 2: 0.9, 3: 0.1, 4: 0.9, 5: 0.1, 6: 0.5}
    for wid, gid in {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3}.items():
        workers[wid].group_id = gid
        workers[wid].val_history = [histories[wid]]
    # A group's parameters hold its id in every coordinate; worker 3's local
    # parameters seed group 4.
    workers[3].params = ModelParams(np.full(_TOY_SPEC.n_params, 4.0), _TOY_SPEC)
    groups = {
        gid: ModelParams(np.full(_TOY_SPEC.n_params, float(gid)), _TOY_SPEC) for gid in (1, 2, 3)
    }

    asked = []

    def fit(worker, params):
        asked.append((worker.worker_id, int(params.flat[0])))
        return 0.8 if asked[-1] == (5, 4) else 0.0

    monkeypatch.setattr(orchestrator, "_validation_f1", fit)
    config = _toy_config(
        mode="segmented_fl",
        segmentation=SegmentationConfig(fineness=7, eval_every=1, window=1, max_groups=4),
    )
    events = evaluate_and_segment(workers, groups, 1, config)

    assert asked == [(3, 2), (3, 3), (5, 1), (5, 3), (5, 4)]
    assert {wid: w.group_id for wid, w in workers.items()} == {1: 1, 2: 1, 3: 4, 4: 2, 5: 4, 6: 3}
    moves = [(e.worker_id, e.old_group, e.new_group) for e in events]
    assert moves == [(1, 1, 1), (2, 1, 1), (3, 1, 4), (4, 2, 2), (5, 2, 4), (6, 3, 3)]
    assert sorted(groups) == [1, 2, 3, 4]
    assert np.array_equal(groups[4].flat, workers[3].params.flat)

    meta = load_checkpoint(write_checkpoint(tmp_path, 1, workers, groups))
    membership = {gid: (g["members"], g["retired"]) for gid, g in meta["groups"].items()}
    assert membership == {1: ([1, 2], False), 2: ([4], False), 3: ([6], False), 4: ([3, 5], False)}
    # Regrouping never empties a group (its best member scores at least 0.5),
    # so a retired group is set by hand.
    workers[6].group_id = 1
    meta = load_checkpoint(write_checkpoint(tmp_path, 2, workers, groups))
    membership = {gid: (g["members"], g["retired"]) for gid, g in meta["groups"].items()}
    assert membership == {1: ([1, 2, 6], False), 2: ([4], False), 3: ([], True), 4: ([3, 5], False)}
    assert np.array_equal(meta["groups"][3]["params"].flat, groups[3].flat)


def test_run_experiment_is_deterministic():
    config = _small_synthetic()
    a = run_experiment(config)
    b = run_experiment(config)
    assert a.reports == b.reports
    assert a.timeline == b.timeline
    for gid in a.groups:
        assert np.array_equal(a.groups[gid].flat, b.groups[gid].flat)


def test_prepared_workers_are_reset_not_reused():
    config = _small_synthetic(rounds=2)
    fresh = run_experiment(config)
    prepared = build_worker_data(config)
    first = run_experiment(config, prepared_workers=prepared)
    second = run_experiment(config, prepared_workers=prepared)
    assert fresh.reports == first.reports == second.reports


def test_segmented_equals_fl_before_any_boundary():
    config = _small_synthetic(rounds=2, segmentation=SegmentationConfig(eval_every=3, window=3))
    seg = run_experiment(config)
    fl = run_experiment(replace(config, mode="fl"))
    assert seg.timeline == ()
    assert seg.reports == fl.reports


def test_fl_mode_never_produces_timeline_events():
    result = run_experiment(_small_synthetic(mode="fl"))
    assert result.timeline == ()
    assert set(result.groups) == {1}


def test_boundaries_fire_on_schedule_and_stream_to_sinks(tmp_path):
    config = _small_synthetic()  # rounds=4, eval_every=2
    streamed_rounds = []
    streamed_events = []
    sinks = RunSinks(
        on_round=streamed_rounds.append,
        on_timeline=streamed_events.extend,
        checkpoint_dir=tmp_path,
    )
    result = run_experiment(config, sinks=sinks)

    assert tuple(streamed_rounds) == result.reports
    assert tuple(streamed_events) == result.timeline
    assert {e.round_no for e in result.timeline} == {2, 4}
    # Every worker is evaluated at every boundary, whatever its group.
    for boundary in (2, 4):
        assert sorted(e.worker_id for e in result.timeline if e.round_no == boundary) == [1, 2]
    assert (tmp_path / "round_0002").is_dir()
    assert (tmp_path / "round_0004").is_dir()
    assert not (tmp_path / "round_0001").exists()


def test_centralized_trains_one_shared_model():
    config = _small_synthetic(mode="centralized", rounds=2)
    result = run_experiment(config)
    assert len(result.reports) == 2
    assert result.timeline == ()
    assert set(result.groups) == {1}
    flats = [result.workers[wid].params.flat for wid in sorted(result.workers)]
    assert np.array_equal(flats[0], flats[1])
    for report in result.reports:
        assert [row.worker_id for row in report.workers] == [1, 2]
        assert all(row.group_id == 1 for row in report.workers)


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(mode="federated")
    with pytest.raises(ValueError, match="rounds"):
        ExperimentConfig(rounds=0)
    with pytest.raises(ValueError, match="participants_per_round"):
        ExperimentConfig(participants_per_round=0)
    with pytest.raises(ValueError, match="test_fraction"):
        ExperimentConfig(test_fraction=1.5)
