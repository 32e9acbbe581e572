"""Round loop, aggregation wiring, regrouping, determinism."""

from __future__ import annotations

import json
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from segfl.aggregation import AggregationWeights
from segfl.flowdata import (
    CANONICAL_COLUMN_MAP,
    LabeledDataset,
    concat_datasets,
    write_flow_csv,
)
from segfl.nnet import Cohort, LayerSpec, ModelParams, TrainConfig, init_params, train_local
from segfl import orchestrator, synthgen
from segfl.config import load_config
from segfl.orchestrator import (
    DataSpec,
    ExperimentConfig,
    WorkerState,
    broadcast_initial,
    build_worker_data,
    derive_seed,
    evaluate_and_segment,
    run_experiment,
    run_round,
    write_checkpoint,
    _round_robin_window,
)
from segfl.resample import ResampleConfig
from segfl.segmentation import SegmentationConfig
from segfl.synthgen import DEFAULT_CLASS_MIX, generate, make_profile, to_records

_REPO = Path(__file__).resolve().parents[1]
_TOY_SPEC = LayerSpec(input_dim=2, hidden_dims=(), output_dim=3)


def _train_alone(params, data, config, seed):
    """One model trained on its own: a one-shard cohort."""
    (trained,) = train_local([params], Cohort((data,)), config, [seed])
    return trained


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
        train=TrainConfig(epochs=1, batch_size=4, learning_rate=0.2),
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
        train=TrainConfig(epochs=1, batch_size=32, learning_rate=0.1),
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
        write_flow_csv(to_records(generate(make_profile(), 400, seed=i)), paths[-1])
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


def test_synthetic_shards_are_drawn_one_raw_shard_at_a_time(monkeypatch):
    drawn, alive_at_draw = [], []
    draw = synthgen.generate

    def tracked(*args):
        alive_at_draw.append(sum(ref() is not None for ref in drawn))
        shard = draw(*args)
        drawn.append(weakref.ref(shard))
        return shard

    monkeypatch.setattr(synthgen, "generate", tracked)
    data = DataSpec(n_workers=4, profiles=("A", "B"), sizes=400)
    workers = build_worker_data(_small_synthetic(data=data))
    assert [w.worker_id for w in workers] == [1, 2, 3, 4]
    # Each shard is drawn after the shard before it is prepared and dropped.
    assert alive_at_draw == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "data", [DataSpec(n_workers=2), replace(DataSpec(), n_workers=2)], ids=["built", "replaced"]
)
def test_the_default_sizes_fit_any_worker_count(data):
    result = run_experiment(ExperimentConfig(rounds=1, data=data))
    assert [row.worker_id for row in result.reports[0].workers] == [1, 2]


@pytest.mark.parametrize(
    "data, count",
    [
        (DataSpec(n_workers=5), 5),
        (DataSpec(source="files", paths=("a.csv", "b.csv")), 2),
        (DataSpec(source="corpus", corpus="flows.csv", shares=(0.5, 0.3, 0.2)), 3),
    ],
    ids=["synthetic", "files", "corpus"],
)
def test_a_data_spec_counts_its_workers_by_its_source(data, count):
    assert data.worker_count == count


# NearMiss-3 keeps a balanced shard whole and undersamples one of the default mix.
_NEARMISS_CASES = pytest.mark.parametrize(
    "class_mix",
    [(1 / 3, 1 / 3, 1 / 3), DEFAULT_CLASS_MIX],
    ids=["nearmiss-keeps", "nearmiss-drops"],
)


@_NEARMISS_CASES
def test_set_up_holds_one_training_sized_buffer(tmp_path, monkeypatch, class_mix):
    # A 100k-row file.  Before the parser wrote encoded rows into one buffer and
    # the training rows were compacted inside it, set-up peaked about 13 MiB above
    # the raw shard, and NearMiss-3 started with two shard-sized copies alive.
    import scipy.spatial  # noqa: F401  NearMiss-3 imports it on first use; not set-up's memory

    path = tmp_path / "flows.csv"
    write_flow_csv(to_records(generate(make_profile(class_mix=class_mix), 100_000)), path)
    at_nearmiss = []
    nearmiss = orchestrator.nearmiss3_undersample

    def measured(dataset, config):
        at_nearmiss.append(tracemalloc.get_traced_memory())
        result = nearmiss(dataset, config)
        tracemalloc.reset_peak()  # its KD-tree scratch has its own bound, _BLOCK_ELEMENTS
        return result

    monkeypatch.setattr(orchestrator, "nearmiss3_undersample", measured)
    config = _small_synthetic(resample=ResampleConfig(neighbors_k=3, target_ratio=2.0))
    tracemalloc.start()
    try:
        shard = orchestrator._read_flows(path, CANONICAL_COLUMN_MAP, "worker 1")
        raw = shard.features.nbytes + shard.labels.nbytes
        worker = orchestrator._prepare_worker(config, 1, shard)
        del shard
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for d in (worker.train, worker.validation, worker.test)
               for a in (d.features, d.labels))
    (current, before), = at_nearmiss
    assert (worker.sample_count < 80_000) == (class_mix == DEFAULT_CLASS_MIX)
    assert current < raw + 2**20  # the shard's own buffer and the test rows
    assert max(before, peak) - max(raw, kept) < 10 * 2**20


@_NEARMISS_CASES
def test_a_shard_of_views_prepares_like_a_copy_and_stays_unchanged(class_mix):
    data = generate(make_profile(class_mix=class_mix), 3000, seed=4)
    wide_features, wide_labels = np.hstack([data.features] * 2), np.repeat(data.labels, 2)
    views = LabeledDataset(wide_features[:, :7], wide_labels[::2])
    assert not views.features.flags.owndata and not views.labels.flags.owndata
    fortran = np.asfortranarray(data.features)  # owns its data, but not in row order
    before = wide_features.tobytes(), wide_labels.tobytes(), fortran.tobytes()
    config = _small_synthetic()
    copy = LabeledDataset(data.features.copy(), data.labels.copy())
    from_copy = orchestrator._prepare_worker(config, 1, copy)
    for shard in (views, LabeledDataset(fortran, wide_labels[::2].copy())):
        prepared = orchestrator._prepare_worker(config, 1, shard)
        for name in ("train", "validation", "test"):
            ours, theirs = getattr(prepared, name), getattr(from_copy, name)
            assert ours.features.tobytes() == theirs.features.tobytes()
            assert ours.labels.tobytes() == theirs.labels.tobytes()
        assert prepared.sample_count == from_copy.sample_count
    assert (wide_features.tobytes(), wide_labels.tobytes(), fortran.tobytes()) == before
    # NearMiss-3 keeps a balanced shard, whose own arrays then hold the training set.
    assert (from_copy.train is copy) == (class_mix != DEFAULT_CLASS_MIX)


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
        # Shared, not copied: the one vector cannot be written through any holder.
        assert not worker.params.flat.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            worker.params.flat[0] = 1.0


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
            _train_alone(
                reference,
                workers[wid].train,
                config.train,
                derive_seed(config.seed, "train", wid, round_no),
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
    groups = {1: g1, 2: g2}
    config = _toy_config(weights=AggregationWeights(0.5, 0.3, 0.2), seed=77)

    def _trained(wid: int, start: ModelParams) -> np.ndarray:
        out = _train_alone(
            start, workers[wid].train, config.train, derive_seed(config.seed, "train", wid, 1)
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
    old_global = groups[1].flat

    run_round(workers, groups, 1, config)

    assert np.array_equal(workers[2].params.flat, old_global)
    assert np.array_equal(workers[3].params.flat, old_global)
    assert not np.array_equal(workers[1].params.flat, old_global), "worker 1 trained"
    assert not np.array_equal(groups[1].flat, old_global), "global was refreshed"


def test_a_checkpoint_loads_back_bit_for_bit(tmp_path):
    rng = np.random.default_rng(5)
    workers = {wid: _toy_worker(wid, rng) for wid in (1, 2, 3)}
    for wid, gid in ((1, 1), (2, 2), (3, 2)):
        workers[wid].group_id = gid
        workers[wid].params = init_params(_TOY_SPEC, seed=10 + wid)
    groups = {gid: init_params(_TOY_SPEC, seed=gid) for gid in (1, 2)}

    target = write_checkpoint(tmp_path, 7, workers, groups)

    assert target == tmp_path / "round_0007"
    assert sorted(f.name for f in target.iterdir()) == [
        "group_001.npy", "group_002.npy", "meta.json",
        "worker_001.npy", "worker_002.npy", "worker_003.npy",
    ]
    saved = [(f"group_{gid:03d}.npy", params) for gid, params in groups.items()]
    saved += [(f"worker_{wid:03d}.npy", w.params) for wid, w in workers.items()]
    for name, params in saved:
        loaded = np.load(target / name)
        assert loaded.dtype == params.flat.dtype
        assert loaded.tobytes() == params.flat.tobytes()
    meta = json.loads((target / "meta.json").read_text())
    assert meta["round"] == 7
    assert [g["members"] for g in meta["groups"]] == [[1], [2, 3]]


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


def test_boundary_founds_a_group_that_a_later_plan_moves_into(monkeypatch):
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

    # Every run starts from fresh states and leaves the prepared ones as built.
    def untouched():
        return all(w.group_id == 0 and w.params is None and w.val_history == [] for w in prepared)

    assert untouched()
    broadcast_initial(prepared, config)
    assert untouched()
    for mode in orchestrator.MODES:
        run_experiment(replace(config, mode=mode), prepared_workers=prepared)
        assert untouched(), mode


def test_a_shorter_run_is_the_state_after_its_last_round():
    # What a checkpoint after round r would hold: every random stream derives from
    # (seed, tag, worker, round), so a run of r rounds is the longer run's first r.
    demo = load_config(_REPO / "configs" / "segmentation_demo.yaml").experiment
    config = replace(demo, rounds=9)
    full = run_experiment(config)
    assert [(e.round_no, e.worker_id) for e in full.timeline if e.new_group != e.old_group] == [
        (6, 3),
        (9, 4),
    ]
    for r in (6, 7):  # the boundary that founds group 2, and the first round after it
        part = run_experiment(replace(config, rounds=r))
        assert part.reports == full.reports[:r]
        assert part.timeline == tuple(e for e in full.timeline if e.round_no <= r)
        # Round r + 1 of the full run starts from these groups.
        groups = {row.worker_id: row.group_id for row in full.reports[r].workers}
        assert {wid: w.group_id for wid, w in part.workers.items()} == groups


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


def test_boundaries_fire_on_schedule_and_stream_to_sinks():
    config = _small_synthetic()  # rounds=4, eval_every=2
    streamed_rounds = []
    streamed_events = []
    result = run_experiment(
        config, on_round=streamed_rounds.append, on_timeline=streamed_events.extend
    )

    assert tuple(streamed_rounds) == result.reports
    assert tuple(streamed_events) == result.timeline
    assert {e.round_no for e in result.timeline} == {2, 4}
    # Every worker is evaluated at every boundary, whatever its group.
    for boundary in (2, 4):
        assert sorted(e.worker_id for e in result.timeline if e.round_no == boundary) == [1, 2]


def test_centralized_trains_one_shared_model():
    config = _small_synthetic(mode="centralized", rounds=3)
    result = run_experiment(config)
    assert result.timeline == ()
    assert set(result.groups) == {1}
    flats = [result.workers[wid].params.flat for wid in sorted(result.workers)]
    assert np.array_equal(flats[0], flats[1])

    # The reference loop: one model trained on the id-ordered pooled training
    # shards, a round's epochs at a time, and scored by every worker after each.
    workers = {w.worker_id: w for w in build_worker_data(config)}
    pooled = concat_datasets([workers[wid].train for wid in sorted(workers)])
    model = init_params(
        LayerSpec(pooled.features.shape[1], config.hidden_dims), derive_seed(config.seed, "init")
    )
    reports = []
    for round_no in range(1, config.rounds + 1):
        seed = derive_seed(config.seed, "train", 0, round_no)
        model = _train_alone(model, pooled, config.train, seed)
        for worker in workers.values():
            worker.group_id, worker.params = 1, model
        reports.append(orchestrator._score_round(workers, round_no, config))
    assert result.reports == tuple(reports)
    assert np.array_equal(result.groups[1].flat, model.flat)


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(mode="federated")
    with pytest.raises(ValueError, match="rounds"):
        ExperimentConfig(rounds=0)
    with pytest.raises(ValueError, match="participants_per_round"):
        ExperimentConfig(participants_per_round=0)
    with pytest.raises(ValueError, match="test_fraction"):
        ExperimentConfig(test_fraction=1.5)
