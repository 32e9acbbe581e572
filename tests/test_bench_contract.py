"""The benchmark under perfbench/ reaches into src/ by name; pin those names.

``perfbench/tracing.py`` wraps module attributes and methods, and the ingest
workload writes its input CSVs with segfl's own generator and writer.  A
rename or a changed return type in src/ breaks ``perfbench/run.py`` without
any other test noticing, so these tests exercise the same calls.
"""

from __future__ import annotations

import importlib.util
import logging
import sys
from pathlib import Path

import numpy as np
import pytest

from segfl import orchestrator
from segfl.flowdata import (
    CANONICAL_COLUMN_MAP,
    EncodingMap,
    LabeledDataset,
    default_encoding,
    parse_flow_csv,
)
from segfl.nnet import LayerSpec, TrainConfig, init_params
from segfl.orchestrator import ExperimentConfig, WorkerState
from segfl.synthgen import make_scenario, to_records

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_every_traced_target_resolves(tracing):
    targets = tracing.full_targets()
    assert len({name for _, _, name, _ in targets}) == len(targets)
    for owner, attribute, name, _ in targets:
        assert callable(getattr(owner, attribute, None)), f"{name}: {owner}.{attribute} is gone"
    # Every span a per-layer metric reads is one that a target records.
    recorded = {name for _, _, name, _ in targets}
    read = {n for names in tracing.INCLUSIVE_SECONDS.values() for n in names}
    read |= set(tracing.SELF_SECONDS.values()) | {n for n, _ in tracing.COUNTS.values()}
    assert read <= recorded, sorted(read - recorded)


def test_ingest_generator_calls_round_trip(tmp_path, monkeypatch, caplog, workloads, tracing):
    caplog.set_level(logging.INFO, logger="segfl.flowdata")
    rows = 300
    monkeypatch.setattr(workloads, "INGEST_ROWS", rows)
    for part in range(workloads.INGEST_WRITERS):
        workloads._generate_ingest(2, part, tmp_path)

    scenario = make_scenario(
        n_workers=workloads.INGEST_WORKERS,
        profiles=workloads.INGEST_PROFILES,
        sizes=rows,
        divergence=1.0,
        class_mix=workloads.INGEST_CLASS_MIX,
        seed=2,
    )
    recorder = tracing.Recorder()
    targets = [t for t in tracing.full_targets() if t[2].startswith("flowdata.")]
    for w, dataset in enumerate(scenario.datasets, start=1):
        path = tmp_path / f"shard_{w}.csv"
        shard = parse_flow_csv(path, CANONICAL_COLUMN_MAP)
        assert len(shard) == rows
        assert np.array_equal(shard.labels, dataset.labels)
        assert np.array_equal(shard.features, dataset.features)

        # The traced path: the parse counter takes len() of the result, the
        # reject counter reads parse_flow_csv's log line, and encode is
        # wrapped on the EncodingMap class; encoding the shard's records gives
        # the shard's bytes back.
        with path.open("a") as fh:
            fh.write("-1,TCP,1,2,3,4,.A....,normal\n")
        with recorder.patched(targets):
            traced = orchestrator.parse_flow_csv(path, CANONICAL_COLUMN_MAP)
            encoded = EncodingMap.encode(default_encoding(), to_records(traced))
        assert encoded.features.tobytes() == traced.features.tobytes()
        assert encoded.labels.tobytes() == traced.labels.tobytes()
    metrics = tracing.layer_metrics(recorder.spans, 0)
    assert metrics["flowdata.parse_rows"] == rows * workloads.INGEST_WORKERS
    assert metrics["flowdata.reject_rows"] == workloads.INGEST_WORKERS
    assert [s.name for s in recorder.spans[:2]] == ["flowdata.parse_flow_csv", "flowdata.encode"]


def test_sgd_counter_counts_every_trainers_rows(tracing):
    # The light target counts epochs x args[1].sample_count per train_local call,
    # so the round's one call must pass its cohort second and positionally, and a
    # cohort's sample_count must be the rows every trainer in it visits.
    rng = np.random.default_rng(3)
    spec = LayerSpec(input_dim=2, hidden_dims=(4,), output_dim=3)
    sizes = {1: 9, 2: 20, 3: 14, 4: 30, 5: 7}
    group_of = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2}
    workers = {
        wid: WorkerState(
            worker_id=wid,
            group_id=group_of[wid],
            train=LabeledDataset(rng.random((n, 2)), np.arange(n) % 3),
            validation=LabeledDataset(rng.random((6, 2)), np.arange(6) % 3),
            test=LabeledDataset(rng.random((6, 2)), np.arange(6) % 3),
            sample_count=n,
        )
        for wid, n in sizes.items()
    }
    groups = {1: init_params(spec, seed=1), 2: init_params(spec, seed=2)}
    config = ExperimentConfig(
        participants_per_round=2,
        train=TrainConfig(epochs=2, batch_size=4),
        hidden_dims=spec.hidden_dims,
    )
    recorder = tracing.Recorder()
    rows = 0
    with recorder.patched(tracing.light_targets()):
        for round_no in (1, 2):
            for members in ([1, 2, 3], [4, 5]):
                trainers = orchestrator._round_robin_window(members, round_no, 2)
                rows += sum(sizes[wid] for wid in trainers)
            orchestrator.run_round(workers, groups, round_no, config)
    spans = [s for s in recorder.spans if s.name == "nnet.train_local"]
    assert len(spans) == 2  # one call per round, over both groups' trainers
    assert sum(s.attrs["samples"] for s in spans) == config.train.epochs * rows
