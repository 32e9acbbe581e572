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
from segfl.flowdata import CANONICAL_COLUMN_MAP, EncodingMap, default_encoding, parse_flow_csv
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
