"""Acceptance gate: one test per numbered criterion.

Each test carries ``@pytest.mark.acceptance(num, label)`` so the conftest
hook prints a one-line PASS/FAIL scoreboard after the run.  Every numeric
claim is checked against an oracle written independently of the library
code (pure-Python scalar math, brute-force enumeration, or byte comparison).
"""

from __future__ import annotations

import csv
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

from segfl.aggregation import AggregationWeights, LocalContribution, weighted_aggregate
from segfl.cli import cmd_run
from segfl.flowdata import LabeledDataset, parse_flow_csv
from segfl.metrics import auroc_ovr_macro, confusion, prf1
from segfl.nnet import (
    Cohort,
    LayerSpec,
    ModelParams,
    TrainConfig,
    init_params,
    mean_loss,
    train_local,
)
from segfl.orchestrator import (
    DataSpec,
    ExperimentConfig,
    broadcast_initial,
    derive_seed,
    run_experiment,
    run_round,
)
from segfl.resample import ResampleConfig, nearmiss3_undersample
from segfl.segmentation import SegmentationConfig, eval_score, threshold
from segfl.synthgen import DEFAULT_CLASS_MIX, generate, make_profile


def _train_alone(params, data, config, seed):
    """One model trained on its own: a one-shard cohort."""
    (trained,) = train_local([params], Cohort((data,)), config, [seed])
    return trained


# --------------------------------------------------------------------------
# Shared two-environment scenario (criteria 6 and 7).
# Four workers: two large ones in the base environment and two small ones in
# a fully diverged environment whose class signatures conflict.  One trainer
# per round keeps pre-training global scores in every evaluation window.
# --------------------------------------------------------------------------

_B_WORKERS = frozenset({3, 4})


def _scenario_config(mode: str, seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        mode=mode,
        rounds=15,
        participants_per_round=1,
        train=TrainConfig(epochs=1, batch_size=128, learning_rate=0.15),
        weights=AggregationWeights(alpha=0.55, beta=0.40, gamma=0.05),
        segmentation=SegmentationConfig(fineness=7, eval_every=3, window=3, max_groups=3),
        hidden_dims=(64, 32),
        resample=ResampleConfig(neighbors_k=3, target_ratio=2.5),
        test_fraction=0.10,
        seed=seed,
        data=DataSpec(
            source="synthetic",
            n_workers=4,
            profiles=("A", "A", "B", "B"),
            sizes=(12000, 12000, 1200, 1200),
            divergence=1.0,
            class_mix=(0.50, 0.28, 0.22),
        ),
    )


@pytest.fixture(scope="module")
def scenario_runs():
    start = time.monotonic()
    runs = {}
    for seed in range(10):
        runs[seed] = {
            mode: run_experiment(_scenario_config(mode, seed))
            for mode in ("segmented_fl", "fl")
        }
    return {"runs": runs, "elapsed": time.monotonic() - start}


# --------------------------------------------------------------------------
# Criterion 1: evaluation scoring against a scalar oracle.
# --------------------------------------------------------------------------


@pytest.mark.acceptance(1, "evaluation scoring matches the scalar oracle")
def test_eval_scoring_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        values = {wid: [float(rng.random())] for wid in range(1, n + 1)}
        scores = eval_score(values)

        group_mean = sum(v[0] for v in values.values()) / n
        for wid in values:
            oracle = 1.0 / (1.0 + math.exp(-(values[wid][0] - group_mean)))
            worst = max(worst, abs(scores.score_of(wid) - oracle))
    assert worst <= 1e-12, f"worst oracle deviation {worst}"

    identical = eval_score({1: [0.7], 2: [0.7], 3: [0.7], 4: [0.7]})
    assert np.all(identical.score == 0.5), "identical windows must score exactly one half"
    assert time.monotonic() - start < 1.0


# --------------------------------------------------------------------------
# Criterion 2: threshold arithmetic.
# --------------------------------------------------------------------------


@pytest.mark.acceptance(2, "threshold arithmetic at fineness 7")
def test_threshold_arithmetic():
    assert abs(threshold(SegmentationConfig(fineness=7)) - 0.43) <= 1e-15


# --------------------------------------------------------------------------
# Criterion 3: aggregation blend against a per-coordinate scalar oracle.
# --------------------------------------------------------------------------


def _blend_oracle(former, vectors, counts, peers, alpha, beta, gamma):
    if not peers:
        alpha, beta, gamma = alpha / (alpha + beta), beta / (alpha + beta), 0.0
    total = sum(counts)
    out = []
    for j in range(len(former)):
        worker = sum(counts[i] / total * vectors[i][j] for i in range(len(counts)))
        peer = sum(p[j] for p in peers) / len(peers) if peers else 0.0
        out.append(alpha * former[j] + beta * worker + gamma * peer)
    return np.array(out)


def _vec(values) -> ModelParams:
    values = np.asarray(values, dtype=np.float64)
    return ModelParams(values, LayerSpec(input_dim=len(values) - 1, hidden_dims=(), output_dim=1))


@pytest.mark.acceptance(3, "aggregation blend matches the per-coordinate oracle")
def test_aggregation_oracle_suite():
    start = time.monotonic()
    rng = np.random.default_rng(3003)
    for trial in range(1000):
        length = int(rng.integers(2, 51))
        k = int(rng.integers(1, 9))
        m = int(rng.integers(0, 4))
        raw = rng.random(3) + 0.05
        alpha, beta, gamma = (raw / raw.sum()).tolist()
        former = rng.normal(size=length)
        vectors = [rng.normal(size=length) for _ in range(k)]
        counts = [int(rng.integers(1, 400)) for _ in range(k)]
        peers = [rng.normal(size=length) for _ in range(m)]
        contributions = [LocalContribution(_vec(v), c) for v, c in zip(vectors, counts)]
        weights = AggregationWeights(alpha, beta, gamma)

        out = weighted_aggregate(_vec(former), contributions, [_vec(p) for p in peers], weights)
        oracle = _blend_oracle(former, vectors, counts, peers, alpha, beta, gamma)
        assert np.allclose(out.flat, oracle, rtol=0, atol=1e-12), f"trial {trial}"

        everything = np.stack([former, *vectors, *peers])
        assert np.all(out.flat <= everything.max(axis=0) + 1e-12), f"trial {trial} convexity"
        assert np.all(out.flat >= everything.min(axis=0) - 1e-12), f"trial {trial} convexity"

        order = rng.permutation(k)
        permuted = weighted_aggregate(
            _vec(former), [contributions[i] for i in order], [_vec(p) for p in peers], weights
        )
        assert np.allclose(out.flat, permuted.flat, rtol=0, atol=1e-12), f"trial {trial} order"

        rescaled = weighted_aggregate(
            _vec(former),
            [LocalContribution(_vec(v), 7 * c) for v, c in zip(vectors, counts)],
            [_vec(p) for p in peers],
            weights,
        )
        assert np.allclose(out.flat, rescaled.flat, rtol=0, atol=1e-12), f"trial {trial} rescale"

    former = _vec(np.array([2.0, -1.0, 0.5]))
    keep = weighted_aggregate(
        former,
        [LocalContribution(_vec([9.0, 9.0, 9.0]), 5)],
        [_vec([7.0, 7.0, 7.0])],
        AggregationWeights(1.0, 0.0, 0.0),
    )
    assert np.array_equal(keep.flat, former.flat), "alpha=1 must reproduce the former global"

    vectors = [np.array([1.0, 2.0]), np.array([5.0, -2.0]), np.array([0.5, 0.5])]
    equal_contribs = [LocalContribution(_vec(v), 11) for v in vectors]
    reduced = weighted_aggregate(
        _vec(np.zeros(2)), equal_contribs, [], AggregationWeights(0.0, 1.0, 0.0)
    )
    assert np.allclose(
        reduced.flat, np.mean(vectors, axis=0), rtol=0, atol=1e-12
    ), "pure worker term with equal counts must equal plain averaging"
    assert time.monotonic() - start < 5.0


# --------------------------------------------------------------------------
# Criterion 4: analytic gradients against central finite differences.
# --------------------------------------------------------------------------


def _kink_margin(params: ModelParams, features: np.ndarray) -> float:
    """Smallest |pre-activation| over all hidden units for this batch.

    The loss is piecewise-smooth: central differences are only a valid
    derivative oracle when no rectifier input sits within the perturbation's
    reach of zero, so draws below a safety margin must be re-drawn.
    """
    dims = params.spec.dims
    flat = params.flat
    offset = 0
    margin = math.inf
    x = features
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        w = flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        b = flat[offset : offset + fan_out]
        offset += fan_out
        z = x @ w + b
        if i < len(dims) - 2:
            margin = min(margin, float(np.min(np.abs(z))))
            x = np.maximum(z, 0.0)
    return margin


@pytest.mark.acceptance(4, "analytic gradients match finite differences")
def test_gradient_finite_difference_check():
    start = time.monotonic()
    rng = np.random.default_rng(4004)
    hidden_menu = ((), (3,), (4, 3))
    h = 1e-5
    for draw in range(20):
        spec = LayerSpec(
            input_dim=int(rng.integers(2, 6)),
            hidden_dims=hidden_menu[draw % len(hidden_menu)],
            output_dim=3,
        )
        for _ in range(50):
            params = init_params(spec, seed=int(rng.integers(0, 1 << 30)))
            batch = int(rng.integers(3, 9))
            features = rng.normal(size=(batch, spec.input_dim))
            labels = rng.integers(0, 3, size=batch)
            if _kink_margin(params, features) > 1e-3:
                break
        else:
            pytest.fail(f"draw {draw}: could not find a kink-free draw")
        # The gradient training follows: one full-batch SGD step at learning rate 1.
        data = LabeledDataset(features, labels)
        step = TrainConfig(epochs=1, batch_size=batch, learning_rate=1.0)
        analytic = params.flat - _train_alone(params, data, step, seed=0).flat

        numeric = np.zeros_like(analytic)
        for i in range(len(params.flat)):
            plus, minus = params.flat.copy(), params.flat.copy()
            plus[i] += h
            minus[i] -= h
            lp = mean_loss(ModelParams(plus, spec), data)
            lm = mean_loss(ModelParams(minus, spec), data)
            numeric[i] = (lp - lm) / (2 * h)

        scale = np.maximum(1.0, np.abs(analytic) + np.abs(numeric))
        rel = float(np.max(np.abs(analytic - numeric) / scale))
        assert rel < 1e-4, f"draw {draw}: relative error {rel}"
    assert time.monotonic() - start < 30.0


# --------------------------------------------------------------------------
# Criterion 5: undersampling against the brute-force oracle.
# --------------------------------------------------------------------------


def _nearmiss_oracle(features, labels, k, target_ratio):
    """Literal three-step restatement: majority, candidates, farthest-first."""
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    max_count = max(counts.values())
    majority = min(lab for lab, c in counts.items() if c == max_count)
    target = round(target_ratio * min(counts.values()))

    majority_idx = [i for i, lab in enumerate(labels) if lab == majority]
    minority_idx = [i for i, lab in enumerate(labels) if lab != majority]
    if len(majority_idx) <= target:
        return sorted(range(len(labels)))

    candidates = set()
    for i in minority_idx:
        dists = sorted((math.dist(features[i], features[j]), j) for j in majority_idx)
        candidates.update(j for _, j in dists[:k])

    if len(candidates) < target:
        kept = sorted(candidates)
    else:
        scored = []
        for c in sorted(candidates):
            nearest = sorted(math.dist(features[c], features[i]) for i in minority_idx)[:k]
            scored.append((-sum(nearest) / len(nearest), c))
        scored.sort()
        kept = sorted(c for _, c in scored[:target])
    return sorted(kept + minority_idx)


@pytest.mark.acceptance(5, "undersampling matches the brute-force oracle")
def test_nearmiss_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(5005)
    ratios = (1.0, 1.5, 2.0, 2.5)
    for trial in range(20):
        n = int(rng.integers(40, 201))
        if trial < 10:
            features = rng.random((n, 4))
        else:
            # Real flow exports are full of ties: few distinct values and
            # duplicated rows.  On an integer or quarter-step grid every
            # squared distance is exact, so math.dist and numpy agree on
            # which distances tie, and a k-th neighbour often sits inside
            # a run of equal distances.
            step = (1.0, 0.25)[trial % 2]
            features = rng.integers(0, 4, size=(n, 4)) * step
            features[rng.integers(0, n, n // 3)] = features[rng.integers(0, n, n // 3)]
        labels = np.concatenate(
            [
                np.zeros(n - 2 * (n // 5), dtype=np.int64),
                np.ones(n // 5, dtype=np.int64),
                np.full(n // 5, 2, dtype=np.int64),
            ]
        )
        labels = labels[rng.permutation(n)]
        k = int(rng.integers(1, 5))
        ratio = ratios[trial % len(ratios)]

        out = nearmiss3_undersample(
            LabeledDataset(features, labels), ResampleConfig(neighbors_k=k, target_ratio=ratio)
        )
        kept = _nearmiss_oracle(features.tolist(), labels.tolist(), k, ratio)
        assert np.array_equal(out.features, features[kept]), f"trial {trial} (k={k}, r={ratio})"
        assert np.array_equal(out.labels, labels[kept]), f"trial {trial}"
    assert time.monotonic() - start < 10.0


# --------------------------------------------------------------------------
# Criterion 6: the diverged workers split into their own group.
# --------------------------------------------------------------------------


def _second_group_formation_round(result):
    """First report round where some group holds exactly workers 3 and 4."""
    for report in result.reports:
        members: dict[int, set[int]] = {}
        for row in report.workers:
            members.setdefault(row.group_id, set()).add(row.worker_id)
        for group_id, mset in members.items():
            if mset == _B_WORKERS:
                return report.round_no, group_id
    return None, None


@pytest.mark.acceptance(6, "two-environment scenario splits off the B workers")
def test_diverged_workers_form_second_group(scenario_runs):
    assert scenario_runs["elapsed"] < 300.0, "scenario runs exceeded the time budget"
    hits = 0
    details = []
    for seed, modes in scenario_runs["runs"].items():
        result = modes["segmented_fl"]
        first_round, group_id = _second_group_formation_round(result)
        if first_round is None:
            details.append(f"seed {seed}: never")
            continue
        boundary = first_round - 1
        assert boundary % 3 == 0, (
            f"seed {seed}: group visible first at round {first_round}, "
            f"which does not follow an evaluation boundary"
        )
        movers = {
            e.worker_id
            for e in result.timeline
            if e.round_no == boundary and e.new_group == group_id
        }
        assert movers == set(_B_WORKERS), (
            f"seed {seed}: boundary {boundary} moved {sorted(movers)} into group {group_id}"
        )
        hits += 1
        details.append(f"seed {seed}: boundary {boundary}")
    assert hits >= 8, f"only {hits}/10 seeds split off the B workers ({'; '.join(details)})"


# --------------------------------------------------------------------------
# Criterion 7: segmented final scores dominate plain federated scores.
# --------------------------------------------------------------------------


@pytest.mark.acceptance(7, "segmented final macro-F1 beats plain federated")
def test_segmented_beats_federated(scenario_runs):
    assert scenario_runs["elapsed"] < 600.0
    wins, total, gains = 0, 0, []
    for seed, modes in scenario_runs["runs"].items():
        seg_final = {r.worker_id: r.macro_f1 for r in modes["segmented_fl"].reports[-1].workers}
        fl_final = {r.worker_id: r.macro_f1 for r in modes["fl"].reports[-1].workers}
        assert sorted(seg_final) == sorted(fl_final) == [1, 2, 3, 4]
        for wid in sorted(seg_final):
            total += 1
            wins += seg_final[wid] >= fl_final[wid]
            gains.append(seg_final[wid] - fl_final[wid])
    assert total == 40
    assert wins / total >= 0.80, f"segmented won only {wins}/{total} (worker, seed) pairs"
    mean_gain = float(np.mean(gains))
    assert mean_gain > 0.0, f"mean macro-F1 improvement {mean_gain:+.4f} is not positive"


# --------------------------------------------------------------------------
# Criterion 8: pure-beta federated equals a reference averaging loop.
# --------------------------------------------------------------------------


@pytest.mark.acceptance(8, "pure-beta federated reduces to reference averaging")
def test_federated_reduces_to_reference_averaging():
    start = time.monotonic()

    # Part 1 — literal 3-parameter toy (two weights, one bias, one output).
    # A single-output softmax is constant, so training is a fixed point;
    # the round update must still reproduce the reference loop bit for bit.
    rng = np.random.default_rng(8008)
    spec3 = LayerSpec(input_dim=2, hidden_dims=(), output_dim=1)
    assert spec3.n_params == 3
    shards3 = [
        LabeledDataset(rng.random((8, 2)), np.zeros(8, dtype=np.int64)) for _ in range(4)
    ]
    train_cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.3)
    weights = AggregationWeights(0.0, 1.0, 0.0)
    system = init_params(spec3, seed=88)
    reference = system
    for round_no in range(1, 6):
        trained = [
            _train_alone(system, shard, train_cfg, derive_seed(0, "train", wid, round_no))
            for wid, shard in enumerate(shards3, start=1)
        ]
        system = weighted_aggregate(
            system, [LocalContribution(t, 8) for t in trained], [], weights
        )
        ref_trained = [
            _train_alone(reference, shard, train_cfg, derive_seed(0, "train", wid, round_no))
            for wid, shard in enumerate(shards3, start=1)
        ]
        reference = ModelParams(
            np.stack([t.flat for t in ref_trained]).mean(axis=0), spec3
        )
        assert np.allclose(system.flat, reference.flat, rtol=0, atol=1e-12), (
            f"3-parameter toy diverged at round {round_no}"
        )

    # Part 2 — the real federated round loop on the smallest model it can
    # carry (three output classes), full participation, equal shards.
    def toy_worker(wid: int):
        from segfl.orchestrator import WorkerState

        spec = LayerSpec(input_dim=2, hidden_dims=(), output_dim=3)
        return WorkerState(
            worker_id=wid,
            group_id=0,
            train=LabeledDataset(rng.random((10, 2)), rng.integers(0, 3, size=10)),
            validation=LabeledDataset(rng.random((6, 2)), rng.integers(0, 3, size=6)),
            test=LabeledDataset(rng.random((6, 2)), np.array([0, 1, 2, 0, 1, 2])),
            sample_count=10,
            params=ModelParams(np.zeros(spec.n_params), spec),
        )

    config = ExperimentConfig(
        mode="fl",
        rounds=5,
        participants_per_round=None,
        train=TrainConfig(epochs=1, batch_size=4, learning_rate=0.2),
        weights=AggregationWeights(0.0, 1.0, 0.0),
        hidden_dims=(),
        seed=321,
    )
    workers, groups = broadcast_initial([toy_worker(w) for w in (1, 2, 3)], config)
    spec = groups[1].spec
    reference = init_params(spec, derive_seed(config.seed, "init"))
    assert np.array_equal(groups[1].flat, reference.flat)
    for round_no in range(1, 6):
        ref_trained = [
            _train_alone(
                reference,
                workers[wid].train,
                config.train,
                derive_seed(config.seed, "train", wid, round_no),
            )
            for wid in (1, 2, 3)
        ]
        reference = ModelParams(np.stack([t.flat for t in ref_trained]).mean(axis=0), spec)
        run_round(workers, groups, round_no, config)
        assert np.allclose(groups[1].flat, reference.flat, rtol=0, atol=1e-12), (
            f"federated round {round_no} diverged from the reference loop"
        )
    assert time.monotonic() - start < 1.0


# --------------------------------------------------------------------------
# Criterion 9: byte-identical outputs for identical configs.
# --------------------------------------------------------------------------


@pytest.mark.acceptance(9, "identical configs reproduce byte-identical outputs")
def test_run_command_is_deterministic(tmp_path, capsys):
    start = time.monotonic()
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "mode": "segmented_fl",
                "J": 6,
                "E": 1,
                "B": 64,
                "eta": 0.1,
                "h_j": 3,
                "R_e": 3,
                "seed": 11,
                "hidden_dims": [16],
                "data": {
                    "source": "synthetic",
                    "n_workers": 3,
                    "profiles": ["A", "A", "B"],
                    "sizes": [600, 600, 600],
                    "divergence": 1.0,
                },
            }
        )
    )
    run_dirs = []
    for root in ("first", "second"):
        assert cmd_run(config_path, out=str(tmp_path / root)) == 0
        run_dirs.append(Path(capsys.readouterr().out.strip()))

    rounds_a = (run_dirs[0] / "rounds.csv").read_bytes()
    rounds_b = (run_dirs[1] / "rounds.csv").read_bytes()
    assert rounds_a == rounds_b, "round reports differ between identical runs"
    timeline_a = (run_dirs[0] / "timeline.csv").read_bytes()
    timeline_b = (run_dirs[1] / "timeline.csv").read_bytes()
    assert timeline_a == timeline_b, "timelines differ between identical runs"
    assert len(rounds_a.splitlines()) == 1 + 6 * 3
    assert time.monotonic() - start < 120.0


# --------------------------------------------------------------------------
# Criterion 10: undersampling restores the target class ratio.
# --------------------------------------------------------------------------


# Column headers as they appear in the public flow exports this pipeline
# was written for; only used by the optional real-data sub-check below.
_EXPORT_COLUMN_MAP = {
    "Duration": "duration",
    "Proto": "protocol",
    "Src Pt": "src_port",
    "Dst Pt": "dst_port",
    "Packets": "packets",
    "Bytes": "bytes",
    "Flags": "flags",
    "class": "class",
}


def _maybe_corpus_total() -> int | None:
    """Accepted-row count over real flow exports, when a directory is supplied.

    The rows go through the parser's encoder, so a token outside the shipped
    vocabulary is an error here, as it is in ``segfl run``.
    """
    root = os.environ.get("SEGFL_CIDDS_DIR", "data/cidds")
    candidates = sorted(Path(root).glob("**/*.csv")) if Path(root).is_dir() else []
    if not candidates:
        return None
    return sum(len(parse_flow_csv(path, _EXPORT_COLUMN_MAP)) for path in candidates)


@pytest.mark.acceptance(10, "undersampling restores the 2:1.2:1 class ratio")
def test_pipeline_restores_target_ratio():
    start = time.monotonic()
    data = generate(make_profile(class_mix=DEFAULT_CLASS_MIX), 12_000, seed=10)
    before = np.bincount(data.labels, minlength=3)
    ratio_before = before / before.min()
    assert abs(ratio_before[0] - 17.0) <= 0.02 * 17.0
    assert abs(ratio_before[1] - 1.2) <= 0.02 * 1.2

    slim = nearmiss3_undersample(data, ResampleConfig(neighbors_k=3, target_ratio=2.0))
    after = np.bincount(slim.labels, minlength=3)
    ratio_after = after / after.min()
    expected = (2.0, 1.2, 1.0)
    for cls in range(3):
        assert abs(ratio_after[cls] - expected[cls]) <= 0.02 * expected[cls], (
            f"class {cls}: ratio {ratio_after[cls]:.4f} vs {expected[cls]}"
        )
    assert np.array_equal(after[1:], before[1:]), "minority classes must pass through"

    corpus_total = _maybe_corpus_total()
    if corpus_total is not None:
        assert abs(corpus_total - 6_472_054) <= 0.01 * 6_472_054
    assert time.monotonic() - start < 60.0


# --------------------------------------------------------------------------
# Criterion 11: metric implementations against definition oracles.
# --------------------------------------------------------------------------


def _auroc_oracle(true_labels, probabilities):
    per_class = []
    n_classes = len(probabilities[0])
    for cls in range(n_classes):
        pos = [row[cls] for t, row in zip(true_labels, probabilities) if t == cls]
        neg = [row[cls] for t, row in zip(true_labels, probabilities) if t != cls]
        if not pos or not neg:
            continue
        wins = sum(1.0 if a > b else 0.5 if a == b else 0.0 for a in pos for b in neg)
        per_class.append(wins / (len(pos) * len(neg)))
    return sum(per_class) / len(per_class)


@pytest.mark.acceptance(11, "metric implementations match definition oracles")
def test_metric_definition_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(1111)

    for trial in range(100):
        n = int(rng.integers(6, 60))
        true = rng.integers(0, 3, size=n)
        while len(np.unique(true)) < 3:
            true = rng.integers(0, 3, size=n)
        raw = rng.random((n, 3)) + 0.01
        if trial % 3 == 0:
            raw = np.round(raw * 5) / 5 + 0.01  # force rank ties
        probs = raw / raw.sum(axis=1, keepdims=True)
        got = auroc_ovr_macro(true, probs)
        expected = _auroc_oracle(true.tolist(), probs.tolist())
        assert abs(got - expected) <= 1e-12, f"fixture {trial}"

    # Precision/recall/F1 definition oracle on random confusion matrices.
    for trial in range(50):
        counts = rng.integers(0, 25, size=(3, 3))
        if counts.sum() == 0:
            counts[0, 0] = 1
        scores = prf1(counts)
        for cls in range(3):
            tp = counts[cls, cls]
            predicted = counts[:, cls].sum()
            actual = counts[cls, :].sum()
            precision = tp / predicted if predicted else 0.0
            recall = tp / actual if actual else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert abs(scores.precision[cls] - precision) <= 1e-12
            assert abs(scores.recall[cls] - recall) <= 1e-12
            assert abs(scores.f1[cls] - f1) <= 1e-12
        assert abs(scores.macro_f1 - float(scores.f1.mean())) <= 1e-15

    # Degenerate cases.
    true = np.array([0, 0, 1, 1, 2, 2])
    perfect = np.eye(3)[true] * 0.7 + 0.1
    assert auroc_ovr_macro(true, perfect) == 1.0
    uniform = np.full((6, 3), 1.0 / 3.0)
    assert auroc_ovr_macro(true, uniform) == 0.5
    absent = np.array([0, 0, 1, 1])
    raw = rng.random((4, 3)) + 0.01
    probs = raw / raw.sum(axis=1, keepdims=True)
    with pytest.warns(UserWarning, match="class 2"):
        partial = auroc_ovr_macro(absent, probs)
    assert abs(partial - _auroc_oracle(absent.tolist(), probs.tolist())) <= 1e-12

    ident = confusion(true, true)
    assert prf1(ident).macro_f1 == 1.0
    assert prf1(ident).accuracy == 1.0
    assert time.monotonic() - start < 5.0
