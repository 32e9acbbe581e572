"""Experiment orchestration: data preparation, round loop, regrouping.

A round proceeds group by group (ascending id).  Every member first downloads
its group's current global vector; a deterministic round-robin window of the
member list then trains locally while the remaining members simply keep the
downloaded vector, and the group's global is refreshed from the trainers'
results plus a snapshot of the other groups' globals.  Trained workers carry
their freshly trained vectors into the evaluation bookkeeping and only pick
up the new global when the next round begins.

Every ``eval_every``-th round each group's members are scored and regrouped.
Membership lives in one place, ``WorkerState.group_id``: a group's members
are the workers that name it, and a group is live while any worker does, so
the live groups partition the worker set by construction.  ``groups`` maps
every group id ever founded to its global parameters.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Optional

import numpy as np

from segfl.aggregation import AggregationWeights, LocalContribution, weighted_aggregate
from segfl.flowdata import (
    CANONICAL_COLUMN_MAP,
    CLASS_NAMES,
    FEATURE_NAMES,
    LabeledDataset,
    concat_datasets,
    default_encoding,
    fit_scaler,
    parse_flow_csv,
    partition_workers,
    scale_dataset,
    train_test_split,
)
from segfl.metrics import auroc_ovr_macro, confusion, macro_f1_score, prf1
from segfl.nnet import (
    LayerSpec,
    ModelParams,
    TrainConfig,
    forward,
    init_params,
    mean_loss,
    predict,
    read_params,
    train_local,
    write_params,
)
from segfl.resample import ResampleConfig, nearmiss3_undersample
from segfl.segmentation import SegmentationConfig, eval_score, segment, threshold

logger = logging.getLogger(__name__)

MODES = ("centralized", "fl", "segmented_fl")

# Fraction of the undersampled training shard held out for validation.
VALIDATION_FRACTION = 0.10

# Rows per synthetic worker shard when a config gives no sizes.
DEFAULT_SHARD_SIZE = 8000


class ConfigError(Exception):
    """Invalid configuration; carries the file line when it is known."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message)
        self.line = line


def derive_seed(master: int, *parts) -> int:
    """Stable per-purpose seed: master entropy plus structured tags."""
    material = [int(master) & 0xFFFFFFFF]
    for part in parts:
        if isinstance(part, str):
            material.append(sum((i + 1) * b for i, b in enumerate(part.encode())) % (1 << 32))
        else:
            material.append(int(part) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(material).generate_state(1)[0])


@dataclass(frozen=True)
class DataSpec:
    """Where worker shards come from: a synthetic scenario or flow files."""

    source: str = "synthetic"
    # synthetic
    n_workers: int = 4
    profiles: tuple[str, ...] = ("A", "A", "B", "B")
    sizes: tuple[int, ...] = (DEFAULT_SHARD_SIZE,) * 4
    divergence: float = 1.0
    class_mix: Optional[tuple[float, float, float]] = None
    # files: one parsed file per worker
    paths: tuple[str, ...] = ()
    # corpus: one file partitioned by shares
    corpus: str = ""
    shares: tuple[float, ...] = ()
    column_map: Optional[dict[str, str]] = None


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "segmented_fl"
    rounds: int = 15
    participants_per_round: Optional[int] = None  # None -> whole member list
    train: TrainConfig = TrainConfig()
    weights: AggregationWeights = AggregationWeights()
    segmentation: SegmentationConfig = SegmentationConfig()
    hidden_dims: tuple[int, ...] = (64, 32)
    resample: ResampleConfig = ResampleConfig()
    test_fraction: float = 0.10
    seed: int = 0
    data: DataSpec = DataSpec()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}; got {self.mode!r}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.participants_per_round is not None and self.participants_per_round < 1:
            raise ValueError(
                f"participants_per_round must be >= 1, got {self.participants_per_round}"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


@dataclass
class WorkerState:
    """One worker's shards, current local parameters, and score history."""

    worker_id: int
    group_id: int
    train: LabeledDataset
    validation: LabeledDataset
    test: LabeledDataset
    sample_count: int  # undersampled training-shard size, weights aggregation
    params: ModelParams
    val_history: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class WorkerRoundMetrics:
    worker_id: int
    group_id: int
    accuracy: float
    precision: tuple[float, float, float]
    recall: tuple[float, float, float]
    f1: tuple[float, float, float]
    macro_f1: float
    auroc: float
    train_loss: float


@dataclass(frozen=True)
class RoundReport:
    round_no: int
    workers: tuple[WorkerRoundMetrics, ...]


@dataclass(frozen=True)
class TimelineEvent:
    """One worker's outcome at one evaluation boundary."""

    round_no: int
    worker_id: int
    old_group: int
    new_group: int
    window_mean: float
    score: float
    cutoff: float


@dataclass(frozen=True)
class ExperimentResult:
    reports: tuple[RoundReport, ...]
    timeline: tuple[TimelineEvent, ...]
    workers: dict[int, WorkerState]
    groups: dict[int, ModelParams]  # every group ever founded, retired ones included


@dataclass
class RunSinks:
    """Optional streaming hooks so callers can persist output as it appears."""

    on_round: Optional[Callable[[RoundReport], None]] = None
    on_timeline: Optional[Callable[[list[TimelineEvent]], None]] = None
    checkpoint_dir: Optional[Path] = None


def build_worker_data(config: ExperimentConfig) -> list[WorkerState]:
    """Prepare every worker's shards: split, scale, undersample, hold out.

    Each worker splits its raw shard into train/test, fits a min-max scaler
    on its own training rows, undersamples the scaled training shard, and
    holds out a fixed validation slice from the result.  The undersampled
    size (before the validation holdout) is the worker's aggregation weight.
    Parameters are placeholders until ``broadcast_initial``.  Flow files are
    read one at a time, each after the worker before it is prepared.

    Raises:
        ConfigError: a shard cannot be split or scored, before any training.
    """
    spec = LayerSpec(len(FEATURE_NAMES), config.hidden_dims)
    placeholder = ModelParams(np.zeros(spec.n_params), spec)
    workers: list[WorkerState] = []
    for shard in _load_raw_shards(config):
        workers.append(_prepare_worker(config, len(workers) + 1, shard, placeholder))
        del shard  # so the next file is read without this raw shard
    return workers


def _prepare_worker(
    config: ExperimentConfig, wid: int, shard: LabeledDataset, placeholder: ModelParams
) -> WorkerState:
    """One worker's state from its raw shard; at most two training-sized copies live at once."""
    # The split is stratified, so every class needs a row on each side.
    _require_classes(wid, "raw", shard, min_rows=2)
    train_raw, test_raw = train_test_split(
        shard, config.test_fraction, derive_seed(config.seed, "split", wid)
    )
    # Scoring a shard of one class leaves AUROC or F1 meaningless mid-run.
    _require_classes(wid, "test", test_raw, min_rows=1)
    scaler = fit_scaler(train_raw)
    train_scaled = scale_dataset(train_raw, scaler)
    del train_raw
    test_scaled = scale_dataset(test_raw, scaler)
    slim = nearmiss3_undersample(train_scaled, config.resample)
    del train_scaled  # slim itself when NearMiss-3 has nothing to drop
    train_final, validation = train_test_split(
        slim, VALIDATION_FRACTION, derive_seed(config.seed, "val", wid)
    )
    _require_classes(wid, "train", train_final, min_rows=1)
    _require_classes(wid, "validation", validation, min_rows=1)
    # A test shard short of a class would average AUROC over fewer classes.
    _require_raw_classes(wid, test_raw, shard)
    return WorkerState(
        worker_id=wid,
        group_id=0,
        train=train_final,
        validation=validation,
        test=test_scaled,
        sample_count=slim.sample_count,
        params=placeholder.copy(),
    )


def _counts_text(shard: LabeledDataset) -> str:
    counts = np.bincount(shard.labels, minlength=len(CLASS_NAMES))
    return ", ".join(f"{name} {n}" for name, n in zip(CLASS_NAMES, counts))


def _require_classes(wid: int, shard_name: str, shard: LabeledDataset, min_rows: int) -> None:
    """Reject a shard without two classes of at least ``min_rows`` rows each."""
    counts = np.bincount(shard.labels, minlength=len(CLASS_NAMES))
    held = counts[counts > 0]
    if len(held) < 2 or held.min() < min_rows:
        raise ConfigError(
            f"worker {wid}: the {shard_name} shard has class counts {_counts_text(shard)}; "
            f"it needs 2 or more classes with {min_rows} or more rows each"
        )


def _require_raw_classes(wid: int, test: LabeledDataset, raw: LabeledDataset) -> None:
    """Reject a test shard that lacks a class its raw shard holds."""
    if np.setdiff1d(raw.labels, test.labels).size:
        raise ConfigError(
            f"worker {wid}: the test shard has class counts {_counts_text(test)}; "
            f"it needs every class of the raw shard ({_counts_text(raw)})"
        )


def _load_raw_shards(config: ExperimentConfig) -> Iterable[LabeledDataset]:
    """Each worker's raw shard in worker order; flow files are read one per ``next``."""
    from segfl.synthgen import DEFAULT_CLASS_MIX, make_scenario

    spec = config.data
    if spec.source == "synthetic":
        scenario = make_scenario(
            n_workers=spec.n_workers,
            profiles=spec.profiles,
            sizes=spec.sizes,
            divergence=spec.divergence,
            class_mix=spec.class_mix or DEFAULT_CLASS_MIX,
            seed=derive_seed(config.seed, "data"),
        )
        return list(scenario.datasets)
    column_map = spec.column_map or dict(CANONICAL_COLUMN_MAP)
    if spec.source == "files":
        if not spec.paths:
            raise ValueError("data source 'files' needs at least one path")
        paths = enumerate(spec.paths, start=1)
        return (_read_flows(p, column_map, f"worker {wid}") for wid, p in paths)
    if spec.source == "corpus":
        if not spec.corpus or not spec.shares:
            raise ValueError("data source 'corpus' needs a corpus path and shares")
        corpus = _read_flows(spec.corpus, column_map, "corpus")
        return partition_workers(corpus, list(spec.shares), derive_seed(config.seed, "partition"))
    raise ValueError(f"unknown data source {spec.source!r}")


def _read_flows(path, column_map: dict[str, str], owner: str) -> LabeledDataset:
    """Parse and encode one flow file; an unreadable file or unseen token is a ConfigError."""
    try:
        return default_encoding().encode(parse_flow_csv(path, column_map))
    except OSError as exc:
        raise ConfigError(f"{owner}: {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{owner}: {path}: {exc}") from None


def broadcast_initial(
    workers: list[WorkerState], config: ExperimentConfig
) -> tuple[dict[int, WorkerState], dict[int, ModelParams]]:
    """Create the initial single group and push its parameters to everyone."""
    spec = LayerSpec(workers[0].train.features.shape[1], config.hidden_dims)
    global_params = init_params(spec, derive_seed(config.seed, "init"))
    worker_map = {}
    for worker in workers:
        worker.group_id = 1
        worker.params = global_params.copy()
        worker_map[worker.worker_id] = worker
    return worker_map, {1: global_params}


def _live_members(workers: dict[int, WorkerState]) -> dict[int, list[int]]:
    """Each live group id -> its member ids, both in ascending order."""
    members: dict[int, list[int]] = {}
    for wid in sorted(workers):
        members.setdefault(workers[wid].group_id, []).append(wid)
    return dict(sorted(members.items()))


def _round_robin_window(members: list[int], round_no: int, width: Optional[int]) -> list[int]:
    """Deterministic trainer selection cycling through the member list."""
    if width is None or width >= len(members):
        return list(members)
    start = ((round_no - 1) * width) % len(members)
    return [members[(start + i) % len(members)] for i in range(width)]


def run_round(
    workers: dict[int, WorkerState],
    groups: dict[int, ModelParams],
    round_no: int,
    config: ExperimentConfig,
) -> RoundReport:
    """Execute one federated round over every live group."""
    live = _live_members(workers)
    peer_params = {gid: groups[gid].copy() for gid in live}

    for gid, members in live.items():
        for wid in members:
            workers[wid].params = groups[gid].copy()
        trainers = _round_robin_window(members, round_no, config.participants_per_round)

        contributions = []
        for wid in trainers:
            worker = workers[wid]
            trained = train_local(
                worker.params,
                worker.train,
                replace(config.train, seed=derive_seed(config.seed, "train", wid, round_no)),
            )
            _require_finite(trained.flat, f"worker {wid}", "parameters", round_no, config)
            worker.params = trained
            contributions.append(
                LocalContribution(params=trained, sample_count=worker.sample_count)
            )
        # Non-trainers keep the global they downloaded at round start, which
        # is exactly the pre-aggregation group vector.
        others = [peer_params[other] for other in peer_params if other != gid]
        groups[gid] = weighted_aggregate(peer_params[gid], contributions, others, config.weights)

    return _score_round(workers, round_no, config)


def _require_finite(values, owner: str, what: str, round_no: int, config: ExperimentConfig):
    """Stop a run whose SGD diverged instead of reporting nan metrics from then on."""
    if not np.isfinite(values).all():
        raise ConfigError(
            f"{owner}: non-finite {what} after round {round_no}; "
            f"training diverged under eta {config.train.learning_rate!r}"
        )


def _validation_f1(worker: WorkerState, params: ModelParams) -> float:
    """The worker's validation macro-F1 under ``params``."""
    return macro_f1_score(worker.validation.labels, predict(params, worker.validation.features))


def _score_round(
    workers: dict[int, WorkerState], round_no: int, config: ExperimentConfig
) -> RoundReport:
    """Score every worker under its current parameters, in worker-id order.

    Appends the validation macro-F1 to the worker's history and reports the
    test-shard metrics and the training loss, which must be finite.
    """
    rows = []
    for wid in sorted(workers):
        worker = workers[wid]
        worker.val_history.append(_validation_f1(worker, worker.params))
        probs = forward(worker.params, worker.test.features)
        scores = prf1(confusion(worker.test.labels, np.argmax(probs, axis=1)))
        rows.append(
            WorkerRoundMetrics(
                worker_id=worker.worker_id,
                group_id=worker.group_id,
                accuracy=scores.accuracy,
                precision=tuple(scores.precision),
                recall=tuple(scores.recall),
                f1=tuple(scores.f1),
                macro_f1=scores.macro_f1,
                auroc=auroc_ovr_macro(worker.test.labels, probs),
                train_loss=mean_loss(worker.params, worker.train),
            )
        )
        _require_finite(rows[-1].train_loss, f"worker {wid}", "training loss", round_no, config)
    return RoundReport(round_no=round_no, workers=tuple(rows))


def evaluate_and_segment(
    workers: dict[int, WorkerState],
    groups: dict[int, ModelParams],
    round_no: int,
    config: ExperimentConfig,
) -> list[TimelineEvent]:
    """Score every live group's members and apply the regrouping plans.

    Plans are computed against the boundary's starting memberships so each
    worker is evaluated exactly once.  A founded group enters ``groups`` at
    once, so later plans at the same boundary see it as a candidate and the
    group cap stays global; the moves are applied after the last plan.
    """
    seg = config.segmentation
    cutoff = threshold(seg)
    boundary = _live_members(workers)
    live_ids = list(boundary)

    def cross_fit(wid: int, gid: int) -> float:
        return _validation_f1(workers[wid], groups[gid])

    events: list[TimelineEvent] = []
    for gid, members in boundary.items():
        windows = {wid: workers[wid].val_history[-seg.window :] for wid in members}
        scores = eval_score(windows)
        plan = segment(
            gid,
            scores,
            live_ids,
            seg,
            {wid: workers[wid].params for wid in members},
            cross_fit,
        )

        destinations = {wid: gid for wid in plan.stay}
        destinations.update(plan.moves)
        if plan.new_group is not None:
            new_id = max(groups) + 1
            groups[new_id] = plan.new_group.params
            live_ids.append(new_id)
            destinations.update({wid: new_id for wid in plan.new_group.member_ids})

        for wid in scores.worker_ids:
            events.append(
                TimelineEvent(
                    round_no=round_no,
                    worker_id=wid,
                    old_group=gid,
                    new_group=destinations[wid],
                    window_mean=scores.mean_of(wid),
                    score=scores.score_of(wid),
                    cutoff=cutoff,
                )
            )

    moves = [(ev.worker_id, ev.new_group) for ev in events if ev.new_group != ev.old_group]
    for wid, dest in moves:
        workers[wid].group_id = dest
    if moves:
        logger.info(
            "round %d regrouping: %s",
            round_no,
            ", ".join(f"worker {wid} -> group {dest}" for wid, dest in moves),
        )
    return events


def write_checkpoint(
    directory: Path,
    round_no: int,
    workers: dict[int, WorkerState],
    groups: dict[int, ModelParams],
) -> Path:
    """Persist group/worker parameters and memberships for resumability."""
    target = Path(directory) / f"round_{round_no:04d}"
    target.mkdir(parents=True, exist_ok=True)
    live = _live_members(workers)
    meta = {
        "round": round_no,
        "groups": [
            {"id": gid, "members": live.get(gid, []), "retired": gid not in live}
            for gid in sorted(groups)
        ],
        "workers": [
            {"id": w.worker_id, "group": w.group_id, "val_history": w.val_history}
            for _, w in sorted(workers.items())
        ],
    }
    (target / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    for gid, params in sorted(groups.items()):
        write_params(params, target / f"group_{gid:03d}.params")
    for wid, worker in sorted(workers.items()):
        write_params(worker.params, target / f"worker_{wid:03d}.params")
    return target


def load_checkpoint(path: Path) -> dict:
    """Read back a checkpoint directory written by ``write_checkpoint``."""
    path = Path(path)
    meta = json.loads((path / "meta.json").read_text())
    return {
        "round": meta["round"],
        "groups": {
            entry["id"]: {
                "members": entry["members"],
                "retired": entry["retired"],
                "params": read_params(path / f"group_{entry['id']:03d}.params"),
            }
            for entry in meta["groups"]
        },
        "workers": {
            entry["id"]: {
                "group": entry["group"],
                "val_history": entry["val_history"],
                "params": read_params(path / f"worker_{entry['id']:03d}.params"),
            }
            for entry in meta["workers"]
        },
    }


def run_experiment(
    config: ExperimentConfig,
    sinks: Optional[RunSinks] = None,
    prepared_workers: Optional[list[WorkerState]] = None,
) -> ExperimentResult:
    """Run one experiment end to end under a single master seed.

    Args:
        config: full experiment description.
        sinks: optional streaming hooks (per-round reports, timeline events,
            checkpoint directory).
        prepared_workers: reuse shards from a previous ``build_worker_data``
            call with the same config; they are reset, not mutated.

    Returns:
        ExperimentResult with one report per round, the segmentation
        timeline (empty unless mode is segmented_fl), and final states.
    """
    sinks = sinks or RunSinks()
    if prepared_workers is None:
        workers_list = build_worker_data(config)
    else:
        workers_list = [_reset_worker(w) for w in prepared_workers]

    if config.mode == "centralized":
        return _run_centralized(workers_list, config, sinks)

    workers, groups = broadcast_initial(workers_list, config)
    reports: list[RoundReport] = []
    timeline: list[TimelineEvent] = []
    for round_no in range(1, config.rounds + 1):
        report = run_round(workers, groups, round_no, config)
        reports.append(report)
        if sinks.on_round:
            sinks.on_round(report)
        if round_no % config.segmentation.eval_every == 0:
            if config.mode == "segmented_fl":
                events = evaluate_and_segment(workers, groups, round_no, config)
                timeline.extend(events)
                if sinks.on_timeline and events:
                    sinks.on_timeline(events)
            if sinks.checkpoint_dir is not None:
                write_checkpoint(sinks.checkpoint_dir, round_no, workers, groups)
    return ExperimentResult(
        reports=tuple(reports), timeline=tuple(timeline), workers=workers, groups=groups
    )


def _reset_worker(worker: WorkerState) -> WorkerState:
    return WorkerState(
        worker_id=worker.worker_id,
        group_id=0,
        train=worker.train,
        validation=worker.validation,
        test=worker.test,
        sample_count=worker.sample_count,
        params=worker.params.copy(),
        val_history=[],
    )


def _run_centralized(
    workers_list: list[WorkerState], config: ExperimentConfig, sinks: RunSinks
) -> ExperimentResult:
    """One model on the pooled undersampled shards, scored per worker shard.

    The pooled model trains for the same total epoch count as a federated
    run (rounds x epochs) and is evaluated against every worker's test shard
    after each round-sized block so learning curves line up.
    """
    workers = {w.worker_id: w for w in workers_list}
    pooled = concat_datasets([workers[wid].train for wid in sorted(workers)])
    spec = LayerSpec(pooled.features.shape[1], config.hidden_dims)
    model = init_params(spec, derive_seed(config.seed, "init"))
    for worker in workers.values():
        worker.group_id = 1

    reports = []
    for round_no in range(1, config.rounds + 1):
        model = train_local(
            model,
            pooled,
            replace(config.train, seed=derive_seed(config.seed, "train", 0, round_no)),
        )
        _require_finite(model.flat, "the pooled model", "parameters", round_no, config)
        for worker in workers.values():
            worker.params = model.copy()
        report = _score_round(workers, round_no, config)
        reports.append(report)
        if sinks.on_round:
            sinks.on_round(report)

    return ExperimentResult(reports=tuple(reports), timeline=(), workers=workers, groups={1: model})
