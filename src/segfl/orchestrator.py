"""Experiment orchestration: data preparation, round loop, regrouping.

In a round every member first downloads its group's current global vector; a
deterministic round-robin window of each group's member list then trains
locally, all groups' trainers in one lockstep call, while the remaining members
simply keep the downloaded vector.  Group by group (ascending id), the global
is refreshed from the trainers' results plus a snapshot of the other groups'
globals taken at round start.  Trained workers carry
their freshly trained vectors into the evaluation bookkeeping and only pick
up the new global when the next round begins.

Every ``eval_every``-th round each group's members are scored and regrouped.
Membership lives in one place, ``WorkerState.group_id``: a group's members
are the workers that name it, and a group is live while any worker does, so
the live groups partition the worker set by construction.  ``groups`` maps
every group id ever founded to its global parameters.
"""

from __future__ import annotations

import csv
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
    fit_scaler,
    parse_flow_csv,
    partition_workers,
    physical_memory,
    scale_dataset,
    train_test_split,
)
from segfl.metrics import auroc_ovr_macro, confusion, macro_f1_score, prf1
from segfl.nnet import (
    DEFAULT_HIDDEN,
    Cohort,
    LayerSpec,
    ModelParams,
    TrainConfig,
    forward,
    init_params,
    mean_loss,
    predict,
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
    sizes: int | tuple[int, ...] = DEFAULT_SHARD_SIZE  # an integer: each worker's size
    divergence: float = 1.0
    class_mix: Optional[tuple[float, float, float]] = None
    # files: one parsed file per worker
    paths: tuple[str, ...] = ()
    # corpus: one file partitioned by shares
    corpus: str = ""
    shares: tuple[float, ...] = ()
    column_map: Optional[dict[str, str]] = None

    @property
    def worker_count(self) -> int:
        """The number of workers the source gives: a file or a share each, or ``n_workers``."""
        return {"files": len(self.paths), "corpus": len(self.shares)}.get(
            self.source, self.n_workers
        )


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str = "segmented_fl"
    rounds: int = 15
    participants_per_round: Optional[int] = None  # None -> whole member list
    train: TrainConfig = TrainConfig()
    weights: AggregationWeights = AggregationWeights()
    segmentation: SegmentationConfig = SegmentationConfig()
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN
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
        # Every worker and every live group (each has a member) holds a float64 vector at once.
        workers = self.data.worker_count
        vectors = workers + min(workers, self.segmentation.max_groups)
        size = LayerSpec(len(FEATURE_NAMES), self.hidden_dims).n_params
        memory = physical_memory()
        if vectors * size * 8 > memory:
            raise ValueError(
                f"hidden_dims must fit in memory: {vectors} parameter vectors of {size} values "
                f"at 8 B need more than the {memory} B of physical memory, "
                f"got {list(self.hidden_dims)}"
            )


@dataclass
class WorkerState:
    """One worker's shards, current local parameters, and score history."""

    worker_id: int
    group_id: int
    train: LabeledDataset
    validation: LabeledDataset
    test: LabeledDataset
    sample_count: int  # undersampled training-shard size, weights aggregation
    params: Optional[ModelParams] = None  # None until broadcast_initial
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


def build_worker_data(config: ExperimentConfig) -> list[WorkerState]:
    """Prepare every worker's shards: split, scale, undersample, hold out.

    Each worker splits its raw shard into train/test, fits a min-max scaler
    on its own training rows, undersamples the scaled training shard, and
    holds out a fixed validation slice from the result.  The undersampled
    size (before the validation holdout) is the worker's aggregation weight.
    Workers have no parameters until ``broadcast_initial``.  Synthetic shards
    are drawn and flow files read one at a time, each after the worker before
    it is prepared.

    Raises:
        ConfigError: a shard cannot be split or scored, before any training.
    """
    workers: list[WorkerState] = []
    for shard in _load_raw_shards(config):
        workers.append(_prepare_worker(config, len(workers) + 1, shard))
        del shard  # so the next shard is drawn or read without this raw one
    return workers


def _prepare_worker(config: ExperimentConfig, wid: int, shard: LabeledDataset) -> WorkerState:
    """One worker's state from its raw shard, which it takes over.

    The training rows are compacted and scaled inside the shard's own arrays, so
    when NearMiss-3 keeps every row no training-sized copy is made; only the test
    and validation rows are copied out.
    """
    # The split is stratified, so every class needs a row on each side.
    raw_counts = _require_classes(wid, "raw", shard, min_rows=2)
    train, test = train_test_split(
        shard, config.test_fraction, derive_seed(config.seed, "split", wid)
    )
    del shard  # now train itself, unless its arrays were views and train is a copy
    # Scoring a shard of one class leaves AUROC or F1 meaningless mid-run.
    test_counts = _require_classes(wid, "test", test, min_rows=1)
    scaler = fit_scaler(train)
    scale_dataset(train, scaler)
    scale_dataset(test, scaler)
    slim = nearmiss3_undersample(train, config.resample)
    del train  # slim itself when NearMiss-3 has nothing to drop
    sample_count = slim.sample_count
    # NearMiss-3 or the test split can leave a class one row, too few to stratify.
    _require_classes(wid, "undersampled", slim, min_rows=2)
    train_final, validation = train_test_split(
        slim, VALIDATION_FRACTION, derive_seed(config.seed, "val", wid)
    )
    _require_classes(wid, "train", train_final, min_rows=1)
    _require_classes(wid, "validation", validation, min_rows=1)
    # A test shard short of a class would average AUROC over fewer classes.
    if np.any((raw_counts > 0) & (test_counts == 0)):
        raise ConfigError(
            f"worker {wid}: the test shard has class counts {_counts_text(test_counts)}; "
            f"it needs every class of the raw shard ({_counts_text(raw_counts)})"
        )
    return WorkerState(
        worker_id=wid,
        group_id=0,
        train=train_final,
        validation=validation,
        test=test,
        sample_count=sample_count,
    )


def _counts_text(counts: np.ndarray) -> str:
    return ", ".join(f"{name} {n}" for name, n in zip(CLASS_NAMES, counts))


def _require_classes(
    wid: int, shard_name: str, shard: LabeledDataset, min_rows: int
) -> np.ndarray:
    """The shard's class counts; ConfigError unless two classes have ``min_rows`` rows each."""
    counts = np.bincount(shard.labels, minlength=len(CLASS_NAMES))
    held = counts[counts > 0]
    if len(held) < 2 or held.min() < min_rows:
        raise ConfigError(
            f"worker {wid}: the {shard_name} shard has class counts {_counts_text(counts)}; "
            f"it needs 2 or more classes with {min_rows} or more rows each"
        )
    return counts


def _load_raw_shards(config: ExperimentConfig) -> Iterable[LabeledDataset]:
    """Each worker's raw shard in worker order; synthetic shards are drawn and flow files
    read one per ``next``, while a corpus is parsed whole and cut before the first."""
    from segfl.synthgen import DEFAULT_CLASS_MIX, stream_scenario

    spec = config.data
    if spec.source == "synthetic":
        return stream_scenario(
            n_workers=spec.n_workers,
            profiles=spec.profiles,
            sizes=spec.sizes,
            divergence=spec.divergence,
            class_mix=spec.class_mix or DEFAULT_CLASS_MIX,
            seed=derive_seed(config.seed, "data"),
        )
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
    """Parse and encode one flow file; an unreadable file, a row csv.reader refuses or an
    unseen token is a ConfigError."""
    try:
        return parse_flow_csv(path, column_map)
    except OSError as exc:
        raise ConfigError(f"{owner}: {path}: {exc.strerror or exc}") from None
    except (csv.Error, ValueError) as exc:
        raise ConfigError(f"{owner}: {path}: {exc}") from None


def broadcast_initial(
    workers: list[WorkerState], config: ExperimentConfig
) -> tuple[dict[int, WorkerState], dict[int, ModelParams]]:
    """One initial group holding everyone: fresh copies of ``workers``, which stay unchanged,
    each sharing the group's initial model."""
    spec = LayerSpec(workers[0].train.features.shape[1], config.hidden_dims)
    global_params = init_params(spec, derive_seed(config.seed, "init"))
    worker_map = {
        w.worker_id: replace(w, group_id=1, params=global_params, val_history=[])
        for w in workers
    }
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
    """Execute one federated round over every live group.

    Every live group's trainers train in one ``train_local`` call; each group's
    global is then refreshed from the round-start snapshot of every global.
    """
    live = _live_members(workers)
    peer_params = {gid: groups[gid] for gid in live}
    chosen = {}
    for gid, members in live.items():
        for wid in members:
            workers[wid].params = groups[gid]
        chosen[gid] = _round_robin_window(members, round_no, config.participants_per_round)

    trainers = [wid for gid in live for wid in chosen[gid]]
    cohort = Cohort(tuple(workers[wid].train for wid in trainers))
    seeds = [derive_seed(config.seed, "train", wid, round_no) for wid in trainers]
    models = [workers[wid].params for wid in trainers]
    for wid, trained in zip(trainers, train_local(models, cohort, config.train, seeds)):
        _require_finite(trained.flat, f"worker {wid}", "parameters", round_no, config)
        workers[wid].params = trained

    for gid in live:
        contributions = [
            LocalContribution(params=workers[wid].params, sample_count=workers[wid].sample_count)
            for wid in chosen[gid]
        ]
        # Non-trainers keep the global they downloaded at round start, which
        # is exactly the pre-aggregation group vector.
        others = [peer_params[other] for other in peer_params if other != gid]
        groups[gid] = weighted_aggregate(peer_params[gid], contributions, others, config.weights)

    return _score_round(workers, round_no, config)


def _run_pooled_round(
    workers: dict[int, WorkerState],
    groups: dict[int, ModelParams],
    pooled: LabeledDataset,
    round_no: int,
    config: ExperimentConfig,
) -> RoundReport:
    """One centralized round: group 1's model trains on the pooled shards, everyone gets it.

    The pooled model trains for the same total epoch count as a federated run (rounds x
    epochs), scored on every worker's shards after each block so learning curves line up.
    """
    seed = derive_seed(config.seed, "train", 0, round_no)
    (model,) = train_local([groups[1]], Cohort((pooled,)), config.train, [seed])
    _require_finite(model.flat, "the pooled model", "parameters", round_no, config)
    groups[1] = model
    for worker in workers.values():
        worker.params = model
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
    once, under the next unused id, so later plans at the same boundary see it
    as a candidate and the group cap stays global; the moves are applied after
    the last plan.
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
        local_params = {wid: workers[wid].params for wid in members}
        new_id = max(groups) + 1
        plan = segment(gid, scores, live_ids, seg, local_params, cross_fit, new_id)
        if plan.new_group is not None:
            groups[new_id] = plan.new_group
            live_ids.append(new_id)

        for wid, dest in plan.destinations.items():
            events.append(
                TimelineEvent(
                    round_no=round_no,
                    worker_id=wid,
                    old_group=gid,
                    new_group=dest,
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


def run_experiment(
    config: ExperimentConfig,
    prepared_workers: Optional[list[WorkerState]] = None,
    *,
    on_round: Optional[Callable[[RoundReport], None]] = None,
    on_timeline: Optional[Callable[[list[TimelineEvent]], None]] = None,
) -> ExperimentResult:
    """Run one experiment end to end under a single master seed.

    Args:
        config: full experiment description.
        prepared_workers: reuse shards from a previous ``build_worker_data``
            call with the same config; the run starts from fresh states
            (``broadcast_initial``) and never writes them.
        on_round: optional hook given each round's report as it completes.
        on_timeline: optional hook given each boundary's timeline events.

    Returns:
        ExperimentResult with one report per round, the segmentation
        timeline (empty unless mode is segmented_fl), and final states.
    """
    if prepared_workers is None:
        prepared_workers = build_worker_data(config)
    workers, groups = broadcast_initial(prepared_workers, config)
    if config.mode == "centralized":
        pooled = concat_datasets([workers[wid].train for wid in sorted(workers)])
    reports: list[RoundReport] = []
    timeline: list[TimelineEvent] = []
    for round_no in range(1, config.rounds + 1):
        if config.mode == "centralized":
            report = _run_pooled_round(workers, groups, pooled, round_no, config)
        else:
            report = run_round(workers, groups, round_no, config)
        reports.append(report)
        if on_round:
            on_round(report)
        if config.mode == "segmented_fl" and round_no % config.segmentation.eval_every == 0:
            events = evaluate_and_segment(workers, groups, round_no, config)
            timeline.extend(events)
            if on_timeline and events:
                on_timeline(events)
    return ExperimentResult(
        reports=tuple(reports), timeline=tuple(timeline), workers=workers, groups=groups
    )

