"""Spans around the calls into each segfl module, recorded from outside.

Nothing in the program is edited.  Every target is a name that the calling
code looks up when it calls (``segfl.cli.run_experiment``,
``segfl.orchestrator.predict``, a method on a class), so swapping in a
wrapper records each call as a span: name, start, end, the enclosing span
and the experiment id.  Spans stay in memory and are written out once, at
the end of a run.

Two target sets exist.  ``light_targets`` is what every pass needs for the
end-to-end metrics (round starts, training-sample counts); ``full_targets``
adds every layer boundary for the per-layer split.  The gap between a traced
and an untraced pass is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Recorder.spans, -1 at the top
    experiment: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Holds every span of one benchmark run, in call order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.experiment = -1
        self._open: list[int] = []

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name, counter) for the block."""
        saved = []
        handler = _RejectCounter(self)
        flow_logger = logging.getLogger("segfl.flowdata")
        flow_logger.addHandler(handler)
        try:
            for owner, attr, name, counter in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, counter))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            flow_logger.removeHandler(handler)

    def _wrap(self, original, name, counter):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1, self.experiment)
            self.spans.append(span)
            self._open.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter is not None:
                span.attrs.update(counter(args, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def annotate(self, **attrs) -> None:
        """Attach counts to the innermost open span."""
        if self._open:
            self.spans[self._open[-1]].attrs.update(attrs)

    def dump(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start - origin,
                    "end": span.end - origin,
                    "parent": span.parent,
                    "experiment": span.experiment,
                }
                if span.attrs:
                    record["attrs"] = span.attrs
                fh.write(json.dumps(record) + "\n")


class _RejectCounter(logging.Handler):
    """parse_flow_csv reports its reject count only in a log line."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__(logging.INFO)
        self._recorder = recorder

    def emit(self, record: logging.LogRecord) -> None:
        if str(record.msg).startswith("rejected %d of %d"):
            self._recorder.annotate(rejects=int(record.args[0]))


# Counters run after the wrapped call returns, outside its span.


def _rows_of_result(args, result):
    return {"rows": len(result)}


def _rows_of_features(args, result):
    return {"rows": len(args[1])}


def _rows_of_dataset(args, result):
    return {"rows": args[1].sample_count}


def _sgd_work(args, result):
    data, config = args[1], args[2]
    return {
        "samples": config.epochs * data.sample_count,
        "steps": config.epochs * math.ceil(data.sample_count / config.batch_size),
    }


def _nearmiss_work(args, result):
    dataset, config = args[0], args[1]
    classes, counts = np.unique(dataset.labels, return_counts=True)
    majority = classes[np.argmax(counts)]
    target = int(round(config.target_ratio * counts.min()))
    return {
        "rows_in": dataset.sample_count,
        "rows_out": result.sample_count,
        "majority_target": min(target, int(counts.max())),
        "majority_kept": int(np.count_nonzero(result.labels == majority)),
    }


def _blend_bytes(args, result):
    previous, contributions, others = args[0], args[1], args[2]
    vectors = [previous] + [c.params for c in contributions] + list(others)
    return {"bytes": sum(v.flat.nbytes for v in vectors)}


def _founded(args, result):
    return {"founded": int(result.new_group is not None)}


def _moves(args, result):
    return {"moves": sum(ev.old_group != ev.new_group for ev in result)}


def _checkpoint_bytes(args, result):
    return {"bytes": sum(f.stat().st_size for f in result.iterdir())}


def light_targets():
    """What the end-to-end metrics need: experiment end, round starts, SGD work."""
    from segfl import cli, orchestrator

    return [
        (cli, "run_experiment", "orchestrator.run_experiment", None),
        (orchestrator, "run_round", "orchestrator.run_round", None),
        (orchestrator, "train_local", "nnet.train_local", _sgd_work),
    ]


def full_targets():
    """Every call from the CLI and the orchestrator into another module."""
    from segfl import cli, flowdata, orchestrator, reporting, synthgen

    return light_targets() + [
        (cli, "cmd_run", "cli.cmd_run", None),
        (cli, "load_config", "config.load_config", None),
        (orchestrator, "build_worker_data", "orchestrator.build_worker_data", None),
        (synthgen, "make_scenario", "synthgen.make_scenario", None),
        (orchestrator, "parse_flow_csv", "flowdata.parse_flow_csv", _rows_of_result),
        (flowdata.EncodingMap, "encode", "flowdata.encode", None),
        (orchestrator, "train_test_split", "flowdata.train_test_split", None),
        (orchestrator, "fit_scaler", "flowdata.fit_scaler", None),
        (orchestrator, "scale_dataset", "flowdata.scale_dataset", None),
        (orchestrator, "nearmiss3_undersample", "resample.nearmiss3_undersample", _nearmiss_work),
        (orchestrator, "init_params", "nnet.init_params", None),
        (orchestrator, "forward", "nnet.forward", _rows_of_features),
        (orchestrator, "predict", "nnet.predict", _rows_of_features),
        (orchestrator, "mean_loss", "nnet.mean_loss", _rows_of_dataset),
        (orchestrator, "auroc_ovr_macro", "metrics.auroc_ovr_macro", None),
        (orchestrator, "macro_f1_score", "metrics.macro_f1_score", None),
        (orchestrator, "confusion", "metrics.confusion", None),
        (orchestrator, "prf1", "metrics.prf1", None),
        (orchestrator, "weighted_aggregate", "aggregation.weighted_aggregate", _blend_bytes),
        (orchestrator, "evaluate_and_segment", "orchestrator.evaluate_and_segment", _moves),
        (orchestrator, "eval_score", "segmentation.eval_score", None),
        (orchestrator, "segment", "segmentation.segment", _founded),
        (orchestrator, "write_checkpoint", "orchestrator.write_checkpoint", _checkpoint_bytes),
        (reporting.RoundsWriter, "write", "reporting.RoundsWriter.write", None),
        (reporting.TimelineWriter, "write", "reporting.TimelineWriter.write", None),
        (reporting.Manifest, "write_started", "reporting.Manifest.write_started", None),
        (reporting.Manifest, "write_finished", "reporting.Manifest.write_finished", None),
    ]


# Per-layer metric -> span names whose inclusive times are summed.
INCLUSIVE_SECONDS = {
    "config.load_s": ("config.load_config",),
    "synthgen.make_scenario_s": ("synthgen.make_scenario",),
    "flowdata.parse_s": ("flowdata.parse_flow_csv",),
    "flowdata.encode_s": ("flowdata.encode",),
    "flowdata.split_scale_s": (
        "flowdata.train_test_split",
        "flowdata.fit_scaler",
        "flowdata.scale_dataset",
    ),
    "resample.nearmiss3_s": ("resample.nearmiss3_undersample",),
    "nnet.train_local_s": ("nnet.train_local",),
    "nnet.forward_s": ("nnet.forward",),
    "nnet.predict_s": ("nnet.predict",),
    "nnet.mean_loss_s": ("nnet.mean_loss",),
    "metrics.auroc_s": ("metrics.auroc_ovr_macro",),
    "metrics.f1_s": ("metrics.macro_f1_score", "metrics.confusion", "metrics.prf1"),
    "aggregation.aggregate_s": ("aggregation.weighted_aggregate",),
    "segmentation.boundary_s": ("orchestrator.evaluate_and_segment",),
    "segmentation.segment_s": ("segmentation.eval_score", "segmentation.segment"),
    "orchestrator.checkpoint_s": ("orchestrator.write_checkpoint",),
    "reporting.rounds_write_s": ("reporting.RoundsWriter.write",),
    "reporting.timeline_write_s": ("reporting.TimelineWriter.write",),
    "reporting.manifest_s": (
        "reporting.Manifest.write_started",
        "reporting.Manifest.write_finished",
    ),
}

# Per-layer metric -> span name whose self time (span minus child spans) is summed.
SELF_SECONDS = {
    "orchestrator.round_self_s": "orchestrator.run_round",
    "orchestrator.boundary_self_s": "orchestrator.evaluate_and_segment",
    "cli.run_self_s": "cli.cmd_run",
}

# Per-layer count -> (span name, attribute) summed over spans.
COUNTS = {
    "flowdata.parse_rows": ("flowdata.parse_flow_csv", "rows"),
    "flowdata.reject_rows": ("flowdata.parse_flow_csv", "rejects"),
    "resample.rows_in": ("resample.nearmiss3_undersample", "rows_in"),
    "resample.rows_out": ("resample.nearmiss3_undersample", "rows_out"),
    "nnet.sgd_samples": ("nnet.train_local", "samples"),
    "nnet.sgd_steps": ("nnet.train_local", "steps"),
    "nnet.forward_rows": ("nnet.forward", "rows"),
    "nnet.predict_rows": ("nnet.predict", "rows"),
    "nnet.mean_loss_rows": ("nnet.mean_loss", "rows"),
    "segmentation.moves": ("orchestrator.evaluate_and_segment", "moves"),
    "segmentation.groups_founded": ("segmentation.segment", "founded"),
    "aggregation.bytes_blended": ("aggregation.weighted_aggregate", "bytes"),
    "orchestrator.checkpoint_bytes": ("orchestrator.write_checkpoint", "bytes"),
}

# Counts that must repeat exactly from one traced pass to the next.
REPEATABLE_COUNTS = tuple(COUNTS) + ("segmentation.cross_fit_rows",)


def self_seconds(spans: list[Span], first: int) -> dict[int, float]:
    """Span index -> duration minus the time its direct children cover."""
    own = {first + i: span.seconds for i, span in enumerate(spans)}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.seconds
    return own


def layer_metrics(spans: list[Span], first: int) -> dict[str, float]:
    """Per-layer metrics of one pass; ``spans`` start at index ``first``."""
    out = {}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    for metric, names in INCLUSIVE_SECONDS.items():
        out[metric] = sum(s.seconds for name in names for s in by_name[name])
    own = self_seconds(spans, first)
    for metric, name in SELF_SECONDS.items():
        out[metric] = sum(
            own[first + i] for i, s in enumerate(spans) if s.name == name
        )
    for metric, (name, attr) in COUNTS.items():
        out[metric] = sum(s.attrs.get(attr, 0) for s in by_name[name])

    segment_ids = {first + i for i, s in enumerate(spans) if s.name == "segmentation.segment"}
    out["segmentation.cross_fit_rows"] = sum(
        s.attrs["rows"] for s in by_name["nnet.predict"] if s.parent in segment_ids
    )
    nearmiss = by_name["resample.nearmiss3_undersample"]
    target = sum(s.attrs["majority_target"] for s in nearmiss)
    out["resample.target_met_ratio"] = (
        sum(s.attrs["majority_kept"] for s in nearmiss) / target if target else 1.0
    )
    return out


def module_self_seconds(spans: list[Span], first: int) -> dict[str, float]:
    """Self time per segfl module (the span name's first component)."""
    totals: dict[str, float] = defaultdict(float)
    for index, seconds in self_seconds(spans, first).items():
        totals[spans[index - first].name.split(".")[0]] += seconds
    return dict(totals)
