"""Run artifacts: per-round records, segmentation timeline, manifest, tables.

Everything is plain delimited text or JSON.  Numeric cells use a fixed
formatting rule so identical experiments produce byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from segfl.flowdata import CLASS_NAMES
from segfl.orchestrator import RoundReport, TimelineEvent

ROUNDS_FILE = "rounds.csv"
TIMELINE_FILE = "timeline.csv"
COMPARE_FILE = "compare.csv"
MANIFEST_FILE = "manifest.json"
CONFIG_COPY_FILE = "config.yaml"


def _fmt(value: float) -> str:
    return format(float(value), ".10g")


def run_id_for(config_snapshot: dict) -> str:
    """Content-addressed run id: hash of the canonical config snapshot."""
    canonical = json.dumps(config_snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


class _CsvWriter:
    """A CSV file under its header, flushed after each write, closed on leaving ``with``."""

    _header: list[str]

    def __init__(self, path: Path):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._emit([self._header])

    def _emit(self, rows) -> None:
        self._writer.writerows(rows)
        self._fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


class RoundsWriter(_CsvWriter):
    """Streams one line per worker per round, flushed as each round lands."""

    _header = (
        ["round", "worker_id", "group_id", "accuracy"]
        + [f"precision_{name}" for name in CLASS_NAMES]
        + [f"recall_{name}" for name in CLASS_NAMES]
        + [f"f1_{name}" for name in CLASS_NAMES]
        + ["macro_f1", "auroc", "train_loss"]
    )

    def write(self, report: RoundReport) -> None:
        self._emit(
            [report.round_no, row.worker_id, row.group_id, _fmt(row.accuracy)]
            + [_fmt(v) for v in row.precision]
            + [_fmt(v) for v in row.recall]
            + [_fmt(v) for v in row.f1]
            + [_fmt(row.macro_f1), _fmt(row.auroc), _fmt(row.train_loss)]
            for row in report.workers
        )


class TimelineWriter(_CsvWriter):
    _header = ["round", "worker_id", "old_group", "new_group", "window_mean", "score", "threshold"]

    def write(self, events: list[TimelineEvent]) -> None:
        self._emit(
            [ev.round_no, ev.worker_id, ev.old_group, ev.new_group]
            + [_fmt(ev.window_mean), _fmt(ev.score), _fmt(ev.cutoff)]
            for ev in events
        )


@dataclass
class Manifest:
    """``manifest.json``: the run's status, times, config and outputs, rewritten atomically.

    ``outputs`` names what the command writes; each write lists those that exist, so the
    ``running`` manifest names only ``config.yaml`` and a failed one what was opened.
    """

    run_id: str
    config_snapshot: dict
    path: Path
    outputs: list[str]
    started_at: Optional[str] = None

    def write_started(self) -> None:
        self.started_at = _now()
        self._write("running", finished_at=None)

    def write_finished(self, status: str) -> None:
        self._write(status, finished_at=_now())

    def _write(self, status: str, finished_at: Optional[str]) -> None:
        payload = {
            "run_id": self.run_id,
            "status": status,
            "started_at": self.started_at,
            "finished_at": finished_at,
            "config": self.config_snapshot,
            "outputs": sorted(name for name in self.outputs if (self.path.parent / name).exists()),
        }
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(self.path)


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def write_compare(per_mode_reports: dict[str, RoundReport], path: Path) -> None:
    """Comparison table from each approach's final round.

    Worker-scope rows carry accuracy and AUROC per worker; label-scope rows
    carry precision/recall/F1 per class, averaged over the workers.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["approach", "scope", "key", "accuracy", "auroc", "precision", "recall", "f1"]
        )
        for mode in sorted(per_mode_reports):
            final = per_mode_reports[mode]
            for row in final.workers:
                writer.writerow(
                    [mode, "worker", row.worker_id, _fmt(row.accuracy), _fmt(row.auroc), "", "", ""]
                )
            for cls, name in enumerate(CLASS_NAMES):
                precision = np.mean([row.precision[cls] for row in final.workers])
                recall = np.mean([row.recall[cls] for row in final.workers])
                f1 = np.mean([row.f1[cls] for row in final.workers])
                writer.writerow(
                    [mode, "label", name, "", "", _fmt(precision), _fmt(recall), _fmt(f1)]
                )
