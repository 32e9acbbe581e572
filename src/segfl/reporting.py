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

import numpy as np

from segfl.flowdata import CLASS_NAMES
from segfl.orchestrator import RoundReport, TimelineEvent

ROUNDS_FILE = "rounds.csv"
TIMELINE_FILE = "timeline.csv"
COMPARE_FILE = "compare.csv"
MANIFEST_FILE = "manifest.json"
CONFIG_COPY_FILE = "config.yaml"
REPORT_FILE = "report.csv"
CHECKPOINT_DIR = "checkpoints"

_ROUNDS_HEADER = (
    ["round", "worker_id", "group_id", "accuracy"]
    + [f"precision_{name}" for name in CLASS_NAMES]
    + [f"recall_{name}" for name in CLASS_NAMES]
    + [f"f1_{name}" for name in CLASS_NAMES]
    + ["macro_f1", "auroc", "train_loss"]
)

_TIMELINE_HEADER = [
    "round",
    "worker_id",
    "old_group",
    "new_group",
    "window_mean",
    "score",
    "threshold",
]


def _fmt(value: float) -> str:
    return format(float(value), ".10g")


def run_id_for(config_snapshot: dict) -> str:
    """Content-addressed run id: hash of the canonical config snapshot."""
    canonical = json.dumps(config_snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


class RoundsWriter:
    """Streams one line per worker per round, flushed as each round lands."""

    def __init__(self, path: Path):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(_ROUNDS_HEADER)
        self._fh.flush()

    def write(self, report: RoundReport) -> None:
        for row in report.workers:
            self._writer.writerow(
                [report.round_no, row.worker_id, row.group_id, _fmt(row.accuracy)]
                + [_fmt(v) for v in row.precision]
                + [_fmt(v) for v in row.recall]
                + [_fmt(v) for v in row.f1]
                + [_fmt(row.macro_f1), _fmt(row.auroc), _fmt(row.train_loss)]
            )
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


class TimelineWriter:
    def __init__(self, path: Path):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(_TIMELINE_HEADER)
        self._fh.flush()

    def write(self, events: list[TimelineEvent]) -> None:
        for ev in events:
            self._writer.writerow(
                [
                    ev.round_no,
                    ev.worker_id,
                    ev.old_group,
                    ev.new_group,
                    _fmt(ev.window_mean),
                    _fmt(ev.score),
                    _fmt(ev.cutoff),
                ]
            )
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def read_csv_rows(path: Path) -> list[dict]:
    """A written rounds or timeline file as one dict per row, keyed by header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Manifest:
    run_id: str
    config_snapshot: dict
    path: Path

    def write_started(self, outputs: list[str]) -> None:
        self._write(
            status="running",
            started_at=_now(),
            finished_at=None,
            outputs=outputs,
        )

    def write_finished(self, status: str, outputs: list[str]) -> None:
        existing = json.loads(self.path.read_text()) if self.path.exists() else {}
        self._write(
            status=status,
            started_at=existing.get("started_at", _now()),
            finished_at=_now(),
            outputs=outputs,
        )

    def _write(self, status: str, started_at, finished_at, outputs: list[str]) -> None:
        payload = {
            "run_id": self.run_id,
            "status": status,
            "started_at": started_at,
            "finished_at": finished_at,
            "config": self.config_snapshot,
            "outputs": sorted(outputs),
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


def write_report(rounds_rows: list[dict], timeline_rows: list[dict], path: Path) -> None:
    """Plot-ready series: per-round per-worker macro-F1 plus change markers.

    Point rows give each worker's macro-F1 and group per round; one marker
    row is emitted for every worker whose group changed at a boundary.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["kind", "round", "worker_id", "group_id", "macro_f1", "from_group", "to_group"]
        )
        for row in rounds_rows:
            writer.writerow(
                ["point", row["round"], row["worker_id"], row["group_id"], row["macro_f1"], "", ""]
            )
        for row in timeline_rows:
            if row["old_group"] != row["new_group"]:
                writer.writerow(
                    [
                        "group_change",
                        row["round"],
                        row["worker_id"],
                        row["new_group"],
                        "",
                        row["old_group"],
                        row["new_group"],
                    ]
                )
