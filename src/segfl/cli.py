"""Command-line entry points: run, compare, report.

Output root resolution order: ``--out`` flag, then the ``SEGFL_OUT``
environment variable, then the config's ``out_dir``, then ``./runs``.
Each run writes into ``<root>/<run_id>/`` where the run id is a hash of the
resolved config snapshot, so identical configs land in identical places.

Exit codes: 0 on success, 1 on runtime failure, 2 on bad usage or config.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import yaml

from segfl.config import ConfigError, LoadedConfig, load_config
from segfl.orchestrator import MODES, RunSinks, build_worker_data, run_experiment
from segfl.reporting import (
    CHECKPOINT_DIR,
    COMPARE_FILE,
    CONFIG_COPY_FILE,
    MANIFEST_FILE,
    REPORT_FILE,
    ROUNDS_FILE,
    TIMELINE_FILE,
    Manifest,
    RoundsWriter,
    TimelineWriter,
    read_csv_rows,
    run_id_for,
    write_compare,
    write_report,
)

logger = logging.getLogger(__name__)

_OUT_ENV_VAR = "SEGFL_OUT"


def _resolve_out_root(flag_value, config_out_dir) -> Path:
    if flag_value:
        return Path(flag_value)
    env_value = os.environ.get(_OUT_ENV_VAR)
    if env_value:
        return Path(env_value)
    if config_out_dir:
        return Path(config_out_dir)
    return Path("runs")


def _prepare_run_dir(loaded: LoadedConfig, out_flag, command: str) -> tuple[Path, Manifest]:
    run_id = run_id_for({"command": command, **loaded.snapshot})
    run_dir = _resolve_out_root(out_flag, loaded.out_dir) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / CONFIG_COPY_FILE).write_text(
        yaml.safe_dump(loaded.snapshot, sort_keys=True, default_flow_style=False)
    )
    manifest = Manifest(
        run_id=run_id, config_snapshot=loaded.snapshot, path=run_dir / MANIFEST_FILE
    )
    return run_dir, manifest


def cmd_run(config_path, seed=None, out=None) -> int:
    """Run one experiment, streaming per-round records as they complete."""
    loaded = load_config(config_path, overrides={"seed": seed})
    run_dir, manifest = _prepare_run_dir(loaded, out, "run")
    outputs = [CONFIG_COPY_FILE, ROUNDS_FILE, TIMELINE_FILE]
    manifest.write_started(outputs)

    rounds_writer = RoundsWriter(run_dir / ROUNDS_FILE)
    timeline_writer = TimelineWriter(run_dir / TIMELINE_FILE)
    sinks = RunSinks(
        on_round=rounds_writer.write,
        on_timeline=timeline_writer.write,
        checkpoint_dir=run_dir / CHECKPOINT_DIR,
    )
    try:
        run_experiment(loaded.experiment, sinks)
    except BaseException:  # an interrupt too
        manifest.write_finished("failed", outputs)
        raise
    finally:
        rounds_writer.close()
        timeline_writer.close()
    manifest.write_finished("complete", outputs)
    print(run_dir)
    return 0


def cmd_compare(config_path, seed=None, out=None) -> int:
    """Run centralized, fl, and segmented_fl on identical data and seeds."""
    loaded = load_config(config_path, overrides={"seed": seed})
    run_dir, manifest = _prepare_run_dir(loaded, out, "compare")
    outputs = [CONFIG_COPY_FILE, COMPARE_FILE] + [f"{mode}_{ROUNDS_FILE}" for mode in MODES]
    manifest.write_started(outputs)

    try:
        prepared = build_worker_data(loaded.experiment)
        final_reports = {}
        for mode in MODES:
            mode_config = replace(loaded.experiment, mode=mode)
            rounds_writer = RoundsWriter(run_dir / f"{mode}_{ROUNDS_FILE}")
            timeline_writer = (
                TimelineWriter(run_dir / f"{mode}_{TIMELINE_FILE}")
                if mode == "segmented_fl"
                else None
            )
            sinks = RunSinks(
                on_round=rounds_writer.write,
                on_timeline=timeline_writer.write if timeline_writer else None,
            )
            try:
                result = run_experiment(mode_config, sinks, prepared_workers=prepared)
            finally:
                rounds_writer.close()
                if timeline_writer:
                    timeline_writer.close()
            final_reports[mode] = result.reports[-1]
        write_compare(final_reports, run_dir / COMPARE_FILE)
    except BaseException:  # an interrupt too
        manifest.write_finished("failed", outputs)
        raise
    manifest.write_finished("complete", outputs)
    print(run_dir)
    return 0


def cmd_report(run_dir, out=None) -> int:
    """Derive a plot-ready series file from a finished run directory."""
    run_dir = Path(run_dir)
    rounds_path = run_dir / ROUNDS_FILE
    if not rounds_path.exists():
        raise ConfigError(f"no {ROUNDS_FILE} under {run_dir}; not a finished run directory?")
    timeline_path = run_dir / TIMELINE_FILE
    timeline_rows = read_csv_rows(timeline_path) if timeline_path.exists() else []
    target_dir = Path(out) if out else run_dir
    target_dir.mkdir(parents=True, exist_ok=True)
    write_report(read_csv_rows(rounds_path), timeline_rows, target_dir / REPORT_FILE)
    print(target_dir / REPORT_FILE)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segfl",
        description="Segmented federated learning simulator for flow-based intrusion detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("config", help="YAML experiment config")
    compare_p = sub.add_parser("compare", help="run all three modes on identical data")
    compare_p.add_argument("config", help="YAML experiment config")
    report_p = sub.add_parser("report", help="build plot-ready series from a run directory")
    report_p.add_argument("run_dir", help="directory produced by 'segfl run'")

    for p in (run_p, compare_p):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    for p in (run_p, compare_p, report_p):
        p.add_argument("--out", default=None, help="output root (beats SEGFL_OUT and out_dir)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, seed=args.seed, out=args.out)
        if args.command == "compare":
            return cmd_compare(args.config, seed=args.seed, out=args.out)
        return cmd_report(args.run_dir, out=args.out)
    except ConfigError as exc:
        location = f":{exc.line}" if exc.line is not None else ""
        source = getattr(args, "config", None) or getattr(args, "run_dir", "")
        print(f"segfl: {source}{location}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: outputs are flushed, manifest says failed
        logger.exception("run failed")
        print(f"segfl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
