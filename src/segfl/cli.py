"""Command-line entry points: run and compare.

Output root resolution order: ``--out`` flag, then the ``SEGFL_OUT``
environment variable, then the config's ``out_dir``, then ``./runs``.
Each run writes into ``<root>/<run_id>/`` where the run id is a hash of the
resolved config snapshot, so identical configs land in identical places.

Exit codes: 0 on success, 1 on runtime failure, 2 on bad usage or config.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

import yaml

from segfl.config import ConfigError, LoadedConfig, load_config
from segfl.orchestrator import MODES, build_worker_data, run_experiment
from segfl.reporting import (
    COMPARE_FILE,
    CONFIG_COPY_FILE,
    MANIFEST_FILE,
    ROUNDS_FILE,
    TIMELINE_FILE,
    Manifest,
    RoundsWriter,
    TimelineWriter,
    run_id_for,
    write_compare,
)

logger = logging.getLogger(__name__)

_OUT_ENV_VAR = "SEGFL_OUT"


@contextlib.contextmanager
def _run_dir(loaded: LoadedConfig, out_flag, command: str, outputs: list[str]):
    """One command's run directory, named by its run id and holding ``config.yaml``.

    The manifest lists those of ``outputs`` that exist and says ``running``
    while the body runs, ``failed`` if it raises (an interrupt too) and
    ``complete`` once it returns; the run directory is then the last line
    printed.
    """
    run_id = run_id_for({"command": command, **loaded.snapshot})
    root = out_flag or os.environ.get(_OUT_ENV_VAR) or loaded.out_dir or "runs"
    run_dir = Path(root) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / CONFIG_COPY_FILE).write_text(
        yaml.safe_dump(loaded.snapshot, sort_keys=True, default_flow_style=False)
    )
    manifest = Manifest(
        run_id, loaded.snapshot, run_dir / MANIFEST_FILE, [CONFIG_COPY_FILE, *outputs]
    )
    manifest.write_started()
    try:
        yield run_dir
    except BaseException:
        manifest.write_finished("failed")
        raise
    manifest.write_finished("complete")
    print(run_dir)


def cmd_run(config_path, seed=None, out=None) -> int:
    """Run one experiment, streaming per-round records as they complete."""
    loaded = load_config(config_path, overrides={"seed": seed})
    outputs = [ROUNDS_FILE, TIMELINE_FILE]
    with (
        _run_dir(loaded, out, "run", outputs) as run_dir,
        RoundsWriter(run_dir / ROUNDS_FILE) as rounds,
        TimelineWriter(run_dir / TIMELINE_FILE) as timeline,
    ):
        run_experiment(loaded.experiment, on_round=rounds.write, on_timeline=timeline.write)
    return 0


def cmd_compare(config_path, seed=None, out=None) -> int:
    """Run centralized, fl, and segmented_fl on identical data and seeds."""
    loaded = load_config(config_path, overrides={"seed": seed})
    # Only segmented_fl emits timeline events, so one timeline file serves all modes.
    timeline_file = f"segmented_fl_{TIMELINE_FILE}"
    outputs = [COMPARE_FILE, timeline_file] + [f"{mode}_{ROUNDS_FILE}" for mode in MODES]
    with (
        _run_dir(loaded, out, "compare", outputs) as run_dir,
        TimelineWriter(run_dir / timeline_file) as timeline,
    ):
        prepared = build_worker_data(loaded.experiment)
        final_reports = {}
        for mode in MODES:
            with RoundsWriter(run_dir / f"{mode}_{ROUNDS_FILE}") as rounds:
                result = run_experiment(
                    replace(loaded.experiment, mode=mode),
                    prepared,
                    on_round=rounds.write,
                    on_timeline=timeline.write,
                )
            final_reports[mode] = result.reports[-1]
        write_compare(final_reports, run_dir / COMPARE_FILE)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segfl",
        description="Segmented federated learning simulator for flow-based intrusion detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, help_text in (
        ("run", "run one experiment from a config file"),
        ("compare", "run all three modes on identical data"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("config", help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output root (beats SEGFL_OUT and out_dir)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    command = cmd_run if args.command == "run" else cmd_compare
    try:
        return command(args.config, seed=args.seed, out=args.out)
    except ConfigError as exc:
        location = f":{exc.line}" if exc.line is not None else ""
        print(f"segfl: {args.config}{location}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: outputs are flushed, manifest says failed
        logger.exception("run failed")
        print(f"segfl: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
