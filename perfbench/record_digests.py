"""Record the sha256 of rounds.csv and timeline.csv for every pool experiment.

    python3 perfbench/record_digests.py [--workload NAME ...]

Runs each workload's experiment seeds 0 .. pool-1 once, in every mode the
workload uses, and rewrites perfbench/digests.json.  The benchmark fails an
experiment whose outputs differ from these digests, so record them only from
a commit whose outputs are the reference; a change that alters the outputs
on purpose says so and records them again.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import tracing
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args()

    cli = run.load_program()
    os.chdir(run.ROOT)
    path = run.HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    work = run.WORK / f"record-{os.getpid()}"
    recorder = tracing.Recorder()
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            workload = workloads.WORKLOADS[name]
            entries = {}
            for seed in range(workload.pool):
                experiments = workloads.prepare(workload, [seed], work / "inputs", run.ROOT)
                for experiment in experiments:
                    outcome = run.run_experiment(cli, recorder, experiment, 0, work / "runs", None)
                    if outcome.digests is None:
                        raise RuntimeError(f"{name} seed {seed} {experiment.mode}: {outcome.failure}")
                    entries.setdefault(str(seed), {})[experiment.mode] = outcome.digests
                shutil.rmtree(work / "inputs", ignore_errors=True)
                print(f"{name} seed {seed}: {entries[str(seed)]}", file=sys.stderr)
            table[name] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
