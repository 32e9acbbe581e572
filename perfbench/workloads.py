"""The benchmark's workloads: which configs run, with which seeds, on which inputs.

Each workload has a fixed pool of experiment seeds whose output digests are
recorded in ``digests.json``; the benchmark seed picks one pass worth of
them, so every experiment the benchmark can run has a digest to match.

    rounds  the segmentation demo (a frozen copy of configs/segmentation_demo.yaml)
            in segmented_fl and fl: round-loop bound, NearMiss-3 a no-op; fl is
            the control on which segmentation does no work.
    prep    the defaults (an empty config): NearMiss-3 bound, and its
            candidate pool falls short of the target, which stays visible.
    ingest  4 synthetic flow CSVs of 100k rows with balanced classes, read
            through data.source: files: parse and encode bound, NearMiss-3 a
            no-op, every worker trains on a large shard.

Run as a script, this writes shards of one ingest input set (the benchmark
runs it in two child processes, one per core, each writing every other
shard, so that generation takes half the time and does not count towards
the benchmark's peak memory):

    python3 perfbench/workloads.py --ingest-index 3 --part 0 --out DIR
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent

INGEST_WORKERS = 4
INGEST_WRITERS = 2  # child processes writing one input set
INGEST_ROWS = 100_000
INGEST_PROFILES = ("A", "A", "B", "B")
INGEST_CLASS_MIX = (1 / 3, 1 / 3, 1 / 3)  # balanced: NearMiss-3 keeps the shard


@dataclass(frozen=True)
class Workload:
    name: str
    template: str  # config under perfbench/configs
    modes: tuple[str, ...]
    pool: int  # experiment seeds 0 .. pool-1 have recorded digests
    per_pass: int  # experiment seeds in one pass


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rounds", "rounds.yaml", ("segmented_fl", "fl"), pool=40, per_pass=4),
        Workload("prep", "prep.yaml", ("segmented_fl",), pool=12, per_pass=2),
        Workload("ingest", "ingest.yaml", ("segmented_fl",), pool=6, per_pass=1),
    )
}


@dataclass(frozen=True)
class Experiment:
    seed: int
    mode: str
    config: str  # path relative to the repository root


def pass_seeds(workload: Workload, seed: int) -> list[int]:
    """The experiment seeds of one pass for a benchmark seed."""
    return [(seed * workload.per_pass + i) % workload.pool for i in range(workload.per_pass)]


def prepare(workload: Workload, seeds: list[int], work: Path, root: Path) -> list[Experiment]:
    """Write the configs (and, for ingest, the flow CSVs) one pass needs."""
    template = yaml.safe_load((HERE / "configs" / workload.template).read_text()) or {}
    config_dir = work / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    experiments = []
    for seed in seeds:
        for mode in workload.modes:
            config = dict(template)
            if mode != template.get("mode", "segmented_fl"):
                config["mode"] = mode
            if workload.name == "ingest":
                shard_dir = work / "inputs" / f"ingest-{seed}"
                config["data"] = dict(config["data"])
                config["data"]["paths"] = [
                    os.path.relpath(p, root) for p in write_ingest_inputs(seed, shard_dir, root)
                ]
            path = config_dir / f"{workload.name}-{seed}-{mode}.yaml"
            path.write_text(yaml.safe_dump(config, sort_keys=True))
            experiments.append(Experiment(seed, mode, os.path.relpath(path, root)))
    return experiments


def write_ingest_inputs(index: int, out: Path, root: Path) -> list[Path]:
    """Generate one ingest input set in child processes and wait for them."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = str(Path(__file__).resolve())
    children = [
        subprocess.Popen(
            [sys.executable, script, "--ingest-index", str(index), "--part", str(part), "--out", str(out)],
            env=env,
        )
        for part in range(INGEST_WRITERS)
    ]
    try:
        codes = [child.wait(timeout=150) for child in children]
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    if any(codes):
        raise RuntimeError(f"ingest input generation exited with {codes}")
    return [out / f"shard_{w}.csv" for w in range(1, INGEST_WORKERS + 1)]


def _generate_ingest(index: int, part: int, out: Path) -> None:
    """Write the shards ``part``, ``part + INGEST_WRITERS``, ... of one set."""
    from segfl.flowdata import write_flow_csv
    from segfl.synthgen import make_scenario, to_records

    out.mkdir(parents=True, exist_ok=True)
    scenario = make_scenario(
        n_workers=INGEST_WORKERS,
        profiles=INGEST_PROFILES,
        sizes=INGEST_ROWS,
        divergence=1.0,
        class_mix=INGEST_CLASS_MIX,
        seed=index,
    )
    for w, dataset in enumerate(scenario.datasets, start=1):
        if (w - 1) % INGEST_WRITERS == part:
            write_flow_csv(to_records(dataset), out / f"shard_{w}.csv")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ingest-index", type=int, required=True)
    parser.add_argument("--part", type=int, choices=range(INGEST_WRITERS), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    _generate_ingest(args.ingest_index, args.part, args.out)
