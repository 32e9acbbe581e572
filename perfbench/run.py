"""segfl benchmark: run one workload as a closed loop and print its metrics.

    python3 perfbench/run.py --workload rounds --seed 3 --seconds 30 --trace 0

One client runs one experiment after another through ``segfl run`` (the CLI
entry point, in this process, with one BLAS thread).  A pass is the
workload's experiment list for the seed; passes repeat until ``--seconds``,
counted from the start and so including input generation, is used up.  Wall
and set-up time are medians over passes; every pass repeats the same rounds,
so each round's latency is the median of its repeats, and the round
quantiles and the training throughput are taken over those.  Each experiment's
``rounds.csv`` and ``timeline.csv`` must match the sha256 digests recorded in
``perfbench/digests.json``; a mismatch or a non-zero exit counts as a failed
experiment.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports the per-layer split from the traced
ones, plus the tracing overhead (traced minus untraced pass wall time); its
spans are written to ``.perfbench_work/spans-<workload>-<seed>.jsonl``.

The last line of stdout is the result object; the line before it holds the
spread of wall and set-up time over passes, failures, self-checks and the
environment.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread, so a single client owns one core.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
MIN_UNTRACED_PASSES = 3
MIN_TRACED_PASSES = 2  # the per-layer counts must repeat between two


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def load_program():
    """Import segfl from this checkout's src/ and nowhere else."""
    if not (SRC / "segfl" / "__init__.py").is_file():
        raise SetupError(f"no segfl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import segfl
    import segfl.cli

    if Path(segfl.__file__).resolve().parent != SRC / "segfl":
        raise SetupError(f"segfl imported from {segfl.__file__}, not from {SRC}")
    return segfl.cli


def output_digests(run_dir: Path) -> list[str]:
    return [
        hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
        for name in ("rounds.csv", "timeline.csv")
    ]


def gate(actual: list[str] | None, expected: list[str] | None) -> str | None:
    """The output check: None when the digests match, else the reason."""
    if expected is None:
        return "no recorded digest"
    if actual != expected:
        return "output digest differs from the recorded one"
    return None


@dataclass
class Outcome:
    experiment: int
    seed: int
    mode: str
    start: float
    end: float
    digests: list[str] | None = None
    failure: str | None = None


def run_experiment(cli, recorder, experiment, eid: int, out_root: Path, expected) -> Outcome:
    """One ``segfl run`` through the CLI entry point, then the output check."""
    recorder.experiment = eid
    argv = ["run", experiment.config, "--seed", str(experiment.seed), "--out", str(out_root)]
    printed = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    end = time.perf_counter()
    outcome = Outcome(eid, experiment.seed, experiment.mode, start, end)
    if code != 0:
        outcome.failure = f"segfl run exited with {code}"
        return outcome
    run_dir = Path(printed.getvalue().strip().splitlines()[-1])
    try:
        status = json.loads((run_dir / "manifest.json").read_text())["status"]
        outcome.digests = output_digests(run_dir)
    except (OSError, ValueError, KeyError) as exc:
        outcome.failure = f"unreadable run directory: {exc}"
        return outcome
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    outcome.failure = (
        f"manifest status {status!r}" if status != "complete" else gate(outcome.digests, expected)
    )
    return outcome


@dataclass
class Pass:
    traced: bool
    first_span: int
    spans: list
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.end - o.start for o in self.outcomes)


@dataclass
class PassTimes:
    """What one untraced pass contributes to the end-to-end metrics."""

    wall_s: float
    setup_s: float
    round_ms: dict[tuple[int, int], float]  # (experiment in pass, round) -> latency
    samples: int


def pass_times(p: Pass) -> PassTimes | None:
    """Set-up and round latencies of one pass; None if fewer than two rounds ran.

    Set-up runs from the CLI call to the first run_round; a round runs from
    its run_round call to the next one (or to the end of run_experiment), so
    it includes boundary segmentation, checkpoints and the CSV sink writes.
    """
    spans_of: dict[int, list] = {}
    for span in p.spans:
        spans_of.setdefault(span.experiment, []).append(span)
    setup = 0.0
    round_ms = {}
    samples = 0
    for position, outcome in enumerate(p.outcomes):
        spans = spans_of.get(outcome.experiment, [])
        rounds = [s.start for s in spans if s.name == "orchestrator.run_round"]
        finished = [s.end for s in spans if s.name == "orchestrator.run_experiment"]
        if not rounds or not finished:
            continue
        setup += rounds[0] - outcome.start
        marks = rounds + finished[:1]
        for index, (a, b) in enumerate(zip(marks, marks[1:])):
            round_ms[position, index] = (b - a) * 1e3
        samples += sum(s.attrs["samples"] for s in spans if s.name == "nnet.train_local")
    if len(round_ms) < 2:
        return None
    return PassTimes(p.wall_s, setup, round_ms, samples)


def end_to_end(times: list[PassTimes]) -> dict[str, float]:
    """The end-to-end metrics over a run's untraced passes.

    Every pass repeats the same rounds, so each round's latency is the median
    of its repeats; the round quantiles and the round-loop time are taken over
    those.  The noise of single repeats then moves few rounds across the gap
    between a workload's short and long rounds (a small shard trained versus
    a large one), which the median round of ``rounds`` sits on.  Wall and
    set-up time are medians over passes.
    """
    repeats: dict[tuple[int, int], list[float]] = {}
    for t in times:
        for key, ms in t.round_ms.items():
            repeats.setdefault(key, []).append(ms)
    rounds = [statistics.median(v) for v in repeats.values()]
    deciles = statistics.quantiles(rounds, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(t.wall_s for t in times),
        "setup_s": statistics.median(t.setup_s for t in times),
        "round_ms_p50": statistics.median(rounds),
        "round_ms_p90": deciles[8],
        "train_samples_per_s": statistics.median(t.samples for t in times) / (sum(rounds) / 1e3),
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "values": values}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "src_lines": sum(
            len(f.read_text().splitlines()) for f in sorted(SRC.rglob("*.py"))
        ),
    }


def measure(args, cli, experiments, expected_for, origin: float) -> tuple[dict, dict]:
    """Run passes until the time from ``origin`` is used up."""
    import tracing

    recorder = tracing.Recorder()
    light, full = tracing.light_targets(), tracing.full_targets()
    out_root = WORK / f"runs-{os.getpid()}"
    passes: list[Pass] = []
    deadline = origin + args.seconds
    eid = 0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        first = len(recorder.spans)
        current = Pass(traced, first, [])
        with recorder.patched(full if traced else light):
            for experiment in experiments:
                current.outcomes.append(
                    run_experiment(
                        cli, recorder, experiment, eid, out_root,
                        expected_for(experiment),
                    )
                )
                eid += 1
        current.spans = recorder.spans[first:]
        passes.append(current)
        n_traced = sum(p.traced for p in passes)
        enough = len(passes) - n_traced >= (1 if args.trace else MIN_UNTRACED_PASSES)
        if args.trace:
            enough = enough and n_traced >= MIN_TRACED_PASSES
        typical = statistics.median(p.wall_s for p in passes)
        if enough and time.perf_counter() + typical > deadline:
            break
    shutil.rmtree(out_root, ignore_errors=True)

    outcomes = [o for p in passes for o in p.outcomes]
    failures = [o for o in outcomes if o.failure]
    untraced = [p for p in passes if not p.traced]
    times = [t for t in map(pass_times, untraced) if t is not None]
    checks = {}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "experiments_per_pass": len(experiments),
        "experiment_seeds": sorted({e.seed for e in experiments}),
        "rounds_per_pass": len(times[0].round_ms) if times else None,
        "attempted": len(outcomes),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(outcomes),
        "failures": [f"{o.mode} seed {o.seed}: {o.failure}" for o in failures[:5]],
    }
    if args.trace:
        traced_passes = [p for p in passes if p.traced]
        layers = [tracing.layer_metrics(p.spans, p.first_span) for p in traced_passes]
        metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(
            p.wall_s for p in traced_passes
        ) - statistics.median(p.wall_s for p in untraced)
        checks["per_layer_counts_repeat"] = all(
            l[name] == layers[0][name] for l in layers for name in tracing.REPEATABLE_COUNTS
        )
        last = traced_passes[-1]
        module_self = tracing.module_self_seconds(last.spans, last.first_span)
        detail["traced_passes"] = len(traced_passes)
        detail["module_self_s"] = dict(sorted(module_self.items(), key=lambda kv: -kv[1]))
        detail["dominant_module"] = max(module_self, key=module_self.get)
        detail["spread"] = {name: spread([l[name] for l in layers]) for name in layers[0]}
        WORK.mkdir(exist_ok=True)
        recorder.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl", origin)
    elif times:
        metrics = end_to_end(times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        detail["spread"] = {
            "wall_s": spread([t.wall_s for t in times]),
            "setup_s": spread([t.setup_s for t in times]),
        }
        detail["round_repeats"] = len(times)
    else:
        metrics = {}
    return metrics, {**detail, "self_checks": checks}


def main(argv=None) -> int:
    origin = time.perf_counter()  # input generation counts against --seconds
    parser = argparse.ArgumentParser(description="segfl benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        recorded = json.loads((HERE / "digests.json").read_text())
    except (SetupError, OSError, ValueError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    table = recorded.get(workload.name, {})

    def expected_for(experiment):
        return table.get(str(experiment.seed), {}).get(experiment.mode)

    os.chdir(ROOT)
    work = WORK / f"inputs-{os.getpid()}"
    try:
        experiments = workloads.prepare(
            workload, workloads.pass_seeds(workload, args.seed), work, ROOT
        )
        metrics, detail = measure(args, cli, experiments, expected_for, origin)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    detail["self_checks"]["every_declared_metric_measured"] = sorted(metrics) == sorted(
        m["name"] for m in declared
    )
    detail["env"] = environment()
    result = {
        "correct": detail["failed"] == 0 and all(detail["self_checks"].values()),
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in metrics
        },
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
