"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload rounds --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/baseline.json

For every workload and seed this runs ``run.py --trace 0`` in a child
process, one at a time, and prints per end-to-end metric the median over
seeds, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json.  With
``--baseline`` it also makes one traced run per workload and writes the
end-to-end summary, the per-layer split and the environment to the file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (detail line with its elapsed time, result line)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])
    detail["elapsed_s"] = time.perf_counter() - start
    return detail, json.loads(lines[-1])


def summarize(results: list[dict], declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
            "bound": metric["bound"],
            "values": values,
        }
    return out


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--baseline", type=Path, help="also write a baseline entry here")
    args = parser.parse_args()

    summary = {"end_to_end": {}, "per_layer": {}}
    all_correct = True
    for workload in args.workload or names:
        runs = [bench(workload, s, spec["run_seconds"], 0) for s in args.seeds]
        all_correct &= all(r["correct"] and r["failed"] == 0 for _, r in runs)
        table = summarize([r for _, r in runs], spec["end_to_end"])
        summary["end_to_end"][workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for _, r in runs),
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "max_elapsed_s": max(d["elapsed_s"] for d, _ in runs),
            "metrics": table,
        }
        summary["env"] = runs[-1][0]["env"]
        for name, row in table.items():
            flag = "ok" if row["spread"] <= row["bound"] / 3 else (
                "within bound" if row["spread"] <= row["bound"] else "TOO WIDE"
            )
            print(
                f"{workload:7s} {name:20s} median {row['median']:14.6g} {row['unit']:5s} "
                f"spread {row['spread']:.4f} bound {row['bound']:.2f} {flag}",
                flush=True,
            )
        if args.baseline:
            detail, result = bench(workload, args.seeds[0], spec["run_seconds"], 1)
            all_correct &= result["correct"]
            summary["per_layer"][workload] = {
                "seed": args.seeds[0],
                "traced_passes": detail["traced_passes"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "module_self_s": detail["module_self_s"],
                "dominant_module": detail["dominant_module"],
            }
    print("all runs correct" if all_correct else "SOME RUNS FAILED", flush=True)
    if args.baseline:
        args.baseline.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
