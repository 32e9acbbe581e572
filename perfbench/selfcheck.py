"""Checks on the benchmark itself, each from outside, through run.py.

    python3 perfbench/selfcheck.py

1. A copy of the checkout whose digests.json holds one perturbed digest
   reports failed experiments and ``correct: false``.
2. Every metric BENCHMARK.json names prints with its unit, traced and not.
3. Per-layer counts repeat exactly between two traced runs of one seed.
4. In a directory holding only BENCHMARK.json and perfbench/ (no src/), the
   benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selfcheck"


def bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rounds", "--seed", "0",
         "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dest: Path, with_src: bool) -> Path:
    """BENCHMARK.json and perfbench/ (and src/ if asked) copied to ``dest``."""
    skip = shutil.ignore_patterns("__pycache__")
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def names_and_units(result: dict, declared: list[dict]) -> bool:
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    return printed == {m["name"]: m["unit"] for m in declared} and all(
        isinstance(entry["value"], (int, float)) for entry in result["metrics"].values()
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    checks = {}
    try:
        digests = json.loads((HERE / "digests.json").read_text())
        rounds_digest = digests["rounds"]["0"]["segmented_fl"][0]
        digests["rounds"]["0"]["segmented_fl"][0] = (
            "0" if rounds_digest[0] != "0" else "1"
        ) + rounds_digest[1:]
        copy = copy_checkout(WORK / "perturbed", with_src=True)
        (copy / "perfbench" / "digests.json").write_text(json.dumps(digests))
        perturbed = result_of(bench("--trace", "0", cwd=copy))
        checks["perturbed digest raises failures"] = (
            perturbed["failed"] > 0 and perturbed["correct"] is False
        )

        plain = result_of(bench("--trace", "0"))
        checks["end-to-end metrics named with units"] = plain["correct"] and names_and_units(
            plain, spec["end_to_end"]
        )
        traced = [result_of(bench("--trace", "1")) for _ in range(2)]
        checks["per-layer metrics named with units"] = all(
            r["correct"] and names_and_units(r, spec["per_layer"]) for r in traced
        )
        checks["per-layer counts repeat across runs"] = all(
            traced[0]["metrics"][name]["value"] == traced[1]["metrics"][name]["value"]
            for name in tracing.REPEATABLE_COUNTS
        )

        proc = bench("--trace", "0", cwd=copy_checkout(WORK / "bare", with_src=False))
        checks["no src/: non-zero exit, no result"] = proc.returncode != 0 and not proc.stdout.strip()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
