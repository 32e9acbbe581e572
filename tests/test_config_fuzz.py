"""Whole configs drawn at random, run through ``segfl run`` in process.

The mutation test changes one key at a time, so it misses faults that need two
keys together (tiny shards and a large ``test_fraction``, say). Here every key
is drawn at once, the data keys only from those the drawn source reads, and
each config must end in exit 0 or exit 2. An exit 0 run must also have written
a whole run: J x ``n_workers`` rows in ``rounds.csv``, one ``timeline.csv`` row
per worker per boundary, at most ``max_groups`` live groups in any round, and a
``complete`` manifest. The draws are shaped so that most configs run.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from segfl.cli import main
from segfl.flowdata import write_flow_csv
from segfl.orchestrator import MODES
from segfl.synthgen import generate, make_profile, to_records

CONFIGS = 160
SEED = 20211


@pytest.fixture(scope="module")
def flow_files(tmp_path_factory) -> list[str]:
    """Flow CSVs of 100 to 400 rows from the base environment."""
    directory = tmp_path_factory.mktemp("fuzz_flows")
    paths = []
    for i, rows in enumerate([100, 200, 400, 400]):
        path = directory / f"flows_{i}.csv"
        write_flow_csv(to_records(generate(make_profile(), rows, seed=i)), path)
        paths.append(str(path))
    return paths


def _shares(rng, n: int) -> list[float]:
    return [float(x) for x in rng.dirichlet(np.full(n, 4.0))]


def draw(rng: np.random.Generator, flow_files: list[str]) -> tuple[dict, int]:
    """One config and its worker count."""
    n_workers = int(rng.integers(1, 7))
    source = str(rng.choice(["synthetic", "synthetic", "files", "corpus"]))
    if source == "synthetic":
        data = {
            "source": source,
            "n_workers": n_workers,
            "profiles": [str(p) for p in rng.choice(["A", "B"], size=rng.integers(1, 4))],
            "sizes": [int(s) for s in rng.integers(40, 401, size=n_workers)],
            "divergence": float(rng.uniform(0.0, 2.0)),
        }
        if rng.random() < 0.3:
            data["class_mix"] = _shares(rng, 3)
    elif source == "files":
        data = {"source": source, "paths": [str(p) for p in rng.choice(flow_files, n_workers)]}
    else:
        data = {"source": source, "corpus": flow_files[-1], "shares": _shares(rng, n_workers)}
    alpha, beta, gamma = _shares(rng, 3)
    config = {
        "mode": str(rng.choice(MODES)),
        "J": int(rng.integers(1, 5)),
        "N_t": None if rng.random() < 0.5 else int(rng.integers(1, n_workers + 1)),
        "E": int(rng.integers(1, 3)),
        "B": int(rng.choice([8, 32, 128])),
        "eta": float(rng.choice([0.01, 0.1, 0.3])),
        "alpha": alpha,
        "beta": beta,
        "gamma": gamma,
        "h_f": int(rng.integers(0, 30)),
        "h_j": int(rng.integers(1, 4)),
        "R_e": int(rng.integers(1, 4)),
        "max_groups": int(rng.integers(1, 5)),
        "seed": int(rng.integers(0, 1000)),
        "hidden_dims": [int(h) for h in rng.integers(2, 17, size=rng.integers(0, 3))],
        # Mostly usual splits; the rest leave few training rows per class.
        "test_fraction": float(rng.uniform(0.05, 0.3 if rng.random() < 0.8 else 0.9)),
        "resample_k": int(rng.integers(1, 6)),
        "target_ratio": float(rng.uniform(1.0, 4.0)),
        "data": data,
    }
    return config, n_workers


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_every_drawn_config_exits_0_or_2_and_a_run_is_whole(tmp_path, capsys, flow_files):
    rng = np.random.default_rng(SEED)
    exits, wrong = [], []
    for i in range(CONFIGS):
        config, n_workers = draw(rng, flow_files)
        path = tmp_path / f"c{i}.yaml"
        path.write_text(yaml.safe_dump(config, sort_keys=False))
        code = main(["run", str(path), "--out", str(tmp_path / "runs")])
        out, err = capsys.readouterr()
        exits.append(code)
        if code == 2:
            continue
        if code != 0:
            wrong.append(f"{path.name}: exit {code}: {err.strip()[-300:]}\n{path.read_text()}")
            continue
        run_dir = Path(out.strip().splitlines()[-1])
        rounds = _rows(run_dir / "rounds.csv")
        timeline = _rows(run_dir / "timeline.csv")
        boundaries = config["J"] // config["h_j"] if config["mode"] == "segmented_fl" else 0
        live = max(
            len({r["group_id"] for r in rounds if r["round"] == str(j)})
            for j in range(1, config["J"] + 1)
        )
        status = json.loads((run_dir / "manifest.json").read_text())["status"]
        if len(rounds) != config["J"] * n_workers:
            wrong.append(f"{path.name}: {len(rounds)} rounds.csv rows")
        if len(timeline) != boundaries * n_workers:
            wrong.append(f"{path.name}: {len(timeline)} timeline.csv rows")
        if live > config["max_groups"]:
            wrong.append(f"{path.name}: {live} live groups")
        if status != "complete":
            wrong.append(f"{path.name}: manifest {status}")
    assert not wrong, "\n".join(wrong)
    assert exits.count(0) >= CONFIGS // 2, f"only {exits.count(0)} of {CONFIGS} configs ran"
