"""Every config key against the same thirteen wrong values, in process.

Each (key, value) case must end one of three ways:

- ``load_config`` raises a ``ConfigError`` at the key's line (for ``data``, at a
  line of its block; ``data.n_workers`` against a shorter ``sizes`` list answers
  at ``sizes``, the list that is short);
- set-up raises a ``ConfigError`` naming a worker or the corpus;
- the config is accepted, and ``build_worker_data`` and ``broadcast_initial`` run.

Any other exception is what ``segfl run`` reports as exit 1, and fails the test.
No round runs: ``J`` or ``E`` at ``2**70`` is a valid config that runs without end.
The keys come from the one table ``config._KEYS``, so a new key is covered
without an edit here.
"""

from __future__ import annotations

from pathlib import Path

import pytest
import yaml

from segfl import config as config_module
from segfl.config import ConfigError, load_config
from segfl.flowdata import write_flow_csv
from segfl.orchestrator import broadcast_initial, build_worker_data
from segfl.synthgen import generate, make_profile, to_records

_REPO = Path(__file__).resolve().parents[1]

# 10**400 is an integer beyond float range: float() of it overflows.
VALUES = [
    5, -1, 0, "x", True, None, [1], {"a": 1}, float("nan"), float("inf"), 1e308, 2**70, 10**400
]

SOURCES = ("synthetic", "files", "corpus")


def base_config(flow_dir: Path, source: str) -> dict:
    """``configs/quick.yaml`` with ``J: 2``, its data block read from ``source``."""
    config = {**yaml.safe_load((_REPO / "configs" / "quick.yaml").read_text()), "J": 2}
    paths = []
    for i in range(2):
        path = flow_dir / f"flows_{i + 1}.csv"
        if not path.exists():
            write_flow_csv(to_records(generate(make_profile(), 400, seed=i)), path)
        paths.append(str(path))
    if source == "files":
        config["data"] = {"source": "files", "paths": paths}
    elif source == "corpus":
        config["data"] = {"source": "corpus", "corpus": paths[0], "shares": [0.5, 0.5]}
    return config


def cases() -> list[tuple[str, str]]:
    """(source, key) for every top-level key, ``data``, and each data key under each source."""
    top = [("synthetic", key) for key in config_module._KEYS if not key.startswith("data.")]
    data = sorted(key for key in config_module._KEYS if key.startswith("data."))
    return top + [(source, key) for source in SOURCES for key in data]


def mutated(config: dict, key: str, value) -> tuple[str, set[int]]:
    """The YAML text with ``key`` set to ``value``, and the lines a refusal may name."""
    config = {**config, "data": dict(config["data"])}
    if key.startswith("data."):
        config["data"][key[len("data.") :]] = value
    else:
        config[key] = value
    text = yaml.safe_dump(config, sort_keys=False)
    rows = list(enumerate(text.splitlines(), 1))
    if key != "data" and not key.startswith("data."):
        return text, {next(i for i, row in rows if row.startswith(f"{key}:"))}
    start = next(i for i, row in rows if row.startswith("data:"))
    end = next((i for i, row in rows if i > start and not row.startswith(" ")), len(rows) + 1)
    if key == "data":  # a key inside the mapping answers at its own line
        return text, set(range(start, end))
    names = {key[len("data.") :]} | ({"sizes"} if key == "data.n_workers" else set())
    return text, {i for i, row in rows[start:end] if row.strip().partition(":")[0] in names}


def outcome(path: Path) -> tuple[str, object, str]:
    """("refused" | "setup" | "accepted", the error's line, its message)."""
    try:
        loaded = load_config(path)
    except ConfigError as exc:
        return "refused", exc.line, str(exc)
    try:
        broadcast_initial(build_worker_data(loaded.experiment), loaded.experiment)
    except ConfigError as exc:
        return "setup", exc.line, str(exc)
    return "accepted", None, ""


@pytest.fixture(scope="module")
def flow_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("flows")


@pytest.mark.parametrize("source", SOURCES)
def test_each_base_config_is_accepted(tmp_path, flow_dir, source):
    # Otherwise every case would end in the base's own set-up error.
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump(base_config(flow_dir, source), sort_keys=False))
    assert outcome(path) == ("accepted", None, "")


@pytest.mark.parametrize("source, key", cases(), ids=lambda part: str(part))
def test_every_wrong_value_is_refused_at_its_line_or_set_up(tmp_path, flow_dir, source, key):
    config = base_config(flow_dir, source)
    wrong = []
    for value in VALUES:
        text, lines = mutated(config, key, value)
        path = tmp_path / "c.yaml"
        path.write_text(text)
        try:
            kind, at, message = outcome(path)
        except Exception as exc:  # what segfl run reports as exit 1
            wrong.append(f"{value!r}: exit 1, {type(exc).__name__}: {exc}")
            continue
        if kind == "refused" and at not in lines:
            wrong.append(f"{value!r}: refused at line {at}, not {sorted(lines)}: {message}")
        if kind == "setup" and not message.startswith(("worker ", "corpus: ")):
            wrong.append(f"{value!r}: set-up error names no worker or corpus: {message}")
    assert not wrong, "\n".join(wrong)
