"""Config loading, the run and compare commands, output resolution, exit codes."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from segfl import config as config_module, orchestrator
from segfl.cli import cmd_compare, cmd_run, main
from segfl.config import ConfigError, load_config
from segfl.flowdata import CANONICAL_COLUMN_MAP, write_flow_csv
from segfl.orchestrator import ExperimentConfig
from segfl.reporting import RoundsWriter, run_id_for
from segfl.synthgen import DEFAULT_CLASS_MIX, generate, make_profile, make_scenario, to_records

_REPO = Path(__file__).resolve().parents[1]

_QUICK = {
    "mode": "segmented_fl",
    "J": 4,
    "E": 1,
    "B": 32,
    "eta": 0.1,
    "h_j": 2,
    "R_e": 2,
    "seed": 3,
    "hidden_dims": [8],
    "data": {
        "source": "synthetic",
        "n_workers": 2,
        "profiles": ["A", "B"],
        "sizes": [400, 400],
        "divergence": 1.0,
    },
}


def _write_config(directory: Path, name: str = "config.yaml", **overrides) -> Path:
    payload = {**_QUICK, **overrides}
    path = directory / name
    path.write_text(yaml.safe_dump(payload))
    return path


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_load_config_applies_defaults(tmp_path):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    loaded = load_config(empty)
    exp = loaded.experiment
    assert exp.mode == "segmented_fl"
    assert exp.rounds == 15
    assert exp.participants_per_round is None
    assert (exp.train.epochs, exp.train.batch_size, exp.train.learning_rate) == (1, 128, 0.01)
    assert (exp.weights.alpha, exp.weights.beta, exp.weights.gamma) == (0.2, 0.6, 0.2)
    assert exp.segmentation.fineness == 7
    assert exp.segmentation.eval_every == 3
    assert exp.segmentation.window == 3
    assert exp.segmentation.max_groups == 3
    assert exp.hidden_dims == (64, 32)
    assert exp.resample.neighbors_k == 3 and exp.resample.target_ratio == 2.0
    assert exp.data.n_workers == 4
    assert loaded.snapshot["data"]["sizes"] == [8000, 8000, 8000, 8000]
    assert "out_dir" not in loaded.snapshot
    assert loaded.snapshot["J"] == 15
    assert exp == ExperimentConfig(), "an empty file and the library must agree on defaults"


def test_a_loaded_seed_equals_the_library_seed(tmp_path):
    # The seed key sets the one seed field; training seeds derive from it per call.
    path = tmp_path / "seed.yaml"
    path.write_text("seed: 5\n")
    assert load_config(path).experiment == ExperimentConfig(seed=5)


def test_load_config_reports_unknown_key_with_line(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("mode: segmented_fl\nJ: 2\nlearning_rate: 0.5\n")
    with pytest.raises(ConfigError, match="unknown config key.*learning_rate") as info:
        load_config(path)
    assert info.value.line == 3
    path.write_text("J: 2\n5: 1\nx: 2\n")  # unknown keys of two types, sorted as text
    with pytest.raises(ConfigError, match=r"unknown config key\(s\): 5, x") as info:
        load_config(path)
    assert info.value.line == 2


def test_load_config_reports_blend_violation_with_values(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("alpha: 0.5\nbeta: 0.5\ngamma: 0.2\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    message = str(info.value)
    assert "alpha=0.5" in message and "beta=0.5" in message and "gamma=0.2" in message
    assert "sum" in message
    assert info.value.line == 1


def test_load_config_rejects_bad_mode_and_counts(tmp_path):
    path = tmp_path / "m.yaml"
    path.write_text("mode: decentralized\n")
    with pytest.raises(ConfigError, match="mode must be one of"):
        load_config(path)
    path.write_text("N_t: 0\n")
    with pytest.raises(ConfigError, match="N_t must be a positive integer"):
        load_config(path)
    path.write_text("J: 1.5\n")
    with pytest.raises(ConfigError, match="J must be an integer"):
        load_config(path)
    # Values that load but would crash or be silently coerced at run time.
    for text, message in [
        ("resample_k: 2.5\n", "resample_k must be an integer, got 2.5"),
        ("hidden_dims: 8\n", "hidden_dims must be a list of positive integers, got 8"),
        ("hidden_dims: [8.7]\n", r"hidden_dims must be a list of positive integers, got \[8.7\]"),
        ("hidden_dims: [8, 0]\n", "hidden_dims must be a list of positive integers"),
        ("N_t: true\n", "N_t must be a positive integer, got True"),
        # Rules kept in the config dataclasses, reported against the key.
        ("E: 0\n", "E must be >= 1, got 0"),
        ("B: 0\n", "B must be >= 1, got 0"),
        ("eta: -0.5\n", "eta must be >= 0, got -0.5"),
        ("h_f: 50\n", "h_f 50 leaves no usable threshold"),
        (f"h_f: {10**400}\n", r"h_f 10{400} leaves no usable threshold -inf"),
        ("h_j: 0\n", "h_j must be >= 1, got 0"),
        ("R_e: 0\n", "R_e must be >= 1, got 0"),
        ("max_groups: 0\n", "max_groups must be >= 1, got 0"),
        ("resample_k: 0\n", "resample_k must be >= 1, got 0"),
        ("target_ratio: 0.5\n", "target_ratio must be >= 1, got 0.5"),
        ("test_fraction: 1.0\n", r"test_fraction must be in \(0, 1\), got 1.0"),
        ("out_dir: 5\n", "out_dir must be a string, got 5"),
        # 4 workers and 3 groups, each holding 1,000,012,000,003 values: about 56 TB.
        (
            "hidden_dims: [1000000, 1000000]\n",
            "hidden_dims must fit in memory: 7 parameter vectors of 1000012000003 values at 8 B",
        ),
        # Non-finite values, which pass every "x < 0" rule.
        ("eta: .nan\n", "eta must be finite, got nan"),
        ("eta: .inf\n", "eta must be finite, got inf"),
        (f"eta: {10**400}\n", "eta must be a number, got 1000"),  # float() would overflow
        ("target_ratio: .inf\n", "target_ratio must be finite, got inf"),
        ("target_ratio: .nan\n", "target_ratio must be finite, got nan"),
        ("alpha: .nan\n", "alpha must be non-negative, got nan"),
        ("beta: .nan\n", "beta must be non-negative, got nan"),
        ("gamma: -0.1\n", "gamma must be non-negative, got -0.1"),
        # A blend that does not sum to 1 is reported at its first key in the file.
        ("alpha: 0.3\nbeta: .inf\n", r"must sum to 1; got alpha=0.3, beta=inf, gamma=0.2"),
        ("beta: 0.7\n", r"^alpha \+ beta \+ gamma must sum to 1; got alpha=0.2, beta=0.7,"),
        ("gamma: 0.5\nbeta: 0.1\n", r"must sum to 1; got alpha=0.2, beta=0.1, gamma=0.5"),
        # fl always has one group, which cannot renormalise a blend of gamma alone.
        ("gamma: 1\nbeta: 0\nalpha: 0\n", r"alpha \+ beta must be positive.*gamma=1"),
    ]:
        path.write_text("J: 2\n" + text)
        with pytest.raises(ConfigError, match=message) as info:
            load_config(path)
        assert info.value.line == 2, text
    path.write_text("mode: fl\nJ: 0\n")
    with pytest.raises(ConfigError, match="J must be >= 1, got 0") as info:
        load_config(path)
    assert info.value.line == 2


def test_load_config_validates_data_block(tmp_path):
    path = tmp_path / "d.yaml"
    path.write_text("data:\n  n_workers: 3\n  sizes: [10, 20]\n")
    with pytest.raises(ConfigError, match="data.sizes has 2 entries for 3 workers"):
        load_config(path)
    path.write_text("data:\n  flavour: odd\n")
    with pytest.raises(ConfigError, match="unknown data key.*flavour") as info:
        load_config(path)
    assert info.value.line == 2


def test_load_config_broadcasts_scalar_sizes(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("data:\n  n_workers: 3\n  sizes: 500\n")
    loaded = load_config(path)
    assert loaded.snapshot["data"]["sizes"] == [500, 500, 500]
    path.write_text("data:\n  n_workers: 3\n")  # the default size, for any worker count
    loaded = load_config(path)
    assert loaded.snapshot["data"]["sizes"] == [8000, 8000, 8000]
    assert run_id_for({"command": "run", **loaded.snapshot}) == "ff20af3c8891"


def test_load_config_seed_override(tmp_path):
    path = _write_config(tmp_path)
    assert load_config(path).experiment.seed == 3
    assert load_config(path, overrides={"seed": 9}).experiment.seed == 9
    assert load_config(path, overrides={"seed": None}).experiment.seed == 3


@pytest.mark.parametrize(
    "name, run_id, compare_id",
    [
        ("quick.yaml", "bfb6c3b61154", "4f5164671286"),
        ("segmentation_demo.yaml", "f1aaba952a08", "b3b58fa09523"),
        (None, "15589bccacc4", "682370bc4c41"),  # an empty file
    ],
)
def test_run_ids_of_the_shipped_configs_stay(tmp_path, name, run_id, compare_id):
    # Run directories are named by the snapshot: a reordered or retyped value moves them all.
    path = _REPO / "configs" / name if name else tmp_path / "empty.yaml"
    if name is None:
        path.write_text("")
    snapshot = load_config(path).snapshot
    assert run_id_for({"command": "run", **snapshot}) == run_id
    assert run_id_for({"command": "compare", **snapshot}) == compare_id


def test_configs_that_load_alike_write_the_same_run_id_and_config_copy(tmp_path, capsys):
    # eta: 1 and eta: 1.0 load to one ExperimentConfig, so to one snapshot and run id.
    paths, run_dirs = [], []
    for eta in ("1", "1.0"):
        paths.append(tmp_path / f"eta_{eta}.yaml")
        paths[-1].write_text(f"J: 1\nseed: 0\neta: {eta}\ndata: {{n_workers: 2, sizes: 300}}\n")
        assert main(["run", str(paths[-1]), "--out", str(tmp_path / eta)]) == 0
        run_dirs.append(Path(capsys.readouterr().out.strip()))
    assert load_config(paths[0]).experiment == load_config(paths[1]).experiment
    assert run_dirs[0].name == run_dirs[1].name
    copies = [(run_dir / "config.yaml").read_bytes() for run_dir in run_dirs]
    assert copies[0] == copies[1] and b"eta: 1.0\n" in copies[0]


def _tree_digest(run_dir: Path) -> tuple[int, str]:
    """File count and sha256 of the sorted "path sha256" lines of every file but the manifest."""
    pairs = sorted(
        (path.relative_to(run_dir).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
        for path in run_dir.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    )
    lines = "".join(f"{name} {digest}\n" for name, digest in pairs)
    return len(pairs), hashlib.sha256(lines.encode()).hexdigest()


@pytest.mark.parametrize(
    "command, name, count, digest",
    [
        ("run", "quick", 3, "d378b4c367d3cc23c687330761786270199f4c9785f42fb43dd7186b36df7250"),
        (
            "run",
            "segmentation_demo",
            3,
            "d441a00ddb56b8ff2ff884b6682c67567d98fe03c7ceb82023ce55d9d72263bb",
        ),
        ("compare", "quick", 6, "a6110d3c0d36a25f89c739a8acdd075cb7a1be8105ec2469eb3a49380776d32e"),
        (
            "compare",
            "segmentation_demo",
            6,
            "b80babe03f44e49539f23d1364b1b4a9143e58938e637c4f7f517753b49c9918",
        ),
    ],
)
def test_shipped_configs_write_the_pinned_bytes(tmp_path, capsys, command, name, count, digest):
    # Every CSV and config copy of the shipped configs, as first recorded.
    config = _REPO / "configs" / f"{name}.yaml"
    assert main([command, str(config), "--out", str(tmp_path)]) == 0
    run_dir = Path(capsys.readouterr().out.strip())
    assert _tree_digest(run_dir) == (count, digest)


@pytest.mark.parametrize("name", ["quick", "segmentation_demo"])
def test_a_synthetic_run_and_its_scenario_read_from_files_write_the_same_bytes(
    tmp_path, capsys, name
):
    # The two data paths meet: the config's scenario, written as flow files and
    # read back through data.source files, gives the synthetic run's outputs.
    config = _REPO / "configs" / f"{name}.yaml"
    experiment = load_config(config).experiment
    spec = experiment.data
    scenario = make_scenario(
        n_workers=spec.n_workers,
        profiles=spec.profiles,
        sizes=spec.sizes,
        divergence=spec.divergence,
        class_mix=spec.class_mix or DEFAULT_CLASS_MIX,
        seed=orchestrator.derive_seed(experiment.seed, "data"),
    )
    paths = []
    for wid, dataset in enumerate(scenario.datasets, start=1):
        paths.append(str(tmp_path / f"worker_{wid}.csv"))
        write_flow_csv(to_records(dataset), paths[-1])
    payload = yaml.safe_load(config.read_text())
    payload["data"] = {"source": "files", "paths": paths}
    from_files = tmp_path / "from_files.yaml"
    from_files.write_text(yaml.safe_dump(payload))

    run_dirs = []
    for path in (config, from_files):
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        run_dirs.append(Path(capsys.readouterr().out.strip()))
    assert run_dirs[0] != run_dirs[1]
    assert len((run_dirs[0] / "timeline.csv").read_text().splitlines()) > 1
    for output in ("rounds.csv", "timeline.csv"):
        assert (run_dirs[0] / output).read_bytes() == (run_dirs[1] / output).read_bytes()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.yaml")


def test_cmd_run_writes_a_complete_run_dir(tmp_path, capsys):
    config = _write_config(tmp_path)
    out_root = tmp_path / "out"
    assert cmd_run(config, out=str(out_root)) == 0
    run_dir = Path(capsys.readouterr().out.strip())
    assert run_dir.parent == out_root

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert manifest["run_id"] == run_dir.name
    assert manifest["config"]["J"] == 4
    assert (run_dir / "config.yaml").exists()

    rounds = _read_csv(run_dir / "rounds.csv")
    assert len(rounds) == 4 * 2, "one row per worker per round"
    assert {row["round"] for row in rounds} == {"1", "2", "3", "4"}
    assert {row["worker_id"] for row in rounds} == {"1", "2"}
    for column in ("accuracy", "macro_f1", "auroc", "train_loss", "precision_normal"):
        assert column in rounds[0]

    timeline = _read_csv(run_dir / "timeline.csv")
    assert {row["round"] for row in timeline} == {"2", "4"}, "boundaries every h_j rounds"
    written = sorted(path.name for path in run_dir.iterdir())
    assert written == ["config.yaml", "manifest.json", "rounds.csv", "timeline.csv"]


def test_cmd_run_is_reproducible_byte_for_byte(tmp_path, capsys):
    config = _write_config(tmp_path)
    roots = (tmp_path / "a", tmp_path / "b")
    dirs = []
    for root in roots:
        assert cmd_run(config, out=str(root)) == 0
        dirs.append(Path(capsys.readouterr().out.strip()))
    assert dirs[0].name == dirs[1].name, "same config snapshot, same run id"
    assert (dirs[0] / "rounds.csv").read_bytes() == (dirs[1] / "rounds.csv").read_bytes()
    assert (dirs[0] / "timeline.csv").read_bytes() == (dirs[1] / "timeline.csv").read_bytes()


def test_cmd_run_seed_override_changes_the_run(tmp_path, capsys):
    config = _write_config(tmp_path)
    out_root = tmp_path / "out"
    assert cmd_run(config, out=str(out_root)) == 0
    base_dir = Path(capsys.readouterr().out.strip())
    assert cmd_run(config, seed=9, out=str(out_root)) == 0
    seeded_dir = Path(capsys.readouterr().out.strip())
    assert seeded_dir.name != base_dir.name
    assert json.loads((seeded_dir / "manifest.json").read_text())["config"]["seed"] == 9


def test_output_root_resolution_order(tmp_path, capsys, monkeypatch):
    config = _write_config(tmp_path, J=2)
    env_root = tmp_path / "envroot"
    flag_root = tmp_path / "flagroot"
    cfg_root = tmp_path / "cfgroot"

    monkeypatch.setenv("SEGFL_OUT", str(env_root))
    assert cmd_run(config) == 0
    assert Path(capsys.readouterr().out.strip()).parent == env_root

    assert cmd_run(config, out=str(flag_root)) == 0
    assert Path(capsys.readouterr().out.strip()).parent == flag_root, "--out beats SEGFL_OUT"

    monkeypatch.delenv("SEGFL_OUT")
    config_with_dir = _write_config(tmp_path, name="withdir.yaml", J=2, out_dir=str(cfg_root))
    assert cmd_run(config_with_dir) == 0
    assert Path(capsys.readouterr().out.strip()).parent == cfg_root


def test_main_exit_codes_for_config_errors(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.yaml"
    bad.write_text("alpha: 0.5\nbeta: 0.5\ngamma: 0.2\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:1:" in err
    assert "alpha" in err

    assert main(["run", str(tmp_path / "missing.yaml")]) == 2
    assert "not found" in capsys.readouterr().err

    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"segfl: {tmp_path}: cannot read the config file: Is a directory" in err, err

    # A byte that is not UTF-8, or a control character after multi-byte ones, is a YAML
    # reader error at its line under either loader, not a traceback.
    control_after_e_acute = "J: 2\n# \u00e9\u00e9\n\nx: \x01\n".encode()
    loaders = {config_module._LOADER, yaml.SafeLoader}
    for text, line in ((b"J: 2\nout_dir: caf\xe9\n", 2), (control_after_e_acute, 4)):
        bad.write_bytes(text)
        for loader in loaders:
            monkeypatch.setattr(config_module, "_LOADER", loader)
            assert main(["run", str(bad)]) == 2
            err = capsys.readouterr().err
            assert f"segfl: {bad}:{line}: not valid YAML: " in err and "Traceback" not in err, err

    # With no --out and no SEGFL_OUT, out_dir would be the output root.
    monkeypatch.delenv("SEGFL_OUT", raising=False)
    bad.write_text("J: 2\nout_dir: 5\n")
    assert main(["run", str(bad)]) == 2
    assert f"{bad}:2: out_dir must be a string, got 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, batch, named",
    [
        ("segmented_fl", 32, "worker 1: non-finite parameters after round 1"),
        ("fl", 32, "worker 1: non-finite parameters after round 1"),
        ("centralized", 32, "the pooled model: non-finite parameters after round 1"),
        # Fewer, larger steps leave huge but finite parameters whose forward pass overflows.
        ("segmented_fl", 128, "worker 1: non-finite training loss after round 1"),
    ],
)
def test_diverging_eta_exits_2_naming_worker_round_and_eta(tmp_path, capsys, mode, batch, named):
    config = _write_config(tmp_path, mode=mode, J=2, B=batch, eta=1.0e300)
    out_root = tmp_path / "out"
    with pytest.warns(RuntimeWarning):  # overflow in the forward pass, before the check
        assert main(["run", str(config), "--out", str(out_root)]) == 2
    err = capsys.readouterr().err
    assert f"{config}: {named}; training diverged under eta 1e+300" in err
    assert "Traceback" not in err
    (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
    assert json.loads((run_dir / "manifest.json").read_text())["status"] == "failed"
    assert _read_csv(run_dir / "rounds.csv") == [], "no round is reported with nan metrics"


@pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
def test_yaml_syntax_error_and_key_lines_under_both_loaders(tmp_path, monkeypatch, loader):
    if not hasattr(yaml, loader):
        pytest.skip("PyYAML was built without libyaml")
    monkeypatch.setattr(config_module, "_LOADER", getattr(yaml, loader))
    path = tmp_path / "c.yaml"
    path.write_text("J: 2\nhidden_dims: [8, 4\nseed: 1\n")
    with pytest.raises(ConfigError, match="not valid YAML") as info:
        load_config(path)
    assert info.value.line == 3
    path.write_text("J: 2\ndata:\n  n_workers: 2\n  flavour: odd\n")
    with pytest.raises(ConfigError, match="unknown data key") as info:
        load_config(path)
    assert info.value.line == 4
    path.write_text("J: 2\nhidden_dims: [8]\n")
    assert load_config(path).snapshot["hidden_dims"] == [8]


def test_huge_target_ratio_keeps_every_majority_row(tmp_path, capsys):
    # target_ratio x smallest class overflows to inf: NearMiss-3 keeps each shard whole.
    config = _write_config(tmp_path, target_ratio=1.0e308)
    assert main(["run", str(config), "--out", str(tmp_path / "runs")]) == 0
    capsys.readouterr()
    workers = orchestrator.build_worker_data(load_config(config).experiment)
    assert [w.sample_count for w in workers] == [360, 360]  # 400 rows less the test tenth


@pytest.mark.parametrize(
    "data, named",
    [
        ({"sizes": [40, 40, 40, 40]}, "worker 1: the test shard"),  # test shards of one class
        ({**_QUICK["data"], "sizes": [400, 40]}, "worker 2: the test shard"),
        ({**_QUICK["data"], "sizes": [20, 400]}, "worker 1: the raw shard"),  # cannot stratify
        ({**_QUICK["data"], "sizes": [60, 400]}, "worker 1: the validation shard"),
        ({"sizes": [80, 80, 80, 80]}, "worker 1: the test shard"),  # no victim in test
    ],
)
def test_unusable_shard_exits_2_before_training(tmp_path, capsys, monkeypatch, data, named):
    def no_training(*args):
        raise AssertionError("training started on an unusable shard")

    monkeypatch.setattr(orchestrator, "train_local", no_training)
    config = _write_config(tmp_path, data=data)
    for command in ("run", "compare"):
        assert main([command, str(config), "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert f"{named} has class counts normal " in err, err


# A data key of _QUICK that a case of test_bad_data_block_exits_2_with_its_line leaves out.
_LEFT_OUT = "left out"


def _line_of(path: Path, text: str) -> int:
    return next(i for i, line in enumerate(path.read_text().splitlines(), 1) if text in line)


@pytest.mark.parametrize(
    "data, key, message",
    [
        ({"n_workers": 0}, "n_workers:", "data.n_workers must be a positive integer, got 0"),
        ({"sizes": [400, 0]}, "sizes:", "data.sizes must be positive integers, got [400, 0]"),
        ({"class_mix": [0.5, 0.5]}, "class_mix:", "data.class_mix must be 3 non-negative shares"),
        ({"class_mix": [0.7, 0.5, -0.2]}, "class_mix:", "data.class_mix must be 3 non-negative"),
        ({"class_mix": [0.5, 0.3, 0.3]}, "class_mix:", "data.class_mix must be 3 non-negative"),
        ({"divergence": -1}, "divergence:", "data.divergence must be a number >= 0, got -1"),
        ({"profiles": []}, "profiles:", "data.profiles must be a non-empty list of ids, got []"),
        (
            {"source": "corpus", "corpus": "flows.csv", "shares": [0.5, 0.6]},
            "shares:",
            "data.shares must sum to 1, got 1.1",
        ),
        (
            {"source": "files", "paths": "flows.csv"},
            "paths:",
            "data.paths must list one flow file per worker, got 'flows.csv'",
        ),
        (
            {"source": "files", "paths": ["flows.csv"], "column_map": ["a", "b"]},
            "column_map:",
            "data.column_map must be a mapping, got ['a', 'b']",
        ),
        (
            {"source": "corpus", "corpus": "flows.csv", "shares": [1.0], "column_map": "a"},
            "column_map:",
            "data.column_map must be a mapping, got 'a'",
        ),
        (
            {"source": "files", "paths": ["flows.csv"], "column_map": {"duration": ["a"]}},
            "column_map:",
            "data.column_map must map strings to strings, got 'duration': ['a']",
        ),
        (
            {"source": "corpus", "corpus": "flows.csv", "shares": [1.0], "column_map": {5: "a"}},
            "column_map:",
            "data.column_map must map strings to strings, got 5: 'a'",
        ),
        # Past 4.75 make_profile would extrapolate a mixture weight below 0.
        ({"divergence": 5}, "divergence:", "data.divergence must be at most 4.75, where a class"),
        ({"divergence": 1e308}, "divergence:", "data.divergence must be at most 4.75, where a"),
        (
            {"divergence": float("inf")},
            "divergence:",
            "data.divergence must be at most 4.75, where a class's mixture weight reaches 0; "
            "got inf",
        ),
        (
            {"sizes": [2**70, 400]},
            "sizes:",
            f"data.sizes must be at most {2**63 - 1} (int64), got [{2**70}, 400]",
        ),
        # An integer stands for every worker: its total meets the memory rule before it is
        # expanded, so a huge worker count lists nothing.
        (
            {"n_workers": 2**62, "sizes": 400},
            "sizes:",
            f"data.sizes must fit in memory: {400 * 2**62} rows at 64 B need more than the ",
        ),
        # Sizes left to their default fail for the worker count, so at its line.
        (
            {"n_workers": 10**12, "sizes": _LEFT_OUT},
            "n_workers:",
            f"data.sizes must fit in memory: {8000 * 10**12} rows at 64 B need more than the ",
        ),
        # Within int64 but beyond memory: refused before anything is allocated.
        (
            {"sizes": [2**40, 400]},
            "sizes:",
            f"data.sizes must fit in memory: {2**40 + 400} rows at 64 B need more than the ",
        ),
        # Not read as the paths "None" and "5".
        (
            {"source": "corpus", "corpus": None, "shares": [1.0]},
            "corpus:",
            "data.corpus must be a string, got None",
        ),
        (
            {"source": "files", "paths": [None, 5]},
            "paths:",
            "data.paths must list one flow file per worker, got [None, 5]",
        ),
        # Only an empty data block (null) stands for the synthetic defaults.
        ([], "data:", "data must be a mapping, got []"),
        (0, "data:", "data must be a mapping, got 0"),
        (False, "data:", "data must be a mapping, got False"),
        (5, "data:", "data must be a mapping, got 5"),
        # A corpus key that is present but unusable answers at its own line.
        (
            {"source": "corpus", "corpus": "flows.csv", "shares": 0},
            "shares:",
            "data.shares must be a non-empty list of numbers, got 0",
        ),
        (
            {"source": "corpus", "corpus": "flows.csv", "shares": None},
            "shares:",
            "data.shares must be a non-empty list of numbers, got None",
        ),
        (
            {"source": "corpus", "corpus": "", "shares": [1.0]},
            "corpus:",
            "data.corpus must name a flow file, got ''",
        ),
        # Only a missing one answers at data.source.
        (
            {"source": "corpus", "shares": [1.0]},
            "source:",
            "data source 'corpus' needs data.corpus and data.shares",
        ),
        # Integers beyond float range.
        ({"divergence": 10**400}, "divergence:", "data.divergence must be at most 4.75, where"),
        (
            {"class_mix": [10**400, 0, 0]},
            "class_mix:",
            "data.class_mix must be 3 non-negative shares summing to 1",
        ),
        (
            {"source": "corpus", "corpus": "flows.csv", "shares": [10**400]},
            "shares:",
            f"data.shares must be finite, got [{10**400}]",
        ),
        # A key that only another source reads answers at its own line, once the
        # source's own keys pass (the synthetic keys above come first in the file).
        (
            {"column_map": {"class": "label"}},
            "column_map:",
            "data.column_map is read only by data.source files or corpus, not synthetic",
        ),
        (
            {"paths": ["flows.csv"]},
            "paths:",
            "data.paths is read only by data.source files, not synthetic",
        ),
        (
            {"source": "files", "paths": ["flows.csv"]},
            "divergence:",
            "data.divergence is read only by data.source synthetic, not files",
        ),
        (
            {"source": "corpus", "corpus": "flows.csv", "shares": [1.0]},
            "divergence:",
            "data.divergence is read only by data.source synthetic, not corpus",
        ),
    ],
)
def test_bad_data_block_exits_2_with_its_line(tmp_path, capsys, data, key, message):
    if isinstance(data, dict):
        data = {k: v for k, v in {**_QUICK["data"], **data}.items() if v != _LEFT_OUT}
    config = _write_config(tmp_path, data=data)
    for command in ("run", "compare"):
        assert main([command, str(config), "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert f"{config}:{_line_of(config, key)}: {message}" in err, err


def test_paths_without_a_source_line_exits_2_before_set_up(tmp_path, capsys, monkeypatch):
    def no_set_up(*args):
        raise AssertionError("set-up started on a data key the source does not read")

    monkeypatch.setattr(orchestrator, "_load_raw_shards", no_set_up)
    config = tmp_path / "c.yaml"
    config.write_text("J: 2\ndata:\n  paths: [nope.csv]\n")  # a synthetic block
    for command in ("run", "compare"):
        assert main([command, str(config), "--out", str(tmp_path / command)]) == 2
        message = "data.paths is read only by data.source files, not synthetic"
        assert f"{config}:3: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("J: 6\nseed: 1\nJ: 2\n", 3, "J is given twice, first at line 1"),
        (
            "data:\n  sizes: [400, 400]\n  n_workers: 2\n  sizes: [300, 300]\n",
            4,
            "data.sizes is given twice, first at line 2",
        ),
        ("data:\n  n_workers: 2\nJ: 2\ndata:\n  n_workers: 3\n", 4, "data is given twice"),
    ],
)
def test_a_repeated_key_exits_2_at_its_second_line(tmp_path, capsys, text, line, message):
    config = tmp_path / "c.yaml"
    config.write_text(text)
    for command in ("run", "compare"):
        assert main([command, str(config), "--out", str(tmp_path / command)]) == 2
        assert f"{config}:{line}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_interrupted_run_leaves_a_failed_manifest(tmp_path, monkeypatch, command):
    def interrupt(self, report):
        raise KeyboardInterrupt

    monkeypatch.setattr(RoundsWriter, "write", interrupt)
    out_root = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main([command, str(_write_config(tmp_path)), "--out", str(out_root)])
    (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
    assert json.loads((run_dir / "manifest.json").read_text())["status"] == "failed"


def _flow_files(directory: Path, count: int) -> list[Path]:
    paths = []
    for i in range(count):
        path = directory / f"flows_{i + 1}.csv"
        write_flow_csv(to_records(generate(make_profile(), 400, seed=i)), path)
        paths.append(path)
    return paths


def test_unseen_token_in_a_flow_file_exits_2_naming_worker_and_path(
    tmp_path, capsys, monkeypatch
):
    def no_training(*args):
        raise AssertionError("training started on an unreadable flow file")

    monkeypatch.setattr(orchestrator, "train_local", no_training)
    first, second = _flow_files(tmp_path, 2)
    second.write_text(second.read_text().replace(",TCP,", ",SCTP,", 1))
    config = _write_config(tmp_path, data={"source": "files", "paths": [str(first), str(second)]})
    for command in ("run", "compare"):
        assert main([command, str(config), "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert f"{config}: worker 2: {second}: unseen protocol token 'SCTP'" in err, err

    (corpus,) = _flow_files(tmp_path, 1)
    corpus.write_text(corpus.read_text().replace(",.A....,", ",.X....,", 1))
    config = _write_config(
        tmp_path, data={"source": "corpus", "corpus": str(corpus), "shares": [0.5, 0.5]}
    )
    assert main(["run", str(config), "--out", str(tmp_path / "corpus")]) == 2
    err = capsys.readouterr().err
    assert f"{config}: corpus: {corpus}: unseen flags token '.X....'" in err, err


@pytest.mark.parametrize(
    "fault, reason",
    [
        ("missing", "No such file or directory"),
        ("fifo", "not a regular file; flow files are read twice"),
        ("empty", "empty file, no header row"),
        ("header", "column 'protocol' not in header"),
        ("column_map", "column_map does not cover attributes: ['flags']"),
        (
            "ambiguous_map",
            "column_map maps more than one column to duration: ['dur_a', 'duration']",
        ),
        ("repeated_column", "column 'bytes' is in the header 2 times"),
        ("long_field", "field larger than field limit (131072)"),
        (
            "nul",
            "line contains NUL"
            if sys.version_info < (3, 11)
            else "unseen protocol token 'TCP\\x00'",
        ),
    ],
)
def test_unreadable_flow_file_exits_2_naming_worker_and_path(
    tmp_path, capsys, monkeypatch, fault, reason
):
    def no_training(*args):
        raise AssertionError("training started on an unreadable flow file")

    monkeypatch.setattr(orchestrator, "train_local", no_training)
    first, second = _flow_files(tmp_path, 2)
    owner, path, mapping = "worker 2", second, {}
    if fault == "missing":
        second.unlink()
    elif fault == "fifo":  # refused before it is opened, so nothing waits for a writer
        second.unlink()
        os.mkfifo(second)
    elif fault == "empty":
        second.write_text("")
    elif fault == "header":
        second.write_text(second.read_text().replace("protocol", "proto", 1))
    elif fault == "repeated_column":  # the parser would read the first of the two
        second.write_text(second.read_text().replace("\n", ",bytes\n", 1))
    elif fault == "long_field":  # beyond csv.field_size_limit(), so csv.reader refuses it
        second.write_text(second.read_text().replace(",TCP,", f",{'T' * 200_000},", 1))
    elif fault == "nul":  # csv.reader refuses a NUL before Python 3.11
        second.write_text(second.read_text().replace(",TCP,", ",TCP\x00,", 1))
    elif fault == "ambiguous_map":  # the map itself is refused, before any file is read
        column_map = {**CANONICAL_COLUMN_MAP, "dur_a": "duration"}
        owner, path, mapping = "worker 1", first, {"column_map": column_map}
    else:
        names = ("duration", "protocol", "src_port", "dst_port", "packets", "bytes", "class")
        owner, path, mapping = "worker 1", first, {"column_map": {n: n for n in names}}
    data = {"source": "files", "paths": [str(first), str(second)], **mapping}
    config = _write_config(tmp_path, data=data)
    for command in ("run", "compare"):
        assert main([command, str(config), "--out", str(tmp_path / command)]) == 2
        err = capsys.readouterr().err
        assert f"{config}: {owner}: {path}: {reason}" in err, err

    data = {"source": "corpus", "corpus": str(path), "shares": [0.5, 0.5], **mapping}
    config = _write_config(tmp_path, data=data)
    assert main(["run", str(config), "--out", str(tmp_path / "corpus")]) == 2
    err = capsys.readouterr().err
    assert f"{config}: corpus: {path}: {reason}" in err, err


def test_run_output_does_not_depend_on_blas_threads(tmp_path):
    command = [sys.executable, "-m", "segfl.cli", "run", str(_REPO / "configs" / "quick.yaml")]
    outputs = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            command + ["--out", str(tmp_path / f"threads{threads}")],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        run_dir = Path(proc.stdout.strip().splitlines()[-1])
        outputs.append([(run_dir / name).read_bytes() for name in ("rounds.csv", "timeline.csv")])
    assert outputs[0] == outputs[1]


def test_failed_run_leaves_a_failed_manifest(tmp_path, capsys, monkeypatch):
    def broken_training(*args):
        raise RuntimeError("training diverged")

    monkeypatch.setattr(orchestrator, "train_local", broken_training)
    config = _write_config(tmp_path)
    out_root = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out_root)]) == 1
    assert "segfl: error:" in capsys.readouterr().err
    (run_dir,) = [p for p in out_root.iterdir() if p.is_dir()]
    assert json.loads((run_dir / "manifest.json").read_text())["status"] == "failed"


def test_cmd_compare_builds_all_three_tables(tmp_path, capsys):
    config = _write_config(tmp_path, J=3)
    out_root = tmp_path / "cmp"
    assert cmd_compare(config, out=str(out_root)) == 0
    run_dir = Path(capsys.readouterr().out.strip())

    modes = ("centralized", "fl", "segmented_fl")
    for mode in modes:
        assert (run_dir / f"{mode}_rounds.csv").exists()
    assert (run_dir / "segmented_fl_timeline.csv").exists()

    table = _read_csv(run_dir / "compare.csv")
    assert len(table) == len(modes) * (2 + 3), "2 worker rows + 3 label rows per mode"
    assert [row["approach"] for row in table] == sorted(row["approach"] for row in table)

    for mode in modes:
        finals = [r for r in _read_csv(run_dir / f"{mode}_rounds.csv") if r["round"] == "3"]
        assert len(finals) == 2

        worker_rows = {r["key"]: r for r in table if r["approach"] == mode and r["scope"] == "worker"}
        for final in finals:
            row = worker_rows[final["worker_id"]]
            assert abs(float(row["accuracy"]) - float(final["accuracy"])) < 1e-9
            assert abs(float(row["auroc"]) - float(final["auroc"])) < 1e-9

        label_rows = {r["key"]: r for r in table if r["approach"] == mode and r["scope"] == "label"}
        for name in ("normal", "attacker", "victim"):
            for metric in ("precision", "recall", "f1"):
                expected = sum(float(f[f"{metric}_{name}"]) for f in finals) / len(finals)
                assert abs(float(label_rows[name][metric]) - expected) < 1e-9, (mode, name, metric)


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("run", {"mode": "centralized"}),
        ("run", {"mode": "fl"}),
        ("run", {"mode": "segmented_fl"}),
        ("compare", {}),
    ],
    ids=["centralized", "fl", "segmented_fl", "compare"],
)
def test_the_manifest_lists_every_output(tmp_path, capsys, command, overrides):
    config = _write_config(tmp_path, **overrides)
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 0
    run_dir = Path(capsys.readouterr().out.strip())
    written = sorted(path.name for path in run_dir.iterdir() if path.name != "manifest.json")
    assert json.loads((run_dir / "manifest.json").read_text())["outputs"] == written


def _readme_commands() -> list[str]:
    text = (_REPO / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("segfl ")]


def test_readme_commands_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(_REPO)
    commands = _readme_commands()
    assert commands
    for line in commands:
        argv = shlex.split(line)[1:] + ["--out", str(tmp_path)]
        assert main(argv) == 0, line
        assert Path(capsys.readouterr().out.strip()).parent == tmp_path, line


def test_module_entrypoint_smoke(tmp_path):
    config = _write_config(tmp_path, J=2)
    out_root = tmp_path / "sp"
    proc = subprocess.run(
        [sys.executable, "-m", "segfl.cli", "run", str(config), "--out", str(out_root)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    printed = Path(proc.stdout.strip().splitlines()[-1])
    assert (printed / "rounds.csv").exists()
    assert json.loads((printed / "manifest.json").read_text())["status"] == "complete"


_SCIPY_PROBE = """
import sys
import segfl, segfl.cli
from segfl.cli import main

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

assert not scipy_modules(), scipy_modules()[:5]
assert main(["run", sys.argv[1], "--out", sys.argv[3]]) == 0
assert not scipy_modules(), scipy_modules()[:5]  # NearMiss-3 is a no-op on every shard
assert main(["run", sys.argv[2], "--out", sys.argv[3]]) == 0
assert "scipy.spatial" in sys.modules  # here NearMiss-3 drops majority rows
"""


def test_scipy_is_loaded_only_when_nearmiss_has_rows_to_drop(tmp_path):
    configs = [str(_REPO / "configs" / name) for name in ("segmentation_demo.yaml", "quick.yaml")]
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *configs, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
