"""Experiment configuration files: flat YAML keyed by the protocol symbols.

Recognized keys (defaults in parentheses):

    mode            centralized | fl | segmented_fl (segmented_fl)
    J               federated rounds (15)
    N_t             trainers per group per round (whole member list)
    E, B, eta       local epochs (1), minibatch size (128), SGD step (0.01)
    alpha, beta, gamma   aggregation blend, must sum to 1 (0.2 / 0.6 / 0.2)
    h_f             threshold fineness (7)
    h_j             rounds between evaluations (3)
    R_e             validation window length (3)
    max_groups      live-group cap (3)
    seed            master seed (0)
    hidden_dims     hidden layer widths ([64, 32])
    test_fraction   per-worker holdout share (0.10)
    resample_k      NearMiss neighbour count (3)
    target_ratio    majority target over smallest class (2.0)
    out_dir         output root used when neither --out nor SEGFL_OUT is set
    data            nested mapping describing the data source

Unknown keys are rejected so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import yaml

from segfl.aggregation import AggregationWeights
from segfl.nnet import TrainConfig
from segfl.flowdata import check_shares
from segfl.orchestrator import DEFAULT_SHARD_SIZE, ConfigError, DataSpec, ExperimentConfig
from segfl.resample import ResampleConfig
from segfl.segmentation import SegmentationConfig
from segfl.synthgen import check_class_mix, check_divergence, check_profiles


_DATA_KEYS = {
    "source",
    "n_workers",
    "profiles",
    "sizes",
    "divergence",
    "class_mix",
    "paths",
    "corpus",
    "shares",
    "column_map",
}


# Config dataclass field -> the key that sets it, where the two names differ.
# Each __post_init__ message begins with the field's name, which an error
# report swaps for the key.
_KEY_OF_FIELD = {
    "rounds": "J",
    "participants_per_round": "N_t",
    "epochs": "E",
    "batch_size": "B",
    "learning_rate": "eta",
    "fineness": "h_f",
    "eval_every": "h_j",
    "window": "R_e",
    "neighbors_k": "resample_k",
}


def _defaults() -> dict[str, Any]:
    """Every top-level key but ``data``, with its value when the file leaves it out."""
    config = ExperimentConfig()
    return {
        "mode": config.mode,
        "J": config.rounds,
        "N_t": config.participants_per_round,
        "E": config.train.epochs,
        "B": config.train.batch_size,
        "eta": config.train.learning_rate,
        "alpha": config.weights.alpha,
        "beta": config.weights.beta,
        "gamma": config.weights.gamma,
        "h_f": config.segmentation.fineness,
        "h_j": config.segmentation.eval_every,
        "R_e": config.segmentation.window,
        "max_groups": config.segmentation.max_groups,
        "seed": config.seed,
        "hidden_dims": list(config.hidden_dims),
        "test_fraction": config.test_fraction,
        "resample_k": config.resample.neighbors_k,
        "target_ratio": config.resample.target_ratio,
        "out_dir": None,
    }


@dataclass
class LoadedConfig:
    """A validated config plus the raw snapshot it was built from."""

    experiment: ExperimentConfig
    snapshot: dict
    out_dir: Optional[str]


# libyaml's loader when PyYAML was built with it; both report errors at the same lines.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _key_lines(root: Optional[yaml.Node]) -> dict[str, int]:
    """Map config keys (top level and data.*) to their 1-based file lines."""
    lines: dict[str, int] = {}
    if not isinstance(root, yaml.MappingNode):
        return lines
    for key_node, value_node in root.value:
        lines[key_node.value] = key_node.start_mark.line + 1
        if key_node.value == "data" and isinstance(value_node, yaml.MappingNode):
            for sub_key, _ in value_node.value:
                lines[f"data.{sub_key.value}"] = sub_key.start_mark.line + 1
    return lines


def load_config(path, overrides: Optional[dict] = None) -> LoadedConfig:
    """Load, validate, and resolve a config file.

    Args:
        path: YAML file with the keys documented above.
        overrides: optional key -> value replacements (e.g. a --seed flag),
            applied before validation and reflected in the snapshot.

    Returns:
        LoadedConfig holding the ExperimentConfig, the fully resolved
        snapshot dict (defaults applied), and the configured output root.

    Raises:
        ConfigError: naming the offending key(s) and, when the key appears
            in the file, its line number.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    loader = _LOADER(path.read_text())
    try:
        root = loader.get_single_node()  # one parse gives both the values and their lines
        raw = None if root is None else loader.construct_document(root)
    except yaml.YAMLError as exc:
        line = getattr(getattr(exc, "problem_mark", None), "line", None)
        raise ConfigError(f"not valid YAML: {exc}", None if line is None else line + 1) from None
    finally:
        loader.dispose()
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config must be a key-value mapping")

    lines = _key_lines(root)
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value

    def fail(key: str, message: str):
        raise ConfigError(message, lines.get(key))

    resolved = _defaults()
    unknown = sorted(set(raw) - set(resolved) - {"data"})
    if unknown:
        fail(unknown[0], f"unknown config key(s): {', '.join(unknown)}")
    resolved.update({k: v for k, v in raw.items() if k != "data"})

    for key in ("J", "E", "B", "h_f", "h_j", "R_e", "max_groups", "seed", "resample_k"):
        if not _is_int(resolved[key]):
            fail(key, f"{key} must be an integer, got {resolved[key]!r}")
    if resolved["N_t"] is not None and not _is_positive_int(resolved["N_t"]):
        fail("N_t", f"N_t must be a positive integer, got {resolved['N_t']!r}")
    hidden = resolved["hidden_dims"]
    if not isinstance(hidden, list) or not all(_is_positive_int(h) for h in hidden):
        fail("hidden_dims", f"hidden_dims must be a list of positive integers, got {hidden!r}")
    for key in ("eta", "alpha", "beta", "gamma", "test_fraction", "target_ratio"):
        if not isinstance(resolved[key], (int, float)) or isinstance(resolved[key], bool):
            fail(key, f"{key} must be a number, got {resolved[key]!r}")
    if resolved["out_dir"] is not None and not isinstance(resolved["out_dir"], str):
        fail("out_dir", f"out_dir must be a string, got {resolved['out_dir']!r}")

    data_raw = raw.get("data") or {}
    if not isinstance(data_raw, dict):
        fail("data", "data must be a mapping")
    unknown_data = sorted(set(data_raw) - _DATA_KEYS)
    if unknown_data:
        fail(f"data.{unknown_data[0]}", f"unknown data key(s): {', '.join(unknown_data)}")

    data_spec = _build_data_spec(data_raw, fail)
    try:
        experiment = ExperimentConfig(
            mode=resolved["mode"],
            rounds=resolved["J"],
            participants_per_round=resolved["N_t"],
            train=TrainConfig(
                epochs=resolved["E"],
                batch_size=resolved["B"],
                learning_rate=float(resolved["eta"]),
                seed=resolved["seed"],
            ),
            weights=AggregationWeights(
                alpha=float(resolved["alpha"]),
                beta=float(resolved["beta"]),
                gamma=float(resolved["gamma"]),
            ),
            segmentation=SegmentationConfig(
                fineness=resolved["h_f"],
                eval_every=resolved["h_j"],
                window=resolved["R_e"],
                max_groups=resolved["max_groups"],
            ),
            hidden_dims=tuple(resolved["hidden_dims"]),
            resample=ResampleConfig(
                neighbors_k=resolved["resample_k"],
                target_ratio=float(resolved["target_ratio"]),
            ),
            test_fraction=float(resolved["test_fraction"]),
            seed=resolved["seed"],
            data=data_spec,
        )
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        key = _KEY_OF_FIELD.get(name, name if name in resolved else None)
        if key is None:
            raise ConfigError(str(exc)) from None
        message = f"{key} {rest}"
        if rest.startswith("+ beta + gamma"):  # the blend's sum: at the first blend key in the file
            key = min(("alpha", "beta", "gamma"), key=lambda k: lines.get(k, float("inf")))
        fail(key, message)

    snapshot = {k: v for k, v in sorted(resolved.items()) if k != "out_dir"}
    snapshot["data"] = dict(sorted(_data_snapshot(data_spec).items()))
    if resolved["out_dir"] is not None:
        snapshot["out_dir"] = resolved["out_dir"]
    return LoadedConfig(experiment=experiment, snapshot=snapshot, out_dir=resolved["out_dir"])


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_positive_int(value) -> bool:
    return _is_int(value) and value >= 1


def _build_data_spec(data_raw: dict, fail) -> DataSpec:
    def checked(name: str, check, default):
        """``check`` on data.<name> or its default, a ValueError reported at the key's line."""
        try:
            return check(data_raw.get(name, default))
        except ValueError as exc:
            fail(f"data.{name}", f"data.{exc}")

    source = data_raw.get("source", "synthetic")
    if source == "synthetic":
        defaults = DataSpec()
        n_workers = data_raw.get("n_workers", defaults.n_workers)
        if not _is_positive_int(n_workers):
            fail("data.n_workers", f"data.n_workers must be a positive integer, got {n_workers!r}")
        sizes = data_raw.get("sizes", DEFAULT_SHARD_SIZE)
        if _is_int(sizes):
            sizes = [sizes] * n_workers
        if not isinstance(sizes, list) or not all(_is_positive_int(s) for s in sizes):
            fail("data.sizes", f"data.sizes must be positive integers, got {sizes!r}")
        if len(sizes) != n_workers:
            fail("data.sizes", f"data.sizes has {len(sizes)} entries for {n_workers} workers")
        class_mix = data_raw.get("class_mix")
        return DataSpec(
            source="synthetic",
            n_workers=n_workers,
            profiles=checked("profiles", check_profiles, defaults.profiles),
            sizes=tuple(sizes),
            divergence=checked("divergence", check_divergence, defaults.divergence),
            class_mix=None if class_mix is None else checked("class_mix", check_class_mix, None),
        )
    column_map = data_raw.get("column_map")
    if column_map is not None and not isinstance(column_map, dict):
        fail("data.column_map", f"data.column_map must be a mapping, got {column_map!r}")
    for source_name, name in (column_map or {}).items():
        if not (isinstance(source_name, str) and isinstance(name, str)):
            got = f"{source_name!r}: {name!r}"
            fail("data.column_map", f"data.column_map must map strings to strings, got {got}")
    if source == "files":
        paths = data_raw.get("paths", [])
        if not isinstance(paths, list) or not paths:
            fail("data.paths", f"data.paths must list one flow file per worker, got {paths!r}")
        return DataSpec(source="files", paths=tuple(map(str, paths)), column_map=column_map)
    if source == "corpus":
        corpus = str(data_raw.get("corpus", ""))
        if not corpus or not data_raw.get("shares"):
            fail("data.source", "data source 'corpus' needs data.corpus and data.shares")
        shares = tuple(checked("shares", check_shares, ()).tolist())
        return DataSpec(source="corpus", corpus=corpus, shares=shares, column_map=column_map)
    fail("data.source", f"data.source must be synthetic, files, or corpus; got {source!r}")


def _data_snapshot(spec: DataSpec) -> dict:
    if spec.source == "synthetic":
        snapshot = {
            "source": spec.source,
            "n_workers": spec.n_workers,
            "profiles": list(spec.profiles),
            "sizes": list(spec.sizes),
            "divergence": spec.divergence,
        }
        if spec.class_mix is not None:
            snapshot["class_mix"] = list(spec.class_mix)
        return snapshot
    if spec.source == "files":
        snapshot = {"source": spec.source, "paths": list(spec.paths)}
    else:
        snapshot = {"source": spec.source, "corpus": spec.corpus, "shares": list(spec.shares)}
    if spec.column_map is not None:
        snapshot["column_map"] = dict(spec.column_map)
    return snapshot
