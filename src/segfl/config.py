"""Experiment configuration files: flat YAML keyed by the protocol symbols.

Every top-level key but ``data`` is one row of ``_KEYS``: the ``ExperimentConfig``
field(s) it sets and the kind of value it takes. A key left out takes its
field's default; the README's Configuration table lists them. ``data`` is a
nested mapping describing the data source, with the keys in ``_DATA_KEYS``.

Unknown keys are rejected so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, Optional

import yaml

from segfl.flowdata import check_shares
from segfl.orchestrator import DEFAULT_SHARD_SIZE, ConfigError, DataSpec, ExperimentConfig
from segfl.synthgen import _is_int, check_class_mix, check_divergence, check_profiles, check_sizes


def _is_positive_int(value) -> bool:
    return _is_int(value) and value >= 1


def _is_number(value) -> bool:
    """A float, or an integer within float range (float() of a larger one overflows)."""
    return isinstance(value, float) or _is_int(value) and abs(value) <= sys.float_info.max


# How a message names each kind of value -> whether a value is of that kind.
_IS_KIND = {
    "any": lambda value: True,
    "a string": lambda value: isinstance(value, str),
    "an integer": _is_int,
    "a positive integer": _is_positive_int,
    "a number": _is_number,
    "a list of positive integers": lambda value: (
        isinstance(value, list) and all(map(_is_positive_int, value))
    ),
    "a mapping": lambda value: isinstance(value, dict),
}
# The field's form of a value of these kinds; the others are stored as they are.
_FORM = {"a number": float, "a list of positive integers": tuple}

# Every top-level key but data -> (the ExperimentConfig fields it sets, its kind).
# The default is the first field's; a key that sets no field defaults to None.
_KEYS = {
    "mode": (("mode",), "any"),  # ExperimentConfig names the modes
    "J": (("rounds",), "an integer"),
    "N_t": (("participants_per_round",), "a positive integer"),
    "E": (("train.epochs",), "an integer"),
    "B": (("train.batch_size",), "an integer"),
    "eta": (("train.learning_rate",), "a number"),
    "alpha": (("weights.alpha",), "a number"),
    "beta": (("weights.beta",), "a number"),
    "gamma": (("weights.gamma",), "a number"),
    "h_f": (("segmentation.fineness",), "an integer"),
    "h_j": (("segmentation.eval_every",), "an integer"),
    "R_e": (("segmentation.window",), "an integer"),
    "max_groups": (("segmentation.max_groups",), "an integer"),
    "seed": (("seed", "train.seed"), "an integer"),
    "hidden_dims": (("hidden_dims",), "a list of positive integers"),
    "test_fraction": (("test_fraction",), "a number"),
    "resample_k": (("resample.neighbors_k",), "an integer"),
    "target_ratio": (("resample.target_ratio",), "a number"),
    "out_dir": ((), "a string"),  # the output root, read by the CLI
}

# Config dataclass field -> the key that sets it. Each __post_init__ message
# begins with the field's name, which an error report swaps for the key.
_KEY_OF = {path.rpartition(".")[2]: key for key, (paths, _) in _KEYS.items() for path in paths}

# Each data source -> the data keys it reads, each setting the DataSpec field of its name.
_SOURCE_KEYS = {
    "synthetic": ("n_workers", "profiles", "sizes", "divergence", "class_mix"),
    "files": ("paths", "column_map"),
    "corpus": ("corpus", "shares", "column_map"),
}
_DATA_KEYS = {"source"}.union(*_SOURCE_KEYS.values())


def _defaults() -> dict[str, Any]:
    """Every top-level key but ``data``, with its value when the file leaves it out."""
    config = ExperimentConfig()
    defaults = {}
    for key, (paths, _) in _KEYS.items():
        value = attrgetter(paths[0])(config) if paths else None
        defaults[key] = list(value) if isinstance(value, tuple) else value
    return defaults


def _checked(key: str, kind: str, value, default, fail):
    """``value`` in its field's form; ``fail`` unless it is ``kind``, or None as ``default`` is."""
    if value is None and default is None:
        return None
    if not _IS_KIND[kind](value):
        fail(key, f"{key} must be {kind}, got {value!r}")
    return _FORM.get(kind, lambda v: v)(value)


def _experiment(fields: dict[str, Any], data: DataSpec) -> ExperimentConfig:
    """The default ExperimentConfig with each (dotted) field set, sub-configs first."""
    default = ExperimentConfig()
    top: dict[str, Any] = {"data": data}
    nested: dict[str, dict[str, Any]] = {}
    for path, value in fields.items():
        head, _, name = path.rpartition(".")
        (nested.setdefault(head, {}) if head else top)[name] = value
    subs = {head: replace(getattr(default, head), **values) for head, values in nested.items()}
    return replace(default, **subs, **top)


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
        path: YAML file with the keys of ``_KEYS`` and ``data``.
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

    defaults = _defaults()
    unknown = sorted(set(raw) - set(_KEYS) - {"data"})
    if unknown:
        fail(unknown[0], f"unknown config key(s): {', '.join(unknown)}")
    resolved = {**defaults, **{k: v for k, v in raw.items() if k != "data"}}
    fields: dict[str, Any] = {}
    for key, (paths, kind) in _KEYS.items():
        fields.update(dict.fromkeys(paths, _checked(key, kind, resolved[key], defaults[key], fail)))

    data_raw = _checked("data", "a mapping", raw.get("data"), None, fail) or {}
    unknown_data = sorted(set(data_raw) - _DATA_KEYS)
    if unknown_data:
        fail(f"data.{unknown_data[0]}", f"unknown data key(s): {', '.join(unknown_data)}")

    data_spec = _build_data_spec(data_raw, fail)
    try:
        experiment = _experiment(fields, data_spec)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        key = _KEY_OF.get(name)
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


def _build_data_spec(data_raw: dict, fail) -> DataSpec:
    def checked(name: str, check, default):
        """``check`` on data.<name> or its default, a ValueError reported at the key's line."""
        try:
            return check(data_raw.get(name, default))
        except ValueError as exc:
            fail(f"data.{name}", f"data.{exc}")

    def of_kind(name: str, kind: str, default):
        return _checked(f"data.{name}", kind, data_raw.get(name, default), default, fail)

    source = data_raw.get("source", "synthetic")
    if source == "synthetic":
        defaults = DataSpec()
        n_workers = of_kind("n_workers", "a positive integer", defaults.n_workers)
        sizes = checked("sizes", lambda value: check_sizes(value, n_workers), DEFAULT_SHARD_SIZE)
        class_mix = data_raw.get("class_mix")
        return DataSpec(
            source="synthetic",
            n_workers=n_workers,
            profiles=checked("profiles", check_profiles, defaults.profiles),
            sizes=sizes,
            divergence=checked("divergence", check_divergence, defaults.divergence),
            class_mix=None if class_mix is None else checked("class_mix", check_class_mix, None),
        )
    column_map = of_kind("column_map", "a mapping", None)
    for source_name, name in (column_map or {}).items():
        if not (isinstance(source_name, str) and isinstance(name, str)):
            got = f"{source_name!r}: {name!r}"
            fail("data.column_map", f"data.column_map must map strings to strings, got {got}")
    if source == "files":
        paths = data_raw.get("paths", [])
        if not (isinstance(paths, list) and paths and all(isinstance(p, str) for p in paths)):
            fail("data.paths", f"data.paths must list one flow file per worker, got {paths!r}")
        return DataSpec(source="files", paths=tuple(paths), column_map=column_map)
    if source == "corpus":
        if not {"corpus", "shares"} <= set(data_raw):
            fail("data.source", "data source 'corpus' needs data.corpus and data.shares")
        corpus = of_kind("corpus", "a string", "")
        if not corpus:
            fail("data.corpus", "data.corpus must name a flow file, got ''")
        shares = tuple(checked("shares", check_shares, ()).tolist())
        return DataSpec(source="corpus", corpus=corpus, shares=shares, column_map=column_map)
    fail("data.source", f"data.source must be synthetic, files, or corpus; got {source!r}")


def _data_snapshot(spec: DataSpec) -> dict:
    """The source and the fields its keys set, tuples as lists; an unset field is left out."""
    snapshot = {"source": spec.source}
    for name in _SOURCE_KEYS[spec.source]:
        value = getattr(spec, name)
        if value is not None:
            snapshot[name] = list(value) if isinstance(value, tuple) else value
    return snapshot
