"""Experiment configuration files: flat YAML keyed by the protocol symbols.

Every key, ``data.*`` for those of the nested ``data`` block, is one row of ``_KEYS``.
A key left out takes its default; the README's Configuration table lists them.
Unknown keys, repeated keys and data keys that the block's source does not read are
rejected, so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import codecs
import sys
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, NamedTuple, Optional

import yaml

from segfl.flowdata import check_shares
from segfl.orchestrator import ConfigError, ExperimentConfig
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


def _of_kind(name: str, kind, value):
    """``value`` in its field's form; ValueError unless ``kind`` (a check, or in ``_IS_KIND``)."""
    if callable(kind):
        return kind(value)
    if not _IS_KIND[kind](value):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return _FORM.get(kind, lambda v: v)(value)


def _column_map(column_map) -> dict[str, str]:
    for source_name, name in _of_kind("column_map", "a mapping", column_map).items():
        if not (isinstance(source_name, str) and isinstance(name, str)):
            got = f"{source_name!r}: {name!r}"
            raise ValueError(f"column_map must map strings to strings, got {got}")
    return column_map


def _paths(paths) -> tuple[str, ...]:
    if not (isinstance(paths, list) and paths and all(isinstance(p, str) for p in paths)):
        raise ValueError(f"paths must list one flow file per worker, got {paths!r}")
    return tuple(paths)


def _corpus(corpus) -> str:
    if corpus == "":
        raise ValueError("corpus must name a flow file, got ''")
    return _of_kind("corpus", "a string", corpus)


class _Key(NamedTuple):
    field: Optional[str]  # the (dotted) ExperimentConfig field it sets, if any
    kind: Any  # a kind named in _IS_KIND, or a check returning the field's form
    sources: Optional[tuple[str, ...]] = None  # the only data sources reading it; None: all


# Every key, in the order its block's keys are checked.
_KEYS = {
    "mode": _Key("mode", "any"),  # ExperimentConfig names the modes
    "J": _Key("rounds", "an integer"),
    "N_t": _Key("participants_per_round", "a positive integer"),
    "E": _Key("train.epochs", "an integer"),
    "B": _Key("train.batch_size", "an integer"),
    "eta": _Key("train.learning_rate", "a number"),
    "alpha": _Key("weights.alpha", "a number"),
    "beta": _Key("weights.beta", "a number"),
    "gamma": _Key("weights.gamma", "a number"),
    "h_f": _Key("segmentation.fineness", "an integer"),
    "h_j": _Key("segmentation.eval_every", "an integer"),
    "R_e": _Key("segmentation.window", "an integer"),
    "max_groups": _Key("segmentation.max_groups", "an integer"),
    "seed": _Key("seed", "an integer"),
    "hidden_dims": _Key("hidden_dims", "a list of positive integers"),
    "test_fraction": _Key("test_fraction", "a number"),
    "resample_k": _Key("resample.neighbors_k", "an integer"),
    "target_ratio": _Key("resample.target_ratio", "a number"),
    "out_dir": _Key(None, "a string"),  # the output root, read by the CLI
    "data": _Key(None, "a mapping"),  # the block of the data.* keys; null stands for {}
    "data.source": _Key("data.source", "any"),  # checked first: it picks the rows
    "data.n_workers": _Key("data.n_workers", "a positive integer", ("synthetic",)),
    "data.sizes": _Key("data.sizes", "any", ("synthetic",)),  # checked with n_workers
    "data.profiles": _Key("data.profiles", check_profiles, ("synthetic",)),
    "data.divergence": _Key("data.divergence", check_divergence, ("synthetic",)),
    "data.class_mix": _Key("data.class_mix", check_class_mix, ("synthetic",)),
    "data.column_map": _Key("data.column_map", _column_map, ("files", "corpus")),
    "data.paths": _Key("data.paths", _paths, ("files",)),
    "data.corpus": _Key("data.corpus", _corpus, ("corpus",)),
    "data.shares": _Key("data.shares", lambda v: tuple(check_shares(v).tolist()), ("corpus",)),
}

# Config dataclass field -> the key that sets it. Each __post_init__ message
# begins with the field's name, which an error report swaps for the key.
_KEY_OF = {row.field.rpartition(".")[2]: key for key, row in _KEYS.items() if row.field}


def _experiment(fields: dict[str, Any]) -> ExperimentConfig:
    """The default ExperimentConfig with each (dotted) field set, sub-configs first."""
    default = ExperimentConfig()
    top: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for path, value in fields.items():
        head, _, name = path.rpartition(".")
        (nested.setdefault(head, {}) if head else top)[name] = value
    subs = {head: replace(getattr(default, head), **values) for head, values in nested.items()}
    return replace(default, **subs, **top)


def _read(block: dict, prefix: str, fail) -> dict[str, tuple[Any, Any]]:
    """Each key of one block (``prefix`` "" or "data.") that its source reads -> (the
    snapshot's value: the field's form with tuples as lists, data.sizes one per worker;
    the field's form). A key of another source fails at its line once the source's own
    keys pass."""
    rows = {key.rpartition(".")[2]: key for key in _KEYS if key.rpartition(".")[0] == prefix[:-1]}
    unknown = sorted(map(str, set(block) - set(rows)))
    if unknown:
        what = prefix[:-1] or "config"
        fail(prefix + unknown[0], f"unknown {what} key(s): {', '.join(unknown)}")
    source = block.get("source", "synthetic")
    if source not in ("synthetic", "files", "corpus"):
        fail("data.source", f"data.source must be synthetic, files, or corpus; got {source!r}")
    if source == "corpus" and not {"corpus", "shares"} <= set(block):
        fail("data.source", "data source 'corpus' needs data.corpus and data.shares")
    config, read = ExperimentConfig(), {}
    for name, key in rows.items():
        row = _KEYS[key]
        if row.sources is not None and source not in row.sources:
            continue
        default = attrgetter(row.field)(config) if row.field else None
        given = block.get(name, list(default) if isinstance(default, tuple) else default)
        try:
            if given is None and default is None:  # an unset value left unset
                value = shown = None
            elif key == "data.sizes":  # the field keeps the form given; the snapshot, a size each
                value = tuple(given) if isinstance(given, list) else given
                shown = check_sizes(given, read["data.n_workers"][1])
            else:
                value = shown = _of_kind(name, row.kind, given)
        except ValueError as exc:
            # Default sizes fail only for the worker count, so at the line that gives it.
            at = "data.n_workers" if key == "data.sizes" and name not in block else key
            fail(at, f"{prefix}{exc}")
        read[key] = list(shown) if isinstance(shown, tuple) else shown, value
    for name in block:
        sources = _KEYS[prefix + name].sources
        if sources is not None and source not in sources:
            only = " or ".join(sources)
            fail(prefix + name, f"{prefix}{name} is read only by data.source {only}, not {source}")
    return read


@dataclass
class LoadedConfig:
    """A validated config plus the raw snapshot it was built from."""

    experiment: ExperimentConfig
    snapshot: dict
    out_dir: Optional[str]


# libyaml's loader when PyYAML was built with it; both report errors at the same lines.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_UTF16_BOMS = (codecs.BOM_UTF16_LE, codecs.BOM_UTF16_BE)  # how both loaders tell UTF-16


def _key_lines(root: Optional[yaml.Node]) -> dict[str, int]:
    """Map config keys (top level and data.*) to their 1-based file lines; a key given
    twice in one mapping is a ConfigError at its second line."""
    lines: dict[str, int] = {}
    mappings = [("", root)]
    for prefix, node in mappings:
        if not isinstance(node, yaml.MappingNode):
            continue
        for key_node, value_node in node.value:
            key, line = f"{prefix}{key_node.value}", key_node.start_mark.line + 1
            if key in lines:
                raise ConfigError(f"{key} is given twice, first at line {lines[key]}", line)
            lines[key] = line
            if key == "data":
                mappings.append(("data.", value_node))
    return lines


def load_config(path, overrides: Optional[dict] = None) -> LoadedConfig:
    """Load, validate, and resolve a config file.

    Args:
        path: YAML file with the keys of ``_KEYS``, ``data.*`` nested under ``data``.
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
    try:  # bytes: PyYAML decodes UTF-8 or UTF-16 and a BOM itself, whatever the locale
        data = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read the config file: {exc.strerror or exc}") from None
    try:
        loader = _LOADER(data)  # the pure-Python loader decodes, and may refuse, the bytes here
        try:
            root = loader.get_single_node()  # one parse gives both the values and their lines
            raw = None if root is None else loader.construct_document(root)
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = None if mark is None else mark.line + 1
        if isinstance(exc, yaml.reader.ReaderError) and not data.startswith(_UTF16_BOMS):
            # A byte position, but PyYAML's printable-character rule gives a character's.
            text = data.decode("utf-8" if exc.encoding == "unicode" else "latin-1", "replace")
            line = text[: exc.position].count("\n") + 1
        raise ConfigError(f"not valid YAML: {exc}", line) from None
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

    top = _read(raw, "", fail)
    data = _read(top["data"][1] or {}, "data.", fail)
    fields = {_KEYS[key].field: v for key, (_, v) in {**top, **data}.items() if _KEYS[key].field}
    try:
        experiment = _experiment(fields)
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        key = _KEY_OF.get(name)
        if key is None:
            raise ConfigError(str(exc)) from None
        message = f"{key} {rest}"
        if rest.startswith("+ beta"):  # a rule of the blend: at the first blend key in the file
            key = min(("alpha", "beta", "gamma"), key=lambda k: lines.get(k, float("inf")))
        fail(key, message)

    out_dir = top["out_dir"][1]
    snapshot = {key: shown for key, (shown, _) in top.items() if key not in ("data", "out_dir")}
    snapshot["data"] = {k.partition(".")[2]: v for k, (v, _) in data.items() if v is not None}
    if out_dir is not None:
        snapshot["out_dir"] = out_dir
    return LoadedConfig(experiment=experiment, snapshot=snapshot, out_dir=out_dir)
