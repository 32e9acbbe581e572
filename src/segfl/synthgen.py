"""Synthetic flow-record generation for desk-scale experiments.

Each environment profile fixes class-conditional distributions over the seven
flow attributes: log-normal duration/packet/byte magnitudes, normal port
concentrations, and categorical protocol/flag tables.  A divergence knob
interpolates every parameter linearly between a base environment and an
alternative one whose class signatures are rotated: class c adopts the shape
of class c+1, so the pooled feature distribution is unchanged but the
class-to-signature mapping conflicts.  At zero divergence all profiles
coincide; as the knob grows, a model fit to the base environment serves the
diverged one increasingly badly, which is exactly what drives segmentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from segfl.flowdata import (
    CLASS_NAMES,
    FEATURE_NAMES,
    FLAGS,
    PROTOCOLS,
    FlowTable,
    _COUNT_MAX,
    _PORT_MAX,
    LabeledDataset,
    _largest_remainder_counts,
    physical_memory,
)

# CIDDS-like imbalance: normal : attacker : victim = 17 : 1.2 : 1.
DEFAULT_CLASS_MIX = (17 / 19.2, 1.2 / 19.2, 1 / 19.2)


def _probs(vocabulary: tuple[str, ...], table: dict[str, float]) -> np.ndarray:
    """``table``'s token weights, normalised, indexed by code: a position in ``vocabulary``."""
    vec = np.array([table.get(token, 0.0) for token in vocabulary])
    return vec / vec.sum()


@dataclass(frozen=True)
class FlowComponent:
    """One mode of a traffic class: client-side or server-side flows."""

    weight: float
    log_duration: tuple[float, float]  # lognormal (mu, sigma), seconds
    src_port: tuple[float, float]  # normal (center, spread)
    dst_port: tuple[float, float]
    log_packets: tuple[float, float]
    log_bytes: tuple[float, float]
    protocol_probs: np.ndarray
    flags_probs: np.ndarray


# Base environment.  Every class is a two-mode mixture — a client-side mode
# (high source port, low destination port) and a server-side mode (the
# reverse) — so all three classes put mass in both port quadrants and the
# class identity is carried by flag patterns, durations, and volumes rather
# than by disjoint port islands.  That interleaving matters: undersampling
# keeps the majority samples nearest to minority neighbourhoods, which only
# exist if the majority is actually present there.
_NORMAL_FLAGS = _probs(
    FLAGS,
    {
        ".AP.SF": 0.5,
        ".AP...": 0.22,
        ".A..SF": 0.08,
        "......": 0.05,
        "....S.": 0.05,
        ".A....": 0.04,
        ".A.R..": 0.02,
        ".A...F": 0.03,
        ".APRSF": 0.01,
    }
)
_ATTACKER_FLAGS = _probs(
    FLAGS,
    {
        "....S.": 0.58,
        "......": 0.18,
        ".APRSF": 0.07,
        ".A.R..": 0.05,
        ".A....": 0.04,
        ".AP.SF": 0.04,
        ".A...F": 0.02,
        ".A..SF": 0.01,
        ".AP...": 0.01,
    }
)
_VICTIM_FLAGS = _probs(
    FLAGS,
    {
        ".A...F": 0.44,
        ".A....": 0.28,
        ".A.R..": 0.14,
        "......": 0.06,
        ".AP.SF": 0.03,
        "....S.": 0.02,
        ".A..SF": 0.02,
        ".AP...": 0.005,
        ".APRSF": 0.005,
    }
)
_NORMAL_PROTO = _probs(PROTOCOLS, {"TCP": 0.78, "UDP": 0.16, "ICMP": 0.06})
_ATTACKER_PROTO = _probs(PROTOCOLS, {"TCP": 0.68, "UDP": 0.16, "ICMP": 0.16})
_VICTIM_PROTO = _probs(PROTOCOLS, {"TCP": 0.72, "UDP": 0.16, "ICMP": 0.12})

_BASE = (
    (  # normal: web clients plus ordinary server responses
        FlowComponent(
            weight=0.62,
            log_duration=(np.log(1.2), 0.7),
            src_port=(38000.0, 12000.0),
            dst_port=(4500.0, 4000.0),
            log_packets=(np.log(9.0), 0.7),
            log_bytes=(np.log(3500.0), 0.8),
            protocol_probs=_NORMAL_PROTO,
            flags_probs=_NORMAL_FLAGS,
        ),
        FlowComponent(
            weight=0.38,
            log_duration=(np.log(0.4), 0.7),
            src_port=(7500.0, 6500.0),
            dst_port=(26000.0, 12000.0),
            log_packets=(np.log(5.0), 0.7),
            log_bytes=(np.log(1500.0), 0.9),
            protocol_probs=_NORMAL_PROTO,
            flags_probs=_NORMAL_FLAGS,
        ),
    ),
    (  # attacker: port scans plus low-port exploit traffic
        FlowComponent(
            weight=0.70,
            log_duration=(np.log(0.02), 0.7),
            src_port=(44000.0, 11000.0),
            dst_port=(9000.0, 7000.0),
            log_packets=(np.log(2.0), 0.5),
            log_bytes=(np.log(120.0), 0.7),
            protocol_probs=_ATTACKER_PROTO,
            flags_probs=_ATTACKER_FLAGS,
        ),
        FlowComponent(
            weight=0.30,
            log_duration=(np.log(0.05), 0.7),
            src_port=(9000.0, 7000.0),
            dst_port=(33000.0, 13000.0),
            log_packets=(np.log(3.0), 0.6),
            log_bytes=(np.log(300.0), 0.8),
            protocol_probs=_ATTACKER_PROTO,
            flags_probs=_ATTACKER_FLAGS,
        ),
    ),
    (  # victim: servers answering the scans, two response modes
        FlowComponent(
            weight=0.70,
            log_duration=(np.log(0.5), 0.8),
            src_port=(4500.0, 4500.0),
            dst_port=(47000.0, 8000.0),
            log_packets=(np.log(4.0), 0.7),
            log_bytes=(np.log(1000.0), 0.8),
            protocol_probs=_VICTIM_PROTO,
            flags_probs=_VICTIM_FLAGS,
        ),
        FlowComponent(
            weight=0.30,
            log_duration=(np.log(0.8), 0.8),
            src_port=(35000.0, 13000.0),
            dst_port=(15000.0, 9000.0),
            log_packets=(np.log(5.0), 0.7),
            log_bytes=(np.log(1200.0), 0.9),
            protocol_probs=_VICTIM_PROTO,
            flags_probs=_VICTIM_FLAGS,
        ),
    ),
)


# Alternative environment: every class takes the shape of the next class, so
# the class-to-signature mapping conflicts with the base while the pooled
# feature marginals stay identical.  A model can only satisfy one labelling.
_ALT = tuple(_BASE[(c + 1) % len(_BASE)] for c in range(len(_BASE)))


def _lerp(a: float, b: float, t: float) -> float:
    return (1.0 - t) * a + t * b


def _lerp_pair(a: tuple[float, float], b: tuple[float, float], t: float) -> tuple[float, float]:
    return (_lerp(a[0], b[0], t), max(_lerp(a[1], b[1], t), 1e-9))


def _lerp_probs(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    mixed = np.clip((1.0 - t) * a + t * b, 0.0, None)
    return mixed / mixed.sum()


@dataclass(frozen=True)
class EnvironmentProfile:
    """One worker environment: class mix plus per-class distributions."""

    class_mix: tuple[float, float, float]
    class_params: tuple[tuple[FlowComponent, ...], ...]  # each class's mixture of modes

    def __post_init__(self):
        check_class_mix(self.class_mix)


# The largest knob: the normal class's second mode shrinks from weight 0.38 (base) to
# 0.30 (alternative), so extrapolating it reaches 0 at 0.38 / 0.08 and is negative after.
MAX_DIVERGENCE = 4.75


def check_divergence(divergence) -> float:
    """The knob as a float; ValueError unless it is a number from 0 to ``MAX_DIVERGENCE``."""
    try:
        value = float(divergence)
    except OverflowError:  # an integer beyond float range
        value = float("inf") if divergence > 0 else float("-inf")
    except (TypeError, ValueError):
        value = float("nan")
    if not value >= 0:
        raise ValueError(f"divergence must be a number >= 0, got {divergence!r}")
    if not value <= MAX_DIVERGENCE:
        raise ValueError(
            f"divergence must be at most {MAX_DIVERGENCE:g}, where a class's mixture "
            f"weight reaches 0; got {divergence!r}"
        )
    return value


# A generated row is 7 float64 features and an int64 label.  Shards are drawn one at a
# time, but every worker keeps its prepared rows, so all the shards' rows must fit.
_ROW_BYTES = 64


def check_sizes(sizes, n_workers: int) -> tuple[int, ...]:
    """One row count per worker, one integer standing for all; ValueError unless each
    is an integer from 1 to the int64 maximum, there is one per worker, and all the
    shards' rows fit in physical memory at ``_ROW_BYTES`` each.  An integer meets the
    memory rule before it is expanded, so a huge worker count lists nothing."""
    listed, copies = ([sizes], n_workers) if _is_int(sizes) else (sizes, 1)
    if not isinstance(listed, (list, tuple)) or not all(_is_int(s) and s >= 1 for s in listed):
        raise ValueError(f"sizes must be positive integers, got {sizes!r}")
    if max(listed, default=0) > _COUNT_MAX:
        raise ValueError(f"sizes must be at most {_COUNT_MAX} (int64), got {sizes!r}")
    if len(listed) * copies != n_workers:
        raise ValueError(f"sizes has {len(listed)} entries for {n_workers} workers")
    rows, memory = sum(map(int, listed)) * copies, physical_memory()
    if rows * _ROW_BYTES > memory:
        raise ValueError(
            f"sizes must fit in memory: {rows} rows at {_ROW_BYTES} B need more than "
            f"the {memory} B of physical memory, got {sizes!r}"
        )
    return tuple(map(int, listed)) * copies


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_profiles(profiles) -> tuple[str, ...]:
    """The profile ids as strings; ValueError unless they are a non-empty list."""
    if not isinstance(profiles, (list, tuple)) or not profiles:
        raise ValueError(f"profiles must be a non-empty list of ids, got {profiles!r}")
    return tuple(str(p) for p in profiles)


def check_class_mix(class_mix) -> tuple[float, ...]:
    """The shares as floats; ValueError unless they are 3 non-negative shares summing to 1."""
    try:
        mix = np.asarray(class_mix, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        mix = np.empty(0)
    if mix.shape != (len(CLASS_NAMES),) or np.any(mix < 0) or not abs(mix.sum() - 1.0) <= 1e-9:
        raise ValueError(f"class_mix must be 3 non-negative shares summing to 1, got {class_mix!r}")
    return tuple(mix.tolist())


def _lerp_component(a: FlowComponent, b: FlowComponent, t: float) -> FlowComponent:
    return FlowComponent(
        weight=_lerp(a.weight, b.weight, t),
        log_duration=_lerp_pair(a.log_duration, b.log_duration, t),
        src_port=_lerp_pair(a.src_port, b.src_port, t),
        dst_port=_lerp_pair(a.dst_port, b.dst_port, t),
        log_packets=_lerp_pair(a.log_packets, b.log_packets, t),
        log_bytes=_lerp_pair(a.log_bytes, b.log_bytes, t),
        protocol_probs=_lerp_probs(a.protocol_probs, b.protocol_probs, t),
        flags_probs=_lerp_probs(a.flags_probs, b.flags_probs, t),
    )


def make_profile(
    divergence: float = 0.0,
    class_mix: tuple[float, float, float] = DEFAULT_CLASS_MIX,
) -> EnvironmentProfile:
    """Interpolate the built-in base and alternative environments."""
    t = check_divergence(divergence)
    params = tuple(
        tuple(_lerp_component(a, b, t) for a, b in zip(_BASE[c], _ALT[c], strict=True))
        for c in range(len(CLASS_NAMES))
    )
    return EnvironmentProfile(class_mix=tuple(float(m) for m in class_mix), class_params=params)


def generate(profile: EnvironmentProfile, n: int, seed: int = 0) -> LabeledDataset:
    """Draw ``n`` labelled flow records from the profile's distributions.

    Class counts follow the mix exactly (largest-remainder apportionment);
    row order is shuffled.  All feature values satisfy the flow-record
    invariants: ports in [0, 65535], non-negative integer counts,
    non-negative duration, categorical codes from the shipped vocabulary.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    counts = _largest_remainder_counts(n, np.asarray(profile.class_mix))

    # Each class's rows in turn, in FEATURE_NAMES order; the columns are drawn in
    # the order duration, ports, packets, bytes, protocol, flags.
    features = np.empty((n, len(FEATURE_NAMES)))
    starts = np.cumsum(counts) - counts
    for cls, (count, start) in enumerate(zip(counts, starts)):
        if count == 0:
            continue
        components = profile.class_params[cls]
        weights = np.asarray([c.weight for c in components], dtype=np.float64)
        comp_idx = rng.choice(len(components), size=count, p=weights / weights.sum())
        for k, comp in enumerate(components):
            rows = start + np.flatnonzero(comp_idx == k)
            m = len(rows)
            if m == 0:
                continue
            features[rows, 0] = rng.lognormal(*comp.log_duration, size=m)
            features[rows, 2] = np.clip(np.round(rng.normal(*comp.src_port, size=m)), 0, _PORT_MAX)
            features[rows, 3] = np.clip(np.round(rng.normal(*comp.dst_port, size=m)), 0, _PORT_MAX)
            features[rows, 4] = np.round(rng.lognormal(*comp.log_packets, size=m))
            features[rows, 5] = np.round(rng.lognormal(*comp.log_bytes, size=m))
            features[rows, 1] = rng.choice(len(PROTOCOLS), size=m, p=comp.protocol_probs)
            features[rows, 6] = rng.choice(len(FLAGS), size=m, p=comp.flags_probs)

    labels = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    order = rng.permutation(n)
    return LabeledDataset(features[order], labels[order])


def to_records(dataset: LabeledDataset) -> FlowTable:
    """Decode a generated dataset into a flow table that write_flow_csv can write."""
    f = dataset.features
    protocol = np.asarray(PROTOCOLS, dtype=object)[f[:, 1].astype(np.int64)]
    flags = np.asarray(FLAGS, dtype=object)[f[:, 6].astype(np.int64)]
    labels = np.asarray(CLASS_NAMES, dtype=object)[dataset.labels]
    # FEATURE_NAMES order; FlowTable stores the whole-number ports and counts as int64.
    return FlowTable(f[:, 0], protocol, f[:, 2], f[:, 3], f[:, 4], f[:, 5], flags, labels)


@dataclass(frozen=True)
class ScenarioData:
    """Per-worker datasets, in worker order."""

    datasets: tuple[LabeledDataset, ...]


def make_scenario(
    n_workers: int,
    profiles: tuple[str, ...],
    sizes,
    divergence: float = 1.0,
    class_mix: tuple[float, float, float] = DEFAULT_CLASS_MIX,
    seed: int = 0,
) -> ScenarioData:
    """``stream_scenario``'s datasets, all drawn."""
    return ScenarioData(
        tuple(stream_scenario(n_workers, profiles, sizes, divergence, class_mix, seed))
    )


def stream_scenario(
    n_workers: int,
    profiles: tuple[str, ...],
    sizes,
    divergence: float = 1.0,
    class_mix: tuple[float, float, float] = DEFAULT_CLASS_MIX,
    seed: int = 0,
) -> Iterator[LabeledDataset]:
    """Per-worker datasets with profiles assigned round-robin, drawn one per ``next``.

    Distinct profile ids are spread evenly over [0, divergence] in order of
    first appearance: the first id is the undiverged base and the last sits
    at the full knob value, so ("A", "A", "B", "B") gives two base workers
    and two fully diverged ones.  The arguments are checked at the call.

    Args:
        n_workers: number of worker datasets.
        profiles: profile ids cycled over the workers.
        sizes: per-worker sample counts (scalar or one per worker).
        divergence: knob value for the most diverged profile.
        class_mix: shared class shares.
        seed: master seed.  Worker *i* draws from its own ``SeedSequence([seed,
            7919, i])``, so each shard is the same whether or not the shards
            before it are still held.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    check_profiles(profiles)
    sizes = check_sizes(sizes, n_workers)
    divergence = check_divergence(divergence)

    distinct = list(dict.fromkeys(profiles))
    last = max(len(distinct) - 1, 1)
    built = {pid: make_profile(divergence * i / last, class_mix) for i, pid in enumerate(distinct)}

    def draw(i: int) -> LabeledDataset:
        worker_seed = np.random.SeedSequence([int(seed), 7919, i]).generate_state(1)[0]
        return generate(built[profiles[i % len(profiles)]], sizes[i], int(worker_seed))

    return map(draw, range(n_workers))
