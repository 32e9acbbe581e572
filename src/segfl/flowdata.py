"""Flow-record ingestion: parsing, encoding, scaling, splitting, sharding.

A flow record carries seven usable attributes (duration, protocol, source and
destination port, packet count, byte count, TCP flags) plus a class label.
Only the classes ``normal``, ``attacker`` and ``victim`` are kept; address and
timestamp columns are ignored entirely.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass, field, fields
from itertools import chain, islice, product

import numpy as np

logger = logging.getLogger(__name__)

# Canonical attribute order; feature matrices use these columns.
FEATURE_NAMES = ("duration", "protocol", "src_port", "dst_port", "packets", "bytes", "flags")
CLASS_COLUMN = "class"

# Label codes are fixed, not fitted: downstream models and reports rely on them.
CLASS_NAMES = ("normal", "attacker", "victim")
CLASS_CODES = {name: code for code, name in enumerate(CLASS_NAMES)}

# Magnitude suffixes seen in flow exports ("2.1 M" bytes).
_SUFFIX_FACTORS = {"K": 1e3, "M": 1e6}

_PORT_MAX = 65535
_COUNT_MAX = int(np.iinfo(np.int64).max)  # FlowTable stores counts as int64

# Fixed vocabulary used when no corpus is available to fit on: the common IP
# protocols plus every six-position flag string over the UAPRSF alphabet.
_PROTOCOL_VOCAB = ("GRE", "ICMP", "IGMP", "TCP", "UDP")
_FLAG_LETTERS = "UAPRSF"
_FLAGS_VOCAB = tuple(
    sorted(
        "".join(letter if on else "." for letter, on in zip(_FLAG_LETTERS, bits))
        for bits in product((False, True), repeat=len(_FLAG_LETTERS))
    )
)


# FlowTable column dtypes, in field order.
_COLUMN_DTYPES = (np.float64, object, np.int64, np.int64, np.int64, np.int64, object, object)

# parse_flow_csv reads data rows in blocks of this many lines, each by np.loadtxt as
# these fields: counts float64 like _parse_count's float(), tokens untruncated str.
# A block that np.loadtxt or a _coerce_row rule refuses is halved and retried down to
# pieces of _PIECE_LINES lines; only a refused piece that small goes row by row.
_BLOCK_LINES = 65536
_PIECE_LINES = 1024
_BLOCK_DTYPE = [("duration", "f8"), ("protocol", "O"), ("src_port", "i8"), ("dst_port", "i8"),
                ("packets", "f8"), ("bytes", "f8"), ("flags", "O"), (CLASS_COLUMN, "O")]


@dataclass(frozen=True)
class FlowTable:
    """Accepted flow rows as columns of coerced, not yet encoded, tokens.

    One array per canonical attribute plus the class tokens, all in row
    order: ``duration`` float64; ports and counts int64; ``protocol``,
    ``flags`` and ``label`` strings.  ``len()`` is the row count.
    """

    duration: np.ndarray
    protocol: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    packets: np.ndarray
    bytes: np.ndarray
    flags: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        for column, dtype in zip(fields(self), _COLUMN_DTYPES, strict=True):
            object.__setattr__(self, column.name, np.asarray(getattr(self, column.name), dtype))

    def __len__(self) -> int:
        return len(self.label)

    def columns(self) -> list[np.ndarray]:
        """The columns in file layout: ``FEATURE_NAMES`` then the class."""
        return [getattr(self, column.name) for column in fields(self)]


@dataclass
class LabeledDataset:
    """Numeric feature matrix (n, 7) float64 plus int64 label vector."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {self.features.shape}")
        if self.labels.ndim != 1 or len(self.labels) != len(self.features):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"{len(self.features)} feature rows"
            )

    @property
    def sample_count(self) -> int:
        return len(self.labels)

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx])


def concat_datasets(datasets: list[LabeledDataset]) -> LabeledDataset:
    if not datasets:
        raise ValueError("cannot concatenate zero datasets")
    return LabeledDataset(
        np.concatenate([d.features for d in datasets], axis=0),
        np.concatenate([d.labels for d in datasets], axis=0),
    )


@dataclass(frozen=True)
class EncodingMap:
    """Token-to-code tables for the categorical attributes.

    Codes are dense integers assigned in lexicographic token order, so the
    mapping is a pure function of the token sets.  Label codes are the fixed
    ``CLASS_CODES`` table, never fitted.
    """

    protocol_codes: dict[str, int]
    flags_codes: dict[str, int]
    label_codes: dict[str, int] = field(default_factory=lambda: dict(CLASS_CODES))

    def encode(self, table: FlowTable) -> LabeledDataset:
        """Turn a parsed flow table into a numeric LabeledDataset."""
        protocol = _lookup(self.protocol_codes, table.protocol, "unseen protocol")
        flags = _lookup(self.flags_codes, table.flags, "unseen flags")
        ports_counts = [table.src_port, table.dst_port, table.packets, table.bytes]
        features = np.column_stack([table.duration, protocol, *ports_counts, flags])
        return LabeledDataset(features, _lookup(self.label_codes, table.label, "unknown class"))


def _lookup(codes: dict[str, int], tokens: np.ndarray, what: str) -> np.ndarray:
    """Each token's code; the first token without one raises ValueError."""
    try:
        return np.fromiter(map(codes.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    except KeyError as exc:
        raise ValueError(f"{what} token {exc.args[0]!r}") from None


def _lexicographic_codes(tokens) -> dict[str, int]:
    return {tok: code for code, tok in enumerate(sorted(set(tokens)))}


def default_encoding() -> EncodingMap:
    """The fixed shipped vocabulary, used when all sources share one encoder."""
    return EncodingMap(
        protocol_codes=_lexicographic_codes(_PROTOCOL_VOCAB),
        flags_codes=_lexicographic_codes(_FLAGS_VOCAB),
    )


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature affine min-max transform fitted on one data shard.

    ``transform`` maps the fitted minimum to 0 and maximum to 1 without
    clamping, so out-of-range values land outside [0, 1].  A constant feature
    maps to 0 everywhere.
    """

    mins: np.ndarray
    ranges: np.ndarray

    def transform(self, features: np.ndarray) -> np.ndarray:
        varying = self.ranges > 0
        scaled = np.asarray(features, dtype=np.float64) - self.mins  # the one new array
        scaled /= np.where(varying, self.ranges, 1.0)
        scaled[..., ~varying] = 0.0
        return scaled


def fit_scaler(dataset: LabeledDataset) -> ScalerParams:
    if dataset.sample_count == 0:
        raise ValueError("cannot fit a scaler on an empty dataset")
    mins = dataset.features.min(axis=0)
    ranges = dataset.features.max(axis=0) - mins
    return ScalerParams(mins=mins, ranges=ranges)


def scale_dataset(dataset: LabeledDataset, scaler: ScalerParams) -> LabeledDataset:
    return LabeledDataset(scaler.transform(dataset.features), dataset.labels.copy())


def _parse_count(token: str, name: str) -> int:
    """Parse a count that may carry a K/M suffix ("2.1 M" -> 2100000)."""
    text = token.strip()
    if not text:
        raise ValueError("empty count")
    factor = _SUFFIX_FACTORS.get(text[-1].upper())
    value = float(text) if factor is None else float(text[:-1].strip()) * factor
    if not math.isfinite(value):
        raise ValueError(f"non-finite {name} {token!r}")
    count = int(round(value))
    if count < 0:
        raise ValueError(f"negative {name} {count}")
    if count > _COUNT_MAX:
        raise ValueError(f"{name} {count} too large")
    return count


def _parse_port(token: str) -> int:
    port = int(token.strip())
    if not 0 <= port <= _PORT_MAX:
        raise ValueError(f"port {port} out of range")
    return port


def parse_flow_csv(
    path,
    column_map: dict[str, str],
    rejects_path=None,
) -> FlowTable:
    """Parse a delimited flow export into a table of accepted rows.

    Args:
        path: CSV file with a header row.
        column_map: mapping of source column names to canonical attribute
            names (the seven ``FEATURE_NAMES`` plus ``class``).  Columns not
            mentioned (addresses, timestamps, ...) are ignored.
        rejects_path: optional file that receives one ``<line_no>\\t<reason>``
            line per skipped row.

    Returns:
        The accepted rows in file order.  Rows that fail to parse and rows
        whose class is outside {normal, attacker, victim} are skipped and
        recorded in the rejects report.
    """
    canonical_needed = set(FEATURE_NAMES) | {CLASS_COLUMN}
    mapped = set(column_map.values())
    missing = canonical_needed - mapped
    if missing:
        raise ValueError(f"column_map does not cover attributes: {sorted(missing)}")

    parts: list[list[np.ndarray]] = []
    rejects: list[tuple[int, str]] = []
    dropped_classes: dict[str, int] = {}
    shared: dict[str, str] = {}  # one str object per distinct cleaned token

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file, no header row") from None
        header = [col.strip() for col in header]
        positions: dict[str, int] = {}
        for source, canonical in column_map.items():
            if source not in header:
                raise ValueError(f"column {source!r} not in header")
            positions[canonical] = header.index(source)

        lines_before = reader.line_num
        while block := list(islice(fh, _BLOCK_LINES)):
            if any('"' in line for line in block):
                # A quoted field may span blocks, so csv.reader takes the rest of the file.
                rows = csv.reader(chain(block, fh))
                parts.append(_coerce_rows(rows, lines_before, positions, rejects, dropped_classes))
            else:
                parts += _parse_pieces(
                    block, lines_before + 1, positions, rejects, dropped_classes, shared
                )
            lines_before += len(block)

    if rejects_path is not None:
        with open(rejects_path, "w") as out:
            for line_no, reason in rejects:
                out.write(f"{line_no}\t{reason}\n")
    if dropped_classes:
        logger.info("dropped rows by unsupported class: %s", dict(sorted(dropped_classes.items())))
    table = FlowTable(*(map(np.concatenate, zip(*parts)) if parts else [()] * len(_COLUMN_DTYPES)))
    if rejects:
        logger.info("rejected %d of %d data rows", len(rejects), len(rejects) + len(table))
    return table


def _parse_pieces(lines, first_line, positions, rejects, dropped_classes, shared):
    """Columns of quote-free ``lines`` from file line ``first_line``, one list per piece.

    A piece that ``_parse_block`` refuses is halved until it has ``_PIECE_LINES`` lines
    or fewer, and then goes through csv.reader and ``_coerce_row``.
    """
    columns = _parse_block(lines, first_line, positions, rejects, dropped_classes, shared)
    if columns is not None:
        return [columns]
    if len(lines) <= _PIECE_LINES:
        rows = csv.reader(lines)
        return [_coerce_rows(rows, first_line - 1, positions, rejects, dropped_classes)]
    half = len(lines) // 2
    context = positions, rejects, dropped_classes, shared
    return [*_parse_pieces(lines[:half], first_line, *context),
            *_parse_pieces(lines[half:], first_line + half, *context)]


def _parse_block(lines, first_line, positions, rejects, dropped_classes, shared):
    """Quote-free ``lines``' columns by np.loadtxt; line i is row i, on line ``first_line + i``.

    None, recording nothing, if csv.reader could read a line differently (a NUL before
    Python 3.11, an over-long field) or a row breaks a ``_coerce_row`` rule.  Equal
    cleaned tokens are one str object, the one kept in ``shared``.
    """
    if any("\x00" in line for line in lines) or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.x reads an int "5.0" with a warning
            table = np.loadtxt(
                lines, _BLOCK_DTYPE, delimiter=",", comments=None, quotechar=None, ndmin=1,
                usecols=[positions[name] for name, _ in _BLOCK_DTYPE],
            )
    except (ValueError, Warning):
        return None
    duration, ports = table["duration"], [table["src_port"], table["dst_port"]]
    counts = [np.rint(table["packets"]), np.rint(table["bytes"])]  # half-to-even, as round()
    protocol = _shared_tokens(table["protocol"], str.strip, shared)
    flags = _shared_tokens(table["flags"], str.strip, shared)
    valid = np.isfinite(duration) & (duration >= 0)
    valid &= (np.minimum(*ports) >= 0) & (np.maximum(*ports) <= _PORT_MAX)
    valid &= (np.minimum(*counts) >= 0) & (np.maximum(*counts) < 2.0**63)  # NaN fails too
    # loadtxt skips blank lines, which would shift the line numbers.
    if len(table) != len(lines) or not (valid.all() and all(protocol) and all(flags)):
        return None

    label = _shared_tokens(table[CLASS_COLUMN], lambda token: token.strip().lower(), shared)
    keep = np.fromiter((token in CLASS_CODES for token in label), bool, len(label))
    for i in np.flatnonzero(~keep).tolist():
        rejects.append((first_line + i, f"unsupported class {label[i]!r}"))
        dropped_classes[label[i]] = dropped_classes.get(label[i], 0) + 1
    columns = [duration, protocol, *ports, *counts, flags, label]
    return [np.asarray(column, dtype)[keep] for column, dtype in zip(columns, _COLUMN_DTYPES)]


def _shared_tokens(column: np.ndarray, clean, shared: dict[str, str]) -> list[str]:
    """``clean`` of each token, called once per distinct token; equal results are the
    str object that ``shared`` holds for them."""
    tokens = column.tolist()
    memo = {}
    for token in set(tokens):
        value = clean(token)
        memo[token] = shared.setdefault(value, value)
    return [memo[token] for token in tokens]


def _coerce_rows(rows, lines_before, positions, rejects, dropped_classes):
    """Columns of the ``rows`` (a csv.reader from file line ``lines_before + 1``)
    that ``_coerce_row`` accepts; every other row becomes a reject."""
    accepted: list[tuple] = []
    for row in rows:
        if not row:
            continue
        line_no = lines_before + rows.line_num
        try:
            coerced = _coerce_row(row, positions)
        except (ValueError, IndexError) as exc:
            rejects.append((line_no, str(exc)))
            continue
        label = coerced[-1]
        if label not in CLASS_CODES:
            rejects.append((line_no, f"unsupported class {label!r}"))
            dropped_classes[label] = dropped_classes.get(label, 0) + 1
            continue
        accepted.append(coerced)
    return FlowTable(*(zip(*accepted) if accepted else [()] * len(_COLUMN_DTYPES))).columns()


def _coerce_row(row: list[str], positions: dict[str, int]) -> tuple:
    """One row's values in ``FlowTable`` column order; ValueError rejects it."""
    try:
        duration = float(row[positions["duration"]])
    except ValueError:
        raise ValueError(f"bad duration {row[positions['duration']]!r}") from None
    if not math.isfinite(duration) or duration < 0:
        raise ValueError(f"bad duration {row[positions['duration']]!r}")
    protocol = row[positions["protocol"]].strip()
    if not protocol:
        raise ValueError("empty protocol")
    flags = row[positions["flags"]].strip()
    if not flags:
        raise ValueError("empty flags")
    packets = _parse_count(row[positions["packets"]], "packets")
    nbytes = _parse_count(row[positions["bytes"]], "bytes")
    return (
        duration,
        protocol,
        _parse_port(row[positions["src_port"]]),
        _parse_port(row[positions["dst_port"]]),
        packets,
        nbytes,
        flags,
        row[positions[CLASS_COLUMN]].strip().lower(),
    )


def write_flow_csv(table: FlowTable, path) -> None:
    """Serialize a flow table in the canonical column layout parse_flow_csv reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(FEATURE_NAMES) + [CLASS_COLUMN])
        # tolist() gives Python floats, whose str() is the shortest round-trip repr.
        writer.writerows(zip(*(column.tolist() for column in table.columns())))


CANONICAL_COLUMN_MAP = {name: name for name in FEATURE_NAMES + (CLASS_COLUMN,)}


def _largest_remainder_counts(total: int, weights: np.ndarray) -> np.ndarray:
    """Apportion ``total`` into integer counts proportional to ``weights``.

    Floors the exact shares, then hands the leftover units to the largest
    fractional parts (ties to the lower index), so the counts sum to exactly
    ``total`` and each is within 1 of its exact share.
    """
    exact = total * weights / weights.sum()
    counts = np.floor(exact).astype(np.int64)
    remainder = int(total - counts.sum())
    if remainder > 0:
        fractional = exact - counts
        order = np.lexsort((np.arange(len(weights)), -fractional))
        counts[order[:remainder]] += 1
    return counts


def train_test_split(
    dataset: LabeledDataset, test_fraction: float = 0.10, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset]:
    """Stratified split; per-class test counts stay within 1 of the exact share."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    labels = dataset.labels
    classes = np.unique(labels)
    for cls in classes:
        if int((labels == cls).sum()) < 2:
            raise ValueError(f"class {cls} has fewer than 2 samples, cannot stratify")

    # Total test size rounds the exact fraction; per-class counts apportion it
    # proportionally so no class is off by more than one sample.
    n = dataset.sample_count
    total_test = int(round(n * test_fraction))
    class_sizes = np.array([(labels == cls).sum() for cls in classes], dtype=np.float64)
    per_class = _largest_remainder_counts(total_test, class_sizes)

    rng = np.random.default_rng(seed)
    test_idx = []
    for cls, take in zip(classes, per_class):
        members = np.flatnonzero(labels == cls)
        picked = rng.permutation(len(members))[:take]
        test_idx.append(members[picked])
    test_mask = np.zeros(n, dtype=bool)
    if test_idx:
        test_mask[np.concatenate(test_idx)] = True
    return dataset.subset(np.flatnonzero(~test_mask)), dataset.subset(np.flatnonzero(test_mask))


def check_shares(shares) -> np.ndarray:
    """The shares as float64 weights; ValueError unless non-empty, non-negative, summing to 1."""
    try:
        weights = np.asarray(shares, dtype=np.float64)
    except (TypeError, ValueError):
        weights = np.empty(0)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError(f"shares must be a non-empty list of numbers, got {shares!r}")
    if np.any(weights < 0):
        raise ValueError(f"shares must be non-negative, got {shares}")
    if not abs(weights.sum() - 1.0) <= 1e-9:
        raise ValueError(f"shares must sum to 1, got {float(weights.sum())!r}")
    return weights


def partition_workers(
    dataset: LabeledDataset, shares: list[float], seed: int = 0
) -> list[LabeledDataset]:
    """Split a corpus into disjoint worker shards proportional to ``shares``.

    The shares must sum to 1 (within 1e-9).  Rows are shuffled once under the
    seed and dealt out contiguously, so the shards are disjoint and exhaustive.
    """
    weights = check_shares(shares)
    counts = _largest_remainder_counts(dataset.sample_count, weights)
    perm = np.random.default_rng(seed).permutation(dataset.sample_count)
    shards = []
    start = 0
    for count in counts:
        picked = np.sort(perm[start : start + count])
        shards.append(dataset.subset(picked))
        start += count
    return shards
