"""Flow-record ingestion: parsing, encoding, scaling, splitting, sharding.

A flow record carries seven usable attributes (duration, protocol, source and
destination port, packet count, byte count, TCP flags) plus a class label.
Only the classes ``normal``, ``attacker`` and ``victim`` are kept; address and
timestamp columns are ignored entirely.
"""

from __future__ import annotations

import csv
import logging
import os
import stat
import warnings
from dataclasses import dataclass, fields
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
_COUNT_MAX = int(np.iinfo(np.int64).max)  # the int64 bound synthgen.check_sizes holds sizes to


def physical_memory() -> int:
    """Bytes of physical memory, the bound that sizes and layer widths are checked against."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")

# The shipped vocabulary, in code order (a token's code is its position): the common
# IP protocols plus every six-position flag string over the UAPRSF alphabet.
PROTOCOLS = ("GRE", "ICMP", "IGMP", "TCP", "UDP")
_FLAG_LETTERS = "UAPRSF"
FLAGS = tuple(
    sorted(
        "".join(letter if on else "." for letter, on in zip(_FLAG_LETTERS, bits))
        for bits in product((False, True), repeat=len(_FLAG_LETTERS))
    )
)


# FlowTable column dtypes, in field order.
_COLUMN_DTYPES = (np.float64, object, np.int64, np.int64, np.int64, np.int64, object, object)

# parse_flow_csv reads data rows in blocks of this many lines, each by np.loadtxt as
# _READ_DTYPE's fields, then codes its tokens into these: counts float64 like
# _count_value's, tokens as codes.  A block holding a field that np.loadtxt cannot
# convert (a K/M suffix, a short row, a token of _TOKEN_BYTES or more) goes row by row
# through csv.reader.  Either way, _accepted decides which of the converted rows are kept.
_BLOCK_LINES = 4096
_BLOCK_DTYPE = [("duration", "f8"), ("protocol", "i8"), ("src_port", "i8"), ("dst_port", "i8"),
                ("packets", "f8"), ("bytes", "f8"), ("flags", "i8"), (CLASS_COLUMN, "i8")]
_TOKEN_FIELDS = ("protocol", "flags", CLASS_COLUMN)
# np.loadtxt reads a token as latin-1 bytes, padding kept, and cuts a longer one silently.
_TOKEN_BYTES = 16
_READ_DTYPE = [(name, f"S{_TOKEN_BYTES}" if name in _TOKEN_FIELDS else kind)
               for name, kind in _BLOCK_DTYPE]


@dataclass(frozen=True)
class FlowTable:
    """Flow rows as columns of tokens, as ``write_flow_csv`` writes them.

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

    def __len__(self) -> int:
        return len(self.labels)

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
    """Token-to-code tables for the categorical attributes.  Labels are always coded
    by the fixed ``CLASS_CODES`` table, never fitted.
    """

    protocol_codes: dict[str, int]
    flags_codes: dict[str, int]

    def encode(self, table: FlowTable) -> LabeledDataset:
        """Turn a flow table into a numeric LabeledDataset, as parse_flow_csv encodes.

        Raises:
            ValueError: naming the first protocol token without a code, else the
                first such flags token, else the first such class token.
        """
        rows, columns = _EncodedRows(self, len(table), (None,) * 3), table.columns()
        for codes, i in zip(rows.codes, (1, 6, 7)):  # protocol, flags, label
            columns[i] = np.fromiter(map(codes.__getitem__, columns[i].tolist()), np.int64)
        rows.add(columns)
        return rows.result()


def default_encoding() -> EncodingMap:
    """The codes of ``PROTOCOLS`` and ``FLAGS``, used when all sources share one encoder."""
    return EncodingMap(
        protocol_codes={token: code for code, token in enumerate(PROTOCOLS)},
        flags_codes={token: code for code, token in enumerate(FLAGS)},
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
        """Scale the float64 ``features`` in place; returns them."""
        varying = self.ranges > 0
        features -= self.mins
        features /= np.where(varying, self.ranges, 1.0)
        features[..., ~varying] = 0.0
        return features


def fit_scaler(dataset: LabeledDataset) -> ScalerParams:
    if dataset.sample_count == 0:
        raise ValueError("cannot fit a scaler on an empty dataset")
    mins = dataset.features.min(axis=0)
    ranges = dataset.features.max(axis=0) - mins
    return ScalerParams(mins=mins, ranges=ranges)


def scale_dataset(dataset: LabeledDataset, scaler: ScalerParams) -> LabeledDataset:
    """Scale ``dataset``'s features in place; returns ``dataset``."""
    scaler.transform(dataset.features)
    return dataset


def _count_value(token: str) -> float:
    """A count's value, unrounded, with a K/M suffix applied ("2.1 M" -> 2100000.0)."""
    text = token.strip()
    factor = _SUFFIX_FACTORS.get(text[-1:].upper())
    return float(text) if factor is None else float(text[:-1].strip()) * factor


def _parse_port(token: str) -> int:
    """A port; ValueError outside [0, _PORT_MAX], which also keeps it within int64."""
    port = int(token.strip())
    if not 0 <= port <= _PORT_MAX:
        raise ValueError("port out of range")
    return port


def parse_flow_csv(path, column_map: dict[str, str]) -> LabeledDataset:
    """Parse a delimited flow export into the encoded dataset of its accepted rows.

    Each block of rows is encoded by ``default_encoding()`` as it is read, into one
    feature matrix sized by a count of the file's lines.

    Args:
        path: CSV file with a header row.
        column_map: mapping of source column names to canonical attribute
            names (the seven ``FEATURE_NAMES`` plus ``class``).  Columns not
            mentioned (addresses, timestamps, ...) are ignored.

    Returns:
        The accepted rows in file order.  Rows that fail to parse and rows whose
        class is outside {normal, attacker, victim} are skipped and counted in two
        INFO log lines: the dropped rows by class, and all skipped rows.

    Raises:
        ValueError: a column map that misses an attribute or maps two columns to
            one, a header that lacks a mapped column or holds it twice, a path that
            is not a regular file, and, after the skipped rows are logged, the error
            ``_EncodedRows.result`` raises for the first accepted token without a code.
    """
    if missing := {*FEATURE_NAMES, CLASS_COLUMN} - set(column_map.values()):
        raise ValueError(f"column_map does not cover attributes: {sorted(missing)}")
    for canonical in dict.fromkeys(column_map.values()):
        sources = [source for source, name in column_map.items() if name == canonical]
        if len(sources) > 1:
            raise ValueError(f"column_map maps more than one column to {canonical}: {sources}")

    rows = _EncodedRows(default_encoding(), _line_bound(path), _CLEANERS)
    dropped: dict[str, int] = {}  # rows by unsupported class
    read = 0  # data rows, skipped ones included

    with open(path, newline="", encoding="utf-8-sig") as fh:  # a leading BOM is not header text
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
            if (times := header.count(source)) > 1:
                raise ValueError(f"column {source!r} is in the header {times} times")
            positions[canonical] = header.index(source)

        while block := list(islice(fh, _BLOCK_LINES)):
            text = "".join(block)
            quoted = '"' in text
            # csv.reader may read a NUL (before Python 3.11) or an over-long field otherwise.
            plain = not (quoted or "\x00" in text or max(map(len, block)) > csv.field_size_limit())
            del text  # not alive while np.loadtxt reads the block
            if plain and (columns := _parse_block(block, positions, rows.codes)) is not None:
                parts = [(columns, 0)]
            else:
                # A quoted field may span blocks, so csv.reader takes the rest of the file.
                block = chain(block, fh) if quoted else block
                parts = _coerce_rows(csv.reader(block), positions, rows.codes)
            for columns, refused in parts:
                read += refused + len(columns[0])
                rows.add(_accepted(columns, dropped, rows.codes[2]))
                del columns  # not alive while the next rows are read
            del parts  # nor while the next block is read

    if dropped:
        logger.info("dropped rows by unsupported class: %s", dict(sorted(dropped.items())))
    if skipped := read - rows.count:
        logger.info("rejected %d of %d data rows", skipped, read)
    return rows.result()


def _line_bound(path) -> int:
    """At least the number of lines in ``path`` as a text file reads them: a line
    ends at each "\\n", "\\r" or "\\r\\n", and the last one may have no end.

    Raises:
        ValueError: ``path`` is not a regular file (a pipe, say), which this
            first pass would drain before the parse reads it.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError("not a regular file; flow files are read twice")
    ends, last = 0, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            ends += chunk.count(b"\n")
            if b"\r" in chunk:
                ends += chunk.count(b"\r") - chunk.count(b"\r\n")
            ends -= last == b"\r" and chunk.startswith(b"\n")
            last = chunk[-1:]
    return ends + 1


class _TokenCodes(dict):
    """A token column's code per raw token: ``__missing__`` cleans a raw token once, by
    ``clean`` if any, and codes it by ``known``; the i-th cleaned token that ``known``
    lacks, the i-th key of ``unknown``, gets code -1 - i.  Each token of ``known`` is
    its own raw form from the start."""

    def __init__(self, known: dict[str, int], clean):
        super().__init__(known)
        self.known, self.clean, self.unknown = known, clean, {}
        self.table = None  # read()'s lookup table; None once __missing__ adds a token

    def __missing__(self, raw: str) -> int:
        token = raw if self.clean is None else self.clean(raw)
        if (code := self.known.get(token)) is None:
            code = self.unknown.setdefault(token, -1 - len(self.unknown))
        self[raw] = code
        self.table = None
        return code

    def read(self, tokens: np.ndarray) -> np.ndarray:
        """The codes of ``tokens``, an ``S{_TOKEN_BYTES}`` field that np.loadtxt read: each
        token's two 8-byte words are found in a table of the raw tokens seen, and a token
        not found is coded by ``self[...]``, which cleans it at its first sighting only.
        ValueError for a token that fills _TOKEN_BYTES, which np.loadtxt may have cut, or
        as ``__missing__`` raises."""
        if tokens[:, None].view(np.uint8)[:, -1].any():
            raise ValueError(f"a token of {_TOKEN_BYTES} bytes or more")
        if self.table is None:  # the raw tokens np.loadtxt reads whole; a NUL reads as padding
            raws = {
                raw.encode("latin-1"): code for raw, code in self.items()
                if len(raw) < _TOKEN_BYTES and "\0" not in raw and max(raw, default="") <= "\xff"
            }
            words = np.array(list(raws), tokens.dtype)[:, None].view(np.uint64)
            order = np.argsort(words[:, 0], kind="stable")  # by first word
            self.table = words[order].T.copy(), np.fromiter(raws.values(), np.int64)[order]
        (first, second), codes = self.table
        words = tokens[:, None].view(np.uint64)  # a view: a length-1 axis may change itemsize
        at = np.minimum(np.searchsorted(first, words[:, 0]), len(first) - 1)
        found = codes[at]
        missed = (first[at] != words[:, 0]) | (second[at] != words[:, 1])
        for i in np.flatnonzero(missed).tolist():  # a repeat finds its first sighting's entry
            found[i] = self[tokens[i].decode("latin-1")]
        return found


def _clean_token(raw: str) -> str:
    """A protocol or flags token without its padding; ValueError refuses an empty one."""
    if token := raw.strip():
        return token
    raise ValueError("empty token")


# How parse_flow_csv cleans the protocol, flags and class tokens.
_CLEANERS = (_clean_token, _clean_token, lambda raw: raw.strip().lower())


class _EncodedRows:
    """Coded block columns in one preallocated feature matrix and label vector, the
    columns in ``FEATURE_NAMES`` order as float64; ``codes`` codes the token columns."""

    def __init__(self, encoding: EncodingMap, capacity: int, cleaners):
        known = (encoding.protocol_codes, encoding.flags_codes, CLASS_CODES)
        self.codes = [_TokenCodes(table, clean) for table, clean in zip(known, cleaners)]
        self.unseen: list[str | None] = [None] * 3  # each table's first token without a code
        self.features = np.empty((capacity, len(FEATURE_NAMES)))
        self.labels = np.empty(capacity, dtype=np.int64)
        self.count = 0

    def add(self, columns: list[np.ndarray]) -> None:
        """Append block columns in ``FlowTable`` order, tokens as their codes."""
        rows = slice(self.count, self.count + len(columns[0]))
        block = self.features[rows]
        for col, values in enumerate(columns[:-1]):
            block[:, col] = values
        self.labels[rows] = columns[-1]
        for table, codes in enumerate([columns[1], columns[-2], columns[-1]]):
            if self.unseen[table] is None and codes.min(initial=0) < 0:
                self.unseen[table] = list(self.codes[table].unknown)[-1 - codes[codes < 0][0]]
        self.count = rows.stop

    def result(self) -> LabeledDataset:
        """The encoded rows; encode's ValueError for the first token without a code."""
        for what, token in zip(("unseen protocol", "unseen flags", "unknown class"), self.unseen):
            if token is not None:
                raise ValueError(f"{what} token {token!r}")
        # No view of the buffers outlives add(); numpy's reference check would also
        # count a profiler's bound-method reference.
        self.features.resize((self.count, len(FEATURE_NAMES)), refcheck=False)
        self.labels.resize(self.count, refcheck=False)
        return LabeledDataset(self.features, self.labels)


def _parse_block(lines, positions, codes):
    """``lines``' ``_BLOCK_DTYPE`` fields by np.loadtxt, tokens coded by ``codes``, as
    ``_coerce_rows`` gives them; blank lines are no rows, as for csv.reader.  None if
    np.loadtxt cannot convert a field or ``codes`` cannot code a token."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy 1.x reads an int "5.0" with a warning
            table = np.loadtxt(
                lines, _READ_DTYPE, delimiter=",", comments=None, quotechar=None, ndmin=1,
                usecols=[positions[name] for name, _ in _READ_DTYPE], encoding=None,
            )
        tokens = {name: column.read(table[name]) for name, column in zip(_TOKEN_FIELDS, codes)}
    except (ValueError, Warning):
        return None
    return [tokens.get(name, table[name]) for name, _ in _BLOCK_DTYPE]


def _accepted(columns: list, dropped: dict[str, int], classes: _TokenCodes) -> list:
    """The rows of ``columns``, ``_BLOCK_DTYPE``'s fields, that keep every row rule, counts
    rounded: a finite duration >= 0, ports in [0, _PORT_MAX], counts in [0, 2**63) and a
    class with a code.  ``dropped`` counts the rows that break only the class rule, by the
    cleaned class token, named by ``classes``."""
    duration, protocol, src_port, dst_port, packets, nbytes, flags, labels = columns
    # Half to even, as round(); + 0.0 makes the -0.0 of a -0.4 count the 0.0 of an int.
    counts = [np.rint(packets) + 0.0, np.rint(nbytes) + 0.0]
    valid = np.isfinite(duration) & (duration >= 0)
    valid &= (np.minimum(src_port, dst_port) >= 0) & (np.maximum(src_port, dst_port) <= _PORT_MAX)
    valid &= (np.minimum(*counts) >= 0) & (np.maximum(*counts) < 2.0**63)  # NaN fails too
    columns = [duration, protocol, src_port, dst_port, *counts, flags, labels]
    if (keep := valid & (labels >= 0)).all():
        return columns
    per_code = np.bincount(-1 - labels[valid & ~keep]).tolist()
    for name, count in zip(classes.unknown, per_code):
        if count:
            dropped[name] = dropped.get(name, 0) + count
    return [column[keep] for column in columns]


def _coerce_rows(rows, positions, codes):
    """For each ``_BLOCK_LINES`` rows of the csv.reader ``rows``, until they run out: the
    ``_BLOCK_DTYPE`` fields of those that ``_coerce_row`` converts, and the count of those
    it refuses."""
    while True:
        read, converted, refused = rows.line_num, [], 0
        for row in islice(rows, _BLOCK_LINES):
            if not row:
                continue
            try:
                converted.append(_coerce_row(row, positions, codes))
            except (ValueError, IndexError):
                refused += 1
        if rows.line_num == read:
            return
        table = np.array(converted, _BLOCK_DTYPE)
        del converted  # not alive while the fields are used
        yield [table[name] for name, _ in _BLOCK_DTYPE], refused


def _coerce_row(row: list[str], positions: dict[str, int], codes) -> tuple:
    """One row's fields in ``_BLOCK_DTYPE`` order, tokens coded by ``codes``; ValueError or
    IndexError if one cannot be converted."""
    return (
        float(row[positions["duration"]]),
        codes[0][row[positions["protocol"]]],  # an empty token raises
        _parse_port(row[positions["src_port"]]),
        _parse_port(row[positions["dst_port"]]),
        _count_value(row[positions["packets"]]),
        _count_value(row[positions["bytes"]]),
        codes[1][row[positions["flags"]]],
        codes[2][row[positions[CLASS_COLUMN]]],
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
    """Stratified split; per-class test counts stay within 1 of the exact share.

    The split takes ``dataset`` over: the test part is a copy of its test rows, and
    the training rows are moved down inside ``dataset``'s own arrays, which are then
    shrunk, so ``dataset`` itself is the training part.  No other array may view
    them.  Arrays that are views, read-only or not C-contiguous are copied instead,
    never written.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    labels = dataset.labels
    sizes = np.bincount(labels)
    classes = np.flatnonzero(sizes)
    for cls in classes:
        if sizes[cls] < 2:
            raise ValueError(f"class {cls} has fewer than 2 samples, cannot stratify")

    # Total test size rounds the exact fraction; per-class counts apportion it
    # proportionally so no class is off by more than one sample.
    n = dataset.sample_count
    total_test = int(round(n * test_fraction))
    per_class = _largest_remainder_counts(total_test, sizes[classes].astype(np.float64))

    rng = np.random.default_rng(seed)
    test_mask = np.zeros(n, dtype=bool)
    for cls, take in zip(classes, per_class):
        members = np.flatnonzero(labels == cls)
        test_mask[members[rng.permutation(len(members))[:take]]] = True
    test = dataset.subset(np.flatnonzero(test_mask))
    train_rows = np.flatnonzero(~test_mask)
    arrays = dataset.features, dataset.labels
    if all(a.flags.owndata and a.flags.writeable and a.flags.c_contiguous for a in arrays):
        return _compact(dataset, train_rows), test
    return dataset.subset(train_rows), test


# Rows moved per step when a dataset is compacted in place.
_COMPACT_ROWS = 4096


def _compact(dataset: LabeledDataset, rows: np.ndarray) -> LabeledDataset:
    """``dataset`` holding only its ``rows`` (ascending), moved down in chunks inside its
    own arrays: each chunk's rows are read before they are written, and since
    ``rows[i] >= i``, no chunk reads a row that an earlier chunk wrote."""
    for array in (dataset.features, dataset.labels):
        for start in range(0, len(rows), _COMPACT_ROWS):
            chunk = rows[start : start + _COMPACT_ROWS]
            array[start : start + len(chunk)] = array[chunk]
        array.resize((len(rows), *array.shape[1:]), refcheck=False)
    return dataset


def check_shares(shares) -> np.ndarray:
    """The shares as float64 weights; ValueError unless non-empty, non-negative, summing to 1."""
    try:
        weights = np.asarray(shares, dtype=np.float64)
    except OverflowError:  # an integer beyond float range
        raise ValueError(f"shares must be finite, got {shares!r}") from None
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
