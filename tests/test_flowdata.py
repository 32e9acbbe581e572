"""Parsing, encoding, scaling, splitting, and sharding of flow records."""

from __future__ import annotations

import csv
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest

from segfl import flowdata
from segfl.flowdata import (
    CANONICAL_COLUMN_MAP,
    CLASS_CODES,
    CLASS_NAMES,
    FEATURE_NAMES,
    FLAGS,
    PROTOCOLS,
    EncodingMap,
    FlowTable,
    LabeledDataset,
    _largest_remainder_counts,
    default_encoding,
    fit_scaler,
    parse_flow_csv,
    partition_workers,
    scale_dataset,
    train_test_split,
    write_flow_csv,
)
from segfl.orchestrator import (
    VALIDATION_FRACTION,
    ExperimentConfig,
    _prepare_worker,
    derive_seed,
)
from segfl.resample import ResampleConfig, nearmiss3_undersample
from segfl.synthgen import generate, make_profile, to_records

# CIDDS-style export: extra address/date columns that the parser must ignore.
_HEADER = "Date first seen,Duration,Proto,Src IP Addr,Src Pt,Dst IP Addr,Dst Pt,Packets,Bytes,Flags,class"
_COLUMN_MAP = {
    "Duration": "duration",
    "Proto": "protocol",
    "Src Pt": "src_port",
    "Dst Pt": "dst_port",
    "Packets": "packets",
    "Bytes": "bytes",
    "Flags": "flags",
    "class": "class",
}

_ROWS = [
    "2017-03-15 00:01:16,0.5,TCP,192.168.100.5,52128,192.168.220.16,80,7,532,.AP.SF,normal",
    "2017-03-15 00:01:17,1.25,TCP,192.168.100.5,52129,192.168.220.16,80,11,2.1 M,.AP.SF,normal",
    "2017-03-15 00:01:18,0.01,TCP,192.168.220.9,44421,192.168.100.5,22,3,4.5 K,....S.,attacker",
    "2017-03-15 00:01:19,0.2,TCP,192.168.100.5,52130,192.168.220.16,80,4,300,.AP...,suspicious",
    "2017-03-15 00:01:20,0.2,UDP,192.168.100.5,52131,192.168.220.16,53,1,66,......,unknown",
    "2017-03-15 00:01:21,0.2,TCP,192.168.100.5,70000,192.168.220.16,80,4,300,.AP...,normal",
    "2017-03-15 00:01:22,abc,TCP,192.168.100.5,52132,192.168.220.16,80,4,300,.AP...,normal",
    "2017-03-15 00:01:23,0.8,ICMP,192.168.100.5,0,192.168.220.16,0,2,128,......,victim",
    "2017-03-15 00:01:24,0.3,TCP,192.168.100.5,52133,192.168.220.16,80,inf,300,.AP...,normal",
    "2017-03-15 00:01:25,0.3,TCP,192.168.100.5,52134,192.168.220.16,80,4,1e400,.AP...,normal",
    "2017-03-15 00:01:26,0.3,TCP,192.168.100.5,52135,192.168.220.16,80,nan,300,.AP...,normal",
    "2017-03-15 00:01:27,0.3,TCP,192.168.100.5,52136,192.168.220.16,80,4,1e30,.AP...,normal",
]


@pytest.fixture()
def flow_csv(tmp_path):
    path = tmp_path / "flows.csv"
    path.write_text(_HEADER + "\n" + "\n".join(_ROWS) + "\n")
    return path


def _one_row(**values) -> FlowTable:
    row = dict(
        duration=2.5, protocol="UDP", src_port=5, dst_port=6, packets=7, bytes=8,
        flags="......", label="victim",
    )
    row.update(values)
    return FlowTable(**{name: [value] for name, value in row.items()})


def test_parse_accepts_and_coerces_good_rows(flow_csv):
    shard = parse_flow_csv(flow_csv, _COLUMN_MAP)
    enc = default_encoding()
    assert len(shard) == 4
    assert shard.labels.tolist() == [CLASS_CODES[c] for c in ("normal", "normal", "attacker", "victim")]
    assert shard.features[0].tolist() == [
        0.5, enc.protocol_codes["TCP"], 52128, 80, 7, 532, enc.flags_codes[".AP.SF"],
    ]
    assert shard.features[3].tolist() == [
        0.8, enc.protocol_codes["ICMP"], 0, 0, 2, 128, enc.flags_codes["......"],
    ]
    assert (shard.features.dtype, shard.labels.dtype) == (np.float64, np.int64)


def test_parse_expands_magnitude_suffixes(flow_csv):
    # Hand-expanded values: "2.1 M" -> 2_100_000 and "4.5 K" -> 4_500.
    nbytes = parse_flow_csv(flow_csv, _COLUMN_MAP).features[:, FEATURE_NAMES.index("bytes")]
    assert nbytes[1] == 2_100_000
    assert nbytes[2] == 4_500


def test_parse_drops_unsupported_classes_and_counts_skipped_rows(flow_csv, caplog):
    with caplog.at_level(logging.INFO, logger="segfl.flowdata"):
        table = parse_flow_csv(flow_csv, _COLUMN_MAP)
    assert len(table) == 4
    # Two classes without a code, then six malformed rows: a port beyond 65535, a bad
    # duration, counts that are infinite, NaN or (1e30) beyond int64.
    assert caplog.messages == [
        "dropped rows by unsupported class: {'suspicious': 1, 'unknown': 1}",
        "rejected 8 of 12 data rows",
    ]


def test_parse_requires_complete_column_map(flow_csv):
    incomplete = {k: v for k, v in _COLUMN_MAP.items() if v != "flags"}
    with pytest.raises(ValueError, match="flags"):
        parse_flow_csv(flow_csv, incomplete)


def test_parse_missing_source_column(flow_csv):
    wrong = dict(_COLUMN_MAP)
    wrong["Dst Port"] = wrong.pop("Dst Pt")
    with pytest.raises(ValueError, match="Dst Port"):
        parse_flow_csv(flow_csv, wrong)


def test_parse_roundtrip_is_idempotent(flow_csv, tmp_path):
    parsed = parse_flow_csv(flow_csv, _COLUMN_MAP)
    rewritten = tmp_path / "rewritten.csv"
    write_flow_csv(to_records(parsed), rewritten)
    _assert_same_bytes(parse_flow_csv(rewritten, CANONICAL_COLUMN_MAP), parsed)


def test_parse_skips_a_utf8_byte_order_mark(flow_csv, tmp_path):
    # Excel's "CSV UTF-8" export starts with one; it is not part of the first column name.
    parsed = parse_flow_csv(flow_csv, _COLUMN_MAP)
    canonical, marked = tmp_path / "canonical.csv", tmp_path / "marked.csv"
    write_flow_csv(to_records(parsed), canonical)  # "duration" is the first column
    marked.write_bytes(b"\xef\xbb\xbf" + canonical.read_bytes())
    _assert_same_bytes(parse_flow_csv(marked, CANONICAL_COLUMN_MAP), parsed)


def test_vocabulary_and_class_codes_are_fixed_and_roundtrip():
    encoding = default_encoding()
    assert encoding.protocol_codes == {"GRE": 0, "ICMP": 1, "IGMP": 2, "TCP": 3, "UDP": 4}
    # A token's code is its position in the shipped tuples, which are in lexicographic order.
    assert list(encoding.protocol_codes.items()) == [(t, c) for c, t in enumerate(PROTOCOLS)]
    assert list(encoding.flags_codes.items()) == [(t, c) for c, t in enumerate(FLAGS)]
    assert list(FLAGS) == sorted(FLAGS) and len(set(FLAGS)) == 64
    for name in CLASS_NAMES:
        assert CLASS_NAMES[encoding.encode(_one_row(label=name)).labels[0]] == name
    assert CLASS_CODES == {"normal": 0, "attacker": 1, "victim": 2}


def test_unseen_token_is_an_error_not_a_silent_code():
    encoding = EncodingMap(protocol_codes={"TCP": 0, "UDP": 1}, flags_codes={".A....": 0})
    with pytest.raises(ValueError, match="unseen protocol token 'GRE'"):
        encoding.encode(_one_row(protocol="GRE", flags=".A...."))
    with pytest.raises(ValueError, match="unseen flags token '......'"):
        encoding.encode(_one_row(protocol="TCP"))
    with pytest.raises(ValueError, match="unknown class token 'suspicious'"):
        encoding.encode(_one_row(protocol="TCP", flags=".A....", label="suspicious"))


def _column_dataset(*columns):
    features = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    return LabeledDataset(features, np.zeros(len(features), dtype=np.int64))


def test_scaler_maps_min_max_and_midpoint():
    scaler = fit_scaler(_column_dataset([2.0, 4.0, 6.0]))
    out = scaler.transform(np.array([[2.0], [4.0], [6.0]]))
    assert out[:, 0] == pytest.approx([0.0, 0.5, 1.0], abs=0)


def test_scaler_constant_column_maps_to_zero():
    scaler = fit_scaler(_column_dataset([5.0, 5.0, 5.0]))
    assert np.all(scaler.transform(np.array([[5.0], [7.0]])) == 0.0)


def test_scaler_is_unclamped_outside_fit_range():
    scaler = fit_scaler(_column_dataset([2.0, 6.0]))
    assert scaler.transform(np.array([[10.0]]))[0, 0] == pytest.approx(2.0)
    assert scaler.transform(np.array([[0.0]]))[0, 0] == pytest.approx(-0.5)


def test_scale_dataset_keeps_fit_data_in_unit_range():
    rng = np.random.default_rng(11)
    data = LabeledDataset(rng.normal(size=(50, 4)) * 100, rng.integers(0, 3, size=50))
    labels = data.labels.copy()
    scaled = scale_dataset(data, fit_scaler(data))
    assert scaled is data  # scaled in place
    assert scaled.features.min() >= 0.0
    assert scaled.features.max() <= 1.0
    assert np.array_equal(scaled.labels, labels)


def _copy(dataset):
    """A dataset of its own arrays, for a split that takes its input over."""
    return LabeledDataset(dataset.features.copy(), dataset.labels.copy())


def _random_dataset(rng, n, n_classes=3, n_features=2):
    return LabeledDataset(
        rng.normal(size=(n, n_features)),
        rng.integers(0, n_classes, size=n),
    )


def test_split_sizes_are_exact_for_round_fractions():
    data = _random_dataset(np.random.default_rng(0), 100)
    train, test = train_test_split(data, 0.1, seed=3)
    assert (train.sample_count, test.sample_count) == (90, 10)


def test_split_is_deterministic_per_seed():
    data = _random_dataset(np.random.default_rng(1), 200)
    a_train, a_test = train_test_split(_copy(data), 0.25, seed=42)
    b_train, b_test = train_test_split(_copy(data), 0.25, seed=42)
    assert np.array_equal(a_train.features, b_train.features)
    assert np.array_equal(a_test.features, b_test.features)
    c_train, _ = train_test_split(data, 0.25, seed=43)
    assert not np.array_equal(a_train.features, c_train.features)


def test_split_preserves_class_ratio_within_one_sample():
    # Brute-force count check across uneven class sizes and odd fractions.
    rng = np.random.default_rng(7)
    for trial in range(20):
        sizes = rng.integers(10, 80, size=3)
        labels = np.repeat(np.arange(3), sizes)
        data = LabeledDataset(rng.normal(size=(len(labels), 2)), labels)
        fraction = float(rng.uniform(0.1, 0.4))
        _, test = train_test_split(_copy(data), fraction, seed=trial)
        total_test = int(round(data.sample_count * fraction))
        for cls, size in enumerate(sizes):
            exact = total_test * size / data.sample_count
            got = int((test.labels == cls).sum())
            assert abs(got - exact) <= 1.0


def test_split_is_a_partition_of_the_input():
    rng = np.random.default_rng(5)
    data = LabeledDataset(
        np.arange(60, dtype=np.float64).reshape(60, 1), rng.integers(0, 3, size=60)
    )
    train, test = train_test_split(_copy(data), 0.3, seed=9)
    recombined = sorted(np.concatenate([train.features[:, 0], test.features[:, 0]]).tolist())
    assert recombined == data.features[:, 0].tolist()


def test_split_takes_its_own_arrays_over_and_copies_any_other():
    data = _random_dataset(np.random.default_rng(6), 500)
    owned = _copy(data)
    buffer = owned.features
    train, test = train_test_split(owned, 0.2, seed=1)
    assert train is owned and train.features is buffer  # compacted, then shrunk
    read_only = _copy(data)
    read_only.features.flags.writeable = False
    before = data.features.tobytes(), data.labels.tobytes()
    for other in (LabeledDataset(data.features[:], data.labels[:]), read_only):
        other_train, other_test = train_test_split(other, 0.2, seed=1)
        assert other_train is not other
        for ours, theirs in ((train, other_train), (test, other_test)):
            assert ours.features.tobytes() == theirs.features.tobytes()
            assert ours.labels.tobytes() == theirs.labels.tobytes()
    assert (data.features.tobytes(), data.labels.tobytes()) == before


def test_split_rejects_tiny_classes_and_bad_fractions():
    data = LabeledDataset(np.zeros((3, 1)), np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="fewer than 2"):
        train_test_split(data, 0.5, seed=0)
    ok = LabeledDataset(np.zeros((4, 1)), np.array([0, 0, 1, 1]))
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError, match="test_fraction"):
            train_test_split(ok, bad, seed=0)


def test_partition_single_share_is_identity():
    data = _random_dataset(np.random.default_rng(2), 37)
    (shard,) = partition_workers(data, [1.0], seed=4)
    assert np.array_equal(np.sort(shard.features, axis=0), np.sort(data.features, axis=0))
    assert shard.sample_count == 37


def test_partition_shards_are_disjoint_and_exhaustive():
    # Unique feature values make multiset equality imply disjointness.
    rng = np.random.default_rng(31)
    data = LabeledDataset(
        np.arange(1000, dtype=np.float64).reshape(1000, 1),
        rng.integers(0, 3, size=1000),
    )
    for trial in range(10):
        raw = rng.uniform(0.5, 2.0, size=rng.integers(2, 6))
        shares = (raw / raw.sum()).tolist()
        shares[-1] = 1.0 - sum(shares[:-1])
        shards = partition_workers(data, shares, seed=trial)
        union = np.concatenate([s.features[:, 0] for s in shards])
        assert len(union) == 1000
        assert sorted(union.tolist()) == data.features[:, 0].tolist()
        for shard, share in zip(shards, shares):
            assert abs(shard.sample_count - 1000 * share) <= 1.0


def test_partition_validates_shares():
    data = _random_dataset(np.random.default_rng(3), 10)
    with pytest.raises(ValueError, match="non-empty"):
        partition_workers(data, [], seed=0)
    with pytest.raises(ValueError, match="sum to 1"):
        partition_workers(data, [0.5, 0.4], seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        partition_workers(data, [1.5, -0.5], seed=0)


# Published per-node sizes for the four-worker corpus distribution, including
# the 90/10 split: node 1 ends up with 873,727 training and 97,081 test rows
# out of the 6,472,054-sample corpus.
_CORPUS_TOTAL = 6_472_054
_NODE_SHARES = [0.15, 0.35, 0.30, 0.20]
_NODE_TOTALS = [970_808, 2_265_219, 1_941_616, 1_294_411]


def test_partition_reproduces_published_node_counts():
    counts = _largest_remainder_counts(_CORPUS_TOTAL, np.asarray(_NODE_SHARES))
    assert counts.tolist() == _NODE_TOTALS

    # End to end on the full row count (single feature keeps memory small).
    data = LabeledDataset(
        np.zeros((_CORPUS_TOTAL, 1), dtype=np.float64),
        np.zeros(_CORPUS_TOTAL, dtype=np.int64),
    )
    shards = partition_workers(data, _NODE_SHARES, seed=0)
    assert [s.sample_count for s in shards] == _NODE_TOTALS

    train, test = train_test_split(shards[0], 0.10, seed=0)
    assert (train.sample_count, test.sample_count) == (873_727, 97_081)


def test_feature_layout_matches_declared_order():
    assert FEATURE_NAMES == (
        "duration",
        "protocol",
        "src_port",
        "dst_port",
        "packets",
        "bytes",
        "flags",
    )
    encoded = default_encoding().encode(_one_row())
    enc = default_encoding()
    assert encoded.features[0].tolist() == [
        2.5, enc.protocol_codes["UDP"], 5, 6, 7, 8, enc.flags_codes["......"],
    ]
    assert encoded.labels[0] == 2


# --- Block parser against a frozen copy of the per-row parser ----------------
#
# _oracle_parse is parse_flow_csv as it was before clean rows were read in
# blocks by np.loadtxt: one csv.reader row and one _coerce_row call per line,
# into a FlowTable of tokens.  _frozen_encode is EncodingMap.encode as it was
# before the parser encoded.  The block parser must give the same bytes as
# both together, or the same error, and the same log lines on every input.

_ORACLE_SUFFIX_FACTORS = {"K": 1e3, "M": 1e6}
_ORACLE_COUNT_MAX = 2**63 - 1


def _oracle_parse_count(token, name):
    text = token.strip()
    if not text:
        raise ValueError("empty count")
    factor = _ORACLE_SUFFIX_FACTORS.get(text[-1].upper())
    value = float(text) if factor is None else float(text[:-1].strip()) * factor
    if not math.isfinite(value):
        raise ValueError(f"non-finite {name} {token!r}")
    count = int(round(value))
    if count < 0:
        raise ValueError(f"negative {name} {count}")
    if count > _ORACLE_COUNT_MAX:
        raise ValueError(f"{name} {count} too large")
    return count


def _oracle_parse_port(token):
    port = int(token.strip())
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range")
    return port


def _oracle_coerce_row(row, positions):
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
    packets = _oracle_parse_count(row[positions["packets"]], "packets")
    nbytes = _oracle_parse_count(row[positions["bytes"]], "bytes")
    return (
        duration,
        protocol,
        _oracle_parse_port(row[positions["src_port"]]),
        _oracle_parse_port(row[positions["dst_port"]]),
        packets,
        nbytes,
        flags,
        row[positions["class"]].strip().lower(),
    )


def _oracle_parse(path, column_map):
    """Returns the FlowTable and the two log messages the parser would write."""
    rows, rejects, dropped_classes, messages = [], [], {}, []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [col.strip() for col in next(reader)]
        positions = {canonical: header.index(source) for source, canonical in column_map.items()}
        for row in reader:
            if not row:
                continue
            line_no = reader.line_num
            try:
                coerced = _oracle_coerce_row(row, positions)
            except (ValueError, IndexError) as exc:
                rejects.append((line_no, str(exc)))
                continue
            label = coerced[-1]
            if label not in CLASS_CODES:
                rejects.append((line_no, f"unsupported class {label!r}"))
                dropped_classes[label] = dropped_classes.get(label, 0) + 1
                continue
            rows.append(coerced)
    if dropped_classes:
        messages.append(
            f"dropped rows by unsupported class: {dict(sorted(dropped_classes.items()))}"
        )
    if rejects:
        messages.append(f"rejected {len(rejects)} of {len(rejects) + len(rows)} data rows")
    return FlowTable(*(zip(*rows) if rows else [()] * 8)), messages


def _frozen_lookup(codes, tokens, what):
    try:
        return np.fromiter(map(codes.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    except KeyError as exc:
        raise ValueError(f"{what} token {exc.args[0]!r}") from None


def _frozen_encode(table):
    encoding = default_encoding()
    protocol = _frozen_lookup(encoding.protocol_codes, table.protocol, "unseen protocol")
    flags = _frozen_lookup(encoding.flags_codes, table.flags, "unseen flags")
    ports_counts = [table.src_port, table.dst_port, table.packets, table.bytes]
    features = np.column_stack([table.duration, protocol, *ports_counts, flags])
    labels = _frozen_lookup(CLASS_CODES, table.label, "unknown class")
    return LabeledDataset(features, labels)


def _assert_same_bytes(ours: LabeledDataset, theirs: LabeledDataset):
    assert ours.features.shape == theirs.features.shape
    assert ours.features.tobytes() == theirs.features.tobytes()
    assert ours.labels.tobytes() == theirs.labels.tobytes()


_GOOD_TOKENS = {
    "duration": ["0.5", "1.25", "3", "1e-3", "12.0", "0", "-0.0", " 2.5 "],
    "protocol": ["TCP", "UDP", "ICMP", " GRE", "IGMP "],
    "src_port": ["80", "52128", "0", "65535", "+5", " 7 "],
    "dst_port": ["22", "53", "443", "0"],
    "packets": ["1", "7", "1.5", "2.5", "-0.4", "1e3", " 12 "],
    "bytes": ["66", "532", "4096", str(2**53 + 1), "0.5", "1e18"],
    "flags": [".AP.SF", "......", "....S.", " .A.... "],
    "class": ["normal", "attacker", "victim", "Normal", " ATTACKER ", "victim "],
}
# Each value breaks a row rule, or np.loadtxt cannot convert it and sends its block
# to the per-row path.
_BAD_TOKENS = {
    "duration": ["nan", "inf", "-1", "abc", "", "1_0", "-inf"],
    "protocol": ["", "   "],
    "src_port": ["65536", "70000", "-1", "1_000", "5.0", "1e3", "", "0x10", "99999999999999999999"],
    "dst_port": ["٣", "3 4"],
    "packets": ["2.1 M", "4.5 k", "nan", "inf", "-2", "", "1_000"],
    "bytes": [str(2**63), "1e400", "4.5 K", "1e19", "-0.6"],
    "flags": ["", " "],
}
_SKEWED_CLASSES = ["suspicious", "unknown", "x" * 40, " Suspicious "]
# Columns in a CIDDS-like order with addresses and a date in between.
_ORACLE_HEADER = [
    "Date first seen", "Duration", "Proto", "Src IP Addr", "Src Pt", "Dst IP Addr",
    "Dst Pt", "Packets", "Bytes", "Flags", "class",
]
_ORACLE_SLOTS = [None, "duration", "protocol", None, "src_port", None, "dst_port",
                 "packets", "bytes", "flags", "class"]
_ORACLE_MAP = {src: dst for src, dst in zip(_ORACLE_HEADER, _ORACLE_SLOTS) if dst}


def _random_line(rng, bad_rate):
    fields = []
    for slot in _ORACLE_SLOTS:
        if slot is None:
            fields.append("2017-03-15 00:01:16" if not fields else "192.168.100.5")
        elif slot == "class":
            pool = _SKEWED_CLASSES if rng.random() < 0.1 else _GOOD_TOKENS["class"]
            fields.append(pool[rng.integers(len(pool))])
        elif slot in _BAD_TOKENS and rng.random() < bad_rate:
            fields.append(_BAD_TOKENS[slot][rng.integers(len(_BAD_TOKENS[slot]))])
        else:
            fields.append(_GOOD_TOKENS[slot][rng.integers(len(_GOOD_TOKENS[slot]))])
    odd = rng.random()
    if odd < 0.02:
        fields = fields[: rng.integers(1, len(fields))]  # short row
    elif odd < 0.04:
        fields = fields + ["extra", "wide"]
    line = ",".join(fields)
    if rng.random() < 0.01:
        line = "#" + line
    return line


def _oracle_file(rng, n_rows, newline, bad_rate, tail_quotes):
    lines = [",".join(_ORACLE_HEADER)]
    for _ in range(n_rows):
        roll = rng.random()
        if roll < 0.02:
            lines.append("")
        elif roll < 0.03:
            lines.append("   ")
        else:
            lines.append(_random_line(rng, bad_rate))
    if tail_quotes:
        # Quoted fields holding a newline, a comma and a doubled quote.  With
        # _BLOCK_LINES 7 a block ends on line 7k + 1 (the header is line 1),
        # which is where the field spanning two lines starts.
        quoted = [
            '"2017\n03",0.5,UDP,a,53,b,53,1,66,......,attacker',
            '2017-03-15,0.5,"TCP",a,80,b,22,7,532,".AP.SF",normal',
            '2017-03-15,0.5,TCP,"a,b",80,b,22,7,532,......,"vic""tim"',
            '2017-03-15,0.25,TCP,a,80,b,22,7,532,......,normal',
        ]
        while len(lines) % 7 != 0:
            lines.append(_random_line(rng, 0.0))
        lines.extend(quoted)
        lines.extend(_random_line(rng, bad_rate) for _ in range(9))
    return newline.join(lines) + (newline if rng.random() < 0.5 else "")


def _assert_same_parse(path, tmp_path, caplog, column_map):
    """The parse against the oracle's table through _frozen_encode: the same bytes or,
    where _frozen_encode raises, the same error; the same log lines.
    Returns the parse, or None after an error."""
    table, expected_messages = _oracle_parse(path, column_map)
    try:
        expected = _frozen_encode(table)
    except ValueError as exc:
        expected = exc
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="segfl.flowdata"):
        if isinstance(expected, ValueError):
            with pytest.raises(ValueError) as ours:
                parse_flow_csv(path, column_map)
            assert str(ours.value) == str(expected)
            shard = None
        else:
            shard = parse_flow_csv(path, column_map)
            _assert_same_bytes(shard, expected)
    assert [record.getMessage() for record in caplog.records] == expected_messages
    return shard


@pytest.mark.parametrize("seed", range(8))
def test_block_parser_matches_the_per_row_oracle(seed, tmp_path, caplog, monkeypatch):
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 7)
    fast_blocks = []
    parse_block = flowdata._parse_block
    monkeypatch.setattr(
        flowdata, "_parse_block",
        lambda *args: fast_blocks.append(parse_block(*args)) or fast_blocks[-1],
    )
    rng = np.random.default_rng(seed)
    path = tmp_path / "flows.csv"
    newline = "\r\n" if seed % 2 else "\n"
    bad_rate = 0.0 if seed == 0 else 0.03
    path.write_bytes(_oracle_file(rng, 300, newline, bad_rate, seed >= 2).encode())
    shard = _assert_same_parse(path, tmp_path, caplog, _ORACLE_MAP)
    assert len(shard) > 100
    # Both paths ran: some blocks by loadtxt, some row by row.
    assert any(block is not None for block in fast_blocks)
    assert seed == 0 or any(block is None for block in fast_blocks)


def test_block_parser_matches_the_oracle_on_edge_files(tmp_path, caplog):
    header = ",".join(FEATURE_NAMES) + ",class"
    row = "0.5,TCP,80,22,7,532,.AP.SF,normal"
    for text in [
        header,  # no data rows
        header + "\n",
        header + "\n\n\n",
        header + "\n" + row,  # no final newline
        header + "\r" + row + "\r" + row.replace("normal", "unknown") + "\r",
        header + "\n" + row + "\n" + row.replace("TCP", "TCP\x00") + "\n",
        header + "\n" + row.replace("TCP", "T" * 200_000) + "\n",  # past csv's field limit
        header + "\n" + row.replace(".AP.SF", ".AP.SF \x0c") + "\n",
        '"dur\nation",protocol,src_port,dst_port,packets,bytes,flags,class\n' + row,
    ]:
        path = tmp_path / "edge.csv"
        path.write_bytes(text.encode())
        column_map = dict(CANONICAL_COLUMN_MAP)
        if text.startswith('"'):
            column_map["dur\nation"] = column_map.pop("duration")
        try:
            _oracle_parse(path, column_map)
        except csv.Error as exc:  # the field limit, and NUL before Python 3.11
            with pytest.raises(csv.Error, match=re.escape(str(exc))):
                parse_flow_csv(path, column_map)
            continue
        shard = _assert_same_parse(path, tmp_path, caplog, column_map)
        # From Python 3.11 csv reads a NUL, and 'TCP\x00' has no protocol code.
        assert (shard is None) == ("\x00" in text)


def test_unsupported_classes_in_a_fast_block_are_counted_by_class(tmp_path, caplog, monkeypatch):
    def no_per_row_path(*args):
        raise AssertionError("the block should not need the per-row path")

    monkeypatch.setattr(flowdata, "_coerce_rows", no_per_row_path)
    path = tmp_path / "flows.csv"
    padded = _ROWS[3].replace(",suspicious", ", Suspicious ")  # cleans to 'suspicious'
    path.write_text(
        _HEADER + "\n"
        + "\n".join([*(_ROWS[i] for i in (0, 3, 7, 4, 0)), padded, _ROWS[3], _ROWS[7]])
        + "\n"
    )
    with caplog.at_level(logging.INFO, logger="segfl.flowdata"):
        shard = parse_flow_csv(path, _COLUMN_MAP)
    kept = ("normal", "victim", "normal", "victim")
    assert shard.labels.tolist() == [CLASS_CODES[c] for c in kept]
    assert caplog.messages == [
        "dropped rows by unsupported class: {'suspicious': 3, 'unknown': 1}",
        "rejected 4 of 8 data rows",
    ]


def _good_fields(rng):
    """The fields of a _ORACLE_HEADER data line that every parser path accepts."""
    return [
        ("2017-03-15 00:01:16" if i == 0 else "192.168.100.5")
        if slot is None
        else _GOOD_TOKENS[slot][rng.integers(len(_GOOD_TOKENS[slot]))]
        for i, slot in enumerate(_ORACLE_SLOTS)
    ]


def test_block_parser_cleans_padded_tokens_to_their_codes(tmp_path, monkeypatch):
    def no_per_row_path(*args):
        raise AssertionError("every block should be read by np.loadtxt")

    monkeypatch.setattr(flowdata, "_coerce_rows", no_per_row_path)
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 50)  # 6 blocks
    rng = np.random.default_rng(11)
    lines = [",".join(_ORACLE_HEADER)] + [",".join(_good_fields(rng)) for _ in range(300)]
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    shard = parse_flow_csv(path, _ORACLE_MAP)
    assert len(shard) == 300
    # " GRE" and "GRE", or " ATTACKER " and "attacker", clean to one token and one code.
    table, _ = _oracle_parse(path, _ORACLE_MAP)
    _assert_same_bytes(shard, _frozen_encode(table))


def test_token_converters_are_keyed_by_file_column(tmp_path, caplog, monkeypatch):
    # np.loadtxt reads the columns in usecols order, by file column.  Were a token field
    # read from another column, a count would be read as a token and every token column
    # coded wrongly, or the protocol column read as a number and every block refused.
    def no_per_row_path(*args):
        raise AssertionError("every block should be read by np.loadtxt")

    monkeypatch.setattr(flowdata, "_coerce_rows", no_per_row_path)
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 40)  # 5 blocks
    header = ["Label", "Note", "Flags", "Bytes", "Dst", "Proto", "Packets", "Dur", "Src"]
    slots = ["class", None, "flags", "bytes", "dst_port", "protocol", "packets", "duration",
             "src_port"]
    rng = np.random.default_rng(5)
    lines = [",".join(header)]
    for i in range(200):
        fields = [
            _GOOD_TOKENS[slot][rng.integers(len(_GOOD_TOKENS[slot]))] if slot else f"note {i}"
            for slot in slots
        ]
        if i % 17 == 3:
            fields[0] = " Suspicious "  # dropped, and counted, on the fast path
        lines.append(",".join(fields))
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    column_map = {source: name for source, name in zip(header, slots) if name}
    shard = _assert_same_parse(path, tmp_path, caplog, column_map)
    assert len(shard) == 188
    assert caplog.messages[0] == "dropped rows by unsupported class: {'suspicious': 12}"


@pytest.mark.parametrize("reader", ["np.loadtxt", "csv.reader"])
def test_tokens_of_refused_rows_name_no_error_and_no_dropped_class(
    reader, tmp_path, caplog, monkeypatch
):
    # A skipped row's tokens enter the code tables first: np.loadtxt and _coerce_row
    # code every token of a row they convert, and _accepted skips the row by its rules
    # after that.  The first unseen protocol and the dropped classes are still those of
    # accepted rows, in file order.
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 4)
    reads = []  # (line count, read by np.loadtxt) of each _parse_block call
    parse_block = flowdata._parse_block

    def recorded_block(lines, *args):
        columns = parse_block(lines, *args)
        reads.append((len(lines), columns is not None))
        return columns

    monkeypatch.setattr(flowdata, "_parse_block", recorded_block)
    good = "0.5,TCP,80,22,7,532,.AP.SF,normal"
    first_seen = [
        "0.5, SCTP ,80,22,7,532,.AP.SF,normal",
        "0.5,TCP,80,22,7,532,.A....,Suspicious",
    ]
    # np.loadtxt cannot read "7 K", so the block goes row by row.
    block_2 = [good, "-1,QUIC,80,22,7 K,532,.AP.SF,unknown", good, good]
    if reader == "np.loadtxt":
        block_3 = [*first_seen, good, good]  # in the next block, which np.loadtxt reads
    else:
        block_3 = [
            '0.5,TCP,80,22,7,532,".A....",normal',  # csv.reader takes the rest of the file
            "0.5,DCCP,80,22,nan,532,.AP.SF,unknown",
            *first_seen, good,
        ]
    path = tmp_path / "flows.csv"
    lines = [",".join(FEATURE_NAMES) + ",class", *[good] * 4, *block_2, *block_3]
    path.write_text("\n".join(lines) + "\n")

    table, messages = _oracle_parse(path, CANONICAL_COLUMN_MAP)
    assert messages[0] == "dropped rows by unsupported class: {'suspicious': 1}"
    with pytest.raises(ValueError, match="unseen protocol token 'SCTP'"):
        _frozen_encode(table)
    assert _assert_same_parse(path, tmp_path, caplog, CANONICAL_COLUMN_MAP) is None
    assert reads == [(4, True), (4, False), (4, True)][: 3 if reader == "np.loadtxt" else 2]


def _fast_path_only(monkeypatch):
    def no_per_row_path(*args):
        raise AssertionError("every block should be read by np.loadtxt")

    monkeypatch.setattr(flowdata, "_coerce_rows", no_per_row_path)


def _recorded_reads(monkeypatch):
    """Patches the parser to record, in order, (line count, read by np.loadtxt) for each
    _parse_block call and "row by row" for each _coerce_rows call; returns that list."""
    events = []
    parse_block, coerce_rows = flowdata._parse_block, flowdata._coerce_rows

    def recorded_block(lines, *args):
        columns = parse_block(lines, *args)
        events.append((len(lines), columns is not None))
        return columns

    def recorded_rows(*args):
        events.append("row by row")
        return coerce_rows(*args)

    monkeypatch.setattr(flowdata, "_parse_block", recorded_block)
    monkeypatch.setattr(flowdata, "_coerce_rows", recorded_rows)
    return events


def test_a_cidds_shaped_file_stays_on_the_fast_path(tmp_path, caplog, monkeypatch):
    # Unsupported classes, padded protocols and classes in any case, as CIDDS-001 exports
    # hold them: np.loadtxt reads every block, and table lookups code its tokens.
    _fast_path_only(monkeypatch)
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 64)
    rng = np.random.default_rng(3)
    lines = [",".join(_ORACLE_HEADER)]
    for _ in range(600):
        fields = _good_fields(rng)
        roll = rng.random()
        if roll < 0.10:
            fields[-1] = "suspicious"
        elif roll < 0.12:
            fields[-1] = "unknown"
        else:
            fields[-1] = ("normal", "Normal", "attacker", "VICTIM")[rng.integers(4)]
        if rng.random() < 0.05:
            fields[_ORACLE_SLOTS.index("protocol")] = " TCP "
        lines.append(",".join(fields))
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    shard = _assert_same_parse(path, tmp_path, caplog, _ORACLE_MAP)
    assert 450 < len(shard) < 570
    assert re.fullmatch(
        r"dropped rows by unsupported class: \{'suspicious': \d+, 'unknown': \d+\}",
        caplog.messages[0],
    )


def test_latin1_tokens_are_read_and_wider_characters_refuse_their_block(
    tmp_path, caplog, monkeypatch
):
    # np.loadtxt reads a token as latin-1 bytes: 'é' is one byte, read on the fast path,
    # and '€' is none, so its block goes row by row.
    header = ",".join(FEATURE_NAMES) + ",class"
    good = "0.5,TCP,80,22,7,532,.AP.SF,normal"
    path = tmp_path / "flows.csv"
    with monkeypatch.context() as patched:
        _fast_path_only(patched)
        path.write_bytes("\n".join([header, good, good.replace("TCP", "TCPé"), good, ""]).encode())
        assert _assert_same_parse(path, tmp_path, caplog, CANONICAL_COLUMN_MAP) is None
        with pytest.raises(ValueError, match="^unseen protocol token 'TCPé'$"):
            parse_flow_csv(path, CANONICAL_COLUMN_MAP)

    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 4)
    reads = _recorded_reads(monkeypatch)
    euro = good.replace("normal", " Normal€ ")
    lines = [header, *[good] * 4, good, good, euro, good.replace("normal", "Suspicious é")]
    path.write_bytes(("\n".join(lines) + "\n").encode())
    shard = _assert_same_parse(path, tmp_path, caplog, CANONICAL_COLUMN_MAP)
    assert len(shard) == 6
    assert caplog.messages[0] == (
        "dropped rows by unsupported class: {'normal€': 1, 'suspicious é': 1}"
    )
    assert reads == [(4, True), (4, False), "row by row"]


def test_tokens_of_16_bytes_or_more_send_their_block_row_by_row(
    tmp_path, caplog, monkeypatch
):
    # np.loadtxt reads a token into 16 bytes and cuts a longer one silently, so a token
    # that fills them refuses its block: the row path names the 40-byte class whole.
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 8)
    reads = _recorded_reads(monkeypatch)
    good = "0.5,TCP,80,22,7,532,.AP.SF,normal"
    classes = ["a" * 15, "b" * 16, "c" * 40]
    lines = [",".join(FEATURE_NAMES) + ",class"]
    for name in classes:  # one block each, the token in its sixth line
        lines += [good] * 5 + [good.replace("normal", name)] + [good] * 2
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    shard = _assert_same_parse(path, tmp_path, caplog, CANONICAL_COLUMN_MAP)
    assert len(shard) == 21
    assert caplog.messages[0] == (
        f"dropped rows by unsupported class: {dict.fromkeys(classes, 1)}"
    )
    refused = [(8, False), "row by row"]
    assert reads == [(8, True), *refused, *refused]


def test_tokens_that_share_their_first_8_bytes_keep_their_own_codes(
    tmp_path, caplog, monkeypatch
):
    # The lookup table is sorted by a token's first 8 bytes, so these find one entry by
    # them, and only the second 8 bytes tell 'attacker' from 'attackers' or 'attacker '.
    _fast_path_only(monkeypatch)
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 4)
    good = "0.5,TCP,80,22,7,532,.AP.SF,"
    classes = ["attackers", "attacker", "attacker ", "attacker2", "attacker", "attackers"] * 3
    lines = [",".join(FEATURE_NAMES) + ",class", *(good + name for name in classes)]
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    shard = _assert_same_parse(path, tmp_path, caplog, CANONICAL_COLUMN_MAP)
    assert len(shard) == 9
    assert caplog.messages[0] == (
        "dropped rows by unsupported class: {'attacker2': 3, 'attackers': 6}"
    )


def test_a_vocabulary_only_file_is_coded_without_a_missed_token(tmp_path, monkeypatch):
    # Each parse's tables start with the vocabulary's own tokens, so a file that holds
    # only those never codes a token one at a time.
    path = tmp_path / "flows.csv"
    write_flow_csv(to_records(generate(make_profile(), 5_000, seed=4)), path)
    table, _ = _oracle_parse(path, CANONICAL_COLUMN_MAP)

    def no_missed_token(self, raw):
        raise AssertionError(f"{raw!r} is not in the table it started with")

    _fast_path_only(monkeypatch)
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 1000)
    monkeypatch.setattr(flowdata._TokenCodes, "__missing__", no_missed_token)
    _assert_same_bytes(parse_flow_csv(path, CANONICAL_COLUMN_MAP), _frozen_encode(table))


def test_a_new_raw_token_is_cleaned_once_however_often_it_repeats(tmp_path, caplog, monkeypatch):
    # The empty-token rule, the class filter and the code lookup run in __missing__, once
    # per distinct raw token: a repeat in its own block or a later one finds that entry.
    cleaned = []
    missing = flowdata._TokenCodes.__missing__

    def counted(self, raw):
        cleaned.append(raw)
        return missing(self, raw)

    _fast_path_only(monkeypatch)
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 4)  # 3 blocks
    monkeypatch.setattr(flowdata._TokenCodes, "__missing__", counted)
    protocols = ["TCP  ", "UDP", "TCP  ", "TCP"] * 3
    classes = [
        "suspicious", "normal", "Unknown", "suspicious",
        "Unknown", "attacker", "suspicious", "Unknown",
        "victim", "suspicious", "Unknown", "normal",
    ]
    lines = [",".join(FEATURE_NAMES) + ",class"] + [
        f"0.5,{protocol},80,22,7,532,.AP.SF,{label}"
        for protocol, label in zip(protocols, classes)
    ]
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    shard = _assert_same_parse(path, tmp_path, caplog, CANONICAL_COLUMN_MAP)
    assert sorted(cleaned) == sorted(["TCP  ", "suspicious", "Unknown"])
    kept = ("normal", "attacker", "victim", "normal")
    assert shard.labels.tolist() == [CLASS_CODES[c] for c in kept]
    assert caplog.messages == [
        "dropped rows by unsupported class: {'suspicious': 4, 'unknown': 4}",
        "rejected 8 of 12 data rows",
    ]


def test_a_token_with_a_nul_codes_no_token_without_it(tmp_path, caplog, monkeypatch):
    # From Python 3.11 csv.reader keeps a NUL, so 'Normal' and a NUL is an unsupported
    # class.  np.loadtxt's 'Normal' in the next block has the same 16 bytes, padding
    # being NULs, and must still be coded as 'normal'.
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 4)
    good = "0.5,TCP,80,22,7,532,.AP.SF,attacker"
    lines = [
        ",".join(FEATURE_NAMES) + ",class",
        good.replace("attacker", "Normal\x00"), good, good, good,  # read row by row
        *[good.replace("attacker", "Normal")] * 4,  # read by np.loadtxt
    ]
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    try:
        _oracle_parse(path, CANONICAL_COLUMN_MAP)
    except csv.Error as exc:  # NUL before Python 3.11
        with pytest.raises(csv.Error, match=re.escape(str(exc))):
            parse_flow_csv(path, CANONICAL_COLUMN_MAP)
        return
    shard = _assert_same_parse(path, tmp_path, caplog, CANONICAL_COLUMN_MAP)
    assert shard.labels.tolist() == [CLASS_CODES["attacker"]] * 3 + [CLASS_CODES["normal"]] * 4


def test_parse_scratch_memory_stays_under_one_large_block(tmp_path):
    # 40,000 rows fit one 65,536-line block, whose line list, record array and
    # per-field strs need about 17 MiB beyond the shard; 16,384-line blocks about 4,
    # and 4,096-line blocks about 1.
    path = tmp_path / "flows.csv"
    write_flow_csv(to_records(generate(make_profile(), 40_000, seed=0)), path)
    tracemalloc.start()
    try:
        shard = parse_flow_csv(path, CANONICAL_COLUMN_MAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(shard) == 40_000
    assert peak - (shard.features.nbytes + shard.labels.nbytes) < 2 * 2**20


def test_a_quoted_file_is_parsed_in_bounded_blocks(tmp_path):
    # One quoted field in the first data row sends the whole file through csv.reader;
    # it is read a block at a time, so its scratch memory stays near the unquoted parse's.
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_flow_csv(to_records(generate(make_profile(), 50_000, seed=0)), plain)
    header, first, rest = plain.read_text().split("\n", 2)
    duration, tail = first.split(",", 1)
    quoted.write_text(f'{header}\n"{duration}",{tail}\n{rest}')
    peaks = []
    for path in (plain, quoted):
        tracemalloc.start()
        try:
            shard = parse_flow_csv(path, CANONICAL_COLUMN_MAP)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(shard) == 50_000
    assert peaks[1] < 2 * peaks[0], [peak / 2**20 for peak in peaks]


_DURATION = _ORACLE_SLOTS.index("duration")
_PACKETS = _ORACLE_SLOTS.index("packets")


@pytest.mark.parametrize("placement", ["block ends", "mid-block", "every 100th"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_a_block_with_an_unconvertible_field_goes_row_by_row(
    placement, newline, tmp_path, caplog, monkeypatch
):
    block, n_rows = 64, 700
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", block)
    events = []  # (first row, row count, read by np.loadtxt), or "row by row"
    parse_block, coerce_rows = flowdata._parse_block, flowdata._coerce_rows

    def recorded_block(lines, *args):
        columns = parse_block(lines, *args)
        events.append((row_of[lines[0]], len(lines), columns is not None))
        return columns

    def recorded_rows(*args):
        events.append("row by row")
        return coerce_rows(*args)

    monkeypatch.setattr(flowdata, "_parse_block", recorded_block)
    monkeypatch.setattr(flowdata, "_coerce_rows", recorded_rows)
    bad = {
        "block ends": range(block - 1, n_rows, block),
        "mid-block": range(block // 2 + 5, n_rows, block),
        "every 100th": range(99, n_rows, 100),
    }[placement]
    kind_of = {row: n % 4 for n, row in enumerate(bad)}  # each placement holds every kind
    rng = np.random.default_rng(len(placement))
    lines = [",".join(_ORACLE_HEADER)]
    for i in range(n_rows):
        fields = _good_fields(rng)
        fields[_ORACLE_SLOTS.index(None, 1)] = f"10.0.{i // 256}.{i % 256}"  # a unique line
        kind = kind_of.get(i)
        if kind == 0:
            fields[_DURATION] = "abc"  # np.loadtxt refuses the block
        elif kind == 1:
            fields[_DURATION] = "-1"  # np.loadtxt reads it, and the row is skipped
        elif kind == 2:
            fields = fields[:_DURATION + 2]  # a short row
        elif kind == 3:
            fields[_PACKETS] = "7 K"  # np.loadtxt refuses the block, and the row is kept
        lines.append(",".join(fields))
    row_of = {line + newline: i for i, line in enumerate(lines[1:])}
    path = tmp_path / "flows.csv"
    path.write_bytes((newline.join(lines) + newline).encode())

    shard = _assert_same_parse(path, tmp_path, caplog, _ORACLE_MAP)
    skipped = [i for i in bad if kind_of[i] != 3]  # the "abc", "-1" and short rows
    assert len(shard) == n_rows - len(skipped)
    assert caplog.messages == [f"rejected {len(skipped)} of {n_rows} data rows"]
    # Each block is tried whole by np.loadtxt, and only a block holding an unconvertible
    # field goes row by row; a "-1" duration refuses no block, nor do its neighbours.
    refusing = {i for i in bad if kind_of[i] != 1}  # the "abc", short and "7 K" rows
    expected, kept_minus_1 = [], 0
    for start in range(0, n_rows, block):
        rows = set(range(start, min(start + block, n_rows)))
        expected.append((start, len(rows), not rows & refusing))
        expected += ["row by row"] * bool(rows & refusing)
        kept_minus_1 += bool(rows & set(bad)) and not rows & refusing
    assert events == expected
    assert events.count("row by row") == len({i // block for i in refusing}) > 0
    assert kept_minus_1 > 0


def test_rows_that_break_a_rule_are_skipped_alike_by_both_readers(
    tmp_path, caplog, monkeypatch
):
    # np.loadtxt converts every field below, so the plain file stays on the fast path;
    # a quoted copy goes through csv.reader and _coerce_row.  One side of each rule's
    # bound is kept and the other skipped, the same rows by both readers.
    header = ",".join(FEATURE_NAMES) + ",class"
    good = dict(zip(header.split(","), "0.5,TCP,80,22,7,532,.AP.SF,normal".split(",")))

    def line(**values):
        return ",".join({**good, **values}.values())

    largest_count = "9223372036854774784"  # the largest float64 below 2**63
    kept = [
        line(duration="-0.0"),
        *(line(**{port: "65535"}) for port in ("src_port", "dst_port")),
        *(line(**{count: value}) for count in ("packets", "bytes")
          for value in ("-0.4", largest_count)),  # -0.4 rounds to +0.0
    ]
    skipped = [
        *(line(duration=value) for value in ("-1", "nan", "inf")),
        *(line(**{port: value}) for port in ("src_port", "dst_port") for value in ("65536", "-1")),
        *(line(**{count: value}) for count in ("packets", "bytes")
          for value in ("-0.6", "nan", str(2**63))),
        line(duration="-1", **{"class": "unknown"}),  # skipped, not dropped by class
    ]
    rows = [*kept, line(**{"class": "unknown"}), *skipped]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text("\n".join([header, *rows]) + "\n")
    quoted.write_text("\n".join([header, rows[0].replace(",normal", ',"normal"'), *rows[1:]])
                      + "\n")

    def no_per_row_path(*args):
        raise AssertionError("np.loadtxt should read every row")

    shards = []
    for path in (plain, quoted):
        with monkeypatch.context() as patched:
            if path == plain:
                patched.setattr(flowdata, "_coerce_rows", no_per_row_path)
            shards.append(_assert_same_parse(path, tmp_path, caplog, CANONICAL_COLUMN_MAP))
        assert caplog.messages == [
            "dropped rows by unsupported class: {'unknown': 1}",
            f"rejected {len(skipped) + 1} of {len(rows)} data rows",
        ]
    assert len(shards[0]) == len(kept)
    assert not np.signbit(shards[0].features[:, 4:6]).any()  # counts, -0.4 as +0.0
    _assert_same_bytes(shards[1], shards[0])


# --- Encoded parse and in-place preparation against the frozen pipeline -----
#
# Before rows were encoded as they were parsed and training rows compacted in
# place, a flow file went through a FlowTable (the per-row oracle above reads
# the same table), EncodingMap.encode's matrix, and copies for the split, the
# scaled training rows and the validation split.  _frozen_encode and
# _frozen_prepare are those steps as they were; the new path must give the
# same bytes, log lines and errors.


def _frozen_split(dataset, test_fraction, seed):
    labels = dataset.labels
    classes = np.unique(labels)
    n = dataset.sample_count
    total_test = int(round(n * test_fraction))
    class_sizes = np.array([(labels == cls).sum() for cls in classes], dtype=np.float64)
    per_class = _largest_remainder_counts(total_test, class_sizes)
    rng = np.random.default_rng(seed)
    test_idx = []
    for cls, take in zip(classes, per_class):
        members = np.flatnonzero(labels == cls)
        test_idx.append(members[rng.permutation(len(members))[:take]])
    test_mask = np.zeros(n, dtype=bool)
    test_mask[np.concatenate(test_idx)] = True
    return dataset.subset(np.flatnonzero(~test_mask)), dataset.subset(np.flatnonzero(test_mask))


def _frozen_prepare(config, wid, shard):
    """(train, validation, test, sample_count) as the orchestrator made them."""
    train_raw, test_raw = _frozen_split(
        shard, config.test_fraction, derive_seed(config.seed, "split", wid)
    )
    mins = train_raw.features.min(axis=0)
    ranges = train_raw.features.max(axis=0) - mins

    def scaled(dataset):
        varying = ranges > 0
        features = np.asarray(dataset.features, dtype=np.float64) - mins
        features /= np.where(varying, ranges, 1.0)
        features[..., ~varying] = 0.0
        return LabeledDataset(features, dataset.labels.copy())

    slim = nearmiss3_undersample(scaled(train_raw), config.resample)
    val_seed = derive_seed(config.seed, "val", wid)
    train, validation = _frozen_split(slim, VALIDATION_FRACTION, val_seed)
    return train, validation, scaled(test_raw), slim.sample_count


@pytest.mark.parametrize("target_ratio", [1.0, 2.0])  # NearMiss-3 drops rows; keeps the shard
@pytest.mark.parametrize("seed", range(4))
def test_encoded_parse_and_preparation_match_the_frozen_pipeline(
    seed, target_ratio, tmp_path, caplog, monkeypatch
):
    # Blank lines, CRLF or LF, a quoted block read row by row, unsupported classes
    # and rejected rows, over many 7-line blocks.
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 7)
    rng = np.random.default_rng(100 + seed)
    path = tmp_path / "flows.csv"
    newline = "\r\n" if seed % 2 else "\n"
    path.write_bytes(_oracle_file(rng, 600, newline, 0.03, True).encode())
    with caplog.at_level(logging.INFO, logger="segfl.flowdata"):
        shard = parse_flow_csv(path, _ORACLE_MAP)
    messages = [record.getMessage() for record in caplog.records]
    table, expected_messages = _oracle_parse(path, _ORACLE_MAP)
    assert messages == expected_messages
    expected = _frozen_encode(table)
    _assert_same_bytes(shard, expected)
    assert len(shard) == len(table) > 400

    config = ExperimentConfig(resample=ResampleConfig(3, target_ratio), seed=seed)
    buffer = shard.features
    worker = _prepare_worker(config, 1, shard)
    train, validation, test, sample_count = _frozen_prepare(config, 1, expected)
    _assert_same_bytes(worker.train, train)
    _assert_same_bytes(worker.validation, validation)
    _assert_same_bytes(worker.test, test)
    assert worker.sample_count == sample_count
    n_train = len(expected) - len(test)
    if target_ratio == 1.0:
        assert sample_count < n_train
    else:  # nothing dropped: the training rows stayed in the parsed buffer
        assert sample_count == n_train
        assert worker.train.features is buffer


def test_encoded_parse_names_the_first_unseen_token_as_encode_did(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 4)
    header = ",".join(FEATURE_NAMES) + ",class"
    good = "0.5,TCP,80,22,7,532,.AP.SF,normal"
    lines = [
        good,
        "0.5,QUIC,80,22,7,532,.AP.SF,suspicious",  # rejected: its protocol never counts
        "0.5,TCP,80,22,7,532,XYZ,victim",  # the first unseen flags, in the first block
        good,
        good.replace("532", "2.1 M"),  # a block read row by row
        "0.5,TCP,80,22,7,532, QRS ,attacker",
        '0.5,TCP,80,22,7,532,".A....",normal',  # the rest of the file goes through csv
        "0.5, SCTP ,80,22,7,532,.AP.SF,victim",  # the first unseen protocol
        "0.5,DCCP,80,22,7,532,.AP.SF,normal",
        "abc,TCP,80,22,7,532,.AP.SF,normal",
    ]
    errors = []
    for kept in (lines, [line for line in lines if "SCTP" not in line and "DCCP" not in line]):
        path = tmp_path / "flows.csv"
        path.write_text("\r\n".join([header, *kept, ""]))
        caplog.clear()
        table, expected_messages = _oracle_parse(path, CANONICAL_COLUMN_MAP)
        with pytest.raises(ValueError) as frozen:
            _frozen_encode(table)
        with caplog.at_level(logging.INFO, logger="segfl.flowdata"):
            with pytest.raises(ValueError) as ours:
                parse_flow_csv(path, CANONICAL_COLUMN_MAP)
        assert str(ours.value) == str(frozen.value)
        assert [record.getMessage() for record in caplog.records] == expected_messages
        errors.append(str(ours.value))
    assert errors == ["unseen protocol token 'SCTP'", "unseen flags token 'XYZ'"]
