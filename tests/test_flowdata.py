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
    table = parse_flow_csv(flow_csv, _COLUMN_MAP)
    assert len(table) == 4
    assert table.label.tolist() == ["normal", "normal", "attacker", "victim"]
    assert [column[0] for column in table.columns()] == [
        0.5, "TCP", 52128, 80, 7, 532, ".AP.SF", "normal",
    ]
    assert table.duration.dtype == np.float64
    for column in (table.src_port, table.dst_port, table.packets, table.bytes):
        assert column.dtype == np.int64


def test_parse_expands_magnitude_suffixes(flow_csv):
    # Hand-expanded values: "2.1 M" -> 2_100_000 and "4.5 K" -> 4_500.
    table = parse_flow_csv(flow_csv, _COLUMN_MAP)
    assert table.bytes[1] == 2_100_000
    assert table.bytes[2] == 4_500


def test_parse_drops_unsupported_classes_and_records_rejects(flow_csv, tmp_path):
    rejects = tmp_path / "rejects.txt"
    table = parse_flow_csv(flow_csv, _COLUMN_MAP, rejects_path=rejects)
    assert len(table) == 4

    lines = rejects.read_text().splitlines()
    # Header is file line 1, so data row i sits on line i + 1.
    by_line = {int(line.split("\t")[0]): line.split("\t")[1] for line in lines}
    assert set(by_line) == {5, 6, 7, 8, 10, 11, 12, 13}
    assert "suspicious" in by_line[5]
    assert "unknown" in by_line[6]
    assert "port" in by_line[7]
    assert "duration" in by_line[8]
    assert by_line[10] == "non-finite packets 'inf'"
    assert by_line[11] == "non-finite bytes '1e400'"
    assert by_line[12] == "non-finite packets 'nan'"
    assert by_line[13].startswith("bytes 1000000000000000019884624838656 ")  # beyond int64


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
    table = parse_flow_csv(flow_csv, _COLUMN_MAP)
    rewritten = tmp_path / "rewritten.csv"
    write_flow_csv(table, rewritten)
    again = parse_flow_csv(rewritten, CANONICAL_COLUMN_MAP)
    for ours, theirs in zip(table.columns(), again.columns(), strict=True):
        assert ours.dtype == theirs.dtype
        assert ours.tolist() == theirs.tolist()

    encoding = default_encoding()
    first, second = encoding.encode(table), encoding.encode(again)
    assert np.array_equal(first.features, second.features)
    assert np.array_equal(first.labels, second.labels)


def test_label_codes_are_fixed_and_roundtrip():
    encoding = default_encoding()
    assert encoding.protocol_codes == {"GRE": 0, "ICMP": 1, "IGMP": 2, "TCP": 3, "UDP": 4}
    assert encoding.label_codes == {"normal": 0, "attacker": 1, "victim": 2}
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
    scaled = scale_dataset(data, fit_scaler(data))
    assert scaled.features.min() >= 0.0
    assert scaled.features.max() <= 1.0
    assert np.array_equal(scaled.labels, data.labels)


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
    a_train, a_test = train_test_split(data, 0.25, seed=42)
    b_train, b_test = train_test_split(data, 0.25, seed=42)
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
        _, test = train_test_split(data, fraction, seed=trial)
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
    train, test = train_test_split(data, 0.3, seed=9)
    recombined = sorted(np.concatenate([train.features[:, 0], test.features[:, 0]]).tolist())
    assert recombined == data.features[:, 0].tolist()


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
# blocks by np.loadtxt: one csv.reader row and one _coerce_row call per line.
# The block parser must give the same columns, token lists, rejects file and
# log lines on every input.

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


def _oracle_parse(path, column_map, rejects_path):
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
    with open(rejects_path, "w") as out:
        for line_no, reason in rejects:
            out.write(f"{line_no}\t{reason}\n")
    if dropped_classes:
        messages.append(
            f"dropped rows by unsupported class: {dict(sorted(dropped_classes.items()))}"
        )
    if rejects:
        messages.append(f"rejected {len(rejects)} of {len(rejects) + len(rows)} data rows")
    return FlowTable(*(zip(*rows) if rows else [()] * 8)), messages


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
# Each value sends its row, and so its block, to the per-row path.
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
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="segfl.flowdata"):
        table = parse_flow_csv(path, column_map, rejects_path=tmp_path / "rejects.txt")
    messages = [record.getMessage() for record in caplog.records]
    expected, expected_messages = _oracle_parse(path, column_map, tmp_path / "expected.txt")
    for ours, theirs in zip(table.columns(), expected.columns(), strict=True):
        assert ours.dtype == theirs.dtype
        if ours.dtype == object:
            assert ours.tolist() == theirs.tolist()
            assert all(type(token) is str for token in ours.tolist())
        else:
            assert ours.tobytes() == theirs.tobytes()
    assert (tmp_path / "rejects.txt").read_text() == (tmp_path / "expected.txt").read_text()
    assert messages == expected_messages
    return table


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
    table = _assert_same_parse(path, tmp_path, caplog, _ORACLE_MAP)
    assert len(table) > 100
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
            _oracle_parse(path, column_map, tmp_path / "expected.txt")
        except csv.Error as exc:  # the field limit, and NUL before Python 3.11
            with pytest.raises(csv.Error, match=re.escape(str(exc))):
                parse_flow_csv(path, column_map)
            continue
        _assert_same_parse(path, tmp_path, caplog, column_map)


def test_unsupported_classes_in_a_fast_block_name_their_lines(tmp_path, caplog, monkeypatch):
    def no_per_row_path(*args):
        raise AssertionError("the block should not need the per-row path")

    monkeypatch.setattr(flowdata, "_coerce_rows", no_per_row_path)
    path = tmp_path / "flows.csv"
    path.write_text(
        _HEADER + "\n"
        + "\n".join(_ROWS[i] for i in (0, 3, 7, 4, 0))  # suspicious on line 3, unknown on 5
        + "\n"
    )
    rejects = tmp_path / "rejects.txt"
    with caplog.at_level(logging.INFO, logger="segfl.flowdata"):
        table = parse_flow_csv(path, _COLUMN_MAP, rejects_path=rejects)
    assert table.label.tolist() == ["normal", "victim", "normal"]
    assert rejects.read_text().splitlines() == [
        "3\tunsupported class 'suspicious'",
        "5\tunsupported class 'unknown'",
    ]
    assert caplog.messages == [
        "dropped rows by unsupported class: {'suspicious': 1, 'unknown': 1}",
        "rejected 2 of 5 data rows",
    ]


def _good_fields(rng):
    """The fields of a _ORACLE_HEADER data line that every parser path accepts."""
    return [
        ("2017-03-15 00:01:16" if i == 0 else "192.168.100.5")
        if slot is None
        else _GOOD_TOKENS[slot][rng.integers(len(_GOOD_TOKENS[slot]))]
        for i, slot in enumerate(_ORACLE_SLOTS)
    ]


def test_block_parser_keeps_one_str_per_distinct_token(tmp_path, monkeypatch):
    def no_per_row_path(*args):
        raise AssertionError("every block should be read by np.loadtxt")

    monkeypatch.setattr(flowdata, "_coerce_rows", no_per_row_path)
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", 50)  # 6 blocks
    rng = np.random.default_rng(11)
    lines = [",".join(_ORACLE_HEADER)] + [",".join(_good_fields(rng)) for _ in range(300)]
    path = tmp_path / "flows.csv"
    path.write_text("\n".join(lines) + "\n")
    table = parse_flow_csv(path, _ORACLE_MAP)
    assert len(table) == 300
    # " GRE" and "GRE", or " ATTACKER " and "attacker", clean to one token and one object.
    for column in (table.protocol, table.flags, table.label):
        tokens = column.tolist()
        assert len({id(token) for token in tokens}) == len(set(tokens))


def test_parse_scratch_memory_stays_under_one_large_block(tmp_path):
    # 40,000 rows fit one 65,536-line block, whose line list, record array and
    # per-field strs need about 15 MiB beyond the table; 16,384-line blocks about 6.
    path = tmp_path / "flows.csv"
    write_flow_csv(to_records(generate(make_profile("A"), 40_000, seed=0)), path)
    tracemalloc.start()
    try:
        table = parse_flow_csv(path, CANONICAL_COLUMN_MAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 40_000
    assert peak - sum(column.nbytes for column in table.columns()) < 10 * 2**20


_DURATION = _ORACLE_SLOTS.index("duration")


@pytest.mark.parametrize("placement", ["block ends", "mid-block", "every 100th"])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_refused_blocks_are_halved_down_to_small_pieces(
    placement, newline, tmp_path, caplog, monkeypatch
):
    block, piece, n_rows = 64, 4, 700
    monkeypatch.setattr(flowdata, "_BLOCK_LINES", block)
    monkeypatch.setattr(flowdata, "_PIECE_LINES", piece)
    calls = []  # (first line, line count, read by np.loadtxt)
    parse_block = flowdata._parse_block

    def recorded(lines, first_line, *args):
        columns = parse_block(lines, first_line, *args)
        calls.append((first_line, len(lines), columns is not None))
        return columns

    monkeypatch.setattr(flowdata, "_parse_block", recorded)
    bad = {
        "block ends": range(block - 1, n_rows, block),
        "mid-block": range(block // 2 + 5, n_rows, block),
        "every 100th": range(99, n_rows, 100),
    }[placement]
    rng = np.random.default_rng(len(placement))
    lines = [",".join(_ORACLE_HEADER)]
    for i in range(n_rows):
        fields = _good_fields(rng)
        kind = i % 3
        if i in bad and kind == 0:
            fields[_DURATION] = "abc"  # np.loadtxt refuses the piece
        elif i in bad and kind == 1:
            fields[_DURATION] = "-1"  # np.loadtxt reads it, a _coerce_row rule refuses it
        elif i in bad:
            fields = fields[:_DURATION + 2]  # a short row
        lines.append(",".join(fields))
    path = tmp_path / "flows.csv"
    path.write_bytes((newline.join(lines) + newline).encode())

    table = _assert_same_parse(path, tmp_path, caplog, _ORACLE_MAP)
    assert len(table) == n_rows - len(bad)
    assert (tmp_path / "rejects.txt").read_text().count("\n") == len(bad)
    # Read pieces and small refused pieces tile the data lines; only the latter,
    # at most one piece per bad row, go row by row.
    tiles = sorted((first, n) for first, n, read in calls if read or n <= piece)
    assert [first for first, _ in tiles] == list(np.cumsum([2] + [n for _, n in tiles])[:-1])
    assert sum(n for _, n in tiles) == n_rows
    by_row = [n for _, n, read in calls if not read and n <= piece]
    assert 0 < len(by_row) <= len(bad)
