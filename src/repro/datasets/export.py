"""Exporting registry datasets in the formats real datasets ship in.

The public datasets the paper uses are distributed as ``.pcap`` captures
plus label files (CSV); this module writes any registry dataset the same
way, so third-party tools (Wireshark, Zeek, other IDS frameworks) can
consume the benchmark directly.  A dataset round-trips: exported pcap +
labels re-import to a table equal to the original (modulo pcap's
microsecond timestamps).
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path

import numpy as np

from repro.net.pcap import read_pcap_table, write_pcap
from repro.net.table import PacketTable


def export_dataset(
    table: PacketTable, directory: str | Path, name: str
) -> tuple[Path, Path]:
    """Write ``<name>.pcap`` and ``<name>.labels.csv``.

    The label file has one row per packet, aligned with pcap record
    order: ``index,timestamp,label,attack``.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    sorted_table = table.sort_by_time()
    pcap_path = directory / f"{name}.pcap"
    labels_path = directory / f"{name}.labels.csv"
    write_pcap(pcap_path, sorted_table.to_packets())
    with open(labels_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "timestamp", "label", "attack"])
        for i in range(len(sorted_table)):
            attack_id = int(sorted_table.attack_id[i])
            writer.writerow(
                [
                    i,
                    f"{float(sorted_table.ts[i]):.6f}",
                    int(sorted_table.label[i]),
                    sorted_table.attacks[attack_id] if attack_id >= 0 else "",
                ]
            )
    return pcap_path, labels_path


def import_dataset(pcap_path: str | Path, labels_path: str | Path) -> PacketTable:
    """Re-import an exported dataset (pcap + aligned label CSV).

    A label file the program cannot use raises
    :class:`repro.core.InputError` naming the path and the line.
    """
    table = read_pcap_table(pcap_path)
    _join_labels(table, labels_path)
    return table


def _join_labels(table: PacketTable, labels_path: str | Path) -> None:
    """Fill ``label`` and ``attack_id`` from the label CSV, row for row.

    Attack ids follow first appearance among the rows with a non-zero
    label and a non-empty attack, as in ``PacketTable.from_packets``.
    """
    with open(labels_path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        rows = [row for row in reader if row]  # blank lines are no rows
    fields = {name: i for i, name in enumerate(header or ())}
    for name in ("label", "attack"):
        if header is not None and name not in fields:
            raise _label_error(f"{labels_path}:1: no {name!r} column")
    if len(rows) != len(table):
        raise _label_error(
            f"{labels_path}: {len(rows)} label rows but the capture has "
            f"{len(table)} packets"
        )
    if not rows:
        return
    width = max(fields["label"], fields["attack"]) + 1
    try:
        texts = [row[fields["label"]] for row in rows]
        attacks = [row[fields["attack"]] for row in rows]
    except IndexError:
        short = next(i for i, row in enumerate(rows) if len(row) < width)
        raise _label_error(
            f"{labels_path}:{_line_of(labels_path, short)}: "
            f"{len(rows[short])} fields, expected at least {width}"
        ) from None
    values = {text: _label_value(text) for text in set(texts)}
    if None in values.values():
        bad = next(i for i, text in enumerate(texts) if values[text] is None)
        raise _label_error(
            f"{labels_path}:{_line_of(labels_path, bad)}: "
            f"label {texts[bad]!r} is not an integer in 0..255"
        )
    label = np.array([values[text] for text in texts], dtype=np.uint8)
    malicious = np.flatnonzero(label)
    index: dict[str, int] = {}
    ids = [
        index.setdefault(name, len(index)) if name else -1
        for name in (attacks[i] for i in malicious)
    ]
    table.columns["label"][:] = label
    table.columns["attack_id"][malicious] = ids
    table.attacks = list(index)


def _label_value(text: str) -> int | None:
    """The label ``text`` names, or ``None`` when it is not one."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if 0 <= value <= 255 else None


def _line_of(labels_path: str | Path, row: int) -> int:
    """The file line on which data row ``row`` of the label CSV ends."""
    with open(labels_path, newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        ends = (reader.line_num for record in reader if record)
        return next(itertools.islice(ends, row, None))


def _label_error(message: str) -> Exception:
    # lazy: importing repro.core loads the engine and the models, which
    # reading traces never needs
    from repro.core.errors import InputError

    return InputError(message)


def export_flows_csv(flows, path: str | Path) -> Path:
    """Write a Zeek-conn.log-flavoured CSV of an assembled FlowTable."""
    path = Path(path)
    table = flows.packets
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["src_ip", "src_port", "dst_ip", "dst_port", "proto",
             "first_ts", "duration", "packets", "bytes", "label", "attack"]
        )
        durations = flows.durations
        total_bytes = flows.total_bytes
        for i in range(len(flows)):
            first = flows.packet_indices(i)[0]
            attack_id = int(flows.attack_ids[i])
            writer.writerow(
                [
                    int(flows.key_columns.get("src_ip", np.zeros(len(flows)))[i]),
                    int(flows.key_columns.get("src_port", np.zeros(len(flows)))[i]),
                    int(flows.key_columns.get("dst_ip", np.zeros(len(flows)))[i]),
                    int(flows.key_columns.get("dst_port", np.zeros(len(flows)))[i]),
                    int(flows.key_columns.get("proto", np.zeros(len(flows)))[i]),
                    f"{float(table.ts[first]):.6f}",
                    f"{float(durations[i]):.6f}",
                    int(flows.counts[i]),
                    int(total_bytes[i]),
                    int(flows.labels[i]),
                    table.attacks[attack_id] if attack_id >= 0 else "",
                ]
            )
    return path
