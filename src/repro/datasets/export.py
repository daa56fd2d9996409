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
import io
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.net.pcap import read_pcap_table, write_pcap_table
from repro.net.table import PacketTable

#: label-file rows formatted and written per write call
_LABEL_BLOCK_ROWS = 65536


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
    write_pcap_table(pcap_path, sorted_table)
    names = [_csv_field(attack) for attack in sorted_table.attacks]
    ts, label, attack_id = sorted_table.ts, sorted_table.label, sorted_table.attack_id
    with open(labels_path, "w", newline="", encoding="utf-8") as handle:
        handle.write("index,timestamp,label,attack\r\n")
        for start in range(0, len(sorted_table), _LABEL_BLOCK_ROWS):
            stop = start + _LABEL_BLOCK_ROWS
            handle.write("".join([
                f"{i},{t:.6f},{lab},{names[a] if a >= 0 else ''}\r\n"
                for i, t, lab, a in zip(
                    range(start, stop),
                    ts[start:stop].tolist(),
                    label[start:stop].tolist(),
                    attack_id[start:stop].tolist(),
                )
            ]))
    return pcap_path, labels_path


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row (quoted if need be)."""
    buffer = io.StringIO()
    csv.writer(buffer).writerow(["", text])
    return buffer.getvalue()[1:-2]


def import_dataset(pcap_path: str | Path, labels_path: str | Path) -> PacketTable:
    """Re-import an exported dataset (pcap + aligned label CSV).

    The capture is read by :func:`repro.net.pcap.read_pcap_table` and
    the labels joined by :func:`_join_labels`.  A label file the program
    cannot use raises :class:`repro.core.InputError` naming the path and
    the line.
    """
    table = read_pcap_table(pcap_path)
    _join_labels(table, labels_path)
    return table


def _join_labels(table: PacketTable, labels_path: str | Path) -> None:
    """Fill ``label`` and ``attack_id`` from the label CSV, row for row.

    The file is UTF-8 text, read once as bytes.  Attack ids follow first
    appearance among the rows with a non-zero label and a non-empty
    attack, as in ``PacketTable.from_packets``.

    A file with no ``"`` and no NUL byte is split with numpy
    (:func:`_bulk_labels`).  ``csv.reader`` (:func:`_csv_labels`) reads
    a quoted file and any file the split does not accept; it words
    every error, so both paths fail alike.
    """
    with open(labels_path, "rb") as handle:
        data = handle.read()
    label, ids, attacks = _bulk_labels(data, len(table)) or _csv_labels(
        data, labels_path, len(table)
    )
    table.columns["label"][:] = label
    table.columns["attack_id"][np.flatnonzero(label)] = ids
    table.attacks = attacks


def _csv_labels(
    data: bytes, labels_path: str | Path, rows: int
) -> tuple[np.ndarray, list[int], list[str]]:
    """``(label, ids, attacks)`` of the label CSV ``data``, read by
    ``csv.reader``: the label of each of ``rows`` rows, the attack id of
    each malicious row (-1 for no attack) and the attack names.

    Raises :class:`repro.core.InputError` naming ``labels_path`` and
    the line for a file that is no label file of ``rows`` rows.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise _label_error(
            f"{labels_path}:{line}: not UTF-8 text ({exc.reason})"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    records, lines = [], []
    try:
        header = next(reader, None)
        for row in reader:
            if row:  # blank lines are no rows
                records.append(row)
                lines.append(reader.line_num)
    except csv.Error as exc:
        raise _label_error(f"{labels_path}:{reader.line_num}: {exc}") from None
    fields = {name: i for i, name in enumerate(header or ())}
    for name in ("label", "attack"):
        if header is not None and name not in fields:
            raise _label_error(f"{labels_path}:1: no {name!r} column")
    if len(records) != rows:
        raise _label_error(
            f"{labels_path}: {len(records)} label rows but the capture has "
            f"{rows} packets"
        )
    if not records:
        return np.zeros(0, dtype=np.uint8), [], []
    width = max(fields["label"], fields["attack"]) + 1
    for row, line in zip(records, lines):
        if len(row) < width:
            raise _label_error(
                f"{labels_path}:{line}: {len(row)} fields, expected at least {width}"
            )
    texts = [row[fields["label"]] for row in records]
    values = {text: _label_value(text) for text in set(texts)}
    for text, line in zip(texts, lines):
        if values[text] is None:
            raise _label_error(
                f"{labels_path}:{line}: label {text!r} is not an integer in 0..255"
            )
    label = np.array([values[text] for text in texts], dtype=np.uint8)
    malicious = np.flatnonzero(label)
    index: dict[str, int] = {}
    ids = [
        index.setdefault(name, len(index)) if name else -1
        for name in (records[i][fields["attack"]] for i in malicious)
    ]
    limit = np.iinfo(np.int16).max + 1  # ids ``attack_id`` holds
    if len(index) > limit:
        line = lines[malicious[ids.index(limit)]]
        raise _label_error(
            f"{labels_path}:{line}: more than {limit} attack names"
        )
    return label, ids, list(index)


def _bulk_labels(
    data: bytes, rows: int
) -> tuple[np.ndarray, np.ndarray, list[str]] | None:
    """:func:`_csv_labels` of ``data``, split with numpy, or ``None`` for
    a file left to ``csv.reader``.

    That is a file holding a ``"`` (a quoted name) or a NUL byte (which
    fixed-width byte strings drop), one that is no label file of
    ``rows`` rows, and one with a line past csv's field size limit or a
    field so long that padding every row to it would take more than
    eight times the file's size.  Each distinct label text is resolved
    once, and each attack name decoded once.
    """
    if b'"' in data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    raw = np.frombuffer(data, dtype=np.uint8)
    # csv.reader ends a line at \n, \r\n or a lone \r.  Splitting at
    # every \r and \n leaves each blank line, and the middle of each
    # \r\n, an empty segment: no row.
    breaks = np.flatnonzero((raw == 10) | (raw == 13))
    starts = np.append(0, breaks + 1)
    ends = np.append(breaks, len(raw))
    fields = {
        name: i for i, name in enumerate(data[: ends[0]].decode().split(","))
    }
    if "label" not in fields or "attack" not in fields:
        return None
    kept = ends[1:] > starts[1:]
    starts, ends = starts[1:][kept], ends[1:][kept]
    if len(starts) != rows:
        return None
    if not rows:
        return np.zeros(0, dtype=np.uint8), [], []
    if (ends - starts).max() > csv.field_size_limit():
        return None
    commas = np.flatnonzero(raw == 44)
    first = np.searchsorted(commas, starts)
    count = np.searchsorted(commas, ends) - first
    if count.min() < max(fields["label"], fields["attack"]):
        return None

    def texts(k: int, where=slice(None)):
        """Field ``k`` of the rows ``where`` as fixed-width byte strings."""
        begin = starts if k == 0 else commas[first + k - 1] + 1
        end = np.where(count > k, commas[np.minimum(first + k, len(commas) - 1)], ends)
        begin, size = begin[where], (end - begin)[where]
        width = max(int(size.max(initial=0)), 1)
        if len(size) * width > 8 * len(data):
            return None
        windows = sliding_window_view(np.append(raw, np.zeros(width, raw.dtype)), width)
        padded = windows[begin]
        padded[np.arange(width) >= size[:, None]] = 0
        return padded.view(f"S{width}").ravel()

    label_texts = texts(fields["label"])
    if label_texts is None:
        return None
    distinct, inverse = np.unique(label_texts, return_inverse=True)
    values = [_label_value(text.decode()) for text in distinct]
    if None in values:
        return None
    label = np.array(values, dtype=np.uint8)[inverse]
    names = texts(fields["attack"], np.flatnonzero(label))
    if names is None:
        return None
    distinct, at, inverse = np.unique(names, return_index=True, return_inverse=True)
    named = np.flatnonzero(distinct != b"")
    named = named[np.argsort(at[named])]  # in order of first appearance
    if len(named) > np.iinfo(np.int16).max + 1:
        return None  # more ids than ``attack_id`` holds
    rank = np.full(len(distinct), -1)
    rank[named] = np.arange(len(named))
    return label, rank[inverse], [name.decode() for name in distinct[named]]


def _label_value(text: str) -> int | None:
    """The label ``text`` names, or ``None`` when it is not one."""
    try:
        value = int(text)
    except ValueError:
        return None
    return value if 0 <= value <= 255 else None


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
