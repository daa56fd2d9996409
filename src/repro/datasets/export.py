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
    eight times the file's size.

    One scan finds every line break and comma.  Where every label is
    one ASCII digit, as :func:`export_dataset` writes them, the label is
    that byte's digit; otherwise each distinct label text is resolved
    once.  An attack name is decoded where it differs from the previous
    malicious row's.
    """
    if b'"' in data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    raw = np.frombuffer(data, dtype=np.uint8)
    at, breaks = _delimiters(raw)
    fields = {
        name: i for i, name in enumerate(data[: at[breaks[1]]].decode().split(","))
    }
    if "label" not in fields or "attack" not in fields:
        return None
    # line i runs from at[breaks[i]] + 1 to at[breaks[i + 1]]: one byte
    # more than its length apart
    apart = np.diff(at[breaks[1:]])
    lines = np.flatnonzero(apart > 1)  # rows: lines after the header, not blank
    if len(lines) != rows:
        return None
    if not rows:
        return np.zeros(0, dtype=np.uint8), [], []
    if apart.max() - 1 > csv.field_size_limit():
        return None
    del apart  # the temporaries go as they are done with, to bound the peak
    if np.diff(breaks)[1:][lines].min() <= max(fields["label"], fields["attack"]):
        return None  # a row short of a field
    # field k of a row spans at[first + k] + 1 to at[first + k + 1]
    first = breaks[1:][lines]
    del breaks, lines

    def field(k: int, where=slice(None)):
        """The offset and byte count of field ``k`` of the rows ``where``."""
        where = first[where] + k
        begin = at[where] + 1
        return begin, at[where + 1] - begin

    begin, size = field(fields["label"])
    digit = raw[begin[size == 1]] - ord("0")  # a byte below "0" wraps
    if len(digit) == rows and digit.max() < 10:
        label = digit
    else:
        texts = _padded(raw, begin, size, 8 * len(data))
        if texts is None:
            return None
        distinct, inverse = np.unique(texts, return_inverse=True)
        values = [_label_value(text.decode()) for text in distinct]
        if None in values:
            return None
        label = np.array(values, dtype=np.uint8)[inverse]
    begin, size = field(fields["attack"], np.flatnonzero(label))
    names = _padded(raw, begin, size, 8 * len(data))
    if names is None:
        return None
    # a name is looked up where it differs from the previous row's
    new = np.ones(len(size), dtype=bool)
    new[1:] = (size[1:] != size[:-1]) | (names[1:] != names[:-1])
    index: dict[bytes, int] = {}
    ids = np.array([
        index.setdefault(data[b : b + s], len(index)) if s else -1
        for b, s in zip(begin[new].tolist(), size[new].tolist())
    ], dtype=np.int64)
    if len(index) > np.iinfo(np.int16).max + 1:
        return None  # more ids than ``attack_id`` holds
    return label, ids[np.cumsum(new) - 1], [name.decode() for name in index]


def _delimiters(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r"""The offset of every comma and line break of a label file, after
    a line break at -1 and before one at ``len(raw)``, and the indices
    of the line breaks among them.

    csv.reader ends a line at \n, \r\n or a lone \r.  Splitting at
    every \r and \n leaves each blank line, and the middle of each
    \r\n, an empty line: no row.
    """
    delimiter = np.ones(len(raw) + 2, dtype=bool)
    inner = delimiter[1:-1]
    np.equal(raw, 44, out=inner)
    inner |= raw == 10
    inner |= raw == 13
    at = np.flatnonzero(delimiter)
    at -= 1
    line_break = np.ones(len(at), dtype=bool)
    line_break[1:-1] = raw[at[1:-1]] != 44
    return at, np.flatnonzero(line_break)


def _padded(raw: np.ndarray, begin: np.ndarray, size: np.ndarray, limit: int):
    """The byte strings of ``size`` bytes at ``begin`` in ``raw``, as one
    ``S<width>`` array padded with NULs, or ``None`` where that array
    would take more than ``limit`` bytes."""
    width = max(int(size.max(initial=0)), 1)
    if len(size) * width > limit:
        return None
    windows = sliding_window_view(np.append(raw, np.zeros(width, raw.dtype)), width)
    padded = windows[begin]
    padded *= np.arange(width) < size[:, None]
    return padded.view(f"S{width}").ravel()


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
