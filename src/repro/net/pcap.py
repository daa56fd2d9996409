"""Classic libpcap file format: one writer, two readers.

Implements the original (non-ng) pcap container: a 24-byte global header
followed by per-packet records.  Both byte orders and both timestamp
resolutions (micro/nano) are read; files are written little-endian with
microsecond timestamps, which is what every tool expects.

This replaces the paper's use of pypacker + tcpdump-produced captures:
synthetic traces produced by :mod:`repro.traffic` can be written to real
``.pcap`` files and read back, and third-party pcaps of the supported
link types can be ingested directly.

:func:`write_pcap_table` lays a :class:`~repro.net.table.PacketTable`
out with numpy, a piece of the file at a time.  There are two
readers.  :class:`PcapReader` (and :func:`read_pcap`) yields one
:class:`~repro.net.packet.Packet` per record.  :func:`read_pcap_table`
reads a capture in pieces, keeps a fixed window of each record and
decodes those windows as columns; it equals
``PacketTable.from_packets(read_pcap(path))`` column for column and
fails on the same record with the same error.  Neither columnar
function holds the whole file in memory.  A
malformed file raises :class:`PcapFormatError`; a record whose
link-layer header does not decode raises
:class:`~repro.net.headers.HeaderError`.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.net.headers import (
    Dot11Header,
    EthernetHeader,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
)
from repro.net.packet import LinkType, Packet
from repro.net.table import PacketTable

MAGIC_MICRO_LE = 0xA1B2C3D4
MAGIC_NANO_LE = 0xA1B23C4D

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
#: bytes of a capture read, or laid out to be written, at a time; at
#: least a window (:data:`_WINDOW`), so that every piece read holds one
_PIECE = 1 << 20
#: the bytes of a frame the reader decodes: up to the end of the TCP
#: window behind the longest IPv4 header (IHL 15: frame bytes 88-89)
_FRAME_BYTES = 90
#: a record's window: its header and the frame's first
#: :data:`_FRAME_BYTES` bytes, what the reader keeps of a record and the
#: writer lays out for one (the deepest frame it writes is 74 bytes)
_WINDOW = _RECORD_HEADER.size + _FRAME_BYTES
#: records decoded, or laid out, together: enough to amortise numpy's
#: cost per call, few enough that their windows and temporaries stay small
_BATCH = 4096
#: the IEEE 802 local-experimental ethertype, written for Ethernet rows
#: that are neither IPv4, IPv6 nor ARP
ETHERTYPE_EXPERIMENTAL = 0x88B5


class PcapFormatError(ValueError):
    """Raised when a file is not a valid classic pcap capture."""


def _global_header(raw: bytes) -> tuple[str, float, int, LinkType]:
    """Check a global header: its byte order, timestamp divisor,
    snaplen and link type."""
    if len(raw) < _GLOBAL_HEADER.size:
        raise PcapFormatError("file too short for a pcap global header")
    (magic,) = struct.unpack("<I", raw[:4])
    order = "<"
    if magic not in (MAGIC_MICRO_LE, MAGIC_NANO_LE):
        (magic_be,) = struct.unpack(">I", raw[:4])
        if magic_be not in (MAGIC_MICRO_LE, MAGIC_NANO_LE):
            raise PcapFormatError(f"bad pcap magic: 0x{magic:08x}")
        magic = magic_be
        order = ">"
    divisor = 1e9 if magic == MAGIC_NANO_LE else 1e6
    _, _, _, _, _, snaplen, link = struct.unpack(order + "IHHiIII", raw)
    try:
        link_type = LinkType(link)
    except ValueError as exc:
        raise PcapFormatError(f"unsupported link type: {link}") from exc
    return order, divisor, snaplen, link_type


class PcapReader:
    """Iterates packets out of a classic pcap file.

    Yields parsed :class:`~repro.net.packet.Packet` objects; pass
    ``raw=True`` to :meth:`records` to get ``(timestamp, bytes)`` pairs
    instead.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self.link_type = LinkType.ETHERNET
        self.snaplen = 0

    def records(self, raw: bool = False) -> Iterator[Packet | tuple[float, bytes]]:
        """Yield packets (or raw records) from the file."""
        with open(self._path, "rb") as handle:
            order, divisor, self.snaplen, self.link_type = _global_header(
                handle.read(_GLOBAL_HEADER.size)
            )
            while True:
                header = handle.read(_RECORD_HEADER.size)
                if not header:
                    return
                if len(header) < _RECORD_HEADER.size:
                    raise PcapFormatError("truncated pcap record header")
                seconds, fraction, captured_len, orig_len = struct.unpack(
                    order + "IIII", header
                )
                data = handle.read(captured_len)
                if len(data) < captured_len:
                    raise PcapFormatError("truncated pcap record body")
                timestamp = seconds + fraction / divisor
                if raw:
                    yield timestamp, data
                else:
                    yield Packet.parse(
                        data, timestamp, self.link_type, orig_len
                    )

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.records())


def read_pcap(path: str | Path) -> list[Packet]:
    """Read every packet from a pcap file into memory."""
    return list(PcapReader(path))


def write_pcap_table(path: str | Path, table: PacketTable) -> None:
    """Write ``table`` as a little-endian microsecond capture, in row order.

    Consecutive rows are laid out in blocks of at most :data:`_PIECE`
    bytes and :data:`_BATCH` rows, and each block is written with one
    call; a record larger than a piece is a block of its own.  Each row
    becomes one frame of its ``l2`` link type, with zero payload bytes:

    * 802.11: a three-address header (``addr3`` = ``dst_mac``);
    * ``l3 == 4``: Ethernet + IPv4 (IHL 5, don't-fragment, a valid
      header checksum) + the TCP, UDP or ICMP echo-request header of
      ``proto``;
    * ``l3 == 6``: Ethernet + a 40-byte IPv6 header with zero addresses
      + that transport header;
    * ``l3 == 0`` with an IP address: Ethernet + an ARP request;
    * any other Ethernet row: ethertype :data:`ETHERTYPE_EXPERIMENTAL`.

    A row whose ``length`` is shorter than that layout lost its
    transport header to a cut, and is written without one.  The
    record's original length is ``max(length, frame length)``, so rows
    a snaplen cut, or whose ``length`` counts IPv4 or TCP options, keep
    it.  The global header takes its link type from the first row.  A
    table :func:`read_pcap_table` returns from a microsecond capture
    reads back from the written file unchanged.
    """
    cols = table.columns
    frames = _frames(cols)
    dot11, _, _, _, header, transport = frames
    size = header + transport + cols["payload_len"]
    ends = np.cumsum(_RECORD_HEADER.size + size)
    link = LinkType.IEEE802_11 if dot11[:1].any() else LinkType.ETHERNET
    snaplen = max(65535, int(size.max(initial=0)))
    with open(path, "wb") as handle:
        handle.write(_GLOBAL_HEADER.pack(MAGIC_MICRO_LE, 2, 4, 0, 0, snaplen, int(link)))
        first = 0
        while first < len(ends):
            written = int(ends[first - 1]) if first else 0
            last = min(
                first + _BATCH,
                max(first + 1, int(np.searchsorted(ends, written + _PIECE, "right"))),
            )
            rows = slice(first, last)
            handle.write(_records(
                {name: column[rows] for name, column in cols.items()},
                *(layout[rows] for layout in frames),
            ))
            first = last


def _frames(cols: dict[str, np.ndarray]) -> tuple[np.ndarray, ...]:
    """The frame layout of each row: whether it is 802.11, IPv4, IPv6 or
    ARP, and the byte counts of its link and network headers and of its
    transport header."""
    proto = cols["proto"]
    dot11 = cols["l2"] == LinkType.IEEE802_11
    ether = ~dot11
    ipv4 = ether & (cols["l3"] == 4)
    ipv6 = ether & (cols["l3"] == 6)
    arp = ether & (cols["l3"] == 0) & ((cols["src_ip"] | cols["dst_ip"]) != 0)
    header = np.select([dot11, ipv4, ipv6, arp], [24, 34, 54, 42], 14)
    transport = (ipv4 | ipv6) * np.select(
        [proto == IPPROTO_TCP, (proto == IPPROTO_UDP) | (proto == IPPROTO_ICMP)],
        [20, 8], 0,
    )
    transport[header + transport + cols["payload_len"] > cols["length"]] = 0
    return dot11, ipv4, ipv6, arp, header, transport


def _records(cols, dot11, ipv4, ipv6, arp, header, transport) -> np.ndarray:
    """The records of the rows of ``cols``, of the layout
    :func:`_frames` gives, laid out one after another.

    Each row's record header and frame headers are set in its window,
    a field at a time for every row of a kind; then each window's bytes
    that belong to the record are copied to it.  Payload bytes stay
    zero.
    """
    ether = ~dot11
    proto = cols["proto"]
    payload = cols["payload_len"].astype(np.int64)
    size = header + transport + payload
    windows = np.zeros((len(size), _WINDOW), np.uint8)

    ts = cols["ts"]
    seconds = np.trunc(ts)
    micros = np.round((ts - seconds) * 1_000_000)  # half to even, as round()
    carry = micros >= 1_000_000
    record_header = windows[:, : _RECORD_HEADER.size].view("<u4")
    for k, field in enumerate((
        seconds + carry, micros - 1_000_000 * carry,
        size, np.maximum(cols["length"], size),
    )):
        record_header[:, k] = field.astype(np.int64)  # the low 4 bytes

    frame = windows[:, _RECORD_HEADER.size :]
    frame[:, 0][dot11] = ((cols["wlan_type"][dot11] & 0x03) << 2) | (
        (cols["wlan_subtype"][dot11] & 0x0F) << 4
    )
    for at in (4, 16):
        _set_mac(frame, at, dot11, cols["dst_mac"][dot11])
    _set_mac(frame, 10, dot11, cols["src_mac"][dot11])

    _set_mac(frame, 0, ether, cols["dst_mac"][ether])
    _set_mac(frame, 6, ether, cols["src_mac"][ether])
    ethertype = np.select(
        [ipv4, ipv6, arp], [ETHERTYPE_IPV4, ETHERTYPE_IPV6, ETHERTYPE_ARP],
        ETHERTYPE_EXPERIMENTAL,
    )
    _field(frame, 12, 2)[ether] = ethertype[ether]

    # Ethernet, IPv4, address lengths 6 and 4, request
    _field(frame, 14, 4)[arp] = 0x00010800
    _field(frame, 18, 4)[arp] = 0x06040001
    _set_mac(frame, 22, arp, cols["src_mac"][arp])
    _field(frame, 28, 4)[arp] = cols["src_ip"][arp]
    _set_mac(frame, 32, arp, cols["dst_mac"][arp])
    _field(frame, 38, 4)[arp] = cols["dst_ip"][arp]

    total = (20 + transport[ipv4] + payload[ipv4]) & 0xFFFF
    ttl_proto = (cols["ttl"][ipv4].astype(np.int64) << 8) | proto[ipv4]
    src, dst = cols["src_ip"][ipv4], cols["dst_ip"][ipv4]
    checksum = (
        0x4500 + total + 0x4000 + ttl_proto
        + (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
    )
    for _ in range(2):
        checksum = (checksum & 0xFFFF) + (checksum >> 16)
    frame[:, 14][ipv4] = 0x45
    _field(frame, 16, 2)[ipv4] = total
    frame[:, 20][ipv4] = 0x40  # don't fragment
    _field(frame, 22, 2)[ipv4] = ttl_proto
    _field(frame, 24, 2)[ipv4] = ~checksum & 0xFFFF
    _field(frame, 26, 4)[ipv4] = src
    _field(frame, 30, 4)[ipv4] = dst

    frame[:, 14][ipv6] = 0x60
    _field(frame, 18, 2)[ipv6] = transport[ipv6] + payload[ipv6]  # low 2 bytes
    frame[:, 20][ipv6] = proto[ipv6]
    frame[:, 21][ipv6] = cols["ttl"][ipv6]

    tcp = transport == 20
    udp = (transport == 8) & (proto == IPPROTO_UDP)
    icmp = (transport == 8) & (proto == IPPROTO_ICMP)
    for ip, l4 in ((ipv4, 34), (ipv6, 54)):
        ports = (tcp | udp) & ip
        _field(frame, l4, 2)[ports] = cols["src_port"][ports]
        _field(frame, l4 + 2, 2)[ports] = cols["dst_port"][ports]
        rows = tcp & ip
        frame[:, l4 + 12][rows] = 0x50  # data offset 5
        frame[:, l4 + 13][rows] = cols["tcp_flags"][rows]
        _field(frame, l4 + 14, 2)[rows] = cols["window"][rows]
        rows = udp & ip
        _field(frame, l4 + 4, 2)[rows] = 8 + payload[rows]
        # echo request; over zero payload bytes the checksum is a constant
        _field(frame, l4, 4)[icmp & ip] = 0x0800F7FF

    record = _RECORD_HEADER.size + size
    start = np.cumsum(record) - record
    # zeros after the records, so that every record starts a window
    buf = np.zeros(int(record.sum()) + _WINDOW, np.uint8)
    into = sliding_window_view(buf, _WINDOW, writeable=True)
    kept = _RECORD_HEADER.size + header + transport
    for width in np.flatnonzero(np.bincount(kept)):
        rows = kept == width
        into[start[rows], :width] = windows[rows, :width]
    return buf[:-_WINDOW]


def _field(rows: np.ndarray, at: int, width: int) -> np.ndarray:
    """A view of the network-order field of ``width`` (1, 2 or 4) bytes
    at byte ``at`` of each row of the byte matrix ``rows``."""
    return rows[:, at : at + width].view(f">u{width}")[:, 0]


def _set_mac(frame: np.ndarray, at: int, rows: np.ndarray, mac: np.ndarray) -> None:
    """Write the 6-byte ``mac`` of each of ``rows`` at byte ``at``."""
    _field(frame, at, 2)[rows] = mac >> 32
    _field(frame, at + 2, 4)[rows] = mac  # the low 4 bytes


def _mac(frame: np.ndarray, at: int) -> np.ndarray:
    """The 6-byte MAC address at byte ``at`` of each row."""
    return (_field(frame, at, 2).astype(np.int64) << 32) | _field(frame, at + 2, 4)


def read_pcap_table(path: str | Path) -> PacketTable:
    """Read a whole capture into a :class:`PacketTable`.

    The file is read in pieces of :data:`_PIECE` bytes and its record
    headers are walked once.  Of each complete record only its window is
    kept: the record header and the frame's first :data:`_FRAME_BYTES`
    bytes, which hold every field the decoder reads; the walk seeks past
    the rest of a body.  The windows are decoded as columns,
    :data:`_BATCH` records at a time, so that besides the table the
    reader holds one piece, the offsets of its records and one batch of
    windows, whatever the size of the file.

    The result equals ``PacketTable.from_packets(read_pcap(path))`` byte
    for byte in every column, and a malformed capture raises what
    :func:`read_pcap` raises, for the first bad record in file order.
    Only on that error path is the bad frame read again, whole, so that
    its header decoder sees the bytes it sees in :func:`read_pcap`.
    """
    with open(path, "rb") as handle:
        order, divisor, _, link_type = _global_header(
            handle.read(_GLOBAL_HEADER.size)
        )
        if link_type == LinkType.IEEE802_11:
            decode, fill = Dot11Header.decode, _fill_dot11
        else:
            decode, fill = EthernetHeader.decode, _fill_ethernet
        parts = [PacketTable.empty()]
        for starts, windows in _record_windows(handle, order):
            seconds, fraction, captured, orig = (
                windows[:, : _RECORD_HEADER.size].view(order + "u4").T
            )
            frame = windows[:, _RECORD_HEADER.size :]
            if link_type == LinkType.IEEE802_11:
                broken = (captured < 24) | (frame[:, 0] & 0x03 != 0)
            else:
                broken = captured < 14
            if broken.any():
                first = np.argmax(broken)
                handle.seek(starts[first] + _RECORD_HEADER.size)
                decode(handle.read(captured[first]))  # raises
            part = PacketTable.empty(len(windows))
            part.columns["ts"][:] = seconds.astype(np.float64) + fraction / divisor
            part.columns["length"][:] = np.maximum(captured, orig)
            fill(part.columns, windows, captured)
            parts.append(part)
    # column by column, so that the parts and the table overlap by one
    # column at a time
    return PacketTable({
        name: np.concatenate([part.columns.pop(name) for part in parts])
        for name in list(parts[0].columns)
    })


def _record_windows(
    handle, order: str
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The complete records after the global header, in file order and
    at most :data:`_BATCH` at a time: each record's offset in the file,
    and its window of :data:`_WINDOW` bytes (record header, then frame).
    The arrays yielded are overwritten by the next batch.

    A window holds what followed the frame where the frame is shorter
    than :data:`_FRAME_BYTES`: the next record, or zeros past the last
    byte read.  A piece is read from the first record whose window the
    previous piece did not hold; a body that runs past the end of a
    piece is skipped with a seek.  Where the walk stops short of the end
    of the file, the records before that point are yielded first and
    :class:`PcapFormatError` is raised after them.
    """
    size = os.fstat(handle.fileno()).st_size
    captured_len = struct.Struct(order + "I").unpack_from
    header = _RECORD_HEADER.size
    # zeros after the piece, for the windows of the records at its end
    piece = bytearray(min(_PIECE, size) + _WINDOW)
    raw = np.frombuffer(piece, dtype=np.uint8)
    in_piece = sliding_window_view(raw, _WINDOW)
    starts = np.empty(_BATCH, dtype=np.int64)
    windows = np.empty((_BATCH, _WINDOW), dtype=np.uint8)
    held = 0
    failure = None
    at = _GLOBAL_HEADER.size
    while at < size and failure is None:
        handle.seek(at)
        base = at
        got = handle.readinto(memoryview(piece)[:-_WINDOW])
        raw[got : got + _WINDOW] = 0
        end = base + got
        found = []
        while True:
            if at + header > end:
                if at < size == end:
                    failure = "truncated pcap record header"
                break
            following = at + header + captured_len(piece, at - base + 8)[0]
            if following > size:
                failure = "truncated pcap record body"
                break
            if following > end and at + _WINDOW > end:
                break  # the window runs past the piece
            found.append(at)
            at = following
        found = np.array(found, dtype=np.int64)
        while len(found):
            new = slice(held, min(_BATCH, held + len(found)))
            starts[new] = found[: new.stop - held]
            windows[new] = in_piece[starts[new] - base]
            found = found[new.stop - held :]
            held = new.stop
            if held == _BATCH:
                yield starts, windows
                held = 0
        if held and (at >= size or failure is not None):
            yield starts[:held], windows[:held]
            held = 0
    if failure is not None:
        raise PcapFormatError(failure)


def _fill_dot11(columns, windows, captured) -> None:
    """Fill the columns of 802.11 records, every one past the header check."""
    frame = windows[:, _RECORD_HEADER.size :]
    frame_control = frame[:, 0]
    columns["l2"][:] = int(LinkType.IEEE802_11)
    columns["wlan_type"][:] = (frame_control >> 2) & 0x03
    columns["wlan_subtype"][:] = frame_control >> 4
    columns["dst_mac"][:] = _mac(frame, 4)
    columns["src_mac"][:] = _mac(frame, 10)
    columns["payload_len"][:] = captured - 24


def _fill_ethernet(columns, windows, captured) -> None:
    """Fill the columns of Ethernet records, each layer decoded where
    :meth:`Packet.parse` decodes it, at per-row offsets: ``4 * IHL``
    IPv4 bytes or 40 IPv6 bytes, then ``4 * data offset`` TCP bytes.  A
    layer that does not decode ends the headers; its bytes are payload.
    """
    frame = windows[:, _RECORD_HEADER.size :]
    columns["dst_mac"][:] = _mac(frame, 0)
    columns["src_mac"][:] = _mac(frame, 6)
    ethertype = _field(frame, 12, 2)
    first = frame[:, 14]  # the IP version, and IPv4's IHL
    ihl = (first & 0x0F).astype(np.int64)
    ipv4 = (
        (ethertype == ETHERTYPE_IPV4) & (first >> 4 == 4) & (ihl >= 5)
        & (captured >= 14 + 4 * ihl)  # options fully captured
    )
    ipv6 = (ethertype == ETHERTYPE_IPV6) & (first >> 4 == 6) & (captured >= 54)
    ip = ipv4 | ipv6
    l4 = np.where(ipv6, 54, 14 + 4 * ihl)
    protocol = np.where(ipv6, frame[:, 20], frame[:, 23])
    # one gather per record: the first 16 transport bytes (ports, TCP
    # data offset, flags and window) at that record's offset
    transport = sliding_window_view(windows.reshape(-1), 16)[
        np.arange(len(windows)) * _WINDOW + _RECORD_HEADER.size + l4
    ]
    data_offset = (transport[:, 12] >> 4).astype(np.int64)
    tcp = (
        ip & (protocol == IPPROTO_TCP) & (data_offset >= 5)
        & (captured >= l4 + 4 * data_offset)  # options fully captured
    )
    udp = ip & (protocol == IPPROTO_UDP) & (captured >= l4 + 8)
    icmp = ip & (protocol == IPPROTO_ICMP) & (captured >= l4 + 8)
    # hardware Ethernet, protocol IPv4, address lengths 6 and 4
    arp = (
        (ethertype == ETHERTYPE_ARP) & (captured >= 42)
        & (_field(frame, 14, 4) == 0x00010800) & (_field(frame, 18, 2) == 0x0604)
    )

    columns["payload_len"][:] = captured - np.where(
        ip, l4 + 8 * (udp | icmp) + 4 * data_offset * tcp, 14 + 28 * arp
    )
    columns["l3"][ipv4] = 4
    columns["l3"][ipv6] = 6
    columns["proto"][ip] = protocol[ip]
    columns["ttl"][ip] = np.where(ipv6, frame[:, 21], frame[:, 22])[ip]
    columns["src_ip"][ipv4] = _field(frame, 26, 4)[ipv4]
    columns["dst_ip"][ipv4] = _field(frame, 30, 4)[ipv4]
    columns["src_ip"][arp] = _field(frame, 28, 4)[arp]
    columns["dst_ip"][arp] = _field(frame, 38, 4)[arp]
    ports = tcp | udp
    columns["src_port"][ports] = _field(transport, 0, 2)[ports]
    columns["dst_port"][ports] = _field(transport, 2, 2)[ports]
    columns["tcp_flags"][tcp] = transport[tcp, 13]
    columns["window"][tcp] = _field(transport, 14, 2)[tcp]
