"""Classic libpcap file format reader and writer.

Implements the original (non-ng) pcap container: a 24-byte global header
followed by per-packet records.  Both byte orders and both timestamp
resolutions (micro/nano) are read; files are written little-endian with
microsecond timestamps, which is what every tool expects.

This replaces the paper's use of pypacker + tcpdump-produced captures:
synthetic traces produced by :mod:`repro.traffic` can be written to real
``.pcap`` files and read back, and third-party pcaps of the supported
link types can be ingested directly.

There are two readers.  :class:`PcapReader` (and :func:`read_pcap`)
yields one :class:`~repro.net.packet.Packet` per record.
:func:`read_pcap_table` decodes a whole capture into a
:class:`~repro.net.table.PacketTable` with numpy gathers and hands only
irregular records to :meth:`Packet.parse`; it equals
``PacketTable.from_packets(read_pcap(path))`` column for column and
fails on the same record with the same error.  A malformed file raises
:class:`PcapFormatError`; a record whose link-layer header does not
decode raises :class:`~repro.net.headers.HeaderError`.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from repro.net.headers import (
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
#: zero bytes after a capture in memory; more than the deepest field
#: offset the columnar reader gathers (the TCP window, at frame byte 49)
_PADDING = 64


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


class PcapWriter:
    """Streams packets into a classic pcap file.

    Use as a context manager::

        with PcapWriter("trace.pcap", link_type=LinkType.ETHERNET) as writer:
            for packet in packets:
                writer.write(packet)
    """

    def __init__(
        self,
        path: str | Path,
        link_type: LinkType = LinkType.ETHERNET,
        snaplen: int = 65535,
    ) -> None:
        self._path = Path(path)
        self._link_type = link_type
        self._snaplen = snaplen
        self._file: BinaryIO | None = None

    def __enter__(self) -> "PcapWriter":
        self._file = open(self._path, "wb")
        self._file.write(
            _GLOBAL_HEADER.pack(
                MAGIC_MICRO_LE, 2, 4, 0, 0, self._snaplen, int(self._link_type)
            )
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def write(self, packet: Packet) -> None:
        """Append one packet record.

        A packet read from a snaplen-cut record keeps its original
        length, so the cut survives a rewrite.
        """
        if self._file is None:
            raise RuntimeError("PcapWriter used outside its context manager")
        data = packet.encode()
        captured = data[: self._snaplen]
        seconds = int(packet.timestamp)
        micros = int(round((packet.timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:  # rounding can push us into the next second
            seconds += 1
            micros -= 1_000_000
        self._file.write(
            _RECORD_HEADER.pack(
                seconds, micros, len(captured), packet.orig_len or len(data)
            )
        )
        self._file.write(captured)


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


def write_pcap(
    path: str | Path,
    packets: list[Packet],
    link_type: LinkType | None = None,
) -> None:
    """Write a list of packets to a pcap file.

    The link type defaults to that of the first packet so that 802.11
    traces are tagged correctly.
    """
    if link_type is None:
        link_type = packets[0].link_type if packets else LinkType.ETHERNET
    with PcapWriter(path, link_type=link_type) as writer:
        for packet in packets:
            writer.write(packet)


def read_pcap(path: str | Path) -> list[Packet]:
    """Read every packet from a pcap file into memory."""
    return list(PcapReader(path))


def read_pcap_table(path: str | Path) -> PacketTable:
    """Read a whole capture into a :class:`PacketTable`.

    The file is read once and its record headers walked once.  Regular
    frames are decoded as columns:

    * Ethernet + IPv4 with IHL 5, carrying TCP with data offset 5, UDP,
      ICMP or any other protocol;
    * Ethernet + ARP, and Ethernet with any other ethertype;
    * 802.11.

    The irregular rest -- IPv6, IPv4 or TCP options, frames too short
    for their layout -- goes one record at a time through
    :meth:`Packet.parse` and :meth:`PacketTable._fill_row`.  The result
    equals ``PacketTable.from_packets(read_pcap(path))`` byte for byte
    in every column, and a malformed capture raises what
    :func:`read_pcap` raises, for the first bad record in file order.
    """
    with open(path, "rb") as handle:
        # zero padding past the end of the file, so that fixed-offset
        # gathers past a short last record stay inside the buffer (those
        # rows are masked out)
        buf = bytearray(os.fstat(handle.fileno()).st_size + _PADDING)
        end = handle.readinto(memoryview(buf)[:-_PADDING])
    order, divisor, _, link_type = _global_header(
        bytes(buf[: min(end, _GLOBAL_HEADER.size)])
    )
    starts, failure = _record_starts(buf, end, order)
    raw = np.frombuffer(buf, dtype=np.uint8)
    seconds, fraction, captured, orig = (
        _uint(raw, starts + 4 * k, 4, order) for k in range(4)
    )
    body = starts + _RECORD_HEADER.size
    ts = seconds.astype(np.float64) + fraction / divisor

    def packet(i: int) -> Packet:
        at = int(body[i])
        return Packet.parse(
            bytes(buf[at : at + int(captured[i])]),
            float(ts[i]), link_type, int(orig[i]),
        )

    if link_type == LinkType.IEEE802_11:
        broken = (captured < 24) | (raw[body] & 0x03 != 0)
    else:
        broken = captured < 14
    broken = np.flatnonzero(broken)
    if broken.size:
        packet(broken[0])  # raises the object decoder's HeaderError
    if failure is not None:
        raise PcapFormatError(failure)

    table = PacketTable.empty(len(starts))
    columns = table.columns
    columns["ts"][:] = ts
    columns["length"][:] = np.maximum(captured, orig)
    if link_type == LinkType.IEEE802_11:
        _fill_dot11(columns, raw, body, captured)
        return table
    irregular = _fill_ethernet(columns, raw, body, captured)
    for i in irregular:
        PacketTable._fill_row(columns, i, packet(i))
    return table


def _record_starts(
    buf: bytearray, end: int, order: str
) -> tuple[np.ndarray, str | None]:
    """Offsets of the complete records in ``buf[:end]``, and why the
    walk stopped short of ``end`` (``None`` when it did not)."""
    captured_len = struct.Struct(order + "I").unpack_from
    starts = []
    failure = None
    at = _GLOBAL_HEADER.size
    while at < end:
        if end - at < _RECORD_HEADER.size:
            failure = "truncated pcap record header"
            break
        (size,) = captured_len(buf, at + 8)
        if end - at - _RECORD_HEADER.size < size:
            failure = "truncated pcap record body"
            break
        starts.append(at)
        at += _RECORD_HEADER.size + size
    return np.array(starts, dtype=np.int64), failure


def _uint(
    raw: np.ndarray, at: np.ndarray, width: int, order: str = ">"
) -> np.ndarray:
    """The ``width``-byte unsigned field at each offset, in byte order
    ``order`` (network order by default)."""
    value = np.zeros(len(at), dtype=np.int64)
    for k in range(width) if order == ">" else reversed(range(width)):
        value = (value << 8) | raw[at + k]
    return value


def _fill_dot11(columns, raw, body, captured) -> None:
    """Fill the columns of 802.11 records; past the header check every
    record is regular."""
    frame_control = raw[body]
    columns["l2"][:] = int(LinkType.IEEE802_11)
    columns["wlan_type"][:] = (frame_control >> 2) & 0x03
    columns["wlan_subtype"][:] = frame_control >> 4
    columns["dst_mac"][:] = _uint(raw, body + 4, 6)
    columns["src_mac"][:] = _uint(raw, body + 10, 6)
    columns["payload_len"][:] = captured - 24


def _fill_ethernet(columns, raw, body, captured) -> np.ndarray:
    """Fill the columns of the regular Ethernet records, and return the
    indices of the irregular ones for :meth:`PacketTable._fill_row`.

    An irregular row holds only values ``_fill_row`` writes too, and
    defaults in the columns it leaves alone.
    """
    columns["dst_mac"][:] = _uint(raw, body, 6)
    columns["src_mac"][:] = _uint(raw, body + 6, 6)
    ethertype = _uint(raw, body + 12, 2)
    is_ipv4 = ethertype == ETHERTYPE_IPV4
    # version 4, IHL 5: no options
    ipv4 = is_ipv4 & (captured >= 34) & (raw[body + 14] == 0x45)
    protocol = raw[body + 23]
    tcp = (
        ipv4 & (protocol == IPPROTO_TCP) & (captured >= 54)
        & (raw[body + 46] >> 4 == 5)  # data offset 5: no options
    )
    udp = ipv4 & (protocol == IPPROTO_UDP) & (captured >= 42)
    icmp = ipv4 & (protocol == IPPROTO_ICMP) & (captured >= 42)
    other = ipv4 & ~np.isin(protocol, (IPPROTO_TCP, IPPROTO_UDP, IPPROTO_ICMP))
    arp = (
        (ethertype == ETHERTYPE_ARP)
        & (captured >= 42)
        # hardware Ethernet, protocol IPv4, address lengths 6 and 4
        & (_uint(raw, body + 14, 6) == 0x000108000604)
    )

    header_len = np.full(len(body), 14)
    header_len[other] = 34
    header_len[udp | icmp | arp] = 42
    header_len[tcp] = 54
    columns["payload_len"][:] = captured - header_len
    columns["l3"][ipv4] = 4
    columns["proto"][ipv4] = protocol[ipv4]
    columns["ttl"][ipv4] = raw[body[ipv4] + 22]
    columns["src_ip"][ipv4] = _uint(raw, body[ipv4] + 26, 4)
    columns["dst_ip"][ipv4] = _uint(raw, body[ipv4] + 30, 4)
    columns["src_ip"][arp] = _uint(raw, body[arp] + 28, 4)
    columns["dst_ip"][arp] = _uint(raw, body[arp] + 38, 4)
    ports = tcp | udp
    columns["src_port"][ports] = _uint(raw, body[ports] + 34, 2)
    columns["dst_port"][ports] = _uint(raw, body[ports] + 36, 2)
    columns["tcp_flags"][tcp] = raw[body[tcp] + 47]
    columns["window"][tcp] = _uint(raw, body[tcp] + 48, 2)

    decoded = tcp | udp | icmp | other
    return np.flatnonzero((is_ipv4 & ~decoded) | (ethertype == ETHERTYPE_IPV6))
