"""Classic libpcap file format: one writer, two readers.

Implements the original (non-ng) pcap container: a 24-byte global header
followed by per-packet records.  Both byte orders and both timestamp
resolutions (micro/nano) are read; files are written little-endian with
microsecond timestamps, which is what every tool expects.

This replaces the paper's use of pypacker + tcpdump-produced captures:
synthetic traces produced by :mod:`repro.traffic` can be written to real
``.pcap`` files and read back, and third-party pcaps of the supported
link types can be ingested directly.

:func:`write_pcap_table` lays a whole :class:`~repro.net.table.PacketTable`
out with numpy scatters.  There are two readers.  :class:`PcapReader`
(and :func:`read_pcap`) yields one :class:`~repro.net.packet.Packet` per
record.  :func:`read_pcap_table` decodes a whole capture into a table
with numpy gathers, every record as columns; it equals
``PacketTable.from_packets(read_pcap(path))`` column for column and
fails on the same record with the same error.  A
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
#: zero bytes after a capture in memory; more than the deepest offset
#: gathered from every record (TCP data offset behind IHL 15: byte 86)
_PADDING = 87
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

    Every header and record is laid out with numpy scatters into one
    buffer, written with one call.  Each row becomes one frame of its
    ``l2`` link type, with zero payload bytes:

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
    payload = cols["payload_len"].astype(np.int64)
    proto = cols["proto"]
    dot11 = cols["l2"] == LinkType.IEEE802_11
    ether = ~dot11
    ipv4 = ether & (cols["l3"] == 4)
    ipv6 = ether & (cols["l3"] == 6)
    arp = ether & (cols["l3"] == 0) & ((cols["src_ip"] | cols["dst_ip"]) != 0)
    header = np.select([dot11, ipv4, ipv6, arp], [24, 34, 54, 42], 14)
    transport = (ipv4 | ipv6) * np.select(
        [proto == IPPROTO_TCP, np.isin(proto, (IPPROTO_UDP, IPPROTO_ICMP))],
        [20, 8], 0,
    )
    transport[header + transport + payload > cols["length"]] = 0
    size = header + transport + payload
    record = 16 + size
    start = _GLOBAL_HEADER.size + np.cumsum(record) - record
    buf = np.zeros(_GLOBAL_HEADER.size + int(record.sum()), np.uint8)
    link = LinkType.IEEE802_11 if dot11[:1].any() else LinkType.ETHERNET
    snaplen = max(65535, int(size.max(initial=0)))
    buf[: _GLOBAL_HEADER.size] = np.frombuffer(
        _GLOBAL_HEADER.pack(MAGIC_MICRO_LE, 2, 4, 0, 0, snaplen, int(link)), np.uint8
    )

    ts = cols["ts"]
    seconds = np.trunc(ts)
    micros = np.round((ts - seconds) * 1_000_000)  # half to even, as round()
    carry = micros >= 1_000_000
    for k, field in enumerate((
        seconds + carry, micros - 1_000_000 * carry,
        size, np.maximum(cols["length"], size),
    )):
        _put(buf, start + 4 * k, field.astype(np.int64), 4, "<")

    body = start + 16
    at = body[dot11]
    buf[at] = ((cols["wlan_type"][dot11] & 0x03) << 2) | (
        (cols["wlan_subtype"][dot11] & 0x0F) << 4
    )
    for offset in (4, 16):
        _put(buf, at + offset, cols["dst_mac"][dot11], 6)
    _put(buf, at + 10, cols["src_mac"][dot11], 6)

    at = body[ether]
    _put(buf, at, cols["dst_mac"][ether], 6)
    _put(buf, at + 6, cols["src_mac"][ether], 6)
    ethertype = np.select(
        [ipv4, ipv6, arp], [ETHERTYPE_IPV4, ETHERTYPE_IPV6, ETHERTYPE_ARP],
        ETHERTYPE_EXPERIMENTAL,
    )
    _put(buf, at + 12, ethertype[ether], 2)

    at = body[arp] + 14
    _put(buf, at, 0x0001080006040001, 8)  # Ethernet, IPv4, 6, 4, request
    _put(buf, at + 8, cols["src_mac"][arp], 6)
    _put(buf, at + 14, cols["src_ip"][arp], 4)
    _put(buf, at + 18, cols["dst_mac"][arp], 6)
    _put(buf, at + 24, cols["dst_ip"][arp], 4)

    at = body[ipv4] + 14
    total = (20 + transport[ipv4] + payload[ipv4]) & 0xFFFF
    ttl_proto = (cols["ttl"][ipv4].astype(np.int64) << 8) | proto[ipv4]
    src, dst = cols["src_ip"][ipv4], cols["dst_ip"][ipv4]
    checksum = (
        0x4500 + total + 0x4000 + ttl_proto
        + (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
    )
    for _ in range(2):
        checksum = (checksum & 0xFFFF) + (checksum >> 16)
    buf[at] = 0x45
    _put(buf, at + 2, total, 2)
    buf[at + 6] = 0x40  # don't fragment
    _put(buf, at + 8, ttl_proto, 2)
    _put(buf, at + 10, ~checksum & 0xFFFF, 2)
    _put(buf, at + 12, src, 4)
    _put(buf, at + 16, dst, 4)

    at = body[ipv6] + 14
    buf[at] = 0x60
    _put(buf, at + 4, transport[ipv6] + payload[ipv6], 2)
    buf[at + 6] = proto[ipv6]
    buf[at + 7] = cols["ttl"][ipv6]

    l4 = body + header
    tcp = transport == 20
    udp = (transport == 8) & (proto == IPPROTO_UDP)
    icmp = (transport == 8) & (proto == IPPROTO_ICMP)
    ports = tcp | udp
    _put(buf, l4[ports], cols["src_port"][ports], 2)
    _put(buf, l4[ports] + 2, cols["dst_port"][ports], 2)
    buf[l4[tcp] + 12] = 0x50  # data offset 5
    buf[l4[tcp] + 13] = cols["tcp_flags"][tcp]
    _put(buf, l4[tcp] + 14, cols["window"][tcp], 2)
    _put(buf, l4[udp] + 4, 8 + payload[udp], 2)
    # echo request; over zero payload bytes the checksum is a constant
    _put(buf, l4[icmp], 0x0800F7FF, 4)
    with open(path, "wb") as handle:
        handle.write(buf)


def read_pcap_table(path: str | Path) -> PacketTable:
    """Read a whole capture into a :class:`PacketTable`.

    The file is read once and its record headers walked once, and every
    record is decoded as columns.  The result equals
    ``PacketTable.from_packets(read_pcap(path))`` byte for byte in
    every column, and a malformed capture raises what
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

    if link_type == LinkType.IEEE802_11:
        decode = Dot11Header.decode
        broken = np.flatnonzero((captured < 24) | (raw[body] & 0x03 != 0))
    else:
        decode = EthernetHeader.decode
        broken = np.flatnonzero(captured < 14)
    if broken.size:
        at = int(body[broken[0]])
        decode(bytes(buf[at : at + int(captured[broken[0]])]))  # raises
    if failure is not None:
        raise PcapFormatError(failure)

    table = PacketTable.empty(len(starts))
    columns = table.columns
    columns["ts"][:] = ts
    columns["length"][:] = np.maximum(captured, orig)
    if link_type == LinkType.IEEE802_11:
        _fill_dot11(columns, raw, body, captured)
    else:
        _fill_ethernet(columns, raw, body, captured)
    return table


def _record_starts(
    buf: bytearray, end: int, order: str
) -> tuple[np.ndarray, str | None]:
    """Offsets of the complete records in ``buf[:end]``, and why the
    walk stopped short of ``end`` (``None`` when it did not)."""
    captured_len = struct.Struct(order + "I").unpack_from
    header = _RECORD_HEADER.size
    starts = []
    append = starts.append
    failure = None
    at = _GLOBAL_HEADER.size
    while at < end:
        # a header cut short by ``end`` reads the zero padding past it;
        # ``following`` lands past ``end`` either way
        following = at + header + captured_len(buf, at + 8)[0]
        if following > end:
            failure = (
                "truncated pcap record header" if end - at < header
                else "truncated pcap record body"
            )
            break
        append(at)
        at = following
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


def _put(
    buf: np.ndarray, at: np.ndarray, value, width: int, order: str = ">"
) -> None:
    """Scatter the low ``width`` bytes of ``value`` to each offset, in
    byte order ``order`` (network order by default)."""
    value = np.broadcast_to(np.asarray(value).astype(order + "u8"), at.shape)
    raw = np.ascontiguousarray(value).reshape(-1, 1).view(np.uint8)
    buf[at[:, None] + np.arange(width)] = (
        raw[:, 8 - width :] if order == ">" else raw[:, :width]
    )


def _fill_dot11(columns, raw, body, captured) -> None:
    """Fill the columns of 802.11 records, every one past the header check."""
    frame_control = raw[body]
    columns["l2"][:] = int(LinkType.IEEE802_11)
    columns["wlan_type"][:] = (frame_control >> 2) & 0x03
    columns["wlan_subtype"][:] = frame_control >> 4
    columns["dst_mac"][:] = _uint(raw, body + 4, 6)
    columns["src_mac"][:] = _uint(raw, body + 10, 6)
    columns["payload_len"][:] = captured - 24


def _fill_ethernet(columns, raw, body, captured) -> None:
    """Fill the columns of Ethernet records, each layer decoded where
    :meth:`Packet.parse` decodes it, at per-row offsets: ``4 * IHL``
    IPv4 bytes or 40 IPv6 bytes, then ``4 * data offset`` TCP bytes.  A
    layer that does not decode ends the headers; its bytes are payload.
    """
    columns["dst_mac"][:] = _uint(raw, body, 6)
    columns["src_mac"][:] = _uint(raw, body + 6, 6)
    ethertype = _uint(raw, body + 12, 2)
    first = raw[body + 14]  # the IP version, and IPv4's IHL
    ihl = (first & 0x0F).astype(np.int64)
    ipv4 = (
        (ethertype == ETHERTYPE_IPV4) & (first >> 4 == 4) & (ihl >= 5)
        & (captured >= 14 + 4 * ihl)  # options fully captured
    )
    ipv6 = (ethertype == ETHERTYPE_IPV6) & (first >> 4 == 6) & (captured >= 54)
    ip = ipv4 | ipv6
    l4 = np.where(ipv6, 54, 14 + 4 * ihl)
    protocol = raw[body + 23 - 3 * ipv6]  # IPv6's next header is byte 20
    data_offset = (raw[body + l4 + 12] >> 4).astype(np.int64)
    tcp = (
        ip & (protocol == IPPROTO_TCP) & (data_offset >= 5)
        & (captured >= l4 + 4 * data_offset)  # options fully captured
    )
    udp = ip & (protocol == IPPROTO_UDP) & (captured >= l4 + 8)
    icmp = ip & (protocol == IPPROTO_ICMP) & (captured >= l4 + 8)
    arp = (ethertype == ETHERTYPE_ARP) & (captured >= 42)
    # hardware Ethernet, protocol IPv4, address lengths 6 and 4
    arp[arp] = _uint(raw, body[arp] + 14, 6) == 0x000108000604

    columns["payload_len"][:] = captured - np.where(
        ip, l4 + 8 * (udp | icmp) + 4 * data_offset * tcp, 14 + 28 * arp
    )
    columns["l3"][ipv4] = 4
    columns["l3"][ipv6] = 6
    columns["proto"][ip] = protocol[ip]
    columns["ttl"][ip] = raw[(body + 22 - ipv6)[ip]]  # IPv6's hop limit: 21
    columns["src_ip"][ipv4] = _uint(raw, body[ipv4] + 26, 4)
    columns["dst_ip"][ipv4] = _uint(raw, body[ipv4] + 30, 4)
    columns["src_ip"][arp] = _uint(raw, body[arp] + 28, 4)
    columns["dst_ip"][arp] = _uint(raw, body[arp] + 38, 4)
    ports = tcp | udp
    at = body[ports] + l4[ports]
    columns["src_port"][ports] = _uint(raw, at, 2)
    columns["dst_port"][ports] = _uint(raw, at + 2, 2)
    at = body[tcp] + l4[tcp]
    columns["tcp_flags"][tcp] = raw[at + 13]
    columns["window"][tcp] = _uint(raw, at + 14, 2)
