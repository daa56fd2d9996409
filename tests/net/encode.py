"""The scalar encode path: one ``Packet`` per row, one header at a time.

This is the oracle ``repro.net.pcap.write_pcap_table`` is compared with
(batch = scalar), and the tests' way to build frames from header
objects.  Each header type encodes to wire bytes with :func:`encode`;
:func:`encode_packet` stacks a packet's layers; :func:`table_to_packets`
turns each table row into a synthetic packet; :class:`PcapWriter` and
:func:`write_pcap` write packets as a little-endian microsecond capture.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.net.headers import (
    ARPHeader,
    Dot11Header,
    EthernetHeader,
    ICMPHeader,
    IPv4Header,
    IPv6Header,
    TCPHeader,
    UDPHeader,
    ETHERTYPE_IPV4,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
)
from repro.net.packet import LinkType, Packet
from repro.net.pcap import MAGIC_MICRO_LE


def internet_checksum(data: bytes) -> int:
    """The 16-bit one's-complement checksum of RFC 1071 over ``data``.

    Odd-length input is zero-padded on the right.  The return value is
    the checksum field value (already complemented).
    """
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:  # fold carries until the sum fits in 16 bits
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def tcp_udp_pseudo_header(
    src_ip: int, dst_ip: int, protocol: int, length: int
) -> bytes:
    """The IPv4 pseudo-header of the TCP/UDP checksum."""
    return struct.pack("!IIBBH", src_ip, dst_ip, 0, protocol, length)


@functools.singledispatch
def encode(header, payload: bytes = b"") -> bytes:
    """Wire bytes of one header; ``payload`` counts only in the ICMP
    checksum."""
    raise TypeError(f"no encoder for {type(header).__name__}")


@encode.register
def _(header: EthernetHeader, payload: bytes = b"") -> bytes:
    return (
        header.dst_mac.to_bytes(6, "big")
        + header.src_mac.to_bytes(6, "big")
        + struct.pack("!H", header.ethertype)
    )


@encode.register
def _(header: IPv4Header, payload: bytes = b"") -> bytes:
    raw = struct.pack(
        "!BBHHHBBHII",
        (4 << 4) | (5 + len(header.options) // 4),
        header.dscp << 2,
        header.total_length,
        header.identification,
        (header.flags << 13) | header.fragment_offset,
        header.ttl,
        header.protocol,
        0,
        header.src_ip,
        header.dst_ip,
    ) + header.options
    return raw[:10] + struct.pack("!H", internet_checksum(raw)) + raw[12:]


@encode.register
def _(header: IPv6Header, payload: bytes = b"") -> bytes:
    first_word = (6 << 28) | (header.traffic_class << 20) | header.flow_label
    return (
        struct.pack(
            "!IHBB", first_word, header.payload_length, header.next_header,
            header.hop_limit,
        )
        + header.src_ip
        + header.dst_ip
    )


@encode.register
def _(header: TCPHeader, payload: bytes = b"") -> bytes:
    offset_flags = ((5 + len(header.options) // 4) << 12) | (header.flags & 0x1FF)
    return struct.pack(
        "!HHIIHHHH",
        header.src_port,
        header.dst_port,
        header.seq,
        header.ack,
        offset_flags,
        header.window,
        header.checksum,
        header.urgent,
    ) + header.options


@encode.register
def _(header: UDPHeader, payload: bytes = b"") -> bytes:
    return struct.pack(
        "!HHHH", header.src_port, header.dst_port, header.length, header.checksum
    )


@encode.register
def _(header: ICMPHeader, payload: bytes = b"") -> bytes:
    raw = struct.pack("!BBHI", header.icmp_type, header.code, 0, header.rest)
    checksum = internet_checksum(raw + payload)
    return raw[:2] + struct.pack("!H", checksum) + raw[4:]


@encode.register
def _(header: ARPHeader, payload: bytes = b"") -> bytes:
    return (
        struct.pack("!HHBBH", 1, ETHERTYPE_IPV4, 6, 4, header.operation)
        + header.sender_mac.to_bytes(6, "big")
        + struct.pack("!I", header.sender_ip)
        + header.target_mac.to_bytes(6, "big")
        + struct.pack("!I", header.target_ip)
    )


@encode.register
def _(header: Dot11Header, payload: bytes = b"") -> bytes:
    frame_control = (header.frame_type << 2) | (header.subtype << 4)
    return (
        struct.pack("<HH", frame_control, header.duration)
        + header.addr1.to_bytes(6, "big")
        + header.addr2.to_bytes(6, "big")
        + header.addr3.to_bytes(6, "big")
        + struct.pack("<H", header.seq_ctrl)
    )


def encode_tcp_with_checksum(
    header: TCPHeader, src_ip: int, dst_ip: int, payload: bytes = b""
) -> bytes:
    """A TCP header with a valid checksum over the IPv4 pseudo-header."""
    raw = encode(replace(header, checksum=0)) + payload
    pseudo = tcp_udp_pseudo_header(src_ip, dst_ip, IPPROTO_TCP, len(raw))
    return encode(replace(header, checksum=internet_checksum(pseudo + raw)))


def encode_packet(packet: Packet) -> bytes:
    """A packet's wire bytes, outermost layer first."""
    return b"".join(
        [encode(layer, packet.payload) for layer in packet.layers] + [packet.payload]
    )


def table_to_packets(table) -> list[Packet]:
    """One synthetic :class:`Packet` per table row, payload zero-filled
    to ``payload_len``.

    Every row with ``l3 != 4`` becomes an ARP frame (ethertype 0x0806):
    IPv6 and other-ethertype rows come out as bodiless ARP, and ARP rows
    drop their payload.  ``write_pcap_table`` writes those rows
    correctly, so they are where the two writers differ.
    """
    cols = table.columns
    return [_row_to_packet(table, cols, i) for i in range(len(table))]


def _row_to_packet(table, cols: dict[str, np.ndarray], i: int) -> Packet:
    payload = b"\x00" * int(cols["payload_len"][i])
    layers: list = []
    if cols["l2"][i] == int(LinkType.IEEE802_11):
        layers.append(
            Dot11Header(
                frame_type=int(cols["wlan_type"][i]) & 0x03,
                subtype=int(cols["wlan_subtype"][i]) & 0x0F,
                addr1=int(cols["dst_mac"][i]),
                addr2=int(cols["src_mac"][i]),
                addr3=int(cols["dst_mac"][i]),
            )
        )
    else:
        ethertype = 0x0800 if cols["l3"][i] == 4 else 0x0806
        layers.append(
            EthernetHeader(
                src_mac=int(cols["src_mac"][i]),
                dst_mac=int(cols["dst_mac"][i]),
                ethertype=ethertype,
            )
        )
        if cols["l3"][i] == 0 and (cols["src_ip"][i] or cols["dst_ip"][i]):
            layers.append(
                ARPHeader(
                    operation=ARPHeader.REQUEST,
                    sender_mac=int(cols["src_mac"][i]),
                    sender_ip=int(cols["src_ip"][i]),
                    target_mac=int(cols["dst_mac"][i]),
                    target_ip=int(cols["dst_ip"][i]),
                )
            )
            payload = b""
        if cols["l3"][i] == 4:
            proto = int(cols["proto"][i])
            transport_len = {IPPROTO_TCP: 20, IPPROTO_UDP: 8, IPPROTO_ICMP: 8}.get(
                proto, 0
            )
            layers.append(
                IPv4Header(
                    src_ip=int(cols["src_ip"][i]),
                    dst_ip=int(cols["dst_ip"][i]),
                    protocol=proto,
                    total_length=20 + transport_len + len(payload),
                    ttl=int(cols["ttl"][i]),
                )
            )
            if proto == IPPROTO_TCP:
                layers.append(
                    TCPHeader(
                        src_port=int(cols["src_port"][i]),
                        dst_port=int(cols["dst_port"][i]),
                        flags=int(cols["tcp_flags"][i]),
                        window=int(cols["window"][i]),
                    )
                )
            elif proto == IPPROTO_UDP:
                layers.append(
                    UDPHeader(
                        src_port=int(cols["src_port"][i]),
                        dst_port=int(cols["dst_port"][i]),
                        length=8 + len(payload),
                    )
                )
            elif proto == IPPROTO_ICMP:
                layers.append(ICMPHeader(icmp_type=ICMPHeader.ECHO_REQUEST))
    attack_id = int(cols["attack_id"][i])
    return Packet(
        timestamp=float(cols["ts"][i]),
        layers=layers,
        payload=payload,
        label=int(cols["label"][i]),
        attack=table.attacks[attack_id] if attack_id >= 0 else "",
    )


class PcapWriter:
    """Streams packets into a classic little-endian microsecond pcap.

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
        self._file = None

    def __enter__(self) -> "PcapWriter":
        self._file = open(self._path, "wb")
        self._file.write(
            struct.pack(
                "<IHHiIII", MAGIC_MICRO_LE, 2, 4, 0, 0, self._snaplen,
                int(self._link_type),
            )
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._file.close()

    def write(self, packet: Packet) -> None:
        """Append one record; a packet read from a snaplen-cut record
        keeps its original length."""
        data = encode_packet(packet)
        captured = data[: self._snaplen]
        seconds = int(packet.timestamp)
        micros = int(round((packet.timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:  # rounding can push us into the next second
            seconds += 1
            micros -= 1_000_000
        self._file.write(
            struct.pack(
                "<IIII", seconds, micros, len(captured),
                packet.orig_len or len(data),
            )
        )
        self._file.write(captured)


def write_pcap(
    path: str | Path, packets: list[Packet], link_type: LinkType | None = None
) -> None:
    """Write packets to a pcap; the link type defaults to the first
    packet's."""
    if link_type is None:
        link_type = packets[0].link_type if packets else LinkType.ETHERNET
    with PcapWriter(path, link_type=link_type) as writer:
        for packet in packets:
            writer.write(packet)
