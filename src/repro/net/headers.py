"""Binary header codecs for the protocols the datasets contain.

Every header type is a frozen dataclass with ``encode()`` producing wire
bytes and a ``decode(data)`` classmethod returning ``(header, consumed)``.
The codecs are deliberately strict: malformed input raises
:class:`HeaderError` rather than producing a half-parsed header, because
downstream feature extraction must never operate on garbage silently.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, replace

from repro.net.checksum import internet_checksum, tcp_udp_pseudo_header

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
ETHERTYPE_IPV6 = 0x86DD

IPPROTO_ICMP = 1
IPPROTO_TCP = 6
IPPROTO_UDP = 17


class HeaderError(ValueError):
    """Raised when a buffer cannot be decoded as the requested header."""


class TCPFlags(enum.IntFlag):
    """TCP control flags, in wire bit order."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80


@dataclass(frozen=True)
class EthernetHeader:
    """An Ethernet II frame header (no 802.1Q tag support needed here)."""

    src_mac: int
    dst_mac: int
    ethertype: int = ETHERTYPE_IPV4

    WIRE_LEN = 14

    def encode(self) -> bytes:
        return (
            self.dst_mac.to_bytes(6, "big")
            + self.src_mac.to_bytes(6, "big")
            + struct.pack("!H", self.ethertype)
        )

    @classmethod
    def decode(cls, data: bytes) -> tuple["EthernetHeader", int]:
        if len(data) < cls.WIRE_LEN:
            raise HeaderError("truncated Ethernet header")
        dst = int.from_bytes(data[0:6], "big")
        src = int.from_bytes(data[6:12], "big")
        (ethertype,) = struct.unpack("!H", data[12:14])
        return cls(src_mac=src, dst_mac=dst, ethertype=ethertype), cls.WIRE_LEN


@dataclass(frozen=True)
class IPv4Header:
    """An IPv4 header; option bytes are kept raw, and IHL follows them."""

    src_ip: int
    dst_ip: int
    protocol: int
    total_length: int = 20
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    flags: int = 2  # don't-fragment, the overwhelmingly common case
    fragment_offset: int = 0
    checksum: int = 0
    options: bytes = b""

    WIRE_LEN = 20

    def encode(self, *, fill_checksum: bool = True) -> bytes:
        version_ihl = (4 << 4) | (5 + len(self.options) // 4)
        flags_frag = (self.flags << 13) | self.fragment_offset
        header = struct.pack(
            "!BBHHHBBHII",
            version_ihl,
            self.dscp << 2,
            self.total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.protocol,
            0,
            self.src_ip,
            self.dst_ip,
        ) + self.options
        if not fill_checksum:
            return header
        checksum = internet_checksum(header)
        return header[:10] + struct.pack("!H", checksum) + header[12:]

    @classmethod
    def decode(cls, data: bytes) -> tuple["IPv4Header", int]:
        if len(data) < cls.WIRE_LEN:
            raise HeaderError("truncated IPv4 header")
        version_ihl = data[0]
        version, ihl = version_ihl >> 4, version_ihl & 0x0F
        if version != 4:
            raise HeaderError(f"not an IPv4 header (version={version})")
        if ihl < 5:
            raise HeaderError(f"invalid IHL: {ihl}")
        header_len = ihl * 4
        if len(data) < header_len:
            raise HeaderError("truncated IPv4 options")
        (
            _,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            checksum,
            src_ip,
            dst_ip,
        ) = struct.unpack("!BBHHHBBHII", data[:20])
        header = cls(
            src_ip=src_ip,
            dst_ip=dst_ip,
            protocol=protocol,
            total_length=total_length,
            ttl=ttl,
            identification=identification,
            dscp=tos >> 2,
            flags=flags_frag >> 13,
            fragment_offset=flags_frag & 0x1FFF,
            checksum=checksum,
            options=bytes(data[20:header_len]),
        )
        return header, header_len


@dataclass(frozen=True)
class IPv6Header:
    """A fixed IPv6 header (40 bytes, no extension-header chasing)."""

    src_ip: bytes
    dst_ip: bytes
    next_header: int
    payload_length: int = 0
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0

    WIRE_LEN = 40

    def __post_init__(self) -> None:
        if len(self.src_ip) != 16 or len(self.dst_ip) != 16:
            raise HeaderError("IPv6 addresses must be 16 bytes")

    def encode(self) -> bytes:
        first_word = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        return (
            struct.pack(
                "!IHBB",
                first_word,
                self.payload_length,
                self.next_header,
                self.hop_limit,
            )
            + self.src_ip
            + self.dst_ip
        )

    @classmethod
    def decode(cls, data: bytes) -> tuple["IPv6Header", int]:
        if len(data) < cls.WIRE_LEN:
            raise HeaderError("truncated IPv6 header")
        (first_word, payload_length, next_header, hop_limit) = struct.unpack(
            "!IHBB", data[:8]
        )
        if first_word >> 28 != 6:
            raise HeaderError("not an IPv6 header")
        return (
            cls(
                src_ip=bytes(data[8:24]),
                dst_ip=bytes(data[24:40]),
                next_header=next_header,
                payload_length=payload_length,
                hop_limit=hop_limit,
                traffic_class=(first_word >> 20) & 0xFF,
                flow_label=first_word & 0xFFFFF,
            ),
            cls.WIRE_LEN,
        )


@dataclass(frozen=True)
class TCPHeader:
    """A TCP header; option bytes are kept raw, and the data offset
    follows them."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = int(TCPFlags.SYN)
    window: int = 65535
    urgent: int = 0
    checksum: int = 0
    options: bytes = b""

    WIRE_LEN = 20

    def encode(self) -> bytes:
        offset_flags = ((5 + len(self.options) // 4) << 12) | (self.flags & 0x1FF)
        return struct.pack(
            "!HHIIHHHH",
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            offset_flags,
            self.window,
            self.checksum,
            self.urgent,
        ) + self.options

    def encode_with_checksum(
        self, src_ip: int, dst_ip: int, payload: bytes = b""
    ) -> bytes:
        """Encode with a valid checksum over the IPv4 pseudo-header."""
        raw = replace(self, checksum=0).encode() + payload
        pseudo = tcp_udp_pseudo_header(src_ip, dst_ip, IPPROTO_TCP, len(raw))
        checksum = internet_checksum(pseudo + raw)
        return replace(self, checksum=checksum).encode()

    @classmethod
    def decode(cls, data: bytes) -> tuple["TCPHeader", int]:
        if len(data) < cls.WIRE_LEN:
            raise HeaderError("truncated TCP header")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_flags,
            window,
            checksum,
            urgent,
        ) = struct.unpack("!HHIIHHHH", data[:20])
        data_offset = offset_flags >> 12
        if data_offset < 5:
            raise HeaderError(f"invalid TCP data offset: {data_offset}")
        header_len = data_offset * 4
        if len(data) < header_len:
            raise HeaderError("truncated TCP options")
        return (
            cls(
                src_port=src_port,
                dst_port=dst_port,
                seq=seq,
                ack=ack,
                flags=offset_flags & 0x1FF,
                window=window,
                checksum=checksum,
                urgent=urgent,
                options=bytes(data[20:header_len]),
            ),
            header_len,
        )


@dataclass(frozen=True)
class UDPHeader:
    """A UDP header."""

    src_port: int
    dst_port: int
    length: int = 8
    checksum: int = 0

    WIRE_LEN = 8

    def encode(self) -> bytes:
        return struct.pack(
            "!HHHH", self.src_port, self.dst_port, self.length, self.checksum
        )

    @classmethod
    def decode(cls, data: bytes) -> tuple["UDPHeader", int]:
        if len(data) < cls.WIRE_LEN:
            raise HeaderError("truncated UDP header")
        src_port, dst_port, length, checksum = struct.unpack("!HHHH", data[:8])
        return (
            cls(
                src_port=src_port,
                dst_port=dst_port,
                length=length,
                checksum=checksum,
            ),
            cls.WIRE_LEN,
        )


@dataclass(frozen=True)
class ICMPHeader:
    """An ICMP header (echo request/reply and unreachable are what we see)."""

    icmp_type: int
    code: int = 0
    checksum: int = 0
    rest: int = 0

    WIRE_LEN = 8

    ECHO_REPLY = 0
    DEST_UNREACHABLE = 3
    ECHO_REQUEST = 8

    def encode(self, payload: bytes = b"", *, fill_checksum: bool = True) -> bytes:
        header = struct.pack("!BBHI", self.icmp_type, self.code, 0, self.rest)
        if fill_checksum:
            checksum = internet_checksum(header + payload)
            header = header[:2] + struct.pack("!H", checksum) + header[4:]
        return header

    @classmethod
    def decode(cls, data: bytes) -> tuple["ICMPHeader", int]:
        if len(data) < cls.WIRE_LEN:
            raise HeaderError("truncated ICMP header")
        icmp_type, code, checksum, rest = struct.unpack("!BBHI", data[:8])
        return (
            cls(icmp_type=icmp_type, code=code, checksum=checksum, rest=rest),
            cls.WIRE_LEN,
        )


@dataclass(frozen=True)
class ARPHeader:
    """An ARP request/reply for IPv4 over Ethernet."""

    operation: int  # 1 = request, 2 = reply
    sender_mac: int
    sender_ip: int
    target_mac: int
    target_ip: int

    WIRE_LEN = 28
    REQUEST = 1
    REPLY = 2

    def encode(self) -> bytes:
        return (
            struct.pack("!HHBBH", 1, ETHERTYPE_IPV4, 6, 4, self.operation)
            + self.sender_mac.to_bytes(6, "big")
            + struct.pack("!I", self.sender_ip)
            + self.target_mac.to_bytes(6, "big")
            + struct.pack("!I", self.target_ip)
        )

    @classmethod
    def decode(cls, data: bytes) -> tuple["ARPHeader", int]:
        if len(data) < cls.WIRE_LEN:
            raise HeaderError("truncated ARP header")
        hw_type, proto_type, hw_len, proto_len, operation = struct.unpack(
            "!HHBBH", data[:8]
        )
        if (hw_type, proto_type, hw_len, proto_len) != (1, ETHERTYPE_IPV4, 6, 4):
            raise HeaderError("unsupported ARP header variant")
        sender_mac = int.from_bytes(data[8:14], "big")
        (sender_ip,) = struct.unpack("!I", data[14:18])
        target_mac = int.from_bytes(data[18:24], "big")
        (target_ip,) = struct.unpack("!I", data[24:28])
        return (
            cls(
                operation=operation,
                sender_mac=sender_mac,
                sender_ip=sender_ip,
                target_mac=target_mac,
                target_ip=target_ip,
            ),
            cls.WIRE_LEN,
        )


@dataclass(frozen=True)
class Dot11Header:
    """A minimal IEEE 802.11 MAC header (as in the AWID3 dataset frames).

    Only the three-address form is modelled; that covers management and
    data frames between stations and an access point, which is all the
    AWID3-style attack traffic needs (deauthentication, evil twin beacons,
    and data frames).
    """

    frame_type: int  # 0 = management, 1 = control, 2 = data
    subtype: int
    addr1: int  # receiver
    addr2: int  # transmitter
    addr3: int  # BSSID
    duration: int = 0
    seq_ctrl: int = 0

    WIRE_LEN = 24

    TYPE_MANAGEMENT = 0
    TYPE_CONTROL = 1
    TYPE_DATA = 2
    SUBTYPE_BEACON = 8
    SUBTYPE_DEAUTH = 12
    SUBTYPE_DISASSOC = 10
    SUBTYPE_QOS_DATA = 8

    def encode(self) -> bytes:
        frame_control = (self.frame_type << 2) | (self.subtype << 4)
        return (
            struct.pack("<HH", frame_control, self.duration)
            + self.addr1.to_bytes(6, "big")
            + self.addr2.to_bytes(6, "big")
            + self.addr3.to_bytes(6, "big")
            + struct.pack("<H", self.seq_ctrl)
        )

    @classmethod
    def decode(cls, data: bytes) -> tuple["Dot11Header", int]:
        if len(data) < cls.WIRE_LEN:
            raise HeaderError("truncated 802.11 header")
        frame_control, duration = struct.unpack("<HH", data[:4])
        version = frame_control & 0x03
        if version != 0:
            raise HeaderError(f"unsupported 802.11 version: {version}")
        return (
            cls(
                frame_type=(frame_control >> 2) & 0x03,
                subtype=(frame_control >> 4) & 0x0F,
                duration=duration,
                addr1=int.from_bytes(data[4:10], "big"),
                addr2=int.from_bytes(data[10:16], "big"),
                addr3=int.from_bytes(data[16:22], "big"),
                seq_ctrl=struct.unpack("<H", data[22:24])[0],
            ),
            cls.WIRE_LEN,
        )
