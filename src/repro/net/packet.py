"""The :class:`Packet` object model.

A :class:`Packet` is a timestamp plus a stack of decoded header layers and
an opaque payload.  Packets are produced either by the traffic generators
or by parsing raw frames from a pcap file; they can always be re-encoded
to wire bytes, so traces round-trip through real ``.pcap`` files.

Bulk feature extraction does not iterate over ``Packet`` objects -- it
uses the columnar :class:`repro.net.table.PacketTable` -- and neither does
bulk import: :func:`repro.net.pcap.read_pcap_table` decodes regular frames
with numpy gathers.  :meth:`Packet.parse` decodes the irregular records
that reader hands back (IPv6, IPv4 or TCP options, frames too short for
their layout), and it is the oracle the columnar reader must match byte
for byte.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.net.headers import (
    ARPHeader,
    Dot11Header,
    EthernetHeader,
    HeaderError,
    ICMPHeader,
    IPv4Header,
    IPv6Header,
    TCPHeader,
    UDPHeader,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
)

Layer = (
    EthernetHeader
    | IPv4Header
    | IPv6Header
    | TCPHeader
    | UDPHeader
    | ICMPHeader
    | ARPHeader
    | Dot11Header
)


class LinkType(enum.IntEnum):
    """Pcap link types we read and write."""

    ETHERNET = 1
    IEEE802_11 = 105


@dataclass
class Packet:
    """A parsed packet: capture timestamp, header layers, payload bytes."""

    timestamp: float
    layers: list[Layer] = field(default_factory=list)
    payload: bytes = b""
    label: int = 0  # 0 = benign, 1 = malicious
    attack: str = ""  # attack name when label == 1
    #: the record's original length when a snaplen cut the capture
    #: short of it; 0 when every byte was captured
    orig_len: int = 0

    def layer(self, layer_type: type) -> Layer | None:
        """Return the first layer of the given type, or ``None``."""
        for item in self.layers:
            if isinstance(item, layer_type):
                return item
        return None

    def has(self, layer_type: type) -> bool:
        """Return whether the packet carries a layer of the given type."""
        return self.layer(layer_type) is not None

    @property
    def link_type(self) -> LinkType:
        if self.layers and isinstance(self.layers[0], Dot11Header):
            return LinkType.IEEE802_11
        return LinkType.ETHERNET

    def encode(self) -> bytes:
        """Re-encode the packet to wire bytes (outermost layer first)."""
        parts: list[bytes] = []
        for item in self.layers:
            if isinstance(item, ICMPHeader):
                parts.append(item.encode(self.payload))
            else:
                parts.append(item.encode())
        parts.append(self.payload)
        return b"".join(parts)

    @property
    def wire_length(self) -> int:
        """Total on-the-wire length in bytes.

        Each layer counts its fixed part plus any option bytes, so a
        parsed frame reports its captured length.  A truncated capture
        reports the record's original length; the captured layers and
        payload would under-count it.
        """
        if self.orig_len:
            return self.orig_len
        total = len(self.payload)
        for item in self.layers:
            total += item.WIRE_LEN + len(getattr(item, "options", b""))
        return total

    @classmethod
    def parse(
        cls,
        data: bytes,
        timestamp: float = 0.0,
        link_type: LinkType = LinkType.ETHERNET,
        orig_len: int = 0,
    ) -> "Packet":
        """Parse a raw frame into a layered :class:`Packet`.

        Parsing is best-effort beyond the link layer: once a layer fails
        to decode, remaining bytes become the payload.  The link layer
        itself must decode, otherwise :class:`HeaderError` propagates.
        ``orig_len`` is the capture record's original length; it is kept
        only when it exceeds ``len(data)``, i.e. the frame was truncated.
        """
        layers: list[Layer] = []
        offset = 0
        orig_len = orig_len if orig_len > len(data) else 0

        if link_type == LinkType.IEEE802_11:
            dot11, consumed = Dot11Header.decode(data)
            layers.append(dot11)
            offset += consumed
            return cls(
                timestamp=timestamp, layers=layers,
                payload=bytes(data[offset:]), orig_len=orig_len,
            )

        ether, consumed = EthernetHeader.decode(data)
        layers.append(ether)
        offset += consumed
        try:
            if ether.ethertype == ETHERTYPE_IPV4:
                offset += cls._parse_ipv4(data, offset, layers)
            elif ether.ethertype == ETHERTYPE_IPV6:
                offset += cls._parse_ipv6(data, offset, layers)
            elif ether.ethertype == ETHERTYPE_ARP:
                arp, consumed = ARPHeader.decode(data[offset:])
                layers.append(arp)
                offset += consumed
        except HeaderError:
            pass  # remaining bytes become the payload
        return cls(
            timestamp=timestamp, layers=layers,
            payload=bytes(data[offset:]), orig_len=orig_len,
        )

    @staticmethod
    def _parse_ipv4(data: bytes, offset: int, layers: list[Layer]) -> int:
        ipv4, consumed = IPv4Header.decode(data[offset:])
        layers.append(ipv4)
        total = consumed
        try:
            total += Packet._parse_transport(
                data, offset + consumed, ipv4.protocol, layers
            )
        except HeaderError:
            pass
        return total

    @staticmethod
    def _parse_ipv6(data: bytes, offset: int, layers: list[Layer]) -> int:
        ipv6, consumed = IPv6Header.decode(data[offset:])
        layers.append(ipv6)
        total = consumed
        try:
            total += Packet._parse_transport(
                data, offset + consumed, ipv6.next_header, layers
            )
        except HeaderError:
            pass
        return total

    @staticmethod
    def _parse_transport(
        data: bytes, offset: int, protocol: int, layers: list[Layer]
    ) -> int:
        if protocol == IPPROTO_TCP:
            tcp, consumed = TCPHeader.decode(data[offset:])
            layers.append(tcp)
            return consumed
        if protocol == IPPROTO_UDP:
            udp, consumed = UDPHeader.decode(data[offset:])
            layers.append(udp)
            return consumed
        if protocol == IPPROTO_ICMP:
            icmp, consumed = ICMPHeader.decode(data[offset:])
            layers.append(icmp)
            return consumed
        return 0
