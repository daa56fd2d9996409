"""Network substrate: columnar traces, pcap I/O, header decoders.

This package replaces the pcap tooling (pypacker, Zeek's packet layer) the
paper builds on.  It provides:

* :mod:`repro.net.addresses` -- IPv4/MAC address conversion helpers.
* :mod:`repro.net.table` -- :class:`PacketTable`, a columnar (numpy)
  representation of a trace that all Lumen operations consume.
* :mod:`repro.net.pcap` -- classic libpcap files: the columnar writer
  :func:`write_pcap_table`, the columnar reader :func:`read_pcap_table`
  and the per-record reader :func:`read_pcap`.
* :mod:`repro.net.headers` -- binary decoders for Ethernet, IPv4, IPv6,
  TCP, UDP, ICMP, ARP and 802.11 headers.
* :mod:`repro.net.packet` -- the :class:`Packet` object model that
  :func:`read_pcap` decodes into: the oracle of the columnar reader.
"""

from repro.net.addresses import (
    ip_to_int,
    int_to_ip,
    mac_to_int,
    int_to_mac,
    in_prefix,
    random_ip_in_prefix,
)
from repro.net.headers import (
    EthernetHeader,
    IPv4Header,
    IPv6Header,
    TCPHeader,
    UDPHeader,
    ICMPHeader,
    ARPHeader,
    Dot11Header,
    TCPFlags,
)
from repro.net.packet import Packet, LinkType
from repro.net.table import PacketTable, PACKET_COLUMNS
from repro.net.pcap import PcapReader, read_pcap, write_pcap_table
from repro.net.inspect import describe_trace, render_description

__all__ = [
    "ip_to_int",
    "int_to_ip",
    "mac_to_int",
    "int_to_mac",
    "in_prefix",
    "random_ip_in_prefix",
    "EthernetHeader",
    "IPv4Header",
    "IPv6Header",
    "TCPHeader",
    "UDPHeader",
    "ICMPHeader",
    "ARPHeader",
    "Dot11Header",
    "TCPFlags",
    "Packet",
    "LinkType",
    "PacketTable",
    "PACKET_COLUMNS",
    "PcapReader",
    "read_pcap",
    "write_pcap_table",
    "describe_trace",
    "render_description",
]
