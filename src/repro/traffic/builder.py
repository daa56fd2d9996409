"""Columnar trace builder.

Generators append rows here instead of constructing
:class:`~repro.net.packet.Packet` objects; the builder produces a
:class:`~repro.net.table.PacketTable` directly, which keeps generating a
multi-thousand-packet dataset fast.  A built table round-trips through a
real capture with :func:`repro.net.pcap.write_pcap_table` and
:func:`repro.net.pcap.read_pcap_table`.
"""

from __future__ import annotations

import numpy as np

from repro.net.headers import (
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
    ARPHeader,
    Dot11Header,
    EthernetHeader,
    ICMPHeader,
    IPv4Header,
    TCPFlags,
    TCPHeader,
    UDPHeader,
)
from repro.net.packet import LinkType
from repro.net.table import PACKET_COLUMNS, PacketTable
from repro.obs import METRICS, get_tracer
from repro.obs import metrics as metric_names


class TraceBuilder:
    """Accumulates packet rows and finalises them into a PacketTable."""

    def __init__(self) -> None:
        self._rows: dict[str, list] = {name: [] for name in PACKET_COLUMNS}
        self._attacks: list[str] = []
        self._attack_index: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._rows["ts"])

    def _attack_id(self, attack: str) -> int:
        if not attack:
            return -1
        if attack not in self._attack_index:
            self._attack_index[attack] = len(self._attacks)
            self._attacks.append(attack)
        return self._attack_index[attack]

    def _append(self, **values) -> None:
        defaults = {
            "ts": 0.0,
            "src_ip": 0,
            "dst_ip": 0,
            "src_port": 0,
            "dst_port": 0,
            "proto": 0,
            "length": 0,
            "payload_len": 0,
            "tcp_flags": 0,
            "ttl": 64,
            "window": 0,
            "l2": int(LinkType.ETHERNET),
            "l3": 4,
            "wlan_type": 255,
            "wlan_subtype": 255,
            "src_mac": 0,
            "dst_mac": 0,
            "label": 0,
            "attack_id": -1,
        }
        defaults.update(values)
        for name, value in defaults.items():
            self._rows[name].append(value)

    # ------------------------------------------------------------------
    # Per-protocol row helpers
    # ------------------------------------------------------------------

    def add_tcp(
        self,
        ts: float,
        src_ip: int,
        dst_ip: int,
        src_port: int,
        dst_port: int,
        payload_len: int = 0,
        flags: int = int(TCPFlags.ACK),
        ttl: int = 64,
        window: int = 65535,
        src_mac: int = 0,
        dst_mac: int = 0,
        attack: str = "",
    ) -> None:
        self._append(
            ts=ts,
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            proto=IPPROTO_TCP,
            length=(EthernetHeader.WIRE_LEN + IPv4Header.WIRE_LEN
                    + TCPHeader.WIRE_LEN + payload_len),
            payload_len=payload_len,
            tcp_flags=flags,
            ttl=ttl,
            window=window,
            src_mac=src_mac,
            dst_mac=dst_mac,
            label=1 if attack else 0,
            attack_id=self._attack_id(attack),
        )

    def add_udp(
        self,
        ts: float,
        src_ip: int,
        dst_ip: int,
        src_port: int,
        dst_port: int,
        payload_len: int = 0,
        ttl: int = 64,
        src_mac: int = 0,
        dst_mac: int = 0,
        attack: str = "",
    ) -> None:
        self._append(
            ts=ts,
            src_ip=src_ip,
            dst_ip=dst_ip,
            src_port=src_port,
            dst_port=dst_port,
            proto=IPPROTO_UDP,
            length=(EthernetHeader.WIRE_LEN + IPv4Header.WIRE_LEN
                    + UDPHeader.WIRE_LEN + payload_len),
            payload_len=payload_len,
            ttl=ttl,
            src_mac=src_mac,
            dst_mac=dst_mac,
            label=1 if attack else 0,
            attack_id=self._attack_id(attack),
        )

    def add_icmp(
        self,
        ts: float,
        src_ip: int,
        dst_ip: int,
        payload_len: int = 0,
        ttl: int = 64,
        attack: str = "",
    ) -> None:
        self._append(
            ts=ts,
            src_ip=src_ip,
            dst_ip=dst_ip,
            proto=IPPROTO_ICMP,
            length=(EthernetHeader.WIRE_LEN + IPv4Header.WIRE_LEN
                    + ICMPHeader.WIRE_LEN + payload_len),
            payload_len=payload_len,
            ttl=ttl,
            label=1 if attack else 0,
            attack_id=self._attack_id(attack),
        )

    def add_arp(
        self,
        ts: float,
        src_mac: int,
        dst_mac: int,
        sender_ip: int,
        target_ip: int,
        attack: str = "",
    ) -> None:
        self._append(
            ts=ts,
            src_ip=sender_ip,
            dst_ip=target_ip,
            l3=0,
            length=EthernetHeader.WIRE_LEN + ARPHeader.WIRE_LEN,
            payload_len=0,
            src_mac=src_mac,
            dst_mac=dst_mac,
            label=1 if attack else 0,
            attack_id=self._attack_id(attack),
        )

    def add_dot11(
        self,
        ts: float,
        frame_type: int,
        subtype: int,
        src_mac: int,
        dst_mac: int,
        payload_len: int = 0,
        attack: str = "",
    ) -> None:
        self._append(
            ts=ts,
            l2=int(LinkType.IEEE802_11),
            l3=0,
            wlan_type=frame_type,
            wlan_subtype=subtype,
            length=Dot11Header.WIRE_LEN + payload_len,
            payload_len=payload_len,
            src_mac=src_mac,
            dst_mac=dst_mac,
            ttl=0,
            label=1 if attack else 0,
            attack_id=self._attack_id(attack),
        )

    # ------------------------------------------------------------------
    # Compound helpers
    # ------------------------------------------------------------------

    def add_tcp_session(
        self,
        start: float,
        client_ip: int,
        server_ip: int,
        client_port: int,
        server_port: int,
        request_sizes: list[int],
        response_sizes: list[int],
        rng: np.random.Generator,
        gap: float = 0.05,
        ttl: int = 64,
        attack: str = "",
    ) -> float:
        """Emit a full TCP session (handshake, data, teardown).

        Returns the timestamp after the final packet.
        """
        ts = start
        syn, syn_ack, ack = TCPFlags.SYN, TCPFlags.SYN | TCPFlags.ACK, TCPFlags.ACK
        psh_ack = TCPFlags.PSH | TCPFlags.ACK
        fin_ack = TCPFlags.FIN | TCPFlags.ACK
        self.add_tcp(ts, client_ip, server_ip, client_port, server_port, 0, int(syn), ttl, attack=attack)
        ts += float(rng.exponential(gap / 5) + 1e-4)
        self.add_tcp(ts, server_ip, client_ip, server_port, client_port, 0, int(syn_ack), ttl, attack=attack)
        ts += float(rng.exponential(gap / 5) + 1e-4)
        self.add_tcp(ts, client_ip, server_ip, client_port, server_port, 0, int(ack), ttl, attack=attack)
        pairs = max(len(request_sizes), len(response_sizes))
        for i in range(pairs):
            ts += float(rng.exponential(gap) + 1e-4)
            if i < len(request_sizes):
                self.add_tcp(
                    ts, client_ip, server_ip, client_port, server_port,
                    int(request_sizes[i]), int(psh_ack), ttl, attack=attack,
                )
                ts += float(rng.exponential(gap) + 1e-4)
            if i < len(response_sizes):
                self.add_tcp(
                    ts, server_ip, client_ip, server_port, client_port,
                    int(response_sizes[i]), int(psh_ack), ttl, attack=attack,
                )
        ts += float(rng.exponential(gap) + 1e-4)
        self.add_tcp(ts, client_ip, server_ip, client_port, server_port, 0, int(fin_ack), ttl, attack=attack)
        ts += float(rng.exponential(gap / 5) + 1e-4)
        self.add_tcp(ts, server_ip, client_ip, server_port, client_port, 0, int(fin_ack), ttl, attack=attack)
        return ts

    def add_udp_exchange(
        self,
        start: float,
        client_ip: int,
        server_ip: int,
        client_port: int,
        server_port: int,
        query_len: int,
        reply_len: int,
        rng: np.random.Generator,
        ttl: int = 64,
        attack: str = "",
    ) -> float:
        """A UDP request/response pair (e.g. a DNS lookup)."""
        self.add_udp(start, client_ip, server_ip, client_port, server_port, query_len, ttl, attack=attack)
        ts = start + float(rng.exponential(0.02) + 1e-4)
        self.add_udp(ts, server_ip, client_ip, server_port, client_port, reply_len, ttl, attack=attack)
        return ts

    # ------------------------------------------------------------------

    def build(self, sort: bool = True) -> PacketTable:
        """Finalise into a (time-sorted) PacketTable."""
        columns = {
            name: np.asarray(values, dtype=dtype)
            for (name, dtype), values in zip(
                PACKET_COLUMNS.items(), self._rows.values()
            )
        }
        table = PacketTable(columns=columns, attacks=list(self._attacks))
        attack_packets = int((columns["label"] == 1).sum())
        METRICS.counter(
            metric_names.PACKETS_GENERATED,
            "packets emitted by the traffic generators",
        ).inc(len(table))
        METRICS.counter(
            metric_names.ATTACK_PACKETS,
            "attack-labelled packets emitted by the traffic generators",
        ).inc(attack_packets)
        METRICS.counter(
            metric_names.TRACES_BUILT, "traces finalised by TraceBuilder"
        ).inc()
        get_tracer().event(
            "traffic.build",
            packets=len(table),
            attack_packets=attack_packets,
            attacks=",".join(self._attacks),
        )
        return table.sort_by_time() if sort else table
