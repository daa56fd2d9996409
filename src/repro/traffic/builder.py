"""Columnar trace builder.

Generators append rows here instead of constructing
:class:`~repro.net.packet.Packet` objects; the builder produces a
:class:`~repro.net.table.PacketTable` directly, which keeps generating a
multi-thousand-packet dataset fast.  A built table round-trips through a
real capture with :func:`repro.net.pcap.write_pcap_table` and
:func:`repro.net.pcap.read_pcap_table`.

Each ``add_*`` helper appends one plain tuple, its fields in
:data:`~repro.net.table.PACKET_COLUMNS` order.  Every
:data:`BLOCK_ROWS` rows the pending tuples become one structured numpy
block (one field per column), so the Python objects held at any time
stay bounded; :meth:`TraceBuilder.build` converts the tail and
concatenates the blocks column by column.  A value out of its column's
range raises ``OverflowError`` when its block is converted: at the
``add_*`` call that fills the block, or at ``build()`` for the tail.
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

#: pending rows converted to one numpy block at a time
BLOCK_ROWS = 4096

_ROW_DTYPE = np.dtype(list(PACKET_COLUMNS.items()))
_ETHERNET = int(LinkType.ETHERNET)
_DOT11 = int(LinkType.IEEE802_11)
_IPV4_LEN = EthernetHeader.WIRE_LEN + IPv4Header.WIRE_LEN


class TraceBuilder:
    """Accumulates packet rows and finalises them into a PacketTable."""

    def __init__(self) -> None:
        self._pending: list[tuple] = []
        self._blocks: list[np.ndarray] = []  # each BLOCK_ROWS rows
        self._attacks: list[str] = []
        self._attack_index: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._blocks) * BLOCK_ROWS + len(self._pending)

    def _attack_id(self, attack: str) -> int:
        if not attack:
            return -1
        if attack not in self._attack_index:
            self._attack_index[attack] = len(self._attacks)
            self._attacks.append(attack)
        return self._attack_index[attack]

    def _push(self, row: tuple) -> None:
        pending = self._pending
        pending.append(row)
        if len(pending) == BLOCK_ROWS:
            self._blocks.append(np.array(pending, dtype=_ROW_DTYPE))
            pending.clear()

    # ------------------------------------------------------------------
    # Per-protocol row helpers; each tuple is in PACKET_COLUMNS order:
    # ts, src_ip, dst_ip, src_port, dst_port, proto, length, payload_len,
    # tcp_flags, ttl, window, l2, l3, wlan_type, wlan_subtype, src_mac,
    # dst_mac, label, attack_id
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
        self._push((
            ts, src_ip, dst_ip, src_port, dst_port, IPPROTO_TCP,
            _IPV4_LEN + TCPHeader.WIRE_LEN + payload_len, payload_len,
            flags, ttl, window, _ETHERNET, 4, 255, 255, src_mac, dst_mac,
            1 if attack else 0, self._attack_id(attack),
        ))

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
        self._push((
            ts, src_ip, dst_ip, src_port, dst_port, IPPROTO_UDP,
            _IPV4_LEN + UDPHeader.WIRE_LEN + payload_len, payload_len,
            0, ttl, 0, _ETHERNET, 4, 255, 255, src_mac, dst_mac,
            1 if attack else 0, self._attack_id(attack),
        ))

    def add_icmp(
        self,
        ts: float,
        src_ip: int,
        dst_ip: int,
        payload_len: int = 0,
        ttl: int = 64,
        attack: str = "",
    ) -> None:
        self._push((
            ts, src_ip, dst_ip, 0, 0, IPPROTO_ICMP,
            _IPV4_LEN + ICMPHeader.WIRE_LEN + payload_len, payload_len,
            0, ttl, 0, _ETHERNET, 4, 255, 255, 0, 0,
            1 if attack else 0, self._attack_id(attack),
        ))

    def add_arp(
        self,
        ts: float,
        src_mac: int,
        dst_mac: int,
        sender_ip: int,
        target_ip: int,
        attack: str = "",
    ) -> None:
        self._push((
            ts, sender_ip, target_ip, 0, 0, 0,
            EthernetHeader.WIRE_LEN + ARPHeader.WIRE_LEN, 0,
            0, 64, 0, _ETHERNET, 0, 255, 255, src_mac, dst_mac,
            1 if attack else 0, self._attack_id(attack),
        ))

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
        self._push((
            ts, 0, 0, 0, 0, 0, Dot11Header.WIRE_LEN + payload_len, payload_len,
            0, 0, 0, _DOT11, 0, frame_type, subtype, src_mac, dst_mac,
            1 if attack else 0, self._attack_id(attack),
        ))

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
        blocks = [*self._blocks, np.array(self._pending, dtype=_ROW_DTYPE)]
        columns = {
            name: np.concatenate([block[name] for block in blocks])
            for name in PACKET_COLUMNS
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
