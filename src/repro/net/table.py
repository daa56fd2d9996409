"""Columnar trace representation used by all Lumen operations.

The paper processes traces with more than 100 million packets and reports
that per-packet object processing does not scale (e.g. nprint segfaulting
on 500k-packet pcaps).  Lumen's answer is map-reduce-shaped operations over
bulk data; our equivalent is :class:`PacketTable`, a struct-of-arrays
(numpy) view of a trace.  Every framework operation
(:mod:`repro.core.operations`) consumes and produces tables or arrays, so
feature extraction over a full dataset is vectorised end to end.

A capture file becomes a table in bulk through
:func:`repro.net.pcap.read_pcap_table`, which decodes every record
with numpy gathers, and a table becomes a capture through
:func:`repro.net.pcap.write_pcap_table`.  A table can also be built
from decoded :class:`repro.net.packet.Packet` objects
(:meth:`PacketTable.from_packets` is the oracle the bulk reader must
match byte for byte), and persisted to ``.npz`` for the benchmarking
suite's intermediate-result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.net.headers import (
    ARPHeader,
    Dot11Header,
    EthernetHeader,
    IPv4Header,
    IPv6Header,
    TCPHeader,
    UDPHeader,
)
from repro.net.packet import LinkType, Packet

#: Column name -> numpy dtype for every per-packet column.
PACKET_COLUMNS: dict[str, np.dtype] = {
    "ts": np.dtype(np.float64),  # capture timestamp, seconds
    "src_ip": np.dtype(np.uint32),  # 0 when the packet has no IPv4 layer
    "dst_ip": np.dtype(np.uint32),
    "src_port": np.dtype(np.uint16),  # 0 when no L4 port
    "dst_port": np.dtype(np.uint16),
    "proto": np.dtype(np.uint8),  # IP protocol number, 0 = none
    "length": np.dtype(np.uint32),  # wire length in bytes
    "payload_len": np.dtype(np.uint32),
    "tcp_flags": np.dtype(np.uint8),
    "ttl": np.dtype(np.uint8),
    "window": np.dtype(np.uint16),
    "l2": np.dtype(np.uint8),  # LinkType value
    "l3": np.dtype(np.uint8),  # 0 = none, 4 = IPv4, 6 = IPv6
    "wlan_type": np.dtype(np.uint8),  # 802.11 frame type, 255 = n/a
    "wlan_subtype": np.dtype(np.uint8),  # 802.11 subtype, 255 = n/a
    "src_mac": np.dtype(np.uint64),
    "dst_mac": np.dtype(np.uint64),
    "label": np.dtype(np.uint8),  # 0 = benign, 1 = malicious
    "attack_id": np.dtype(np.int16),  # index into .attacks, -1 = none
}


@dataclass
class PacketTable:
    """A trace as aligned numpy columns.

    ``attacks`` maps each ``attack_id`` value to an attack name; benign
    rows use ``attack_id == -1``.
    """

    columns: dict[str, np.ndarray]
    attacks: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, n: int = 0) -> "PacketTable":
        """Create a zero-filled table with ``n`` rows."""
        columns = {
            name: np.zeros(n, dtype=dtype) for name, dtype in PACKET_COLUMNS.items()
        }
        columns["attack_id"].fill(-1)
        columns["wlan_type"].fill(255)
        columns["wlan_subtype"].fill(255)
        columns["l2"].fill(int(LinkType.ETHERNET))
        return cls(columns=columns)

    @classmethod
    def from_packets(cls, packets: list[Packet]) -> "PacketTable":
        """Build a table from parsed packets (one row per packet)."""
        table = cls.empty(len(packets))
        columns = table.columns
        attack_ids: dict[str, int] = {}
        for i, packet in enumerate(packets):
            columns["ts"][i] = packet.timestamp
            columns["length"][i] = packet.wire_length
            columns["payload_len"][i] = len(packet.payload)
            columns["label"][i] = packet.label
            columns["l2"][i] = int(packet.link_type)

            ether = packet.layer(EthernetHeader)
            if ether is not None:
                columns["src_mac"][i] = ether.src_mac
                columns["dst_mac"][i] = ether.dst_mac
            dot11 = packet.layer(Dot11Header)
            if dot11 is not None:
                columns["wlan_type"][i] = dot11.frame_type
                columns["wlan_subtype"][i] = dot11.subtype
                columns["src_mac"][i] = dot11.addr2
                columns["dst_mac"][i] = dot11.addr1

            arp = packet.layer(ARPHeader)
            if arp is not None:
                # ARP carries addressing but no IP layer; keep the endpoints
                # queryable in the same columns, with l3 == 0 marking non-IP.
                columns["src_ip"][i] = arp.sender_ip
                columns["dst_ip"][i] = arp.target_ip

            ipv4 = packet.layer(IPv4Header)
            if ipv4 is not None:
                columns["l3"][i] = 4
                columns["src_ip"][i] = ipv4.src_ip
                columns["dst_ip"][i] = ipv4.dst_ip
                columns["proto"][i] = ipv4.protocol
                columns["ttl"][i] = ipv4.ttl
            elif packet.has(IPv6Header):
                ipv6 = packet.layer(IPv6Header)
                columns["l3"][i] = 6
                columns["proto"][i] = ipv6.next_header
                columns["ttl"][i] = ipv6.hop_limit

            tcp = packet.layer(TCPHeader)
            if tcp is not None:
                columns["src_port"][i] = tcp.src_port
                columns["dst_port"][i] = tcp.dst_port
                columns["tcp_flags"][i] = tcp.flags & 0xFF
                columns["window"][i] = tcp.window
            else:
                udp = packet.layer(UDPHeader)
                if udp is not None:
                    columns["src_port"][i] = udp.src_port
                    columns["dst_port"][i] = udp.dst_port

            if packet.label and packet.attack:
                if packet.attack not in attack_ids:
                    attack_ids[packet.attack] = len(attack_ids)
                    table.attacks.append(packet.attack)
                columns["attack_id"][i] = attack_ids[packet.attack]
        return table

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns["ts"])

    def __getattr__(self, name: str) -> np.ndarray:
        # Dataclass attributes resolve normally; only unknown names land
        # here, and we expose columns as attributes for readability
        # (table.src_ip instead of table.columns["src_ip"]).
        columns = self.__dict__.get("columns")
        if columns is not None and name in columns:
            return columns[name]
        raise AttributeError(name)

    @property
    def duration(self) -> float:
        """Trace duration in seconds (0 for empty traces)."""
        if not len(self):
            return 0.0
        ts = self.columns["ts"]
        return float(ts.max() - ts.min())

    @property
    def n_malicious(self) -> int:
        return int(self.columns["label"].sum())

    def attack_names(self) -> list[str]:
        """Names of attacks that actually appear in the rows."""
        ids = np.unique(self.columns["attack_id"])
        return [self.attacks[i] for i in ids if i >= 0]

    def summary(self) -> dict[str, object]:
        """A small human-readable summary used by dataset listings."""
        return {
            "packets": len(self),
            "malicious": self.n_malicious,
            "duration_s": round(self.duration, 3),
            "attacks": self.attack_names(),
        }

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------

    def select(self, mask: np.ndarray) -> "PacketTable":
        """Return a new table with only the rows where ``mask`` is true.

        ``mask`` may be a boolean mask or an integer index array.
        """
        columns = {name: array[mask] for name, array in self.columns.items()}
        return PacketTable(columns=columns, attacks=list(self.attacks))

    def sort_by_time(self) -> "PacketTable":
        """Return a copy sorted by timestamp (stable)."""
        order = np.argsort(self.columns["ts"], kind="stable")
        return self.select(order)

    @classmethod
    def concat(cls, tables: list["PacketTable"]) -> "PacketTable":
        """Concatenate tables, re-mapping attack ids into a merged space."""
        if not tables:
            return cls.empty()
        merged_attacks: list[str] = []
        attack_index: dict[str, int] = {}
        remapped_ids: list[np.ndarray] = []
        for table in tables:
            mapping = np.full(max(len(table.attacks), 1), -1, dtype=np.int16)
            for local_id, name in enumerate(table.attacks):
                if name not in attack_index:
                    attack_index[name] = len(merged_attacks)
                    merged_attacks.append(name)
                mapping[local_id] = attack_index[name]
            ids = table.columns["attack_id"]
            new_ids = np.where(ids >= 0, mapping[np.maximum(ids, 0)], -1).astype(
                np.int16
            )
            remapped_ids.append(new_ids)
        columns = {
            name: np.concatenate([t.columns[name] for t in tables])
            for name in PACKET_COLUMNS
            if name != "attack_id"
        }
        columns["attack_id"] = np.concatenate(remapped_ids)
        return cls(columns=columns, attacks=merged_attacks)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Persist the table to a compressed ``.npz``."""
        attack_array = np.array(self.attacks, dtype=np.str_)
        np.savez_compressed(path, __attacks__=attack_array, **self.columns)

    @classmethod
    def load(cls, path: str | Path) -> "PacketTable":
        """Load a table previously written with :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            attacks = [str(name) for name in data["__attacks__"]]
            columns = {name: data[name] for name in PACKET_COLUMNS}
        return cls(columns=columns, attacks=attacks)

    def equals(self, other: "PacketTable") -> bool:
        """Exact equality of rows.

        Attack ids are compared by *name*, not numeric id, because the
        id space is just an interning order and differs between tables
        built from differently-ordered packet sequences.
        """
        if len(self) != len(other):
            return False
        if set(self.attack_names()) != set(other.attack_names()):
            return False
        for name in PACKET_COLUMNS:
            if name == "attack_id":
                continue
            if not np.array_equal(self.columns[name], other.columns[name]):
                return False
        mine = self.columns["attack_id"]
        theirs = other.columns["attack_id"]
        for i in np.flatnonzero((mine >= 0) | (theirs >= 0)):
            my_name = self.attacks[mine[i]] if mine[i] >= 0 else None
            their_name = other.attacks[theirs[i]] if theirs[i] >= 0 else None
            if my_name != their_name:
                return False
        return True
