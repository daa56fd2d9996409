"""Tests for the columnar PacketTable."""

import numpy as np
import pytest

from repro.net.headers import (
    Dot11Header,
    EthernetHeader,
    IPv4Header,
    TCPHeader,
    UDPHeader,
    IPPROTO_TCP,
    IPPROTO_UDP,
)
from repro.net.packet import LinkType, Packet
from repro.net.table import PACKET_COLUMNS, PacketTable

from tests.net.encode import table_to_packets


def make_packets():
    packets = []
    for i in range(10):
        label = 1 if i >= 7 else 0
        packets.append(
            Packet(
                timestamp=float(i),
                layers=[
                    EthernetHeader(src_mac=100 + i, dst_mac=200),
                    IPv4Header(
                        src_ip=0x0A000001 + i,
                        dst_ip=0x0A0000FE,
                        protocol=IPPROTO_TCP,
                        total_length=40,
                        ttl=64,
                    ),
                    TCPHeader(src_port=1000 + i, dst_port=80, flags=0x02, window=512),
                ],
                payload=b"x" * i,
                label=label,
                attack="synflood" if label else "",
            )
        )
    return packets


class TestConstruction:
    def test_empty_table(self):
        table = PacketTable.empty()
        assert len(table) == 0
        assert table.duration == 0.0
        assert table.attacks == []

    def test_empty_with_rows_has_defaults(self):
        table = PacketTable.empty(5)
        assert len(table) == 5
        assert (table.attack_id == -1).all()
        assert (table.wlan_type == 255).all()

    def test_from_packets_columns(self):
        table = PacketTable.from_packets(make_packets())
        assert len(table) == 10
        assert table.src_port[3] == 1003
        assert table.dst_port[0] == 80
        assert (table.proto == IPPROTO_TCP).all()
        assert table.ttl[0] == 64
        assert table.window[0] == 512
        assert table.n_malicious == 3
        assert table.attacks == ["synflood"]
        assert table.attack_names() == ["synflood"]

    def test_payload_lengths_recorded(self):
        table = PacketTable.from_packets(make_packets())
        assert table.payload_len[4] == 4

    def test_udp_ports_extracted(self):
        packet = Packet(
            timestamp=0.0,
            layers=[
                EthernetHeader(src_mac=1, dst_mac=2),
                IPv4Header(src_ip=1, dst_ip=2, protocol=IPPROTO_UDP, total_length=28),
                UDPHeader(src_port=5353, dst_port=53),
            ],
        )
        table = PacketTable.from_packets([packet])
        assert table.src_port[0] == 5353
        assert table.dst_port[0] == 53

    def test_dot11_columns(self):
        packet = Packet(
            timestamp=0.0,
            layers=[
                Dot11Header(
                    frame_type=0,
                    subtype=Dot11Header.SUBTYPE_DEAUTH,
                    addr1=0xA1,
                    addr2=0xB2,
                    addr3=0xC3,
                )
            ],
            label=1,
            attack="deauth",
        )
        table = PacketTable.from_packets([packet])
        assert table.l2[0] == int(LinkType.IEEE802_11)
        assert table.wlan_subtype[0] == Dot11Header.SUBTYPE_DEAUTH
        assert table.l3[0] == 0  # no IP layer
        assert table.src_mac[0] == 0xB2

    def test_unknown_column_raises(self):
        table = PacketTable.empty(1)
        with pytest.raises(AttributeError):
            _ = table.nonexistent_column


class TestTransforms:
    def test_select_boolean_mask(self):
        table = PacketTable.from_packets(make_packets())
        malicious = table.select(table.label == 1)
        assert len(malicious) == 3
        assert (malicious.label == 1).all()

    def test_sort_by_time(self):
        table = PacketTable.from_packets(make_packets())
        shuffled = table.select(np.array([5, 1, 9, 0, 3, 2, 8, 4, 7, 6]))
        restored = shuffled.sort_by_time()
        assert np.array_equal(restored.ts, np.arange(10.0))

    def test_concat_remaps_attack_ids(self):
        first = PacketTable.from_packets(make_packets())
        packets = make_packets()
        for packet in packets:
            if packet.label:
                packet.attack = "scan"
        second = PacketTable.from_packets(packets)
        merged = PacketTable.concat([first, second])
        assert len(merged) == 20
        assert set(merged.attacks) == {"synflood", "scan"}
        names = merged.attack_names()
        assert sorted(names) == ["scan", "synflood"]
        # the scan rows point at the right merged id
        scan_id = merged.attacks.index("scan")
        assert (merged.attack_id[17:] == scan_id).all()

    def test_concat_empty_list(self):
        assert len(PacketTable.concat([])) == 0

    def test_concat_shares_attack_names(self):
        first = PacketTable.from_packets(make_packets())
        second = PacketTable.from_packets(make_packets())
        merged = PacketTable.concat([first, second])
        assert merged.attacks == ["synflood"]
        assert merged.n_malicious == 6

    def test_to_packets_round_trip(self):
        table = PacketTable.from_packets(make_packets())
        rebuilt = PacketTable.from_packets(table_to_packets(table))
        assert table.equals(rebuilt)

    def test_duration(self):
        table = PacketTable.from_packets(make_packets())
        assert table.duration == pytest.approx(9.0)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        table = PacketTable.from_packets(make_packets())
        path = tmp_path / "table.npz"
        table.save(path)
        loaded = PacketTable.load(path)
        assert table.equals(loaded)
        assert loaded.attacks == ["synflood"]

    def test_equals_detects_differences(self):
        table = PacketTable.from_packets(make_packets())
        other = PacketTable.from_packets(make_packets())
        other.columns["ts"][0] = 99.0
        assert not table.equals(other)

    def test_summary_fields(self):
        summary = PacketTable.from_packets(make_packets()).summary()
        assert summary["packets"] == 10
        assert summary["malicious"] == 3
        assert summary["attacks"] == ["synflood"]

    def test_all_columns_defined(self):
        table = PacketTable.empty(3)
        for name in PACKET_COLUMNS:
            assert len(table.columns[name]) == 3
