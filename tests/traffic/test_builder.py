"""Tests for the trace builder."""

import numpy as np
import pytest

from repro.net.headers import TCPFlags
from repro.net.packet import LinkType
from repro.net.table import PACKET_COLUMNS
from repro.traffic.builder import BLOCK_ROWS, TraceBuilder


class TestRowHelpers:
    def test_tcp_row(self):
        builder = TraceBuilder()
        builder.add_tcp(1.0, 10, 20, 1000, 80, payload_len=100,
                        flags=int(TCPFlags.SYN), ttl=55)
        table = builder.build()
        assert len(table) == 1
        assert table.src_ip[0] == 10
        assert table.dst_port[0] == 80
        assert table.proto[0] == 6
        assert table.length[0] == 14 + 20 + 20 + 100
        assert table.ttl[0] == 55
        assert table.tcp_flags[0] == int(TCPFlags.SYN)

    def test_udp_row(self):
        builder = TraceBuilder()
        builder.add_udp(0.0, 1, 2, 5353, 53, payload_len=30)
        table = builder.build()
        assert table.proto[0] == 17
        assert table.length[0] == 14 + 20 + 8 + 30

    def test_icmp_row(self):
        builder = TraceBuilder()
        builder.add_icmp(0.0, 1, 2, payload_len=56)
        table = builder.build()
        assert table.proto[0] == 1
        assert table.length[0] == 14 + 20 + 8 + 56

    def test_arp_row_is_non_ip(self):
        builder = TraceBuilder()
        builder.add_arp(0.0, 0xA, 0xB, sender_ip=1, target_ip=2)
        table = builder.build()
        assert table.l3[0] == 0
        assert table.src_mac[0] == 0xA

    def test_dot11_row(self):
        builder = TraceBuilder()
        builder.add_dot11(0.0, 0, 12, 0xA, 0xB, payload_len=2)
        table = builder.build()
        assert table.l2[0] == int(LinkType.IEEE802_11)
        assert table.wlan_subtype[0] == 12
        assert table.length[0] == 24 + 2

    def test_attack_labelling(self):
        builder = TraceBuilder()
        builder.add_tcp(0.0, 1, 2, 3, 4)
        builder.add_tcp(1.0, 1, 2, 3, 4, attack="scan")
        builder.add_tcp(2.0, 1, 2, 3, 4, attack="flood")
        table = builder.build()
        assert table.label.tolist() == [0, 1, 1]
        assert table.attacks == ["scan", "flood"]
        assert table.attack_id.tolist() == [-1, 0, 1]

    def test_attack_ids_deduplicated(self):
        builder = TraceBuilder()
        for i in range(5):
            builder.add_tcp(float(i), 1, 2, 3, 4, attack="scan")
        table = builder.build()
        assert table.attacks == ["scan"]
        assert (table.attack_id == 0).all()


class TestCompoundHelpers:
    def test_tcp_session_structure(self):
        builder = TraceBuilder()
        rng = np.random.default_rng(0)
        end = builder.add_tcp_session(
            0.0, 1, 2, 1000, 80,
            request_sizes=[100, 200], response_sizes=[300],
            rng=rng,
        )
        table = builder.build()
        # SYN, SYN-ACK, ACK, 2 requests, 1 response, FIN, FIN = 8 packets
        assert len(table) == 8
        flags = table.tcp_flags
        assert flags[0] == int(TCPFlags.SYN)
        assert flags[1] == int(TCPFlags.SYN | TCPFlags.ACK)
        fins = (flags & int(TCPFlags.FIN)) > 0
        assert fins.sum() == 2
        assert end >= table.ts.max()

    def test_session_timestamps_monotone(self):
        builder = TraceBuilder()
        rng = np.random.default_rng(1)
        builder.add_tcp_session(
            5.0, 1, 2, 1000, 443,
            request_sizes=[10] * 5, response_sizes=[20] * 5, rng=rng,
        )
        table = builder.build(sort=False)
        assert np.all(np.diff(table.ts) > 0)

    def test_udp_exchange(self):
        builder = TraceBuilder()
        rng = np.random.default_rng(2)
        builder.add_udp_exchange(0.0, 1, 2, 5000, 53, 40, 120, rng)
        table = builder.build()
        assert len(table) == 2
        assert table.src_ip[0] == 1 and table.src_ip[1] == 2
        assert table.payload_len.tolist() == [40, 120]

    def test_build_sorts_by_time(self):
        builder = TraceBuilder()
        builder.add_tcp(5.0, 1, 2, 3, 4)
        builder.add_tcp(1.0, 1, 2, 3, 4)
        table = builder.build()
        assert table.ts.tolist() == [1.0, 5.0]

    def test_all_columns_populated(self):
        builder = TraceBuilder()
        builder.add_tcp(0.0, 1, 2, 3, 4)
        table = builder.build()
        for name in PACKET_COLUMNS:
            assert len(table.columns[name]) == 1


def keyword_row(**values) -> dict:
    """A row as the per-keyword builder laid it out: defaults, then values."""
    row = {
        "ts": 0.0, "src_ip": 0, "dst_ip": 0, "src_port": 0, "dst_port": 0,
        "proto": 0, "length": 0, "payload_len": 0, "tcp_flags": 0,
        "ttl": 64, "window": 0, "l2": int(LinkType.ETHERNET), "l3": 4,
        "wlan_type": 255, "wlan_subtype": 255, "src_mac": 0, "dst_mac": 0,
        "label": 0, "attack_id": -1,
    }
    row.update(values)
    return row


class TestRowLayout:
    def test_empty_builder_builds_zero_rows(self):
        table = TraceBuilder().build()
        assert len(table) == 0
        assert table.attacks == []
        for name, dtype in PACKET_COLUMNS.items():
            assert table.columns[name].dtype == dtype, name
            assert table.columns[name].shape == (0,), name

    def test_rows_straddling_a_block_keep_their_order(self):
        builder = TraceBuilder()
        n = 2 * BLOCK_ROWS + 3
        for i in range(n):
            # timestamps fall, so build(sort=False) must keep append order
            builder.add_udp(float(n - i), i, 2, 1000, 53, payload_len=i % 7)
            assert len(builder) == i + 1
        table = builder.build(sort=False)
        assert len(table) == n
        assert table.src_ip.tolist() == list(range(n))
        assert table.ts.tolist() == [float(n - i) for i in range(n)]
        assert table.length.tolist() == [42 + i % 7 for i in range(n)]
        assert builder.build().ts.tolist() == [float(i + 1) for i in range(n)]

    def test_out_of_range_value_raises_at_build(self):
        builder = TraceBuilder()
        builder.add_tcp(0.0, 1, 2, 3, 4, ttl=300)
        with pytest.raises(OverflowError):
            builder.build()

    @pytest.mark.parametrize(
        "add, expected",
        [
            (
                lambda b: b.add_tcp(1.5, 10, 20, 1000, 80, 100, 2, 55, 512,
                                    0xA, 0xB, attack="scan"),
                keyword_row(ts=1.5, src_ip=10, dst_ip=20, src_port=1000,
                            dst_port=80, proto=6, length=154, payload_len=100,
                            tcp_flags=2, ttl=55, window=512, src_mac=0xA,
                            dst_mac=0xB, label=1, attack_id=0),
            ),
            (
                lambda b: b.add_tcp(2.0, 10, 20, 1000, 80),
                keyword_row(ts=2.0, src_ip=10, dst_ip=20, src_port=1000,
                            dst_port=80, proto=6, length=54,
                            tcp_flags=int(TCPFlags.ACK), window=65535),
            ),
            (
                lambda b: b.add_udp(3.0, 1, 2, 5353, 53, 30, 9, 0xC, 0xD,
                                    attack="dns"),
                keyword_row(ts=3.0, src_ip=1, dst_ip=2, src_port=5353,
                            dst_port=53, proto=17, length=72, payload_len=30,
                            ttl=9, src_mac=0xC, dst_mac=0xD, label=1,
                            attack_id=0),
            ),
            (
                lambda b: b.add_icmp(4.0, 1, 2, 56, 33),
                keyword_row(ts=4.0, src_ip=1, dst_ip=2, proto=1, length=98,
                            payload_len=56, ttl=33),
            ),
            (
                lambda b: b.add_arp(5.0, 0xA, 0xB, sender_ip=1, target_ip=2,
                                    attack="arp_mitm"),
                keyword_row(ts=5.0, src_ip=1, dst_ip=2, l3=0, length=42,
                            src_mac=0xA, dst_mac=0xB, label=1, attack_id=0),
            ),
            (
                lambda b: b.add_dot11(6.0, 0, 12, 0xA, 0xB, payload_len=2),
                keyword_row(ts=6.0, l2=int(LinkType.IEEE802_11), l3=0,
                            wlan_type=0, wlan_subtype=12, length=26,
                            payload_len=2, src_mac=0xA, dst_mac=0xB, ttl=0),
            ),
        ],
        ids=["tcp", "tcp_defaults", "udp", "icmp", "arp", "dot11"],
    )
    def test_helper_row_matches_keyword_defaults(self, add, expected):
        builder = TraceBuilder()
        add(builder)
        table = builder.build()
        for name, dtype in PACKET_COLUMNS.items():
            want = np.asarray([expected[name]], dtype=dtype)
            assert table.columns[name].tobytes() == want.tobytes(), name
