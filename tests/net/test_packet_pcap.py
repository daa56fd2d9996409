"""Tests for packet parsing/encoding and pcap round-trips."""

import struct

import pytest

from repro.net.headers import (
    ARPHeader,
    Dot11Header,
    EthernetHeader,
    ICMPHeader,
    IPv4Header,
    TCPHeader,
    UDPHeader,
    ETHERTYPE_ARP,
    IPPROTO_TCP,
    IPPROTO_UDP,
)
from repro.net.packet import LinkType, Packet
from repro.net.pcap import (
    PcapFormatError,
    PcapReader,
    PcapWriter,
    read_pcap,
    read_pcap_table,
    write_pcap,
)
from repro.net.table import PacketTable


def make_tcp_packet(ts=1.0, payload=b"data", flags=0x02):
    return Packet(
        timestamp=ts,
        layers=[
            EthernetHeader(src_mac=1, dst_mac=2),
            IPv4Header(
                src_ip=0x0A000001,
                dst_ip=0x0A000002,
                protocol=IPPROTO_TCP,
                total_length=40 + len(payload),
            ),
            TCPHeader(src_port=4444, dst_port=80, flags=flags),
        ],
        payload=payload,
    )


class TestPacketModel:
    def test_layer_lookup(self):
        packet = make_tcp_packet()
        assert packet.layer(TCPHeader).dst_port == 80
        assert packet.layer(UDPHeader) is None
        assert packet.has(IPv4Header)

    def test_wire_length(self):
        packet = make_tcp_packet(payload=b"abcd")
        assert packet.wire_length == 14 + 20 + 20 + 4

    def test_parse_keeps_orig_len_only_when_truncated(self):
        data = make_tcp_packet(payload=b"abcdefgh").encode()
        whole = Packet.parse(data, orig_len=len(data))
        assert whole.orig_len == 0
        assert whole.wire_length == len(data)
        cut = Packet.parse(data[:40], orig_len=len(data))
        assert cut.orig_len == len(data)
        assert cut.wire_length == len(data)

    @pytest.mark.parametrize("ip_options", [b"", b"\x94\x04\x00\x00"])
    def test_options_count_toward_wire_length(self, ip_options):
        # TCP with one 4-byte option (MSS) and a 4-byte payload
        tcp = TCPHeader(src_port=1, dst_port=2, options=b"\x02\x04\x05\xb4")
        ip = IPv4Header(
            src_ip=1, dst_ip=2, protocol=IPPROTO_TCP,
            total_length=48 + len(ip_options), options=ip_options,
        )
        frame = (
            EthernetHeader(src_mac=1, dst_mac=2).encode()
            + ip.encode() + tcp.encode() + b"data"
        )
        assert len(frame) == 62 + len(ip_options)
        parsed = Packet.parse(frame)
        assert parsed.wire_length == len(frame)
        assert parsed.payload == b"data"
        assert parsed.encode() == frame

    def test_link_type_detection(self):
        assert make_tcp_packet().link_type == LinkType.ETHERNET
        dot11 = Packet(
            timestamp=0.0,
            layers=[Dot11Header(frame_type=0, subtype=12, addr1=1, addr2=2, addr3=3)],
        )
        assert dot11.link_type == LinkType.IEEE802_11

    def test_parse_round_trip_tcp(self):
        original = make_tcp_packet(payload=b"hello")
        parsed = Packet.parse(original.encode(), timestamp=1.0)
        assert parsed.layer(EthernetHeader).src_mac == 1
        assert parsed.layer(IPv4Header).dst_ip == 0x0A000002
        assert parsed.layer(TCPHeader).src_port == 4444
        assert parsed.payload == b"hello"

    def test_parse_round_trip_udp(self):
        packet = Packet(
            timestamp=0.0,
            layers=[
                EthernetHeader(src_mac=9, dst_mac=8),
                IPv4Header(src_ip=1, dst_ip=2, protocol=IPPROTO_UDP, total_length=36),
                UDPHeader(src_port=5000, dst_port=53, length=16),
            ],
            payload=b"12345678",
        )
        parsed = Packet.parse(packet.encode())
        assert parsed.layer(UDPHeader).dst_port == 53
        assert parsed.payload == b"12345678"

    def test_parse_round_trip_arp(self):
        packet = Packet(
            timestamp=0.0,
            layers=[
                EthernetHeader(src_mac=1, dst_mac=0xFFFFFFFFFFFF, ethertype=ETHERTYPE_ARP),
                ARPHeader(
                    operation=1, sender_mac=1, sender_ip=10, target_mac=0, target_ip=20
                ),
            ],
        )
        parsed = Packet.parse(packet.encode())
        assert parsed.layer(ARPHeader).target_ip == 20

    def test_parse_round_trip_icmp(self):
        packet = Packet(
            timestamp=0.0,
            layers=[
                EthernetHeader(src_mac=1, dst_mac=2),
                IPv4Header(src_ip=1, dst_ip=2, protocol=1, total_length=28),
                ICMPHeader(icmp_type=8),
            ],
        )
        parsed = Packet.parse(packet.encode())
        assert parsed.layer(ICMPHeader).icmp_type == 8

    def test_parse_dot11(self):
        original = Packet(
            timestamp=2.0,
            layers=[
                Dot11Header(
                    frame_type=0,
                    subtype=Dot11Header.SUBTYPE_DEAUTH,
                    addr1=0xA,
                    addr2=0xB,
                    addr3=0xC,
                )
            ],
            payload=b"\x07\x00",
        )
        parsed = Packet.parse(
            original.encode(), timestamp=2.0, link_type=LinkType.IEEE802_11
        )
        assert parsed.layer(Dot11Header).subtype == Dot11Header.SUBTYPE_DEAUTH
        assert parsed.payload == b"\x07\x00"

    def test_garbage_beyond_ethernet_becomes_payload(self):
        ether = EthernetHeader(src_mac=1, dst_mac=2, ethertype=0x0800)
        raw = ether.encode() + b"\x00\x01\x02"  # not a valid IPv4 header
        parsed = Packet.parse(raw)
        assert parsed.payload == b"\x00\x01\x02"
        assert parsed.layer(IPv4Header) is None


class TestPcap:
    def test_write_read_round_trip(self, tmp_path):
        packets = [make_tcp_packet(ts=float(i), payload=bytes([i] * i)) for i in range(1, 20)]
        path = tmp_path / "trace.pcap"
        write_pcap(path, packets)
        loaded = read_pcap(path)
        assert len(loaded) == len(packets)
        for original, parsed in zip(packets, loaded):
            assert parsed.timestamp == pytest.approx(original.timestamp, abs=1e-6)
            assert parsed.layer(TCPHeader).src_port == 4444
            assert parsed.payload == original.payload

    def test_dot11_link_type_round_trip(self, tmp_path):
        packets = [
            Packet(
                timestamp=0.5,
                layers=[
                    Dot11Header(frame_type=0, subtype=12, addr1=1, addr2=2, addr3=3)
                ],
            )
        ]
        path = tmp_path / "wifi.pcap"
        write_pcap(path, packets)
        reader = PcapReader(path)
        loaded = list(reader)
        assert reader.link_type == LinkType.IEEE802_11
        assert loaded[0].layer(Dot11Header).subtype == 12

    def test_subsecond_timestamps(self, tmp_path):
        packets = [make_tcp_packet(ts=1.234567)]
        path = tmp_path / "ts.pcap"
        write_pcap(path, packets)
        loaded = read_pcap(path)
        assert loaded[0].timestamp == pytest.approx(1.234567, abs=1e-6)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.pcap"
        path.write_bytes(b"")
        with pytest.raises(PcapFormatError):
            list(PcapReader(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(PcapFormatError):
            list(PcapReader(path))

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        write_pcap(path, [make_tcp_packet()])
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(PcapFormatError):
            list(PcapReader(path))

    def test_big_endian_capture_is_read(self, tmp_path):
        # Hand-assemble a big-endian microsecond capture with one record.
        packet = make_tcp_packet(ts=3.0)
        raw = packet.encode()
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack(">IIII", 3, 0, len(raw), len(raw)) + raw
        path = tmp_path / "be.pcap"
        path.write_bytes(header + record)
        loaded = read_pcap(path)
        assert len(loaded) == 1
        assert loaded[0].timestamp == pytest.approx(3.0)
        assert loaded[0].layer(TCPHeader).dst_port == 80

    def test_raw_records(self, tmp_path):
        path = tmp_path / "raw.pcap"
        write_pcap(path, [make_tcp_packet(ts=9.0, payload=b"xyz")])
        reader = PcapReader(path)
        records = list(reader.records(raw=True))
        assert len(records) == 1
        timestamp, data = records[0]
        assert timestamp == pytest.approx(9.0)
        assert data.endswith(b"xyz")


class TestSnaplen:
    """``length`` survives a capture whose snaplen truncates records."""

    @pytest.fixture(scope="class")
    def table(self):
        import numpy as np

        from repro.datasets import load_dataset

        return load_dataset("F0").sort_by_time().select(np.arange(200))

    def round_trip(self, table, path, **writer_kwargs):
        with PcapWriter(path, **writer_kwargs) as writer:
            for packet in table.to_packets():
                writer.write(packet)
        return PacketTable.from_packets(read_pcap(path))

    def test_truncated_capture_keeps_wire_length(self, table, tmp_path):
        back = self.round_trip(table, tmp_path / "cut.pcap", snaplen=60)
        assert (table.length > 60).any()  # the snaplen really truncates
        assert back.length.tobytes() == table.length.tobytes()

    def test_rewrite_keeps_original_length(self, table, tmp_path):
        cut, again = tmp_path / "cut.pcap", tmp_path / "again.pcap"
        self.round_trip(table, cut, snaplen=60)
        write_pcap(again, read_pcap(cut))
        assert read_pcap_table(again).length.tobytes() == table.length.tobytes()
        back = PacketTable.from_packets(read_pcap(again))
        assert back.length.tobytes() == table.length.tobytes()

    def test_untruncated_capture_is_unchanged(self, table, tmp_path):
        path = tmp_path / "whole.pcap"
        back = self.round_trip(table, path)
        assert all(packet.orig_len == 0 for packet in read_pcap(path))
        # byte-identical to decoding the frames without any orig_len
        reader = PcapReader(path)
        plain = PacketTable.from_packets([
            Packet.parse(data, timestamp)
            for timestamp, data in reader.records(raw=True)
        ])
        assert list(back.columns) == list(plain.columns)
        for name, column in plain.columns.items():
            assert back.columns[name].tobytes() == column.tobytes(), name
        assert back.length.tobytes() == table.length.tobytes()
