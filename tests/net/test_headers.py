"""Round-trip and error-path tests for the binary header codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.headers import (
    ARPHeader,
    Dot11Header,
    EthernetHeader,
    HeaderError,
    ICMPHeader,
    IPv4Header,
    IPv6Header,
    TCPFlags,
    TCPHeader,
    UDPHeader,
    ETHERTYPE_ARP,
    IPPROTO_TCP,
)

from tests.net.encode import (
    encode,
    encode_tcp_with_checksum,
    internet_checksum,
    tcp_udp_pseudo_header,
)


class TestChecksum:
    def test_known_vector(self):
        # RFC 1071 example data.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert internet_checksum(data) == 0x220D

    def test_odd_length_is_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_checksum_of_zeroes(self):
        assert internet_checksum(b"\x00" * 8) == 0xFFFF

    @given(st.binary(min_size=0, max_size=64))
    def test_verification_property(self, data):
        # Inserting the computed checksum makes the total sum verify to 0.
        checksum = internet_checksum(data)
        padded = data + b"\x00" if len(data) % 2 else data
        verified = internet_checksum(padded + checksum.to_bytes(2, "big"))
        assert verified == 0


class TestEthernet:
    def test_round_trip(self):
        header = EthernetHeader(src_mac=0xAABBCCDDEEFF, dst_mac=0x112233445566)
        decoded, consumed = EthernetHeader.decode(encode(header))
        assert decoded == header
        assert consumed == 14

    def test_truncated(self):
        with pytest.raises(HeaderError):
            EthernetHeader.decode(b"\x00" * 13)

    @given(
        st.integers(0, 2**48 - 1),
        st.integers(0, 2**48 - 1),
        st.integers(0, 2**16 - 1),
    )
    def test_round_trip_property(self, src, dst, ethertype):
        header = EthernetHeader(src_mac=src, dst_mac=dst, ethertype=ethertype)
        assert EthernetHeader.decode(encode(header))[0] == header


class TestIPv4:
    def test_round_trip(self):
        header = IPv4Header(
            src_ip=0x0A000001,
            dst_ip=0x0A000002,
            protocol=IPPROTO_TCP,
            total_length=40,
            ttl=63,
            identification=777,
        )
        decoded, consumed = IPv4Header.decode(encode(header))
        assert consumed == 20
        assert decoded.src_ip == header.src_ip
        assert decoded.dst_ip == header.dst_ip
        assert decoded.protocol == header.protocol
        assert decoded.ttl == 63
        assert decoded.identification == 777

    def test_checksum_is_valid(self):
        raw = encode(IPv4Header(src_ip=1, dst_ip=2, protocol=6))
        assert internet_checksum(raw) == 0

    def test_rejects_ipv6_version(self):
        raw = bytearray(encode(IPv4Header(src_ip=1, dst_ip=2, protocol=6)))
        raw[0] = (6 << 4) | 5
        with pytest.raises(HeaderError):
            IPv4Header.decode(bytes(raw))

    def test_rejects_bad_ihl(self):
        raw = bytearray(encode(IPv4Header(src_ip=1, dst_ip=2, protocol=6)))
        raw[0] = (4 << 4) | 4
        with pytest.raises(HeaderError):
            IPv4Header.decode(bytes(raw))

    def test_truncated(self):
        with pytest.raises(HeaderError):
            IPv4Header.decode(b"\x45" + b"\x00" * 10)


class TestIPv6:
    def test_round_trip(self):
        header = IPv6Header(
            src_ip=bytes(range(16)),
            dst_ip=bytes(range(16, 32)),
            next_header=17,
            payload_length=100,
            hop_limit=255,
        )
        decoded, consumed = IPv6Header.decode(encode(header))
        assert consumed == 40
        assert decoded == header

    def test_rejects_short_addresses(self):
        with pytest.raises(HeaderError):
            IPv6Header(src_ip=b"\x00" * 4, dst_ip=b"\x00" * 16, next_header=6)

    def test_rejects_wrong_version(self):
        raw = bytearray(
            encode(IPv6Header(src_ip=b"\x00" * 16, dst_ip=b"\x00" * 16, next_header=6))
        )
        raw[0] = 0x45
        with pytest.raises(HeaderError):
            IPv6Header.decode(bytes(raw))


class TestTCP:
    def test_round_trip(self):
        header = TCPHeader(
            src_port=12345,
            dst_port=80,
            seq=111,
            ack=222,
            flags=int(TCPFlags.SYN | TCPFlags.ACK),
            window=1024,
        )
        decoded, consumed = TCPHeader.decode(encode(header))
        assert consumed == 20
        assert decoded == header

    def test_flags_enum_values(self):
        assert int(TCPFlags.SYN) == 0x02
        assert int(TCPFlags.ACK) == 0x10
        assert int(TCPFlags.RST) == 0x04

    def test_checksum_verifies(self):
        header = TCPHeader(src_port=1000, dst_port=443)
        payload = b"hello"
        raw = encode_tcp_with_checksum(header, 0x0A000001, 0x0A000002, payload)
        pseudo = tcp_udp_pseudo_header(
            0x0A000001, 0x0A000002, IPPROTO_TCP, len(raw) + len(payload)
        )
        assert internet_checksum(pseudo + raw + payload) == 0

    def test_truncated(self):
        with pytest.raises(HeaderError):
            TCPHeader.decode(b"\x00" * 19)

    @given(
        st.integers(0, 65535),
        st.integers(0, 65535),
        st.integers(0, 2**32 - 1),
        st.integers(0, 255),
    )
    def test_round_trip_property(self, sport, dport, seq, flags):
        header = TCPHeader(src_port=sport, dst_port=dport, seq=seq, flags=flags)
        assert TCPHeader.decode(encode(header))[0] == header


class TestUDPAndICMP:
    def test_udp_round_trip(self):
        header = UDPHeader(src_port=5353, dst_port=53, length=30)
        decoded, consumed = UDPHeader.decode(encode(header))
        assert consumed == 8
        assert decoded == header

    def test_udp_truncated(self):
        with pytest.raises(HeaderError):
            UDPHeader.decode(b"\x00" * 7)

    def test_icmp_round_trip(self):
        header = ICMPHeader(icmp_type=ICMPHeader.ECHO_REQUEST, rest=0x00010001)
        decoded, consumed = ICMPHeader.decode(encode(header))
        assert consumed == 8
        assert decoded.icmp_type == ICMPHeader.ECHO_REQUEST
        assert decoded.rest == 0x00010001

    def test_icmp_checksum_covers_payload(self):
        payload = b"ping-data"
        raw = encode(ICMPHeader(icmp_type=8), payload)
        assert internet_checksum(raw + payload) == 0


class TestARP:
    def test_round_trip(self):
        header = ARPHeader(
            operation=ARPHeader.REPLY,
            sender_mac=0xAABBCCDDEEFF,
            sender_ip=0x0A000001,
            target_mac=0x112233445566,
            target_ip=0x0A000002,
        )
        decoded, consumed = ARPHeader.decode(encode(header))
        assert consumed == 28
        assert decoded == header

    def test_rejects_non_ethernet_arp(self):
        raw = bytearray(
            encode(ARPHeader(
                operation=1, sender_mac=0, sender_ip=0, target_mac=0, target_ip=0
            ))
        )
        raw[1] = 9  # bogus hardware type
        with pytest.raises(HeaderError):
            ARPHeader.decode(bytes(raw))


class TestDot11:
    def test_round_trip(self):
        header = Dot11Header(
            frame_type=Dot11Header.TYPE_MANAGEMENT,
            subtype=Dot11Header.SUBTYPE_DEAUTH,
            addr1=0x111111111111,
            addr2=0x222222222222,
            addr3=0x333333333333,
            duration=314,
            seq_ctrl=0x10,
        )
        decoded, consumed = Dot11Header.decode(encode(header))
        assert consumed == 24
        assert decoded == header

    def test_deauth_subtype_constant(self):
        assert Dot11Header.SUBTYPE_DEAUTH == 12

    def test_truncated(self):
        with pytest.raises(HeaderError):
            Dot11Header.decode(b"\x00" * 23)

    @given(st.integers(0, 2), st.integers(0, 15))
    def test_type_subtype_round_trip(self, frame_type, subtype):
        header = Dot11Header(
            frame_type=frame_type, subtype=subtype, addr1=1, addr2=2, addr3=3
        )
        decoded, _ = Dot11Header.decode(encode(header))
        assert decoded.frame_type == frame_type
        assert decoded.subtype == subtype
