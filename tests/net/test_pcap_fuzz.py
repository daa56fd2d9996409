"""Differential fuzzing of the two pcap readers.

``read_pcap_table`` (columnar) must equal
``PacketTable.from_packets(read_pcap(path))`` (one ``Packet`` per record)
in every column, byte for byte, on every input; and where one reader
rejects an input, the other must raise the same error type with the same
message.  Only ``PcapFormatError`` and ``HeaderError`` may escape either.

The fuzzer is seeded and stdlib-only: it mutates captures written by
:mod:`repro.traffic` and a hand-built capture of irregular frames.  The
short budget runs with the tier-1 suite; ``-m pcap_fuzz_long`` selects a
longer one.
"""

import random
import struct

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.datasets.export import export_dataset
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
    ETHERTYPE_IPV6,
    IPPROTO_ICMP,
    IPPROTO_TCP,
    IPPROTO_UDP,
)
from repro.net.packet import LinkType
from repro.net.pcap import (
    MAGIC_MICRO_LE,
    MAGIC_NANO_LE,
    PcapFormatError,
    PcapWriter,
    read_pcap,
    read_pcap_table,
)
from repro.net.table import PacketTable


def outcome(read, path):
    """What ``read`` returns, or the (type, message) of its rejection."""
    try:
        return read(path)
    except (PcapFormatError, HeaderError) as exc:
        return type(exc), str(exc)


def assert_readers_agree(path) -> bool:
    """Both readers agree on ``path``; return whether they accepted it."""
    columnar = outcome(read_pcap_table, path)
    objects = outcome(lambda p: PacketTable.from_packets(read_pcap(p)), path)
    if isinstance(columnar, tuple) or isinstance(objects, tuple):
        assert columnar == objects
        return False
    assert list(columnar.columns) == list(objects.columns)
    for name, column in objects.columns.items():
        assert columnar.columns[name].dtype == column.dtype, name
        assert columnar.columns[name].tobytes() == column.tobytes(), name
    assert columnar.attacks == objects.attacks
    return True


def capture(frames, *, order="<", nano=False, link=LinkType.ETHERNET, orig=None):
    """A classic pcap of raw ``frames``, in either byte order and either
    timestamp resolution; ``orig`` overrides each record's orig_len."""
    magic = MAGIC_NANO_LE if nano else MAGIC_MICRO_LE
    parts = [struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, int(link))]
    for i, frame in enumerate(frames):
        length = len(frame) if orig is None else orig[i]
        fraction = (i * 7919 + 13) % (10**9 if nano else 10**6)
        parts.append(struct.pack(order + "IIII", 1000 + i, fraction, len(frame), length))
        parts.append(frame)
    return b"".join(parts)


def little_endian(data: bytes) -> bool:
    """Whether a capture's headers are little-endian."""
    return data[:4] in (b"\xd4\xc3\xb2\xa1", b"\x4d\x3c\xb2\xa1")


def records(data: bytes) -> list[tuple[int, int]]:
    """``(record header offset, captured length)`` of each record of a
    well-formed capture."""
    order = "<" if little_endian(data) else ">"
    found, at = [], 24
    while at < len(data):
        (size,) = struct.unpack_from(order + "I", data, at + 8)
        found.append((at, size))
        at += 16 + size
    return found


MAC_A, MAC_B = 0x02AABBCCDD01, 0x02AABBCCDD02
IP_A, IP_B = 0x0A000001, 0xC0A80102
V6_A, V6_B = bytes(range(16)), bytes(range(16, 32))


def ether(ethertype=0x0800):
    return EthernetHeader(src_mac=MAC_A, dst_mac=MAC_B, ethertype=ethertype).encode()


def ipv4(protocol, body_len, options=b""):
    return IPv4Header(
        src_ip=IP_A, dst_ip=IP_B, protocol=protocol, ttl=57,
        total_length=20 + len(options) + body_len, options=options,
    ).encode()


def tcp(options=b""):
    return TCPHeader(
        src_port=40000, dst_port=443, flags=0x18, window=1234, options=options
    ).encode()


def irregular_frames() -> list[bytes]:
    """Every layout the columnar reader handles, regular or not."""
    udp = UDPHeader(src_port=5353, dst_port=53, length=12).encode()
    icmp = ICMPHeader(icmp_type=8).encode()
    arp = ARPHeader(ARPHeader.REQUEST, MAC_A, IP_A, 0, IP_B).encode()
    tcp_opts = b"\x02\x04\x05\xb4"  # MSS
    ip_opts = b"\x94\x04\x00\x00"  # router alert
    return [
        ether() + ipv4(IPPROTO_TCP, 24) + tcp() + b"data",
        ether() + ipv4(IPPROTO_TCP, 24, ip_opts) + tcp() + b"data",
        ether() + ipv4(IPPROTO_TCP, 24) + tcp(tcp_opts),  # 62 bytes
        ether() + ipv4(IPPROTO_TCP, 28, ip_opts) + tcp(tcp_opts) + b"data",
        ether() + ipv4(IPPROTO_UDP, 12) + udp + b"abcd",
        ether() + ipv4(IPPROTO_ICMP, 8) + icmp,
        ether() + ipv4(47, 4) + b"gre!",
        ether() + ipv4(IPPROTO_TCP, 10) + tcp()[:10],  # cut TCP header
        ether() + ipv4(IPPROTO_UDP, 4)[:30],  # cut IPv4 header
        ether() + b"\x46" + ipv4(IPPROTO_UDP, 0)[1:],  # IHL 6, no room
        ether() + b"\x65" + ipv4(IPPROTO_UDP, 0)[1:],  # version 6 in IPv4
        ether(ETHERTYPE_IPV6)
        + IPv6Header(V6_A, V6_B, IPPROTO_TCP, 20, hop_limit=9).encode() + tcp(),
        ether(ETHERTYPE_IPV6)
        + IPv6Header(V6_A, V6_B, IPPROTO_UDP, 8).encode() + udp,
        ether(ETHERTYPE_IPV6) + IPv6Header(V6_A, V6_B, 59).encode()[:30],
        ether(ETHERTYPE_ARP) + arp,
        ether(ETHERTYPE_ARP) + arp[:20],  # short ARP
        ether(ETHERTYPE_ARP) + b"\x00\x06" + arp[2:],  # another variant
        ether(0x88CC) + b"lldp",
        ether(),  # Ethernet header only
    ]


def dot11_frames() -> list[bytes]:
    header = Dot11Header(frame_type=2, subtype=8, addr1=MAC_A, addr2=MAC_B, addr3=MAC_A)
    beacon = Dot11Header(frame_type=0, subtype=8, addr1=MAC_B, addr2=MAC_A, addr3=MAC_A)
    return [header.encode() + b"payload", beacon.encode(), beacon.encode() + b"x"]


@pytest.fixture(scope="module")
def traffic_captures(tmp_path_factory):
    """F0, P0 and P2 exported whole, as the ingest benchmark does."""
    directory = tmp_path_factory.mktemp("traffic")
    return {
        dataset_id: export_dataset(load_dataset(dataset_id), directory, dataset_id)[0]
        for dataset_id in ("F0", "P0", "P2")
    }


@pytest.fixture(scope="module")
def seeds(traffic_captures, tmp_path_factory):
    """Small well-formed captures for the mutations to start from."""
    directory = tmp_path_factory.mktemp("seeds")
    found = [
        capture(irregular_frames()),
        capture(irregular_frames(), order=">", nano=True),
        capture(dot11_frames(), link=LinkType.IEEE802_11),
    ]
    for dataset_id, path in traffic_captures.items():
        data = path.read_bytes()
        at, size = records(data)[120]
        found.append(data[: at + 16 + size])
    table = load_dataset("F0").sort_by_time().select(np.arange(120))
    with PcapWriter(directory / "cut.pcap", snaplen=60) as writer:
        for packet in table.to_packets():
            writer.write(packet)
    found.append((directory / "cut.pcap").read_bytes())
    return found


class TestReadersAgree:
    @pytest.mark.parametrize("dataset_id", ["F0", "P0", "P2"])
    def test_traffic_capture(self, traffic_captures, dataset_id):
        assert assert_readers_agree(traffic_captures[dataset_id])

    def test_snaplen_capture(self, seeds, tmp_path):
        path = tmp_path / "cut.pcap"
        path.write_bytes(seeds[-1])
        assert assert_readers_agree(path)
        assert read_pcap_table(path).length.max() > 60

    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("nano", [False, True])
    def test_hand_built_frames(self, tmp_path, order, nano):
        frames = irregular_frames()
        path = tmp_path / "frames.pcap"
        path.write_bytes(capture(frames, order=order, nano=nano))
        assert assert_readers_agree(path)
        table = read_pcap_table(path)
        # options count toward ``length``: it is the captured length
        assert table.length.tolist() == [len(frame) for frame in frames]
        assert table.l3.tolist().count(6) == 2

    def test_dot11_frames(self, tmp_path):
        path = tmp_path / "wifi.pcap"
        path.write_bytes(capture(dot11_frames(), link=LinkType.IEEE802_11))
        assert assert_readers_agree(path)

    def test_lying_orig_len(self, tmp_path):
        frames = irregular_frames()
        path = tmp_path / "orig.pcap"
        lengths = [0, 1, 2**32 - 1] + [len(f) + 3 for f in frames[3:]]
        path.write_bytes(capture(frames, orig=lengths))
        assert assert_readers_agree(path)

    def test_first_bad_record_wins(self, tmp_path):
        # a short Ethernet frame before a truncated tail is a HeaderError
        data = capture([ether()[:10], ether()])[:-3]
        path = tmp_path / "bad.pcap"
        path.write_bytes(data)
        with pytest.raises(HeaderError, match="truncated Ethernet header"):
            read_pcap_table(path)
        assert not assert_readers_agree(path)

    @pytest.mark.parametrize("link", [LinkType.ETHERNET, LinkType.IEEE802_11])
    def test_every_cut_of_every_frame(self, tmp_path, link):
        ethernet = link == LinkType.ETHERNET
        frames = irregular_frames() if ethernet else dot11_frames()
        path = tmp_path / "cut.pcap"
        for keep in range(max(len(frame) for frame in frames) + 1):
            path.write_bytes(capture([frame[:keep] for frame in frames], link=link))
            assert assert_readers_agree(path) == (keep >= (14 if ethernet else 24))

    def test_empty_capture(self, tmp_path):
        path = tmp_path / "empty.pcap"
        path.write_bytes(capture([]))
        assert assert_readers_agree(path)
        assert len(read_pcap_table(path)) == 0


# --------------------------------------------------------------------------
# the mutation fuzzer
# --------------------------------------------------------------------------


def _set_u32(data: bytearray, at: int, value: int) -> None:
    struct.pack_into("<I" if little_endian(data) else ">I", data, at, value)


#: where a layer of some supported layout ends: cuts just short of one
#: leave a frame too short for that layout
BOUNDARIES = (14, 24, 34, 42, 54, 62, 74)


def _cut(size: int, rng: random.Random) -> int:
    if rng.random() < 0.5:
        return rng.randint(0, size)
    return min(size, max(0, rng.choice(BOUNDARIES) - rng.randint(1, 4)))


def mutate(seed: bytes, rng: random.Random) -> tuple[str, bytes]:
    """One mutation of a well-formed capture, and its name.

    Frame mutations hit a random subset of the records; mutations of
    the record framing hit one record, since they stop the walk there.
    """
    data = bytearray(seed)
    found = records(seed)
    kind = rng.choice(
        ["bit_flips", "truncate", "incl_len", "orig_len", "ihl",
         "data_offset", "short_frame", "frame_byte"]
    )
    if kind == "bit_flips" or not found:
        for _ in range(rng.randint(1, 8)):
            data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return "bit_flips", bytes(data)
    if kind == "truncate":
        return kind, bytes(data[: rng.randrange(len(data))])
    if kind == "incl_len":
        at, size = rng.choice(found)
        _set_u32(data, at + 8, rng.choice(
            [0, max(size - 1, 0), size + 1, len(data) - at - 16 + rng.randint(0, 4),
             rng.randrange(2**32)]
        ))
        return kind, bytes(data)
    share = rng.choice([0.05, 0.3, 1.0])
    # mostly keep the link header whole, so that one short frame does
    # not reject the file before the others are decoded
    (link,) = struct.unpack_from("<I" if little_endian(seed) else ">I", seed, 20)
    floor = rng.choice([0, 14 if link == LinkType.ETHERNET else 24, 24])
    hit = [record for record in found if rng.random() < share] or [rng.choice(found)]
    for at, size in reversed(hit):  # back to front: cuts keep offsets valid
        body = at + 16
        if kind == "orig_len":
            _set_u32(data, at + 12, rng.choice(
                [0, max(size - 1, 0), size + rng.randint(1, 1500), rng.randrange(2**32)]
            ))
        elif kind == "ihl" and size > 14:
            data[body + 14] = rng.choice(
                [(data[body + 14] & 0xF0) | rng.randrange(16), rng.randrange(256)]
            )
        elif kind == "data_offset" and size > 46:
            data[body + 46] = (rng.randrange(16) << 4) | (data[body + 46] & 0x0F)
        elif kind == "short_frame":
            keep = max(_cut(size, rng), min(floor, size))
            _set_u32(data, at + 8, keep)
            del data[body + keep : body + size]
        elif kind == "frame_byte" and size:
            data[body + rng.randrange(min(size, 64))] = rng.randrange(256)
    return kind, bytes(data)


@pytest.mark.parametrize(
    "budget", [400, pytest.param(20_000, marks=pytest.mark.pcap_fuzz_long)]
)
def test_mutations(seeds, tmp_path, budget):
    path = tmp_path / "fuzz.pcap"
    accepted = rejected = 0
    for case in range(budget):
        rng = random.Random(case)  # each case replays on its own
        kind, data = mutate(rng.choice(seeds), rng)
        path.write_bytes(data)
        try:
            if assert_readers_agree(path):
                accepted += 1
            else:
                rejected += 1
        except Exception as exc:
            raise AssertionError(f"fuzz case {case} ({kind}): {exc!r}") from exc
    assert accepted and rejected
