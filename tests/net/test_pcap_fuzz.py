"""Differential fuzzing of the pcap readers and the pcap writer.

Read leg: ``read_pcap_table`` (columnar) must equal
``PacketTable.from_packets(read_pcap(path))`` (one ``Packet`` per record)
in every column, byte for byte, on every input; and where one reader
rejects an input, the other must raise the same error type with the same
message.  Only ``PcapFormatError`` and ``HeaderError`` may escape either.

Write leg: ``write_pcap_table`` must write the bytes of the scalar
encoder in :mod:`tests.net.encode` wherever that encoder is correct
(IPv4, ARP and 802.11 rows whose ``length`` is their frame's length),
and read -> write -> read must be the identity.

The fuzzers are seeded: the read leg mutates captures written by
:mod:`repro.traffic` and hand-built captures of irregular frames; the
write leg mutates the columns of tables sliced from generated traffic
and read from those captures.  Each leg runs again with the piece and
batch sizes of :mod:`repro.net.pcap` patched small, so that record
headers, record windows and whole records straddle piece edges and
batches end mid-capture.  The short budgets run with the tier-1 suite;
``-m pcap_fuzz_long`` selects longer ones.
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
from repro.net import pcap
from repro.net.packet import LinkType, Packet
from repro.net.pcap import (
    MAGIC_MICRO_LE,
    MAGIC_NANO_LE,
    PcapFormatError,
    read_pcap,
    read_pcap_table,
    write_pcap_table,
)
from repro.net.table import PacketTable

from tests.net.encode import PcapWriter, encode, table_to_packets, write_pcap


#: piece sizes that put record headers, record windows and whole records
#: across piece edges: a piece of one window (106 bytes; every record
#: with a frame over 90 bytes is larger), one byte more, and pieces of a
#: few records
SMALL_PIECES = (pcap._WINDOW, pcap._WINDOW + 1, 128, 333, 1000)
#: batch sizes that end batches mid-piece and mid-capture
SMALL_BATCHES = (1, 2, 7, 64)


def small_pieces(monkeypatch, case: int) -> None:
    """Patch the reader's and writer's piece and batch sizes small, a
    combination per ``case``."""
    monkeypatch.setattr(pcap, "_PIECE", SMALL_PIECES[case % len(SMALL_PIECES)])
    monkeypatch.setattr(pcap, "_BATCH", SMALL_BATCHES[case % len(SMALL_BATCHES)])


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
    assert_tables_equal(columnar, objects)
    return True


def assert_tables_equal(got: PacketTable, want: PacketTable) -> None:
    assert list(got.columns) == list(want.columns)
    for name, column in want.columns.items():
        assert got.columns[name].dtype == column.dtype, name
        assert got.columns[name].tobytes() == column.tobytes(), name
    assert got.attacks == want.attacks


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
    return encode(EthernetHeader(src_mac=MAC_A, dst_mac=MAC_B, ethertype=ethertype))


def ipv4(protocol, body_len, options=b""):
    return encode(IPv4Header(
        src_ip=IP_A, dst_ip=IP_B, protocol=protocol, ttl=57,
        total_length=20 + len(options) + body_len, options=options,
    ))


def tcp(options=b""):
    return encode(TCPHeader(
        src_port=40000, dst_port=443, flags=0x18, window=1234, options=options
    ))


def irregular_frames() -> list[bytes]:
    """Every layout the columnar reader handles, regular or not."""
    udp = encode(UDPHeader(src_port=5353, dst_port=53, length=12))
    icmp = encode(ICMPHeader(icmp_type=8))
    arp = encode(ARPHeader(ARPHeader.REQUEST, MAC_A, IP_A, 0, IP_B))
    tcp_opts = b"\x02\x04\x05\xb4"  # MSS
    ip_opts = b"\x94\x04\x00\x00"  # router alert
    nops = b"\x01" * 40  # the longest options: IHL 15, data offset 15
    deepest = ether() + ipv4(IPPROTO_TCP, 64, nops) + tcp(nops) + b"data"
    offset_4 = bytearray(tcp())
    offset_4[12] = 0x40 | (offset_4[12] & 0x0F)
    return [
        ether() + ipv4(IPPROTO_TCP, 24) + tcp() + b"data",
        ether() + ipv4(IPPROTO_TCP, 24, ip_opts) + tcp() + b"data",
        ether() + ipv4(IPPROTO_TCP, 24) + tcp(tcp_opts),  # 62 bytes
        ether() + ipv4(IPPROTO_TCP, 28, ip_opts) + tcp(tcp_opts) + b"data",
        deepest,  # the TCP data offset sits at frame byte 86
        deepest[:114],  # cut inside the TCP options
        ether() + b"\x44" + ipv4(IPPROTO_UDP, 12)[1:] + udp + b"abcd",  # IHL 4
        ether() + ipv4(IPPROTO_TCP, 20) + bytes(offset_4),  # data offset 4
        ether() + ipv4(IPPROTO_UDP, 12) + udp + b"abcd",
        ether() + ipv4(IPPROTO_ICMP, 8) + icmp,
        ether() + ipv4(47, 4) + b"gre!",
        ether() + ipv4(IPPROTO_TCP, 10) + tcp()[:10],  # cut TCP header
        ether() + ipv4(IPPROTO_UDP, 4)[:30],  # cut IPv4 header
        ether() + b"\x46" + ipv4(IPPROTO_UDP, 0)[1:],  # IHL 6, no room
        ether() + b"\x65" + ipv4(IPPROTO_UDP, 0)[1:],  # version 6 in IPv4
        ether(ETHERTYPE_IPV6)
        + encode(IPv6Header(V6_A, V6_B, IPPROTO_TCP, 20, hop_limit=9)) + tcp(),
        ether(ETHERTYPE_IPV6)
        + encode(IPv6Header(V6_A, V6_B, IPPROTO_UDP, 8)) + udp,
        ether(ETHERTYPE_IPV6) + encode(IPv6Header(V6_A, V6_B, 59))[:30],
        ether(ETHERTYPE_IPV6)
        + encode(IPv6Header(V6_A, V6_B, IPPROTO_ICMP, 8, hop_limit=1)) + icmp,
        ether(ETHERTYPE_IPV6)
        + encode(IPv6Header(V6_A, V6_B, IPPROTO_TCP, 28, hop_limit=255))
        + tcp(tcp_opts) + b"data",
        # a version-4 nibble under the IPv6 ethertype
        ether(ETHERTYPE_IPV6) + ipv4(IPPROTO_UDP, 12) + udp + b"abcd" + bytes(8),
        ether(ETHERTYPE_ARP) + arp,
        ether(ETHERTYPE_ARP) + arp + bytes(18),  # padded to 60 bytes
        ether(ETHERTYPE_ARP) + arp[:20],  # short ARP
        ether(ETHERTYPE_ARP) + b"\x00\x06" + arp[2:],  # another variant
        ether(0x88CC) + b"lldp",
        ether(),  # Ethernet header only
        # last: an IHL of 15 in the capture's last byte sends the TCP
        # data offset gather deep into the padding past the file
        ether() + b"\x4f",
    ]


def dot11_frames() -> list[bytes]:
    header = Dot11Header(frame_type=2, subtype=8, addr1=MAC_A, addr2=MAC_B, addr3=MAC_A)
    beacon = Dot11Header(frame_type=0, subtype=8, addr1=MAC_B, addr2=MAC_A, addr3=MAC_A)
    return [encode(header) + b"payload", encode(beacon), encode(beacon) + b"x"]


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
        for packet in table_to_packets(table):
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
        assert table.l3.tolist().count(6) == 4

    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("nano", [False, True])
    def test_no_record_takes_the_object_decoder(
        self, tmp_path, monkeypatch, order, nano
    ):
        path = tmp_path / "frames.pcap"
        path.write_bytes(capture(irregular_frames(), order=order, nano=nano))
        want = PacketTable.from_packets(read_pcap(path))

        def refuse(*args, **kwargs):
            raise AssertionError("a record reached the object decoder")

        monkeypatch.setattr(Packet, "parse", refuse)
        monkeypatch.setattr(PacketTable, "from_packets", refuse)
        for header in (EthernetHeader, IPv4Header, IPv6Header, TCPHeader,
                       UDPHeader, ICMPHeader, ARPHeader):
            monkeypatch.setattr(header, "decode", refuse)
        assert_tables_equal(read_pcap_table(path), want)

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

    def test_every_cut_of_the_last_record(self, tmp_path):
        data = capture(irregular_frames()[:2])
        at, _ = records(data)[-1]
        path = tmp_path / "cut.pcap"
        for keep in range(at, len(data) + 1):
            path.write_bytes(data[:keep])
            assert assert_readers_agree(path) == (keep in (at, len(data)))

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


class TestPieces:
    """Captures read in pieces and batches of every size decode as in one."""

    @pytest.mark.parametrize("case", range(len(SMALL_PIECES) * len(SMALL_BATCHES)))
    def test_hand_built_frames(self, tmp_path, monkeypatch, case):
        small_pieces(monkeypatch, case)
        path = tmp_path / "frames.pcap"
        path.write_bytes(capture(irregular_frames() * 3))
        assert assert_readers_agree(path)

    @pytest.mark.parametrize("case", range(len(SMALL_PIECES)))
    def test_every_cut_of_the_last_record(self, tmp_path, monkeypatch, case):
        small_pieces(monkeypatch, case)
        data = capture(irregular_frames()[:6])
        at, _ = records(data)[-1]
        path = tmp_path / "cut.pcap"
        for keep in range(at, len(data) + 1):
            path.write_bytes(data[:keep])
            assert assert_readers_agree(path) == (keep in (at, len(data)))


#: 1,100 records of 1,030 bytes: more than one piece of 1 MiB
LONG = [ether(0x88B5) + bytes(1000)] * 1100


def bad_capture(bad: int, frame: bytes, tail: str, lying: int | None = None) -> bytes:
    """:data:`LONG` with record ``bad`` replaced by ``frame``, its last
    record cut in its header or its body, and record ``lying``, if any,
    given an ``incl_len`` that runs past the end of the file."""
    data = bytearray(capture(LONG[:bad] + [frame] + LONG[bad + 1 :]))
    at, _ = records(bytes(data))[-1]
    del data[at + 10 if tail == "header" else len(data) - 3 :]
    if lying is not None:
        at, _ = records(capture(LONG))[lying]
        _set_u32(data, at + 8, len(data))
    return bytes(data)


@pytest.mark.parametrize("small", [False, True])
class TestFirstBadRecordInALaterPiece:
    """The first bad record in file order decides, wherever the pieces
    and batches end; the bad frame lies past the first piece."""

    @pytest.fixture(autouse=True)
    def pieces(self, monkeypatch, small):
        if small:
            monkeypatch.setattr(pcap, "_PIECE", 333)
            monkeypatch.setattr(pcap, "_BATCH", 7)

    @pytest.mark.parametrize("tail", ["header", "body"])
    def test_short_frame_before_a_truncated_tail(self, tmp_path, tail):
        path = tmp_path / "bad.pcap"
        path.write_bytes(bad_capture(1050, ether()[:10], tail))
        with pytest.raises(HeaderError, match="truncated Ethernet header"):
            read_pcap_table(path)
        assert not assert_readers_agree(path)

    def test_truncated_body_before_a_short_frame(self, tmp_path):
        # the lying record's body covers the short frame's bytes
        path = tmp_path / "bad.pcap"
        path.write_bytes(bad_capture(1050, ether()[:10], "body", lying=1049))
        with pytest.raises(PcapFormatError, match="truncated pcap record body"):
            read_pcap_table(path)
        assert not assert_readers_agree(path)

    def test_bad_dot11_frame_longer_than_its_window(self, tmp_path):
        # the error path reads the whole frame again for the decoder
        bad = bytearray(dot11_frames()[0] + bytes(200))
        bad[0] |= 0x01  # protocol version 1
        frames = [dot11_frames()[0] + bytes(1000)] * 1100
        frames[1050] = bytes(bad)
        path = tmp_path / "bad.pcap"
        path.write_bytes(capture(frames, link=LinkType.IEEE802_11))
        with pytest.raises(HeaderError, match="unsupported 802.11 version: 1"):
            read_pcap_table(path)
        assert not assert_readers_agree(path)


# --------------------------------------------------------------------------
# the mutation fuzzer
# --------------------------------------------------------------------------


def _set_u32(data: bytearray, at: int, value: int) -> None:
    struct.pack_into("<I" if little_endian(data) else ">I", data, at, value)


#: where a layer of some supported layout ends: cuts just short of one
#: leave a frame too short for that layout
BOUNDARIES = (14, 24, 34, 42, 54, 62, 74, 134)


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
        elif kind == "data_offset" and size > 14:
            # behind the IPv6 header, or behind the IPv4 header's IHL
            ipv6 = data[body + 12 : body + 14] == b"\x86\xdd"
            at = body + (66 if ipv6 else 26 + 4 * (data[body + 14] & 0x0F))
            if at < body + size:
                data[at] = (rng.randrange(16) << 4) | (data[at] & 0x0F)
        elif kind == "short_frame":
            keep = max(_cut(size, rng), min(floor, size))
            _set_u32(data, at + 8, keep)
            del data[body + keep : body + size]
        elif kind == "frame_byte" and size:
            # up to the end of the deepest headers: IHL 15, data offset 15
            data[body + rng.randrange(min(size, 134))] = rng.randrange(256)
    return kind, bytes(data)


#: the short budget runs with tier-1, the long one with ``-m pcap_fuzz_long``
BUDGETS = [400, pytest.param(20_000, marks=pytest.mark.pcap_fuzz_long)]


@pytest.mark.parametrize("budget", BUDGETS)
def test_mutations(seeds, tmp_path, budget):
    fuzz_reads(seeds, tmp_path, budget)


@pytest.mark.parametrize("budget", BUDGETS)
def test_mutations_in_small_pieces(seeds, tmp_path, monkeypatch, budget):
    fuzz_reads(seeds, tmp_path, budget, monkeypatch)


def fuzz_reads(seeds, tmp_path, budget, small=None) -> None:
    """Both readers agree on ``budget`` mutated captures; with a
    ``monkeypatch`` for ``small``, in small pieces and batches."""
    path = tmp_path / "fuzz.pcap"
    accepted = rejected = 0
    for case in range(budget):
        rng = random.Random(case)  # each case replays on its own
        if small is not None:
            small_pieces(small, case)
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


# --------------------------------------------------------------------------
# the write leg
# --------------------------------------------------------------------------


def written(table: PacketTable, path) -> bytes:
    write_pcap_table(path, table)
    return path.read_bytes()


def oracle_rows(table: PacketTable) -> np.ndarray:
    """The rows the scalar encoder writes correctly: IPv4, ARP without
    payload and 802.11 rows whose ``length`` is their frame's length."""
    cols = table.columns
    dot11 = cols["l2"] == LinkType.IEEE802_11
    ipv4 = ~dot11 & (cols["l3"] == 4)
    arp = (
        ~dot11 & (cols["l3"] == 0) & ((cols["src_ip"] | cols["dst_ip"]) != 0)
        & (cols["payload_len"] == 0)
    )
    transport = np.select(
        [cols["proto"] == IPPROTO_TCP, np.isin(cols["proto"], (IPPROTO_UDP, IPPROTO_ICMP))],
        [20, 8], 0,
    )
    frame = np.select([dot11, ipv4, arp], [24, 34 + transport, 42], -1)
    return (frame >= 0) & (cols["length"] == frame + cols["payload_len"])


def assert_writer_matches_oracle(table: PacketTable, directory) -> None:
    rows = table.select(oracle_rows(table))
    write_pcap(directory / "oracle.pcap", table_to_packets(rows))
    assert written(rows, directory / "columns.pcap") == (
        directory / "oracle.pcap"
    ).read_bytes()


def assert_round_trip(table: PacketTable, path) -> PacketTable:
    """read -> write -> read is the identity; return the table read from
    ``table``'s capture."""
    write_pcap_table(path, table)
    once = read_pcap_table(path)
    write_pcap_table(path, once)
    assert_tables_equal(read_pcap_table(path), once)
    return once


def read_tables(traffic_captures, seeds, directory) -> list[PacketTable]:
    """Tables read from microsecond captures: the traffic captures, the
    hand-built irregular and 802.11 ones, and the snaplen-cut one."""
    path = directory / "seed.pcap"
    found = [read_pcap_table(p) for p in traffic_captures.values()]
    for data in (seeds[0], seeds[2], seeds[-1]):
        path.write_bytes(data)
        found.append(read_pcap_table(path))
    return found


class TestWriter:
    @pytest.mark.parametrize("dataset_id", ["F0", "P0", "P2"])
    def test_traffic_capture_matches_the_oracle(
        self, traffic_captures, tmp_path, dataset_id
    ):
        table = load_dataset(dataset_id).sort_by_time()
        assert oracle_rows(table).all()
        write_pcap(tmp_path / "oracle.pcap", table_to_packets(table))
        assert traffic_captures[dataset_id].read_bytes() == (
            tmp_path / "oracle.pcap"
        ).read_bytes()

    def test_read_tables_read_back_unchanged(self, traffic_captures, seeds, tmp_path):
        tables = read_tables(traffic_captures, seeds, tmp_path)
        for table in tables:
            assert_tables_equal(assert_round_trip(table, tmp_path / "t.pcap"), table)
        # what the round trip covered: IPv6 rows, a padded ARP frame,
        # and a snaplen cut that lives on in ``length``
        irregular = tables[3]
        assert (irregular.l3 == 6).sum() == 4
        assert ((irregular.src_ip != 0) & (irregular.l3 == 0) & (irregular.payload_len == 18)).any()
        assert (tables[-1].length > 60).any()

    def test_ethertype_of_each_row_kind(self, tmp_path):
        table = PacketTable.empty(4)
        table.columns["l3"][:] = [4, 6, 0, 0]
        table.columns["src_ip"][2] = IP_A  # an ARP row; the last has no IP
        data = written(table, tmp_path / "t.pcap")
        ethertypes = [data[at + 28 : at + 30] for at, _ in records(data)]
        assert ethertypes == [b"\x08\x00", b"\x86\xdd", b"\x08\x06", b"\x88\xb5"]

    def test_oracle_rows_of_hand_built_tables(self, traffic_captures, seeds, tmp_path):
        for table in read_tables(traffic_captures, seeds, tmp_path)[3:]:
            assert oracle_rows(table).any()
            assert_writer_matches_oracle(table, tmp_path)

    def test_ipv4_checksum_folds_twice(self, tmp_path):
        # the header words sum to 0x5FFFD: the first fold carries again
        table = PacketTable.empty(1)
        for name, value in [
            ("l3", 4), ("proto", 255), ("ttl", 255), ("src_ip", 2**32 - 1),
            ("dst_ip", 2**32 - 1), ("payload_len", 31470), ("length", 31504),
        ]:
            table.columns[name][0] = value
        assert_writer_matches_oracle(table, tmp_path)

    def test_empty_table(self, tmp_path):
        table = PacketTable.empty()
        assert_tables_equal(assert_round_trip(table, tmp_path / "t.pcap"), table)
        assert_writer_matches_oracle(table, tmp_path)


#: what each column may be set to: values of its dtype that a capture
#: can carry (48-bit MACs, timestamps below 2**32 - 1 s) and payloads
#: short enough to materialise (every payload byte is written)
COLUMN_VALUES = {
    "ts": lambda rng: rng.uniform(0, 2**32 - 1),
    "src_ip": lambda rng: rng.choice([0, rng.getrandbits(32)]),
    "dst_ip": lambda rng: rng.choice([0, rng.getrandbits(32)]),
    "src_port": lambda rng: rng.getrandbits(16),
    "dst_port": lambda rng: rng.getrandbits(16),
    "proto": lambda rng: rng.choice([0, 1, 6, 17, 47, 58, rng.getrandbits(8)]),
    "length": lambda rng: rng.choice([0, rng.randrange(100), rng.getrandbits(32)]),
    "payload_len": lambda rng: rng.choice([0, rng.randrange(64), rng.randrange(1500)]),
    "tcp_flags": lambda rng: rng.getrandbits(8),
    "ttl": lambda rng: rng.getrandbits(8),
    "window": lambda rng: rng.getrandbits(16),
    "l3": lambda rng: rng.choice([0, 4, 6, rng.getrandbits(8)]),
    "wlan_type": lambda rng: rng.getrandbits(8),
    "wlan_subtype": lambda rng: rng.getrandbits(8),
    "src_mac": lambda rng: rng.getrandbits(48),
    "dst_mac": lambda rng: rng.getrandbits(48),
}


def mutate_table(table: PacketTable, rng: random.Random) -> PacketTable:
    """A random slice of ``table`` with some columns mutated: some rows
    get new values, or the whole ``l2`` column a new link type (a
    capture has one)."""
    start = rng.randrange(len(table))
    table = table.select(np.arange(start, min(len(table), start + rng.randint(1, 64))))
    for _ in range(rng.choice([0, 1, 1, 2, 3])):
        if rng.random() < 0.1:
            table.columns["l2"][:] = rng.choice([1, 105, rng.getrandbits(8)])
            continue
        name = rng.choice(sorted(COLUMN_VALUES))
        column = table.columns[name]
        share = rng.choice([0.1, 0.5, 1.0])
        for i in range(len(table)):
            if rng.random() < share:
                column[i] = COLUMN_VALUES[name](rng)
    return table


@pytest.fixture(scope="module")
def table_seeds(traffic_captures, seeds, tmp_path_factory):
    """Generated F0/P0/P2 tables and the read tables, for slicing."""
    generated = [load_dataset(d).sort_by_time() for d in ("F0", "P0", "P2")]
    directory = tmp_path_factory.mktemp("table_seeds")
    return generated + read_tables(traffic_captures, seeds, directory)


@pytest.mark.parametrize("budget", BUDGETS)
def test_write_mutations(table_seeds, tmp_path, budget):
    fuzz_writes(table_seeds, tmp_path, budget)


@pytest.mark.parametrize("budget", BUDGETS)
def test_write_mutations_in_small_pieces(table_seeds, tmp_path, monkeypatch, budget):
    fuzz_writes(table_seeds, tmp_path, budget, monkeypatch)


def fuzz_writes(table_seeds, tmp_path, budget, small=None) -> None:
    """The writer matches the scalar encoder and round-trips on
    ``budget`` mutated tables; with a ``monkeypatch`` for ``small``, in
    small pieces and batches."""
    compared = 0
    for case in range(budget):
        rng = random.Random(case)  # each case replays on its own
        if small is not None:
            small_pieces(small, case)
        table = mutate_table(rng.choice(table_seeds), rng)
        try:
            assert_round_trip(table, tmp_path / "t.pcap")
            assert_writer_matches_oracle(table, tmp_path)
        except Exception as exc:
            raise AssertionError(f"write fuzz case {case}: {exc!r}") from exc
        compared += int(oracle_rows(table).sum())
    assert compared
