"""Classic libpcap file format reader and writer.

Implements the original (non-ng) pcap container: a 24-byte global header
followed by per-packet records.  Both byte orders and both timestamp
resolutions (micro/nano) are read; files are written little-endian with
microsecond timestamps, which is what every tool expects.

This replaces the paper's use of pypacker + tcpdump-produced captures:
synthetic traces produced by :mod:`repro.traffic` can be written to real
``.pcap`` files and read back, and third-party pcaps of the supported
link types can be ingested directly.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.net.packet import LinkType, Packet

MAGIC_MICRO_LE = 0xA1B2C3D4
MAGIC_NANO_LE = 0xA1B23C4D

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


class PcapFormatError(ValueError):
    """Raised when a file is not a valid classic pcap capture."""


class PcapWriter:
    """Streams packets into a classic pcap file.

    Use as a context manager::

        with PcapWriter("trace.pcap", link_type=LinkType.ETHERNET) as writer:
            for packet in packets:
                writer.write(packet)
    """

    def __init__(
        self,
        path: str | Path,
        link_type: LinkType = LinkType.ETHERNET,
        snaplen: int = 65535,
    ) -> None:
        self._path = Path(path)
        self._link_type = link_type
        self._snaplen = snaplen
        self._file: BinaryIO | None = None

    def __enter__(self) -> "PcapWriter":
        self._file = open(self._path, "wb")
        self._file.write(
            _GLOBAL_HEADER.pack(
                MAGIC_MICRO_LE, 2, 4, 0, 0, self._snaplen, int(self._link_type)
            )
        )
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def write(self, packet: Packet) -> None:
        """Append one packet record."""
        if self._file is None:
            raise RuntimeError("PcapWriter used outside its context manager")
        data = packet.encode()
        captured = data[: self._snaplen]
        seconds = int(packet.timestamp)
        micros = int(round((packet.timestamp - seconds) * 1_000_000))
        if micros >= 1_000_000:  # rounding can push us into the next second
            seconds += 1
            micros -= 1_000_000
        self._file.write(
            _RECORD_HEADER.pack(seconds, micros, len(captured), len(data))
        )
        self._file.write(captured)


class PcapReader:
    """Iterates packets out of a classic pcap file.

    Yields parsed :class:`~repro.net.packet.Packet` objects; pass
    ``raw=True`` to :meth:`records` to get ``(timestamp, bytes)`` pairs
    instead.
    """

    def __init__(self, path: str | Path) -> None:
        self._path = Path(path)
        self.link_type = LinkType.ETHERNET
        self.snaplen = 0
        self._nano = False
        self._swapped = False

    def _read_global_header(self, handle: BinaryIO) -> None:
        raw = handle.read(_GLOBAL_HEADER.size)
        if len(raw) < _GLOBAL_HEADER.size:
            raise PcapFormatError("file too short for a pcap global header")
        (magic,) = struct.unpack("<I", raw[:4])
        if magic in (MAGIC_MICRO_LE, MAGIC_NANO_LE):
            self._swapped = False
        else:
            (magic_be,) = struct.unpack(">I", raw[:4])
            if magic_be not in (MAGIC_MICRO_LE, MAGIC_NANO_LE):
                raise PcapFormatError(f"bad pcap magic: 0x{magic:08x}")
            magic = magic_be
            self._swapped = True
        self._nano = magic == MAGIC_NANO_LE
        order = ">" if self._swapped else "<"
        _, _, _, _, _, snaplen, link = struct.unpack(order + "IHHiIII", raw)
        self.snaplen = snaplen
        try:
            self.link_type = LinkType(link)
        except ValueError as exc:
            raise PcapFormatError(f"unsupported link type: {link}") from exc

    def records(self, raw: bool = False) -> Iterator[Packet | tuple[float, bytes]]:
        """Yield packets (or raw records) from the file."""
        with open(self._path, "rb") as handle:
            self._read_global_header(handle)
            order = ">" if self._swapped else "<"
            divisor = 1e9 if self._nano else 1e6
            while True:
                header = handle.read(_RECORD_HEADER.size)
                if not header:
                    return
                if len(header) < _RECORD_HEADER.size:
                    raise PcapFormatError("truncated pcap record header")
                seconds, fraction, captured_len, orig_len = struct.unpack(
                    order + "IIII", header
                )
                data = handle.read(captured_len)
                if len(data) < captured_len:
                    raise PcapFormatError("truncated pcap record body")
                timestamp = seconds + fraction / divisor
                if raw:
                    yield timestamp, data
                else:
                    yield Packet.parse(
                        data, timestamp, self.link_type, orig_len
                    )

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.records())


def write_pcap(
    path: str | Path,
    packets: list[Packet],
    link_type: LinkType | None = None,
) -> None:
    """Write a list of packets to a pcap file.

    The link type defaults to that of the first packet so that 802.11
    traces are tagged correctly.
    """
    if link_type is None:
        link_type = packets[0].link_type if packets else LinkType.ETHERNET
    with PcapWriter(path, link_type=link_type) as writer:
        for packet in packets:
            writer.write(packet)


def read_pcap(path: str | Path) -> list[Packet]:
    """Read every packet from a pcap file into memory."""
    return list(PcapReader(path))
