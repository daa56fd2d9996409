"""The columnar pcap writer and reader never hold a whole capture.

``write_pcap_table`` lays out and writes one piece of the file at a
time, and ``read_pcap_table`` keeps a fixed window of each record, so
their memory follows the number of records, not the bytes of the file.
tracemalloc's peak over one call is pinned on F0's exported capture
(15.0 MB, of which the table read back is 1.3 MB) and on F4's (52.4 MB
of mostly payload bytes).
"""

import tracemalloc

import pytest

from repro.datasets import load_dataset
from repro.net.pcap import read_pcap_table, write_pcap_table

MIB = 2**20


def traced_peak(call) -> int:
    """The peak bytes tracemalloc traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peaks(dataset_id, path) -> tuple[int, int]:
    table = load_dataset(dataset_id).sort_by_time()
    write = traced_peak(lambda: write_pcap_table(path, table))
    return write, traced_peak(lambda: read_pcap_table(path))


def test_f0_peaks_below_a_quarter_of_the_file(tmp_path):
    path = tmp_path / "F0.pcap"
    write, read = peaks("F0", path)
    assert path.stat().st_size > 14 * MIB
    assert write < path.stat().st_size / 4
    assert read < path.stat().st_size / 4


def test_f4_peaks_do_not_grow_with_payload_bytes(tmp_path):
    path = tmp_path / "F4.pcap"
    write, read = peaks("F4", path)
    assert path.stat().st_size > 49 * MIB
    assert write < 6 * MIB
    assert read < 10 * MIB
