"""The columnar pcap writer and reader never hold a whole capture.

``write_pcap_table`` lays out and writes one piece of the file at a
time, and ``read_pcap_table`` keeps a fixed window of each record, so
their memory follows the number of records, not the bytes of the file.
tracemalloc's peak over one call is pinned on F0's exported capture
(15.0 MB, of which the table read back is 1.3 MB) and on F4's (52.4 MB
of mostly payload bytes).

The label join of ``import_dataset`` (``_join_labels``) reads its CSV
whole; its peak is pinned against the label file's size, on F0's
(0.56 MB) and F4's (1.16 MB) exported label files.
"""

import tracemalloc

import pytest

from repro.datasets import load_dataset
from repro.datasets.export import _join_labels, export_dataset
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


@pytest.mark.parametrize("dataset_id", ["F0", "F4"])
def test_label_join_peaks_below_six_times_the_label_file(tmp_path, dataset_id):
    # one delimiter scan, the labels read from their digits and the
    # temporaries freed as they are done with: 4.7x (F0) and 5.2x (F4),
    # where a join that split rows and fields in two scans peaked at
    # 6.6x and 6.8x
    pcap, labels = export_dataset(load_dataset(dataset_id), tmp_path, dataset_id)
    table = read_pcap_table(pcap)
    peak = traced_peak(lambda: _join_labels(table, labels))
    assert peak < 6 * labels.stat().st_size
