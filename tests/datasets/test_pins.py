"""Byte-equality pins on dataset generation and export.

The column digests were taken before the trace builder switched from
per-column lists to row tuples converted in blocks; the label-file and
capture digests match the per-row ``csv.writer`` and the object pcap
writer of earlier versions.  Any change to a generator's draw sequence,
a builder default or a column dtype moves a digest here.
"""

import hashlib

import pytest

from repro.datasets import DATASETS
from repro.datasets.export import export_dataset
from repro.net.table import PACKET_COLUMNS

#: dataset id -> (rows, sha256 of every column's name, dtype and bytes,
#: attacks), all at the registry's seeds
GENERATED = {
    "F0": (23791, "65fd5b86777a579045869f5c7d81499bdc365def6266ec92a10e048de1acd38d", ['brute_force_ftp', 'brute_force_ssh']),
    "F1": (23855, "c1b442ac6b09497e7713f8e74996cdb2802e22c0509bafccd80510128b79b023", ['dos_http_flood', 'dos_slowloris', 'dos_syn_flood']),
    "F2": (20224, "602a19de79d25a74096b09e1bc372ee4316137bb0716a54a85f3049eafcd3ba5", ['web_attack', 'infiltration']),
    "F3": (21311, "30a5cd7cc11d92a54d743da677e16fadf5ca80072dd3c2a9b25b38c7c206ede4", ['ddos_reflection', 'dos_udp_flood']),
    "F4": (55240, "324a9cb698b097d1c117a13d4c9400ca21b34687e32cfd522672b47735e8f4c8", ['botnet_cnc', 'botnet_spread', 'dns_tunnel']),
    "F5": (55945, "6d710a23cf309dc2f310fa87849b849a9a1f68a3cb44a60422d20f1b0ad84d21", ['botnet_cnc', 'exfiltration']),
    "F6": (55995, "f20143dfa7b9a180e228c919bc3877f386a0d39de1848640072362ad901698cb", ['port_scan', 'botnet_spread']),
    "F7": (128580, "85a473af065309a04c3c64aba72a4b5657db739864baef5a41d2461882ce54f8", ['brute_force_telnet', 'botnet_spread', 'dos_syn_flood']),
    "F8": (55378, "8ff8af1d147f52f4d7e22c60af723feb1217a9c9264881bb50e04603657d7eea", ['botnet_cnc', 'dos_udp_flood', 'port_scan']),
    "F9": (55871, "f86938237b3a8daa5c8df1ab6e389b9d562e0b33ca2111f2888928c988cf4e08", ['botnet_spread', 'dns_tunnel']),
    "P0": (18016, "02044aabdb239350e4a8d785504c8cc28342f858a747e7fc594d9214b3442487", ['port_scan', 'arp_mitm', 'dos_syn_flood']),
    "P1": (56844, "846c2fa3cf58fbeb34d7e4e007f2d7ba76c00669e3b56a66697c82948814b033", ['port_scan', 'brute_force_telnet', 'arp_mitm', 'dos_syn_flood', 'dos_udp_flood']),
    "P2": (25778, "a661f24f592b47d56346caa6de50e42fb6e79e163bfedff3be7240d8a4e29742", ['wifi_deauth', 'wifi_eviltwin']),
}

#: dataset id -> (sha256 of ``<id>.pcap``, sha256 of ``<id>.labels.csv``)
EXPORTED = {
    "F0": (
        "9c497e46c1a13166c21da6e9487950a08d81df2bd3e7360eff6af9a39d504bb8",
        "4bd693f9b0a15b0a8ce24b05890991f04a51d5f7fb05956f94032e377de2bac8",
    ),
    "P0": (
        "8e6c39d2761c48e4542e58c788bc1ba6fcff9f0a88be6f0b587ab50ef52e014c",
        "1f9d56a4cbe23f3462fffffebeb3c5abd5bb5c8865b158ef2da0b9cf77ecd916",
    ),
    "P2": (
        "5c6c143f00c9e9a40c373ff31c59dd4bb38f975ed623570061f46fbdb9c3c947",
        "37e32b0a4c1a250da9a6fc78079a696b5873b861adf639f69aab2dd4765d635a",
    ),
}


def column_digest(table) -> str:
    digest = hashlib.sha256()
    for name in PACKET_COLUMNS:
        column = table.columns[name]
        digest.update(f"{name}:{column.dtype.str}:".encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def sha256_file(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_registry_dataset_is_pinned():
    assert sorted(GENERATED) == sorted(DATASETS)


@pytest.mark.parametrize("dataset_id", sorted(GENERATED))
def test_generated_columns_are_pinned(dataset_id):
    # generated afresh: load_dataset's cached table is shared with
    # other tests
    table = DATASETS[dataset_id].scenario.generate()
    rows, digest, attacks = GENERATED[dataset_id]
    assert len(table) == rows
    assert table.attacks == attacks
    assert column_digest(table) == digest


@pytest.mark.parametrize("dataset_id", sorted(EXPORTED))
def test_exported_files_are_pinned(dataset_id, tmp_path):
    table = DATASETS[dataset_id].scenario.generate()
    pcap_path, labels_path = export_dataset(table, tmp_path, dataset_id)
    assert (sha256_file(pcap_path), sha256_file(labels_path)) == EXPORTED[dataset_id]
