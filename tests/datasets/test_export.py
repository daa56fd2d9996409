"""Tests for dataset export/import (pcap + label CSV)."""

import csv
import re

import numpy as np
import pytest

from repro.core import InputError
from repro.datasets import export
from repro.datasets.export import export_dataset, export_flows_csv, import_dataset
from repro.flows import assemble_connections
from repro.net.table import PacketTable
from repro.traffic import AttackSpec, NetworkScenario, TraceBuilder


@pytest.fixture(scope="module")
def small_dataset():
    return NetworkScenario(
        name="export-test",
        device_counts={"thermostat": 1, "smart_hub": 1},
        duration=45.0,
        seed=55,
        attacks=(AttackSpec("port_scan", 0.3, 0.6, intensity=0.05),),
    ).generate()


@pytest.fixture(scope="module")
def crowded_dataset():
    """32,769 malicious packets, the first 32,768 each with its own
    attack name: every id ``attack_id`` holds is taken."""
    table = PacketTable.empty(32_769)
    table.columns["ts"][:] = np.arange(32_769) * 1e-3
    table.columns["label"][:] = 1
    table.columns["attack_id"][:-1] = np.arange(32_768)
    table.attacks = [f"a{i}" for i in range(32_768)]
    return table


class TestExportImport:
    def test_files_created(self, small_dataset, tmp_path):
        pcap_path, labels_path = export_dataset(small_dataset, tmp_path, "D")
        assert pcap_path.exists() and labels_path.exists()
        assert pcap_path.name == "D.pcap"

    def test_label_rows_align_with_packets(self, small_dataset, tmp_path):
        _, labels_path = export_dataset(small_dataset, tmp_path, "D")
        with open(labels_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(small_dataset)
        assert sum(int(r["label"]) for r in rows) == small_dataset.n_malicious

    def test_round_trip_preserves_table(self, small_dataset, tmp_path):
        pcap_path, labels_path = export_dataset(small_dataset, tmp_path, "D")
        rebuilt = import_dataset(pcap_path, labels_path)
        original = small_dataset.sort_by_time()
        assert len(rebuilt) == len(original)
        assert np.allclose(rebuilt.ts, original.ts, atol=1e-6)
        # compare everything except the microsecond-quantised timestamps
        rebuilt.columns["ts"] = original.ts
        assert original.equals(rebuilt)

    def test_import_rejects_misaligned_labels(self, small_dataset, tmp_path):
        pcap_path, labels_path = export_dataset(small_dataset, tmp_path, "D")
        lines = labels_path.read_text().splitlines()
        labels_path.write_text("\n".join(lines[:-5]))
        with pytest.raises(InputError, match=re.escape(f"{labels_path}: ") + ".* rows"):
            import_dataset(pcap_path, labels_path)

    @pytest.mark.parametrize(
        "line, text, message",
        [
            (1, "index,timestamp,verdict,attack", r":1: no 'label' column"),
            (1, "index,timestamp,label", r":1: no 'attack' column"),
            (4, "2,0.5,300,", r":4: label '300' is not an integer in 0\.\.255"),
            (4, "2,0.5,x,", r":4: label 'x' is not an integer in 0\.\.255"),
            (4, "2,0.5", r":4: 2 fields"),
            # blank lines are no rows, but they count as lines
            (4, "\n\n2,0.5,-1,", r":6: label '-1'"),
            # a lone surrogate writes the byte 0xFF, which is not UTF-8
            (4, "\r\r\n2,0.5,1,sc\udcffan", r":6: not UTF-8 text \(invalid start byte\)"),
            (4, "2,0.5,1," + "x" * 131073, r":4: field larger than field limit \(131072\)"),
            # in the crowded dataset, the last row's new name needs id 32,768
            (32_770, "32768,32.768000,1,a32768",
             r":32770: more than 32768 attack names"),
        ],
        ids=[
            "no_label", "no_attack", "label_300", "label_x", "short_row",
            "blank_lines", "not_utf8", "field_limit", "attack_names",
        ],
    )
    def test_bad_label_file_names_path_and_line(
        self, small_dataset, crowded_dataset, tmp_path, line, text, message
    ):
        dataset = crowded_dataset if line > 32_768 else small_dataset
        pcap_path, labels_path = export_dataset(dataset, tmp_path, "D")
        lines = labels_path.read_text(encoding="utf-8").splitlines()
        lines[line - 1] = text
        labels_path.write_text(
            "\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape"
        )
        with pytest.raises(InputError, match=re.escape(str(labels_path)) + message):
            import_dataset(pcap_path, labels_path)

    def test_attack_ids_follow_first_appearance(self, small_dataset, tmp_path):
        pcap_path, labels_path = export_dataset(small_dataset, tmp_path, "D")
        lines = labels_path.read_text().splitlines()
        # a benign row that names an attack gets no id; a new name on a
        # malicious row gets the next one
        lines[1] = lines[1].rsplit(",", 2)[0] + ",0,decoy"
        lines[2] = lines[2].rsplit(",", 2)[0] + ",1,first"
        labels_path.write_text("\n".join(lines) + "\n")
        table = import_dataset(pcap_path, labels_path)
        assert table.attacks == ["first", "port_scan"]
        assert table.attack_id[0] == -1 and table.attack_id[1] == 0
        assert set(table.attack_id[2:].tolist()) <= {-1, 1}

    def test_ipv6_row_round_trips(self, tmp_path):
        table = PacketTable.empty(1)
        for name, value in [
            ("ts", 1000.25), ("l3", 6), ("proto", 17), ("ttl", 9),
            ("src_port", 5353), ("dst_port", 53), ("length", 66),
            ("payload_len", 4), ("src_mac", 0x02AABBCCDD01),
            ("dst_mac", 0x02AABBCCDD02), ("label", 1), ("attack_id", 0),
        ]:
            table.columns[name][0] = value
        table.attacks = ["dns_spoof"]
        rebuilt = import_dataset(*export_dataset(table, tmp_path, "v6"))
        for name, column in table.columns.items():
            assert rebuilt.columns[name].tobytes() == column.tobytes(), name
        assert rebuilt.attacks == table.attacks

    def test_attack_names_needing_quotes_round_trip(self, tmp_path):
        names = ['scan, "fast"', "plain", 'say "hi"', "multi\nline"]
        builder = TraceBuilder()
        for i in range(8):
            attack = names[i % 4] if i % 2 else ""
            builder.add_udp(float(i), 1, 2, 1000, 53, 10, attack=attack)
        table = builder.build()
        pcap_path, labels_path = export_dataset(table, tmp_path, "q")
        with open(labels_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert [row[3] for row in rows[1:]] == [
            names[i % 4] if i % 2 else "" for i in range(8)
        ]
        rebuilt = import_dataset(pcap_path, labels_path)
        assert rebuilt.attacks == table.attacks
        assert rebuilt.attack_id.tolist() == table.attack_id.tolist()

    def test_label_file_matches_csv_writer(self, small_dataset, tmp_path, monkeypatch):
        # rows are written in blocks; a small block makes them straddle
        monkeypatch.setattr(export, "_LABEL_BLOCK_ROWS", 7)
        table = small_dataset.sort_by_time()
        assert len(table) % 7
        table.attacks = ['port, "scan"']
        _, labels_path = export_dataset(table, tmp_path, "D")
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "timestamp", "label", "attack"])
            for i in range(len(table)):
                attack_id = int(table.attack_id[i])
                writer.writerow([
                    i, f"{float(table.ts[i]):.6f}", int(table.label[i]),
                    table.attacks[attack_id] if attack_id >= 0 else "",
                ])
        assert labels_path.read_bytes() == expected.read_bytes()

    def test_flows_csv(self, small_dataset, tmp_path):
        flows = assemble_connections(small_dataset)
        path = export_flows_csv(flows, tmp_path / "conn.csv")
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(flows)
        assert sum(int(r["label"]) for r in rows) == flows.n_malicious
        assert all(int(r["packets"]) >= 1 for r in rows)
