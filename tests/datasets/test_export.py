"""Tests for dataset export/import (pcap + label CSV)."""

import csv
import re

import numpy as np
import pytest

from repro.core import InputError
from repro.datasets.export import export_dataset, export_flows_csv, import_dataset
from repro.flows import assemble_connections
from repro.traffic import AttackSpec, NetworkScenario


@pytest.fixture(scope="module")
def small_dataset():
    return NetworkScenario(
        name="export-test",
        device_counts={"thermostat": 1, "smart_hub": 1},
        duration=45.0,
        seed=55,
        attacks=(AttackSpec("port_scan", 0.3, 0.6, intensity=0.05),),
    ).generate()


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
        ],
        ids=["no_label", "no_attack", "label_300", "label_x", "short_row", "blank_lines"],
    )
    def test_bad_label_file_names_path_and_line(
        self, small_dataset, tmp_path, line, text, message
    ):
        pcap_path, labels_path = export_dataset(small_dataset, tmp_path, "D")
        lines = labels_path.read_text().splitlines()
        lines[line - 1] = text
        labels_path.write_text("\n".join(lines) + "\n")
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

    def test_flows_csv(self, small_dataset, tmp_path):
        flows = assemble_connections(small_dataset)
        path = export_flows_csv(flows, tmp_path / "conn.csv")
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(flows)
        assert sum(int(r["label"]) for r in rows) == flows.n_malicious
        assert all(int(r["packets"]) >= 1 for r in rows)
