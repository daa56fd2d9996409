"""Tests for the dataset registry and literature metadata."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets import (
    DATASETS,
    attack_inventory,
    comparability_counts,
    dataset_ids,
    literature_table,
    load_dataset,
    load_flows,
)
from repro.datasets.literature import LITERATURE
from repro.flows import Granularity

SRC = Path(__file__).resolve().parents[2] / "src"


class TestRegistryStructure:
    def test_fifteen_paper_datasets_covered(self):
        # 10 connection-granularity + 3 packet-granularity profiles;
        # P1/P2 carry multiple attack phases standing in for the
        # remaining per-day traces (see module docstring).
        assert len(dataset_ids(Granularity.CONNECTION)) == 10
        assert len(dataset_ids(Granularity.PACKET)) == 3

    def test_ids_follow_paper_naming(self):
        assert dataset_ids(Granularity.CONNECTION) == [
            f"F{i}" for i in range(10)
        ]
        assert dataset_ids(Granularity.PACKET) == ["P0", "P1", "P2"]

    def test_every_spec_names_its_source(self):
        for spec in DATASETS.values():
            assert spec.stands_in_for
            assert spec.title

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            load_dataset("F99")

    def test_unknown_dataset_is_an_input_error(self):
        from repro.core.errors import InputError

        with pytest.raises(InputError) as info:
            load_dataset("F99")
        assert str(info.value).startswith("unknown dataset 'F99'")

    def test_reading_traces_does_not_load_the_engine(self):
        # repro.core pulls in the engine and every model (~30 MB RSS);
        # the bytes-in path (generate, export, import, assemble) must
        # not pay for it
        code = (
            "import sys\n"
            "import repro.datasets, repro.datasets.export, repro.flows\n"
            "assert 'repro.core' not in sys.modules, 'repro.core loaded'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_attack_inventory_covers_all_attacks(self):
        inventory = attack_inventory()
        for spec in DATASETS.values():
            for attack in spec.attacks:
                assert spec.dataset_id in inventory[attack]

    def test_torii_profile_is_low_volume(self):
        # F5 models the stealthy Torii capture: lowest malicious share
        # of the connection datasets (drives Observation 3's asymmetry).
        flows_f5 = load_flows("F5", Granularity.CONNECTION)
        fraction_f5 = flows_f5.labels.mean()
        for other in ("F4", "F6", "F7"):
            flows = load_flows(other, Granularity.CONNECTION)
            assert fraction_f5 < flows.labels.mean()


class TestLoading:
    def test_load_is_cached(self):
        assert load_dataset("F0") is load_dataset("F0")

    def test_flows_cached_per_granularity(self):
        a = load_flows("F0", Granularity.CONNECTION)
        b = load_flows("F0", Granularity.CONNECTION)
        c = load_flows("F0", Granularity.UNI_FLOW)
        assert a is b
        assert a is not c

    def test_every_dataset_loads_with_both_classes(self):
        for dataset_id, spec in DATASETS.items():
            table = load_dataset(dataset_id)
            assert len(table) > 1000, dataset_id
            assert 0 < table.n_malicious < len(table), dataset_id

    def test_p2_is_wifi_only(self):
        table = load_dataset("P2")
        assert (table.l2 == 105).all()

    def test_connection_datasets_not_degenerate(self):
        for dataset_id in dataset_ids(Granularity.CONNECTION):
            flows = load_flows(dataset_id, Granularity.CONNECTION)
            fraction = float(flows.labels.mean())
            assert 0.01 < fraction < 0.95, (dataset_id, fraction)

    def test_datasets_have_disjoint_address_spaces(self):
        import numpy as np

        f0 = load_dataset("F0")
        f4 = load_dataset("F4")
        benign_f0 = set(np.unique(f0.src_ip[f0.label == 0]).tolist())
        benign_f4 = set(np.unique(f4.src_ip[f4.label == 0]).tolist())
        overlap = benign_f0 & benign_f4
        # the only shared endpoints may be well-known externals
        assert len(overlap) < 5


class TestLiterature:
    def test_table1_has_eleven_rows(self):
        assert len(LITERATURE) == 11
        assert len(literature_table()) == 11

    def test_table_columns(self):
        row = literature_table()[0]
        assert set(row) == {
            "Algorithm", "ML Model", "Granularity", "Datasets",
            "Reported Performance",
        }

    def test_fig1a_half_have_no_comparison(self):
        counts = comparability_counts()
        zero = sum(1 for value in counts.values() if value == 0)
        # the paper: "for half of the algorithms ... no possible
        # comparison"; our transcription yields 7/11
        assert zero >= len(counts) / 2

    def test_shared_datasets_counted(self):
        counts = comparability_counts()
        assert counts["ocsvm"] >= 1  # shares CTU IoT with zeek
        assert counts["nprint"] >= 1  # shares CICIDS2017 with smartdet
        assert counts["kitsune"] == 0  # custom dataset only
