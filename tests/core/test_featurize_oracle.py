"""Differential tests: the whole-table featurizers against per-flow oracles.

``TimeSlice`` finds every packet's window over the whole flow-grouped
order at once, and ``segmented_nunique``/``segmented_entropy`` take each
flow's distinct values from one ``np.lexsort``.  The oracles in
``tests.core.featurize_oracle`` are the per-flow loop and the
``np.unique(axis=0)`` helpers they replaced.  Every output must be equal
to the oracle's byte for byte: same dtypes, same shapes, same bytes.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.operations import OPERATIONS
from repro.core.segments import (
    flow_membership,
    segmented_entropy,
    segmented_nunique,
)
from repro.datasets import load_dataset
from repro.flows import Granularity, assemble_flows
from repro.flows.records import FlowTable
from repro.net.table import PacketTable
from tests.core import featurize_oracle as oracle

FLOW_GRANULARITIES = [g for g in Granularity if g.is_flow_like]


def time_slice(flows: FlowTable, window: float) -> FlowTable:
    return OPERATIONS["TimeSlice"].fn([flows], {"window": window})


def assert_same_array(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_flows(actual: FlowTable, expected: FlowTable) -> None:
    """Every field of the two flow tables is equal."""
    for field in dataclasses.fields(FlowTable):
        a, e = getattr(actual, field.name), getattr(expected, field.name)
        if field.name in ("packets", "granularity"):
            assert a is e
        elif field.name == "key_columns":
            assert list(a) == list(e)
            for name in e:
                assert_same_array(a[name], e[name])
        else:
            assert_same_array(a, e)


def packets(ts, src_port=None, label=None) -> PacketTable:
    """A table of TCP packets between two hosts at the given times."""
    ts = np.asarray(ts, dtype=np.float64)
    table = PacketTable.empty(len(ts))
    columns = table.columns
    columns["ts"][:] = ts
    columns["l3"][:] = 4
    columns["proto"][:] = 6
    columns["src_ip"][:] = 0x0A000001
    columns["dst_ip"][:] = 0x0A000002
    columns["src_port"][:] = 1000 if src_port is None else src_port
    columns["dst_port"][:] = 80
    columns["length"][:] = 60
    if label is not None:
        columns["label"][:] = label
        columns["attack_id"][:] = np.where(np.asarray(label) > 0, 0, -1)
        table.attacks = ["scan"]
    return table


class TestTimeSliceOnRegistryDatasets:
    @pytest.mark.parametrize("granularity", FLOW_GRANULARITIES,
                             ids=lambda g: g.name)
    @pytest.mark.parametrize("dataset", ["F0", "F4", "P0", "P2"])
    def test_matches_per_flow_loop(self, dataset, granularity):
        flows = assemble_flows(load_dataset(dataset), granularity)
        # A10's 5 s window, one that cuts most flows, and a coarse one
        for window in (5.0, 0.25, 60.0):
            assert_same_flows(
                time_slice(flows, window), oracle.time_slice(flows, window)
            )


class TestTimeSliceOnHandBuiltTables:
    def check(self, table: PacketTable, window: float) -> FlowTable:
        flows = assemble_flows(table, Granularity.UNI_FLOW)
        sliced = time_slice(flows, window)
        assert_same_flows(sliced, oracle.time_slice(flows, window))
        return sliced

    def test_one_packet_flows(self):
        sliced = self.check(packets([0.5, 0.7, 3.0, 9.9], src_port=[1, 2, 3, 4]), 1.0)
        assert sliced.counts.tolist() == [1, 1, 1, 1]

    def test_timestamps_on_window_multiples(self):
        # 2.0 and 4.0 s after the first packet each open a new window
        sliced = self.check(packets([10.0, 11.0, 12.0, 12.5, 14.0, 15.5]), 2.0)
        assert sliced.counts.tolist() == [2, 2, 2]

    def test_gaps_spanning_several_windows(self):
        sliced = self.check(packets([0.0, 0.1, 7.3, 7.4, 30.0]), 1.0)
        assert sliced.counts.tolist() == [2, 2, 1]

    def test_windows_relabel_from_their_packets(self):
        table = packets([0.0, 0.5, 3.0, 3.5], label=[0, 0, 1, 0])
        sliced = self.check(table, 1.0)
        assert sliced.labels.tolist() == [0, 1]
        assert sliced.attack_ids.tolist() == [-1, 0]

    def test_interleaved_flows_of_every_granularity(self):
        rng = np.random.default_rng(3)
        ts = np.sort(rng.uniform(0.0, 20.0, size=300))
        table = packets(ts, src_port=rng.integers(1, 6, size=300))
        table.columns["dst_port"][:] = rng.choice([80, 443], size=300)
        for granularity in FLOW_GRANULARITIES:
            flows = assemble_flows(table, granularity)
            for window in (0.1, 1.0, 3.0):
                assert_same_flows(
                    time_slice(flows, window), oracle.time_slice(flows, window)
                )

    def test_empty_table(self):
        sliced = self.check(PacketTable.empty(0), 1.0)
        assert len(sliced) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_tables(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 200))
        # unsorted times on a coarse grid, so some land on window edges
        ts = rng.integers(0, 400, size=n) * 0.125
        table = packets(ts, src_port=rng.integers(1, 1 + rng.integers(1, 30), size=n),
                        label=rng.integers(0, 2, size=n))
        window = float(rng.choice([0.125, 0.5, 1.0, 2.5, 7.0]))
        for granularity in FLOW_GRANULARITIES:
            flows = assemble_flows(table, granularity)
            assert_same_flows(
                time_slice(flows, window), oracle.time_slice(flows, window)
            )


class TestDistinctValueHelpers:
    @staticmethod
    def check(flow_of_pos, values, n_flows):
        for new, old in ((segmented_nunique, oracle.segmented_nunique),
                         (segmented_entropy, oracle.segmented_entropy)):
            assert_same_array(new(flow_of_pos, values, n_flows),
                              old(flow_of_pos, values, n_flows))

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_inputs(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_flows = int(rng.integers(1, 40))
        counts = rng.integers(1, 30, size=n_flows)
        membership = flow_membership(np.cumsum(counts) - counts, counts)
        n = len(membership)
        for values in (
            rng.integers(-5, 5, size=n),  # negative values
            rng.integers(0, 2**16, size=n).astype(np.uint16),  # port columns
            # above 2**63: the int64 cast wraps them to negative values
            rng.integers(2**63 - 3, 2**63 + 3, size=n, dtype=np.uint64),
            rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64),
            rng.normal(scale=4.0, size=n),  # floats truncate toward zero
        ):
            self.check(membership, values, n_flows)
            # flows need not be grouped, and flows may hold no packet
            shuffled = rng.permutation(n)
            self.check(membership[shuffled], values[shuffled], n_flows + 3)

    def test_extreme_int64_values(self):
        membership = np.array([0, 0, 0, 1, 1, 1, 2, 2])
        values = np.array(
            [2**63, 2**63 - 1, 2**64 - 1, 0, 2**63, 2**63, 1, 2**64 - 1],
            dtype=np.uint64,
        )
        self.check(membership, values, 3)
        assert segmented_nunique(membership, values, 3).tolist() == [3.0, 2.0, 2.0]

    def test_empty(self):
        self.check(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 4)
