"""Tests for damped incremental statistics (Kitsune substrate).

:class:`KitsuneStreamState` is the one implementation of the recurrence.
The oracle here is an independent whole-trace replay: dense
``np.unique`` group ids per grouping and one python loop per
(grouping, decay rate), each key's update on its own accumulator.  The
fused state must match it byte for byte on whole traces and at every
chunk split.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incstats import KitsuneStreamState, kitsune_packet_features
from repro.core.operations import OPERATIONS
from repro.datasets import load_dataset
from repro.net.table import PacketTable
from repro.traffic.builder import TraceBuilder

# ---------------------------------------------------------------------------
# The replay oracle
# ---------------------------------------------------------------------------


class IncStat:
    """One damped statistic stream (single group, single decay rate)."""

    __slots__ = ("lam", "w", "ls", "ss", "last_t")

    def __init__(self, lam: float) -> None:
        self.lam = lam
        self.w = 0.0
        self.ls = 0.0
        self.ss = 0.0
        self.last_t = None

    def update(self, t: float, value: float) -> None:
        if self.last_t is not None:
            decay = 2.0 ** (-self.lam * max(t - self.last_t, 0.0))
            self.w *= decay
            self.ls *= decay
            self.ss *= decay
        self.last_t = t
        self.w += 1.0
        self.ls += value
        self.ss += value * value

    @property
    def mean(self) -> float:
        return self.ls / self.w if self.w > 0 else 0.0

    @property
    def std(self) -> float:
        if self.w <= 0:
            return 0.0
        variance = self.ss / self.w - self.mean**2
        return float(np.sqrt(max(variance, 0.0)))


def damped_group_stats(group_ids, timestamps, values, lam):
    """Per-packet damped (weight, mean, std) of ``values`` within groups."""
    n = len(group_ids)
    if not (len(timestamps) == len(values) == n):
        raise ValueError("group_ids, timestamps and values must align")
    out = np.empty((n, 3), dtype=np.float64)
    streams: dict = {}
    ids, ts, vals = group_ids.tolist(), timestamps.tolist(), values.tolist()
    for i in range(n):
        stream = streams.setdefault(ids[i], IncStat(lam))
        stream.update(ts[i], vals[i])
        out[i] = stream.w, stream.mean, stream.std
    return out


def damped_interarrival_stats(group_ids, timestamps, lam):
    """Per-packet damped (weight, mean, std) of inter-arrival times; the
    first packet of each group contributes an inter-arrival of 0."""
    n = len(group_ids)
    out = np.empty((n, 3), dtype=np.float64)
    streams: dict = {}
    last_seen: dict = {}
    ids, ts = group_ids.tolist(), timestamps.tolist()
    for i in range(n):
        stream = streams.setdefault(ids[i], IncStat(lam))
        gap = ts[i] - last_seen.get(ids[i], ts[i])
        last_seen[ids[i]] = ts[i]
        stream.update(ts[i], gap)
        out[i] = stream.w, stream.mean, stream.std
    return out


def group_ids_from_columns(columns):
    """Dense integer group ids for the combination of key columns."""
    if not columns:
        raise ValueError("need at least one key column")
    if len(columns[0]) == 0:
        return np.empty(0, dtype=np.int64)
    stacked = np.stack([np.asarray(c) for c in columns], axis=1)
    _, ids = np.unique(stacked, axis=0, return_inverse=True)
    return ids.astype(np.int64)


def replay_features(table, lambdas):
    """The Kitsune matrix by per-(grouping, rate) whole-trace replay."""
    non_ip = table.l3 == 0
    src_host = np.where(non_ip, table.src_mac.astype(np.uint64),
                        table.src_ip.astype(np.uint64))
    dst_host = np.where(non_ip, table.dst_mac.astype(np.uint64),
                        table.dst_ip.astype(np.uint64))
    source = group_ids_from_columns([src_host])
    channel = group_ids_from_columns([src_host, dst_host])
    socket = group_ids_from_columns(
        [src_host, dst_host, table.src_port, table.dst_port, table.proto]
    )
    sizes = table.length.astype(np.float64)
    blocks = []
    for lam in lambdas:
        blocks.append(damped_group_stats(source, table.ts, sizes, lam))
        blocks.append(damped_group_stats(channel, table.ts, sizes, lam))
        blocks.append(damped_group_stats(socket, table.ts, sizes, lam))
        blocks.append(damped_interarrival_stats(source, table.ts, lam))
    return np.hstack(blocks)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def single_key(times, sizes) -> PacketTable:
    """One host, one socket: every grouping sees the same stream."""
    table = PacketTable.empty(len(times))
    table.ts[:] = times
    table.length[:] = sizes
    table.l3[:] = 4
    return table


def random_trace(seed: int, n: int = 40) -> PacketTable:
    """Few hosts and ports, tied and spread arrivals, ARP among IPv4."""
    rng = np.random.default_rng(seed)
    gaps = rng.choice([0.0, 0.001, 0.4, 3.0, 90.0], size=n)
    builder = TraceBuilder()
    for t in np.cumsum(gaps).tolist():
        src, dst = (int(h) for h in rng.integers(1, 4, size=2))
        kind = rng.integers(3)
        if kind == 0:
            builder.add_tcp(t, src, dst, int(rng.integers(1000, 1003)), 80,
                            payload_len=int(rng.integers(0, 1400)))
        elif kind == 1:
            builder.add_udp(t, src, dst, 5353, 53,
                            payload_len=int(rng.integers(0, 200)))
        else:
            builder.add_arp(t, 0xA0 + src, 0xA0 + dst, src, dst)
    return builder.build()


def streamed(table, lambdas, bounds) -> np.ndarray:
    """Rows of ``table`` fed in chunks split at ``bounds``; every other
    chunk goes through a committed overlay."""
    state = KitsuneStreamState(lambdas)
    edges = [0, *bounds, len(table)]
    parts = []
    for index, (lo, hi) in enumerate(zip(edges, edges[1:])):
        chunk = table.select(np.arange(lo, hi))
        if index % 2:
            overlay = state.begin()
            parts.append(overlay.features(chunk))
            state.commit(overlay)
        else:
            parts.append(state.features(chunk))
    return np.concatenate(parts, axis=0)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestIncStat:
    """The damped recurrence on one key (columns 0-2: weight, mean, std)."""

    def last(self, times, sizes, lam):
        return kitsune_packet_features(single_key(times, sizes), (lam,))[-1]

    def test_single_update(self):
        w, mean, std = self.last([0.0], [5], 1.0)[:3]
        assert (w, mean, std) == (1.0, 5.0, 0.0)

    def test_no_decay_at_same_instant(self):
        w, mean, _ = self.last([0.0, 0.0], [2, 4], 1.0)[:3]
        assert w == pytest.approx(2.0)
        assert mean == pytest.approx(3.0)

    def test_decay_halves_weight_per_unit_time(self):
        # the first observation has decayed to 0.5
        assert self.last([0.0, 1.0], [10, 10], 1.0)[0] == pytest.approx(1.5)

    def test_old_values_fade(self):
        # the 100 has decayed to nothing
        mean = self.last([0.0, 50.0], [100, 1], 1.0)[1]
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_std_of_constant_stream_is_zero(self):
        std = self.last([float(t) for t in range(10)], [7] * 10, 0.1)[2]
        # damped sums accumulate tiny float error; std must stay ~0
        assert std == pytest.approx(0.0, abs=1e-5)

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_weight_bounded_by_count(self, sizes):
        times = [float(i) for i in range(len(sizes))]
        assert 0 < self.last(times, sizes, 0.5)[0] <= len(sizes) + 1e-9


class TestGroupStats:
    """The oracle's per-group replay."""

    def test_groups_are_independent(self):
        ids = np.array([0, 1, 0, 1])
        ts = np.array([0.0, 0.0, 0.0, 0.0])
        values = np.array([10.0, 99.0, 10.0, 99.0])
        out = damped_group_stats(ids, ts, values, lam=1.0)
        assert out[2, 1] == pytest.approx(10.0)  # group 0 mean
        assert out[3, 1] == pytest.approx(99.0)  # group 1 mean

    def test_weight_column_counts_within_group(self):
        ids = np.array([0, 0, 0])
        ts = np.zeros(3)
        values = np.ones(3)
        out = damped_group_stats(ids, ts, values, lam=1.0)
        assert out[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            damped_group_stats(np.zeros(3, dtype=int), np.zeros(2), np.zeros(3), 1.0)

    def test_interarrival_first_packet_zero_gap(self):
        ids = np.array([0, 0])
        ts = np.array([5.0, 7.0])
        out = damped_interarrival_stats(ids, ts, lam=0.1)
        assert out[0, 1] == pytest.approx(0.0)  # first gap is 0
        assert out[1, 1] > 0.0


class TestGroupIds:
    def test_same_combination_same_id(self):
        a = np.array([1, 1, 2])
        b = np.array([7, 7, 7])
        ids = group_ids_from_columns([a, b])
        assert ids[0] == ids[1]
        assert ids[0] != ids[2]

    def test_empty(self):
        assert len(group_ids_from_columns([np.array([])])) == 0

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError):
            group_ids_from_columns([])


#: sha256 of ``KitsuneFeatures`` (default decay rates) on the packet
#: datasets, as computed by the per-(grouping, rate) replay
PINNED = {
    "P0": "7e59294721d8c832250a9e7b517e381687557eb4861d41eefae733a517268498",
    "P1": "9f7425c6327b4b8243087d8de81927e0a454f79f3a1a47a57b32b61e851738f8",
    "P2": "7ac50e6d57e58e97bba8c6f339bca1b7e354d566761d9d06bde2bb222c279bee",
}

LAMBDA_SETS = [(1.0,), (1.0, 0.1), (1.0, 0.1, 0.01)]


class TestFusedMatchesReplay:
    @pytest.mark.parametrize("dataset", sorted(PINNED))
    def test_packet_datasets(self, dataset):
        table = load_dataset(dataset)
        params = dict(OPERATIONS["KitsuneFeatures"].optional_params)
        fused = OPERATIONS["KitsuneFeatures"].fn([table], params)
        assert hashlib.sha256(fused.tobytes()).hexdigest() == PINNED[dataset]
        oracle = replay_features(table, tuple(params["lambdas"]))
        assert fused.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("lambdas", LAMBDA_SETS)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_trace_at_every_split(self, seed, lambdas):
        table = random_trace(seed)
        oracle = replay_features(table, lambdas).tobytes()
        assert kitsune_packet_features(table, lambdas).tobytes() == oracle
        for split in range(len(table) + 1):
            assert streamed(table, lambdas, [split]).tobytes() == oracle
        rows = list(range(1, len(table)))
        assert streamed(table, lambdas, rows).tobytes() == oracle

    def test_empty_table(self):
        out = kitsune_packet_features(PacketTable.empty(0), (1.0, 0.1))
        assert out.shape == (0, 24)


class TestKitsuneFeatures:
    def test_shape(self, small_trace):
        sample = small_trace.select(np.arange(300))
        features = kitsune_packet_features(sample, lambdas=(1.0, 0.1))
        assert features.shape == (300, 2 * 4 * 3)
        assert np.isfinite(features).all()

    def test_flood_inflates_source_weight(self):
        builder = TraceBuilder()
        # one quiet host, one flooding host
        for i in range(50):
            builder.add_tcp(i * 1.0, 1, 2, 1000, 80, 100)
        for i in range(50):
            builder.add_tcp(40.0 + i * 0.001, 9, 2, 2000, 80, 100)
        table = builder.build()
        features = kitsune_packet_features(table, lambdas=(1.0,))
        flood_rows = table.src_ip == 9
        # damped per-source weight (column 0) much higher for the flooder
        assert features[flood_rows, 0].max() > features[~flood_rows, 0].max() * 3
