"""Property-based invariants of PacketTable transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.table import PACKET_COLUMNS, PacketTable
from repro.traffic.builder import TraceBuilder

from tests.net.encode import table_to_packets


@st.composite
def tables(draw):
    n = draw(st.integers(0, 40))
    builder = TraceBuilder()
    for _ in range(n):
        ts = draw(st.floats(0, 1000))
        attack = draw(st.sampled_from(["", "", "scan", "flood"]))
        builder.add_tcp(
            ts,
            draw(st.integers(1, 5)),
            draw(st.integers(1, 5)),
            draw(st.integers(1, 65535)),
            draw(st.sampled_from([22, 80, 443])),
            draw(st.integers(0, 1400)),
            attack=attack,
        )
    return builder.build()


@settings(max_examples=40, deadline=None)
@given(table=tables())
def test_sort_is_idempotent_and_permutes(table):
    sorted_once = table.sort_by_time()
    sorted_twice = sorted_once.sort_by_time()
    assert sorted_once.equals(sorted_twice)
    assert len(sorted_once) == len(table)
    assert np.all(np.diff(sorted_once.ts) >= 0)
    # same multiset of lengths survives the permutation
    assert sorted(sorted_once.length.tolist()) == sorted(table.length.tolist())


@settings(max_examples=40, deadline=None)
@given(table=tables(), data=st.data())
def test_select_preserves_row_content(table, data):
    if len(table) == 0:
        return
    mask = np.array(
        data.draw(
            st.lists(st.booleans(), min_size=len(table), max_size=len(table))
        )
    )
    subset = table.select(mask)
    assert len(subset) == mask.sum()
    indices = np.flatnonzero(mask)
    for name in PACKET_COLUMNS:
        assert np.array_equal(subset.columns[name], table.columns[name][indices])


@settings(max_examples=40, deadline=None)
@given(left=tables(), right=tables())
def test_concat_lengths_and_labels(left, right):
    merged = PacketTable.concat([left, right])
    assert len(merged) == len(left) + len(right)
    assert merged.n_malicious == left.n_malicious + right.n_malicious
    # attack names are preserved through id remapping
    assert set(merged.attack_names()) == set(
        left.attack_names()
    ) | set(right.attack_names())


@settings(max_examples=20, deadline=None)
@given(table=tables())
def test_concat_with_empty_is_identity(table):
    merged = PacketTable.concat([table, PacketTable.empty()])
    assert merged.equals(
        PacketTable(columns=merged.columns, attacks=merged.attacks)
    )
    assert len(merged) == len(table)
    for name in PACKET_COLUMNS:
        assert np.array_equal(merged.columns[name], table.columns[name])


@settings(max_examples=20, deadline=None)
@given(table=tables())
def test_save_load_round_trip_property(table, tmp_path_factory):
    path = tmp_path_factory.mktemp("tables") / "t.npz"
    table.save(path)
    assert PacketTable.load(path).equals(table)


@settings(max_examples=30, deadline=None)
@given(table=tables())
def test_packets_round_trip_property(table):
    rebuilt = PacketTable.from_packets(table_to_packets(table))
    assert rebuilt.equals(table)
