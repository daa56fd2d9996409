"""Tests for segmented per-flow helpers (entropy, nunique, median)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segments import (
    flow_membership,
    segmented_entropy,
    segmented_median,
    segmented_nunique,
)


class TestMembership:
    def test_basic(self):
        starts = np.array([0, 3, 5])
        counts = np.array([3, 2, 1])
        assert flow_membership(starts, counts).tolist() == [0, 0, 0, 1, 1, 2]

    def test_empty(self):
        out = flow_membership(np.array([], dtype=int), np.array([], dtype=int))
        assert len(out) == 0


class TestNunique:
    def test_known(self):
        membership = np.array([0, 0, 0, 1, 1])
        values = np.array([5, 5, 7, 1, 2])
        out = segmented_nunique(membership, values, 2)
        assert out.tolist() == [2.0, 2.0]

    def test_empty_flows_are_zero(self):
        out = segmented_nunique(np.array([], dtype=int), np.array([], dtype=int), 3)
        assert out.tolist() == [0.0, 0.0, 0.0]

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=40))
    @settings(max_examples=30)
    def test_single_flow_matches_set(self, values):
        membership = np.zeros(len(values), dtype=int)
        out = segmented_nunique(membership, np.array(values), 1)
        assert out[0] == len(set(values))


    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)),
                    min_size=1, max_size=60))
    @settings(max_examples=40)
    def test_many_flows_match_sets(self, pairs):
        membership = np.array([flow for flow, _ in pairs])
        values = np.array([value for _, value in pairs])
        out = segmented_nunique(membership, values, 6)
        for flow in range(6):
            assert out[flow] == len({v for f, v in pairs if f == flow})


class TestEntropy:
    def test_uniform_two_values_is_one_bit(self):
        membership = np.zeros(4, dtype=int)
        values = np.array([1, 1, 2, 2])
        out = segmented_entropy(membership, values, 1)
        assert out[0] == pytest.approx(1.0)

    def test_constant_is_zero(self):
        membership = np.zeros(5, dtype=int)
        out = segmented_entropy(membership, np.full(5, 9), 1)
        assert out[0] == pytest.approx(0.0)

    def test_per_flow_isolation(self):
        membership = np.array([0, 0, 1, 1])
        values = np.array([1, 2, 3, 3])
        out = segmented_entropy(membership, values, 2)
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0)

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=50))
    @settings(max_examples=30)
    def test_bounded_by_log_of_distinct(self, values):
        membership = np.zeros(len(values), dtype=int)
        out = segmented_entropy(membership, np.array(values), 1)
        distinct = len(set(values))
        assert -1e-9 <= out[0] <= np.log2(max(distinct, 2)) + 1e-9


    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-3, 3)),
                    min_size=1, max_size=60))
    @settings(max_examples=40)
    def test_many_flows_match_counts(self, pairs):
        membership = np.array([flow for flow, _ in pairs])
        values = np.array([value for _, value in pairs])
        out = segmented_entropy(membership, values, 6)
        for flow in range(6):
            counts = Counter(v for f, v in pairs if f == flow)
            total = sum(counts.values())
            expected = -sum(c / total * np.log2(c / total) for c in counts.values())
            assert out[flow] == pytest.approx(expected, abs=1e-12)


class TestMedian:
    def test_odd_count(self):
        membership = np.array([0, 0, 0])
        values = np.array([3.0, 1.0, 2.0])
        starts = np.array([0])
        counts = np.array([3])
        out = segmented_median(membership, values, starts, counts)
        assert out[0] == 2.0

    def test_even_count_averages(self):
        membership = np.array([0, 0, 0, 0])
        values = np.array([4.0, 1.0, 2.0, 3.0])
        out = segmented_median(membership, values, np.array([0]), np.array([4]))
        assert out[0] == 2.5

    def test_two_flows(self):
        membership = np.array([0, 0, 1, 1, 1])
        values = np.array([10.0, 20.0, 1.0, 2.0, 300.0])
        out = segmented_median(
            membership, values, np.array([0, 2]), np.array([2, 3])
        )
        assert out.tolist() == [15.0, 2.0]

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=30)
    def test_matches_numpy_single_flow(self, values):
        array = np.array(values)
        out = segmented_median(
            np.zeros(len(array), dtype=int), array,
            np.array([0]), np.array([len(array)]),
        )
        assert out[0] == pytest.approx(np.median(array))
