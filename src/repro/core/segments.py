"""Segmented (per-flow) helpers shared by the aggregate operations.

All helpers take ``flow_of_pos`` -- the flow index of every packet
position in flow-grouped order -- and compute one value per flow without
Python-level loops over packets.  The distinct-value helpers
(:func:`segmented_nunique`, :func:`segmented_entropy`) find each flow's
distinct values with one ``np.lexsort`` over (value, flow) and the run
boundaries of the sorted pairs.
"""

from __future__ import annotations

import numpy as np


def flow_membership(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flow index for every position in flow-grouped packet order."""
    return np.repeat(np.arange(len(starts)), counts)


def _distinct_pairs(
    flow_of_pos: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The flow and the size of every distinct (flow, value) pair.

    Values compare as int64.  One lexsort over (value, flow) puts the
    pairs in (flow, value) order; a pair starts wherever the flow or the
    value changes.  The pairs come out in that order, so callers that
    accumulate over them add in a fixed order.
    """
    keys = values.astype(np.int64)
    order = np.lexsort((keys, flow_of_pos))
    flows = flow_of_pos[order]
    keys = keys[order]
    starts = np.ones(len(order), dtype=bool)
    np.not_equal(flows[1:], flows[:-1], out=starts[1:])
    starts[1:] |= keys[1:] != keys[:-1]
    starts = np.flatnonzero(starts)
    return flows[starts], np.diff(starts, append=len(order))


def segmented_nunique(
    flow_of_pos: np.ndarray, values: np.ndarray, n_flows: int
) -> np.ndarray:
    """Number of distinct ``values`` within each flow."""
    if len(flow_of_pos) == 0:
        return np.zeros(n_flows, dtype=np.float64)
    flows, _ = _distinct_pairs(flow_of_pos, values)
    return np.bincount(flows, minlength=n_flows).astype(np.float64)


def segmented_entropy(
    flow_of_pos: np.ndarray, values: np.ndarray, n_flows: int
) -> np.ndarray:
    """Shannon entropy (bits) of the value distribution within each flow."""
    if len(flow_of_pos) == 0:
        return np.zeros(n_flows, dtype=np.float64)
    flows, counts = _distinct_pairs(flow_of_pos, values)
    flow_totals = np.bincount(flows, weights=counts, minlength=n_flows)
    probabilities = counts / flow_totals[flows]
    contributions = -probabilities * np.log2(probabilities)
    out = np.zeros(n_flows, dtype=np.float64)
    np.add.at(out, flows, contributions)
    return out


def segmented_median(
    flow_of_pos: np.ndarray,
    values: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Median of ``values`` within each flow (values in grouped order).

    Within each flow the values are sorted once; the median is read at
    the middle offsets, which keeps the whole thing a single argsort.
    """
    n_flows = len(starts)
    if len(values) == 0:
        return np.zeros(n_flows, dtype=np.float64)
    # Sort by (flow, value) so each flow's values are contiguous sorted.
    order = np.lexsort((values, flow_of_pos))
    sorted_values = values[order].astype(np.float64)
    lows = starts + (counts - 1) // 2
    highs = starts + counts // 2
    return (sorted_values[lows] + sorted_values[highs]) / 2.0
