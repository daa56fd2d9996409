"""Per-flow reference implementations the vectorised featurizers must match.

``time_slice`` is the per-flow loop ``TimeSlice`` ran before it computed
every packet's window over the whole flow-grouped order at once.
``segmented_nunique`` and ``segmented_entropy`` find each flow's
distinct values with ``np.unique(pairs, axis=0)`` over stacked
(flow, value) rows, as :mod:`repro.core.segments` did before it took
them from one ``np.lexsort``.  Tests import this module as
``tests.core.featurize_oracle``.
"""

import numpy as np

from repro.flows.records import FlowTable


def time_slice(flows: FlowTable, window: float) -> FlowTable:
    """Split each flow, one at a time, into ``window``-second pieces."""
    table = flows.packets
    new_order: list[np.ndarray] = []
    new_counts: list[int] = []
    keep_flow: list[int] = []
    forward_pieces: list[np.ndarray] = []
    for i in range(len(flows)):
        indices = flows.packet_indices(i)
        positions = flows.packet_positions(i)
        ts = table.ts[indices]
        slot = ((ts - ts[0]) // window).astype(np.int64)
        boundaries = np.flatnonzero(np.diff(slot)) + 1
        pieces = np.split(np.arange(len(indices)), boundaries)
        for piece in pieces:
            new_order.append(indices[piece])
            forward_pieces.append(flows.forward[positions[piece]])
            new_counts.append(len(piece))
            keep_flow.append(i)
    counts = np.array(new_counts, dtype=np.int64)
    starts = (
        np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        if len(counts)
        else np.empty(0, dtype=np.int64)
    )
    order = (
        np.concatenate(new_order) if new_order else np.empty(0, dtype=np.int64)
    )
    keep = np.array(keep_flow, dtype=np.int64)
    labels = flows.labels[keep] if len(keep) else flows.labels[:0]
    if len(order):
        labels = (np.maximum.reduceat(table.label[order], starts) > 0).astype(np.uint8)
        attack_ids = np.where(
            labels == 1, np.maximum.reduceat(table.attack_id[order], starts), -1
        ).astype(np.int16)
    else:
        attack_ids = flows.attack_ids[:0]
    return FlowTable(
        packets=table,
        granularity=flows.granularity,
        order=order,
        starts=starts,
        counts=counts,
        key_columns={
            name: column[keep] for name, column in flows.key_columns.items()
        },
        labels=labels,
        attack_ids=attack_ids,
        forward=(
            np.concatenate(forward_pieces)
            if forward_pieces
            else np.empty(0, dtype=bool)
        ),
    )


def segmented_nunique(
    flow_of_pos: np.ndarray, values: np.ndarray, n_flows: int
) -> np.ndarray:
    """Number of distinct ``values`` within each flow."""
    if len(flow_of_pos) == 0:
        return np.zeros(n_flows, dtype=np.float64)
    pairs = np.stack([flow_of_pos, values.astype(np.int64)], axis=1)
    unique_pairs = np.unique(pairs, axis=0)
    return np.bincount(unique_pairs[:, 0], minlength=n_flows).astype(np.float64)


def segmented_entropy(
    flow_of_pos: np.ndarray, values: np.ndarray, n_flows: int
) -> np.ndarray:
    """Shannon entropy (bits) of the value distribution within each flow."""
    if len(flow_of_pos) == 0:
        return np.zeros(n_flows, dtype=np.float64)
    pairs = np.stack([flow_of_pos, values.astype(np.int64)], axis=1)
    unique_pairs, counts = np.unique(pairs, axis=0, return_counts=True)
    flow_totals = np.bincount(
        unique_pairs[:, 0], weights=counts, minlength=n_flows
    )
    probabilities = counts / flow_totals[unique_pairs[:, 0]]
    contributions = -probabilities * np.log2(probabilities)
    out = np.zeros(n_flows, dtype=np.float64)
    np.add.at(out, unique_pairs[:, 0], contributions)
    return out
