"""Per-flow reference implementations the vectorised featurizers must match.

``time_slice`` is the per-flow loop ``TimeSlice`` ran before it computed
every packet's window over the whole flow-grouped order at once.
``segmented_nunique`` and ``segmented_entropy`` find each flow's
distinct values with ``np.unique(pairs, axis=0)`` over stacked
(flow, value) rows, as :mod:`repro.core.segments` did before it took
them from one ``np.lexsort``.  ``protocol_one_hot``, ``wlan_features``,
``first_n_packets`` and ``device_labels`` are the column-at-a-time and
per-flow bodies of the operations of the same names, as they ran
before each operation kept only its numpy body.  Tests import this
module as ``tests.core.featurize_oracle``.
"""

import numpy as np

from repro.core.errors import TemplateError
from repro.flows.records import FlowTable
from repro.net.table import PacketTable


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


def protocol_one_hot(inputs: list, params: dict) -> np.ndarray:
    """``ProtocolOneHot``: one full-column comparison per protocol."""
    table: PacketTable = inputs[0]
    out = np.zeros((len(table), 4))
    out[:, 0] = table.proto == 6  # TCP
    out[:, 1] = table.proto == 17  # UDP
    out[:, 2] = table.proto == 1  # ICMP
    out[:, 3] = table.l3 == 0  # non-IP
    return out.astype(np.float64)


def wlan_features(inputs: list, params: dict) -> np.ndarray:
    """``WlanFeatures``: one full-column comparison per one-hot column."""
    table: PacketTable = inputs[0]
    n = len(table)
    is_wlan = (table.l2 == 105).astype(np.float64)
    type_onehot = np.zeros((n, 3))
    for t in range(3):
        type_onehot[:, t] = (table.wlan_type == t) & (table.l2 == 105)
    subtype_onehot = np.zeros((n, 16))
    for s in range(16):
        subtype_onehot[:, s] = (table.wlan_subtype == s) & (table.l2 == 105)
    broadcast = (table.dst_mac == 0xFFFFFFFFFFFF).astype(np.float64)
    return np.column_stack(
        [is_wlan, type_onehot, subtype_onehot, broadcast,
         table.length.astype(np.float64)]
    )


def first_n_packets(inputs: list, params: dict) -> np.ndarray:
    """``FirstNPackets``: fill each flow's row in a Python loop."""
    flows: FlowTable = inputs[0]
    n = int(params["n"])
    if n <= 0:
        raise TemplateError("n must be positive")
    lengths = flows.segment("length").astype(np.float64)
    ts = flows.segment("ts")
    out_blocks = []
    sizes = np.zeros((len(flows), n))
    iats = np.zeros((len(flows), n))
    directions = np.zeros((len(flows), n))
    for i in range(len(flows)):
        start, count = flows.starts[i], min(flows.counts[i], n)
        piece = slice(start, start + count)
        sizes[i, :count] = lengths[piece]
        if count > 1:
            iats[i, 1:count] = np.diff(ts[piece])
        directions[i, :count] = flows.forward[piece] * 2.0 - 1.0
    out_blocks.append(sizes)
    if params["include_iat"]:
        out_blocks.append(iats)
    if params["include_direction"]:
        out_blocks.append(directions)
    return np.hstack(out_blocks)


def device_labels(inputs: list, params: dict) -> np.ndarray:
    """``DeviceLabels``: one full-column equality scan per mapped source."""
    source = inputs[0]
    mapping = {int(k): int(v) for k, v in params["device_map"].items()}
    if isinstance(source, PacketTable):
        ips = source.src_ip
    elif isinstance(source, FlowTable):
        ips = source.key_columns["src_ip"]
    else:
        raise TemplateError("DeviceLabels expects packets or flows")
    out = np.full(len(ips), -1, dtype=np.int64)
    for ip, class_id in mapping.items():
        out[ips == ip] = class_id
    return out
