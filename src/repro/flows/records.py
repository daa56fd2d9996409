"""The :class:`FlowTable`: flows as contiguous ranges over a permutation.

A flow table references its source :class:`~repro.net.table.PacketTable`
and stores a permutation of packet indices grouped flow by flow, plus
``starts``/``counts`` delimiting each flow's range.  This layout lets
per-flow aggregate features be computed with ``np.add.reduceat``-style
segmented operations instead of Python loops -- the map-reduce shape the
paper's engine exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flows.granularity import Granularity
from repro.net.table import PacketTable


@dataclass
class FlowTable:
    """Flows (or connections, or pairs) assembled over a packet table.

    Attributes:
        packets: the source packet table.
        granularity: what one row represents.
        order: permutation of packet row indices, grouped by flow.
        starts: start position of each flow inside ``order``.  Flows
            are contiguous and in flow order: ``starts`` is the running
            sum of ``counts``.  :meth:`select` repacks to keep it so;
            :meth:`reduce` and the ``TimeSlice`` operation rely on it.
        counts: packets per flow.
        key_columns: per-flow key fields (e.g. src_ip/dst_ip/ports/proto);
            for connections, the *initiator* endpoint comes first.
        labels: per-flow ground truth (1 = malicious).
        attack_ids: per-flow attack index into ``packets.attacks`` (-1 =
            benign).
        forward: per-packet boolean (aligned with ``order``): whether the
            packet travels in the flow's forward/initiator direction.
            Always ``True`` for unidirectional flows.
    """

    packets: PacketTable
    granularity: Granularity
    order: np.ndarray
    starts: np.ndarray
    counts: np.ndarray
    key_columns: dict[str, np.ndarray]
    labels: np.ndarray
    attack_ids: np.ndarray
    forward: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.forward is None:
            self.forward = np.ones(len(self.order), dtype=bool)

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def n_malicious(self) -> int:
        return int(self.labels.sum())

    def packet_positions(self, flow: int) -> np.ndarray:
        """Positions in ``order`` of this flow's packets (time-sorted)."""
        start = self.starts[flow]
        return np.arange(start, start + self.counts[flow])

    def packet_indices(self, flow: int) -> np.ndarray:
        """Row indices into the source packet table for one flow."""
        return self.order[self.packet_positions(flow)]

    def segment(self, column: str) -> np.ndarray:
        """A packet column permuted into flow-grouped order."""
        return self.packets.columns[column][self.order]

    # ------------------------------------------------------------------
    # Segmented (per-flow) aggregates.  All of these are vectorised over
    # every flow at once.
    # ------------------------------------------------------------------

    def reduce(self, values: np.ndarray, how: str = "sum") -> np.ndarray:
        """Reduce a flow-ordered value array to one value per flow.

        ``values`` must be aligned with ``order``.  Supported reductions:
        sum, mean, min, max, std, first, last, count.
        """
        if len(values) != len(self.order):
            raise ValueError("values must align with the flow-grouped order")
        starts = self.starts
        counts = np.maximum(self.counts, 1)
        if how == "count":
            return self.counts.astype(np.float64)
        if len(values) == 0:
            return np.zeros(len(self), dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if how == "sum":
            return np.add.reduceat(values, starts)
        if how == "mean":
            return np.add.reduceat(values, starts) / counts
        if how == "min":
            return np.minimum.reduceat(values, starts)
        if how == "max":
            return np.maximum.reduceat(values, starts)
        if how == "first":
            return values[starts]
        if how == "last":
            return values[starts + self.counts - 1]
        if how == "std":
            mean = np.add.reduceat(values, starts) / counts
            mean_sq = np.add.reduceat(values**2, starts) / counts
            return np.sqrt(np.maximum(mean_sq - mean**2, 0.0))
        raise ValueError(f"unknown reduction: {how!r}")

    @property
    def durations(self) -> np.ndarray:
        """Per-flow duration in seconds."""
        ts = self.segment("ts")
        return self.reduce(ts, "last") - self.reduce(ts, "first")

    @property
    def total_bytes(self) -> np.ndarray:
        """Per-flow byte volume."""
        return self.reduce(self.segment("length").astype(np.float64), "sum")

    def select(self, mask: np.ndarray) -> "FlowTable":
        """Keep only the flows selected by a boolean mask or index array.

        Packet ranges are re-packed so the result remains contiguous.
        """
        if mask.dtype == np.bool_:
            flow_indices = np.flatnonzero(mask)
        else:
            flow_indices = np.asarray(mask)
        pieces = [self.packet_indices(i) for i in flow_indices]
        forward_pieces = [
            self.forward[self.packet_positions(i)] for i in flow_indices
        ]
        counts = np.array([len(p) for p in pieces], dtype=np.int64)
        order = (
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        )
        forward = (
            np.concatenate(forward_pieces)
            if forward_pieces
            else np.empty(0, dtype=bool)
        )
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]]) if len(counts) else np.empty(0, dtype=np.int64)
        return FlowTable(
            packets=self.packets,
            granularity=self.granularity,
            order=order,
            starts=starts.astype(np.int64),
            counts=counts,
            key_columns={
                name: column[flow_indices]
                for name, column in self.key_columns.items()
            },
            labels=self.labels[flow_indices],
            attack_ids=self.attack_ids[flow_indices],
            forward=forward,
        )

    def summary(self) -> dict[str, object]:
        attack_names = sorted(
            {
                self.packets.attacks[i]
                for i in np.unique(self.attack_ids)
                if i >= 0
            }
        )
        return {
            "flows": len(self),
            "malicious": self.n_malicious,
            "granularity": self.granularity.name,
            "attacks": attack_names,
        }
