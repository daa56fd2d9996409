"""The daemon's ingest side: paced replay plus chunk assembly.

``repro serve`` has no live capture interface (the repo's traffic is
synthetic), so deployment is rehearsed by *replaying* a time-sorted
trace at a controlled packets-per-second rate against the injected
clock -- the serve-path equivalent of a capture loop handing the
daemon batches of packets.  :class:`ReplaySource` owns the pacing and
the replay cursor; :class:`ChunkAssembler` folds delivered batches
into the time windows of :func:`repro.core.streaming.window_ids` (the
rule :func:`repro.core.streaming.chunked` cuts by), tagging each
emitted :class:`Chunk` with the global row range it covers so
quarantine and crash recovery can account for every packet by
position.

Delivery is where the ``ingest`` fault site lives: the injector hook
runs *before* the cursor advances, so a failed delivery leaves the
packets in the source -- delivered late after the daemon backs off,
never lost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.streaming import window_ids
from repro.faults import maybe_inject
from repro.net.table import PacketTable
from repro.obs import METRICS
from repro.obs import metrics as metric_names
from repro.serve.clock import Clock


class ReplaySource:
    """Replays a time-sorted trace at ``pps`` against a clock.

    The schedule is positional: packet *i* becomes due at
    ``t0 + (i + 1) / pps`` on the clock's timeline, where ``t0`` is
    fixed by :meth:`begin` so that a source resumed at ``start_row``
    continues the original schedule instead of restarting it.  A
    non-positive ``pps`` means unpaced (every remaining packet is
    immediately due) -- the shape offline smoke tests want.
    """

    def __init__(
        self,
        table: PacketTable,
        *,
        pps: float,
        clock: Clock,
        start_row: int = 0,
        batch_max: int = 512,
    ) -> None:
        if batch_max <= 0:
            raise ValueError("batch_max must be positive")
        if not 0 <= start_row <= len(table):
            raise ValueError(
                f"start_row {start_row} outside trace of {len(table)} rows"
            )
        self.table = table
        self.pps = float(pps)
        self.clock = clock
        self.cursor = int(start_row)
        self.batch_max = int(batch_max)
        self._t0: float | None = None

    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Anchor the delivery schedule at the clock's current time.

        Called lazily by the query methods; idempotent.  On a resume
        (``cursor > 0``) the anchor is back-dated by the time the
        already-consumed prefix would have taken, so pacing continues
        as though the process had never died.
        """
        if self._t0 is None:
            offset = self.cursor / self.pps if self.pps > 0 else 0.0
            self._t0 = self.clock.now() - offset

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.table)

    @property
    def remaining(self) -> int:
        return len(self.table) - self.cursor

    def due_count(self) -> int:
        """Packets whose scheduled delivery time has passed."""
        if self.exhausted:
            return 0
        if self.pps <= 0:
            return self.remaining
        self.begin()
        scheduled = int((self.clock.now() - self._t0) * self.pps)
        return max(0, min(len(self.table), scheduled) - self.cursor)

    def next_due(self) -> float | None:
        """Clock time when the next undelivered packet becomes due."""
        if self.exhausted:
            return None
        if self.pps <= 0:
            return self.clock.now()
        self.begin()
        return self._t0 + (self.cursor + 1) / self.pps

    def next_batch(self) -> PacketTable | None:
        """Deliver every due packet (capped at ``batch_max``).

        The ``ingest`` fault hook fires before the cursor moves: an
        injected delivery failure is retryable with zero loss.
        """
        due = self.due_count()
        if due == 0:
            return None
        take = min(due, self.batch_max)
        maybe_inject("ingest", row=self.cursor, rows=take)
        piece = self.table.select(
            np.arange(self.cursor, self.cursor + take)
        )
        self.cursor += take
        METRICS.counter(
            metric_names.SERVE_PACKETS_INGESTED,
            "packets delivered by the serve replay source",
        ).inc(take)
        return piece


@dataclass
class Chunk:
    """One assembled scoring unit: a time window of contiguous rows.

    ``row_start`` is the global replay-order index of the chunk's first
    packet; with ``len(table)`` it names the exact row range, which is
    how quarantine journals and crash recovery account for packets
    without storing them.
    """

    table: PacketTable
    window: int
    row_start: int

    @property
    def rows(self) -> int:
        return len(self.table)


class ChunkAssembler:
    """Folds ordered packet batches into fixed time windows.

    Windows are :func:`~repro.core.streaming.window_ids` with the
    origin pinned to the first packet ever pushed -- the rule
    :func:`repro.core.streaming.chunked` applies from the same first
    timestamp, so a daemon chunk stream and an offline ``run_stream``
    see the same boundaries.  A window is emitted when the first packet of
    a *later* window arrives (input is time-ordered, so the window is
    then complete); :meth:`flush` force-emits the final partial window
    at end of replay.  Buffered state is bounded by one window's worth
    of packets.
    """

    def __init__(
        self,
        chunk_seconds: float,
        *,
        origin: float | None = None,
        row_counter: int = 0,
    ) -> None:
        if chunk_seconds <= 0:
            raise ValueError("chunk_seconds must be positive")
        self.chunk_seconds = float(chunk_seconds)
        self.origin = origin
        self._window: int | None = None
        self._pieces: list[PacketTable] = []
        self._buffered = 0
        self._buf_start = 0
        self._rows_in = int(row_counter)

    @property
    def pending_rows(self) -> int:
        """Rows buffered in the (incomplete) current window."""
        return self._buffered

    def push(self, piece: PacketTable) -> list[Chunk]:
        """Absorb one ordered batch; return any completed windows."""
        out: list[Chunk] = []
        if len(piece) == 0:
            return out
        if self.origin is None:
            self.origin = float(piece.ts[0])
        windows = window_ids(piece.ts, self.origin, self.chunk_seconds)
        # contiguous runs of one window id (time-ordered input)
        boundaries = np.flatnonzero(np.diff(windows)) + 1
        starts = [0, *boundaries.tolist()]
        ends = [*boundaries.tolist(), len(piece)]
        for start, end in zip(starts, ends):
            window = int(windows[start])
            if self._window is None:
                self._window = window
                self._buf_start = self._rows_in + start
            elif window != self._window:
                out.append(self._emit())
                self._window = window
                self._buf_start = self._rows_in + start
            self._pieces.append(piece.select(np.arange(start, end)))
            self._buffered += end - start
        self._rows_in += len(piece)
        return out

    def _emit(self) -> Chunk:
        table = (
            self._pieces[0]
            if len(self._pieces) == 1
            else PacketTable.concat(self._pieces)
        )
        chunk = Chunk(table, int(self._window), self._buf_start)
        self._pieces = []
        self._buffered = 0
        METRICS.counter(
            metric_names.SERVE_CHUNKS_ASSEMBLED,
            "time-window chunks assembled from replayed packets",
        ).inc()
        return chunk

    def flush(self) -> list[Chunk]:
        """Emit the final partial window (end of replay)."""
        if not self._pieces:
            return []
        chunk = self._emit()
        self._window = None
        return [chunk]
