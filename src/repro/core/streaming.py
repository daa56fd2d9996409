"""Chunked delivery of a trace, as a gateway capture loop would see it.

The paper's deployment story is an IoT gateway inspecting traffic at a
chokepoint.  :func:`chunked` is the stand-in for that capture loop:
:meth:`~repro.core.engine.ExecutionEngine.run_stream` and the
``repro serve`` daemon feed its time-contiguous chunks through an
engine :class:`~repro.core.engine.StreamSession`, which carries each
step's state (damped incremental statistics, flow tables) across chunk
boundaries so the scores equal a single-pass run.
"""

from __future__ import annotations

import numpy as np

from repro.net.table import PacketTable


def window_ids(
    ts: np.ndarray, origin: float, chunk_seconds: float
) -> np.ndarray:
    """Each timestamp's window: ``floor((ts - origin) / chunk_seconds)``.

    The one window rule: :func:`chunked` applies it with the trace's
    first timestamp as origin, and the serve daemon's
    :class:`~repro.serve.source.ChunkAssembler` with the first packet it
    is pushed, so offline and served runs cut identical chunks.
    """
    return np.floor((ts - origin) / chunk_seconds).astype(np.int64)


def chunked(table: PacketTable, chunk_seconds: float):
    """Yield time-contiguous chunks of a trace (a capture-loop stand-in).

    Rows keep their table order inside a chunk; empty windows yield
    nothing.
    """
    if chunk_seconds <= 0:
        raise ValueError("chunk_seconds must be positive")
    if len(table) == 0:
        return
    windows = window_ids(table.ts, float(table.ts.min()), chunk_seconds)
    order = np.argsort(windows, kind="stable")
    bounds = np.flatnonzero(np.diff(windows[order])) + 1
    for rows in np.split(order, bounds):
        yield table.select(rows)
