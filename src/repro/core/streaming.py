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

from repro.net.table import PacketTable


def chunked(table: PacketTable, chunk_seconds: float):
    """Yield time-contiguous chunks of a trace (a capture-loop stand-in)."""
    if chunk_seconds <= 0:
        raise ValueError("chunk_seconds must be positive")
    if len(table) == 0:
        return
    start = float(table.ts.min())
    end = float(table.ts.max())
    t = start
    while t <= end:
        mask = (table.ts >= t) & (table.ts < t + chunk_seconds)
        if mask.any():
            yield table.select(mask)
        t += chunk_seconds
