"""Replay pacing and chunk assembly.

The assembler must reproduce *exactly* the window partition that
``repro.core.streaming.chunked`` yields for the same trace -- that
identity is what lets the daemon's outputs be compared byte-for-byte
against an offline ``run_stream``.
"""

import numpy as np
import pytest

from repro.core.streaming import chunked
from repro.faults import FaultPlan, FaultRule, active
from repro.net.table import PacketTable
from repro.obs import METRICS
from repro.obs import metrics as metric_names
from repro.serve import ChunkAssembler, ReplayClock, ReplaySource


class TestReplaySource:
    def test_nothing_due_at_start(self, serve_trace):
        source = ReplaySource(serve_trace, pps=10.0, clock=ReplayClock())
        assert source.due_count() == 0
        assert source.next_batch() is None

    def test_pacing_follows_the_clock(self, serve_trace):
        clock = ReplayClock()
        source = ReplaySource(serve_trace, pps=10.0, clock=clock)
        source.begin()  # anchor the schedule before time passes
        clock.advance(1.0)
        assert source.due_count() == 10
        batch = source.next_batch()
        assert len(batch) == 10
        assert source.cursor == 10
        clock.advance(0.5)
        assert source.due_count() == 5

    def test_unpaced_delivers_everything(self, serve_trace):
        source = ReplaySource(
            serve_trace, pps=0.0, clock=ReplayClock(), batch_max=10_000
        )
        batch = source.next_batch()
        assert len(batch) == len(serve_trace)
        assert source.exhausted

    def test_batch_max_caps_delivery(self, serve_trace):
        clock = ReplayClock()
        source = ReplaySource(
            serve_trace, pps=100.0, clock=clock, batch_max=7
        )
        source.begin()
        clock.advance(1.0)  # 100 due, capped to 7 per batch
        assert len(source.next_batch()) == 7
        assert source.due_count() == 93

    def test_next_due_is_the_next_packet_time(self, serve_trace):
        clock = ReplayClock(start=5.0)
        source = ReplaySource(serve_trace, pps=10.0, clock=clock)
        assert source.next_due() == pytest.approx(5.1)
        clock.advance(1.0)
        source.next_batch()  # consume the 10 due packets
        assert source.next_due() == pytest.approx(6.1)

    def test_resume_backdates_the_schedule(self, serve_trace):
        clock = ReplayClock(start=100.0)
        source = ReplaySource(
            serve_trace, pps=10.0, clock=clock, start_row=50
        )
        # the consumed prefix is treated as already delivered on time:
        # nothing extra is due, and packet 51 is due 0.1s from now
        assert source.due_count() == 0
        assert source.next_due() == pytest.approx(100.1)
        clock.advance(0.2)
        assert source.due_count() == 2
        assert len(source.next_batch()) == 2
        assert source.cursor == 52

    def test_exhaustion(self, serve_trace):
        source = ReplaySource(
            serve_trace, pps=0.0, clock=ReplayClock(), batch_max=10_000
        )
        assert not source.exhausted
        assert source.remaining == len(serve_trace)
        source.next_batch()
        assert source.exhausted
        assert source.next_due() is None
        assert source.next_batch() is None

    def test_bad_start_row_rejected(self, serve_trace):
        with pytest.raises(ValueError, match="start_row"):
            ReplaySource(
                serve_trace,
                pps=1.0,
                clock=ReplayClock(),
                start_row=len(serve_trace) + 1,
            )

    def test_ingest_fault_fires_before_the_cursor_moves(self, serve_trace):
        clock = ReplayClock()
        source = ReplaySource(serve_trace, pps=10.0, clock=clock)
        source.begin()
        clock.advance(1.0)
        plan = FaultPlan(rules=(FaultRule("ingest", fail_first=1),))
        with active(plan):
            with pytest.raises(Exception, match="injected"):
                source.next_batch()
            # zero loss: the failed delivery left the packets in place
            assert source.cursor == 0
            assert len(source.next_batch()) == 10
        assert source.cursor == 10

    def test_ingest_counter_tracks_deliveries(self, serve_trace):
        clock = ReplayClock()
        source = ReplaySource(serve_trace, pps=10.0, clock=clock)
        source.begin()
        clock.advance(2.0)
        source.next_batch()
        counter = METRICS.counter(metric_names.SERVE_PACKETS_INGESTED)
        assert counter.value == 20


class TestChunkAssembler:
    def push_all(self, assembler, table, batch=97):
        chunks = []
        for start in range(0, len(table), batch):
            piece = table.select(
                np.arange(start, min(start + batch, len(table)))
            )
            chunks.extend(assembler.push(piece))
        chunks.extend(assembler.flush())
        return chunks

    def test_matches_offline_chunked_partition(self, serve_trace):
        trace = serve_trace.sort_by_time()
        # one packet on every window boundary: accumulating the window
        # start instead of dividing once per row cuts these differently
        rows = trace.select(np.arange(400))
        aligned = PacketTable(
            columns={**rows.columns, "ts": np.arange(400) * 0.1},
            attacks=rows.attacks,
        )
        for table, seconds in ((trace, 5.0), (aligned, 0.1)):
            ours = self.push_all(ChunkAssembler(seconds), table)
            reference = list(chunked(table, seconds))
            assert len(ours) == len(reference)
            for chunk, ref in zip(ours, reference):
                assert np.array_equal(chunk.table.ts, ref.ts)

    def test_row_ranges_are_contiguous_and_complete(self, serve_trace):
        trace = serve_trace.sort_by_time()
        chunks = self.push_all(ChunkAssembler(5.0), trace, batch=53)
        cursor = 0
        for chunk in chunks:
            assert chunk.row_start == cursor
            cursor += chunk.rows
        assert cursor == len(trace)

    def test_one_batch_spanning_many_windows_splits(self, serve_trace):
        trace = serve_trace.sort_by_time()
        assembler = ChunkAssembler(5.0)
        emitted = assembler.push(trace)  # the whole trace in one push
        emitted.extend(assembler.flush())
        assert len(emitted) == len(list(chunked(trace, 5.0)))

    def test_flush_emits_the_partial_tail(self, serve_trace):
        trace = serve_trace.sort_by_time()
        assembler = ChunkAssembler(5.0)
        assembler.push(trace.select(np.arange(10)))
        assert assembler.pending_rows == 10
        tail = assembler.flush()
        assert len(tail) == 1 and tail[0].rows == 10
        assert assembler.pending_rows == 0
        assert assembler.flush() == []

    def test_resume_parameters_restore_bookkeeping(self, serve_trace):
        trace = serve_trace.sort_by_time()
        whole = self.push_all(ChunkAssembler(5.0), trace)
        # split the replay at a chunk boundary, as a resume would
        cut_chunk = 2
        cut_row = whole[cut_chunk].row_start
        resumed = ChunkAssembler(
            5.0, origin=float(trace.ts[0]), row_counter=cut_row
        )
        rest = self.push_all(
            resumed, trace.select(np.arange(cut_row, len(trace)))
        )
        assert [c.window for c in rest] == [
            c.window for c in whole[cut_chunk:]
        ]
        assert [c.row_start for c in rest] == [
            c.row_start for c in whole[cut_chunk:]
        ]

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError, match="chunk_seconds"):
            ChunkAssembler(0.0)
