"""Tests for chunked delivery and online (streaming) detection."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core import ExecutionEngine, Pipeline
from repro.core.engine import _begin, _carried_state_bytes, _commit
from repro.core.incstats import (
    KitsuneStreamState,
    kitsune_packet_features,
    kitsune_packet_features_stream,
)
from repro.core.operations import OPERATIONS
from repro.core.streaming import chunked
from repro.ml import KitNET
from repro.net.table import PacketTable
from repro.serve.daemon import DEFAULT_TEMPLATE
from repro.traffic import AttackSpec, NetworkScenario


@pytest.fixture(scope="module")
def benign_trace():
    return NetworkScenario(
        name="benign",
        device_counts={"camera": 1, "thermostat": 1, "smart_hub": 1},
        duration=120.0,
        seed=31,
    ).generate()


@pytest.fixture(scope="module")
def attack_trace():
    return NetworkScenario(
        name="attacked",
        device_counts={"camera": 1, "thermostat": 1, "smart_hub": 1},
        duration=120.0,
        seed=32,
        attacks=(AttackSpec("dos_syn_flood", 0.4, 0.7, intensity=0.2),),
    ).generate()


class TestChunking:
    def test_chunks_partition_trace(self, benign_trace):
        chunks = list(chunked(benign_trace, 10.0))
        assert sum(len(c) for c in chunks) == len(benign_trace)
        # chunks are time-ordered and disjoint
        for left, right in zip(chunks, chunks[1:]):
            assert left.ts.max() <= right.ts.min() + 10.0

    def test_invalid_chunk_size(self, benign_trace):
        with pytest.raises(ValueError):
            list(chunked(benign_trace, 0.0))

    def test_empty_trace(self):
        assert list(chunked(PacketTable.empty(), 5.0)) == []


class TestKitsuneOpenStream:
    """Online Kitsune scoring through ``engine.open_stream``: the
    ``repro serve`` default template feeding a KitNET trained offline."""

    @pytest.fixture(scope="class")
    def engine(self):
        return ExecutionEngine(use_cache=False, track_memory=False)

    @pytest.fixture(scope="class")
    def pipeline(self):
        return Pipeline.from_template([dict(s) for s in DEFAULT_TEMPLATE])

    @pytest.fixture(scope="class")
    def detector(self, engine, pipeline, benign_trace):
        small = benign_trace.select(np.arange(0, len(benign_trace), 4))
        features = engine.run(pipeline, small, outputs=["X"])["X"]
        model = KitNET(n_epochs=10, seed=0)
        model.fit(features)
        threshold = float(np.quantile(model.score_samples(features), 0.98))
        return model, threshold

    def scores(self, engine, pipeline, model, chunks):
        session = engine.open_stream(pipeline, outputs=["X"])
        parts = [
            model.score_samples(session.process_chunk(chunk)["X"])
            for chunk in chunks
        ]
        return np.concatenate(parts)

    def test_score_per_packet(self, engine, pipeline, detector, attack_trace):
        chunk = attack_trace.select(np.arange(200))
        scores = self.scores(engine, pipeline, detector[0], [chunk])
        assert scores.shape == (200,)

    def test_chunking_invariance(
        self, engine, pipeline, detector, attack_trace
    ):
        """Scores must not depend on chunk boundaries."""
        sample = attack_trace.select(np.arange(400))
        model = detector[0]
        single = self.scores(engine, pipeline, model, [sample])
        for splits in ((0, 150, 400), (0, 1, 77, 399, 400)):
            chunks = [
                sample.select(np.arange(lo, hi))
                for lo, hi in zip(splits, splits[1:])
            ]
            assert np.array_equal(
                single, self.scores(engine, pipeline, model, chunks)
            ), splits

    def test_flags_flood_packets(
        self, engine, pipeline, detector, attack_trace
    ):
        model, threshold = detector
        ordered = attack_trace.sort_by_time()
        scores = self.scores(
            engine, pipeline, model, chunked(ordered, 20.0)
        )
        flagged = scores > threshold
        # flood traffic is flagged at a much higher rate than benign
        flood_rate = flagged[ordered.label == 1].mean()
        benign_rate = flagged[ordered.label == 0].mean()
        assert flood_rate > benign_rate

    def test_empty_chunk(self, engine, pipeline, attack_trace):
        session = engine.open_stream(pipeline, outputs=["X", "y"])
        head = attack_trace.select(np.arange(50))
        session.process_chunk(head)
        before = session.snapshot()
        out = session.process_chunk(PacketTable.empty())
        assert len(out["X"]) == 0 and len(out["y"]) == 0
        # an empty chunk advances the chunk count, never the state
        assert session.chunks == 2
        after = session.snapshot()
        tail = attack_trace.select(np.arange(50, 100))
        session.restore(before)
        expected = session.process_chunk(tail)["X"]
        session.restore(after)
        assert np.array_equal(session.process_chunk(tail)["X"], expected)


    def test_stage_commits_nothing_until_commit(
        self, engine, pipeline, attack_trace
    ):
        ordered = attack_trace.sort_by_time()
        head = ordered.select(np.arange(200))
        tail = ordered.select(np.arange(200, 400))
        reference = engine.open_stream(pipeline, outputs=["X", "y"])
        reference.process_chunk(head)
        expected = reference.process_chunk(tail)["X"]

        session = engine.open_stream(pipeline, outputs=["X", "y"])
        session.process_chunk(head)
        committed = pickle.dumps(session._states)
        dropped = session.stage(tail)  # an attempt that never commits
        staged = session.stage(tail)
        assert session.chunks == 1
        assert pickle.dumps(session._states) == committed
        assert dropped.outputs["X"].tobytes() == expected.tobytes()
        session.commit(staged)
        assert session.chunks == 2
        assert staged.outputs["X"].tobytes() == expected.tobytes()
        assert pickle.dumps(session._states) == pickle.dumps(
            reference._states
        )
        # a stale attempt can never be applied
        with pytest.raises(RuntimeError, match="stale"):
            session.commit(dropped)


    def test_stale_stages_on_other_threads_never_touch_committed_state(
        self, engine, pipeline, attack_trace
    ):
        chunks = list(chunked(attack_trace.sort_by_time(), 10.0))
        reference = engine.open_stream(pipeline, outputs=["X"])
        expected = [reference.process_chunk(c)["X"] for c in chunks]
        session = engine.open_stream(pipeline, outputs=["X"])
        stop = threading.Event()

        def stale_stages():
            # an abandoned attempt: staged and never committed; racing a
            # commit may make it raise, and it is dropped either way
            while not stop.is_set():
                try:
                    session.stage(chunks[-1])
                except Exception:
                    pass

        workers = [
            threading.Thread(target=stale_stages, daemon=True)
            for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            served = [session.process_chunk(c)["X"] for c in chunks]
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert session.chunks == len(chunks)
        for mine, theirs in zip(served, expected):
            assert mine.tobytes() == theirs.tobytes()
        assert pickle.dumps(session._states) == pickle.dumps(
            reference._states
        )


class TestStateOverlays:
    """``_begin``/``_commit``: the protocol where a state value has it,
    a deep copy where it does not."""

    def test_value_without_protocol_is_deep_copied(self):
        state = {"counts": {"a": [1]}, "gone": 0}
        overlay, begun = _begin(state)
        assert begun == {}
        overlay["counts"]["a"].append(2)
        del overlay["gone"]
        overlay["new"] = 3
        assert state == {"counts": {"a": [1]}, "gone": 0}
        _commit(state, overlay, begun)
        assert state == {"counts": {"a": [1, 2]}, "new": 3}

    def test_value_with_protocol_is_begun_and_committed(self, benign_trace):
        table = benign_trace.sort_by_time()
        ks = KitsuneStreamState((1.0,))
        state = {"kitsune": ks}
        overlay, begun = _begin(state)
        assert begun["kitsune"] is overlay["kitsune"] is not ks
        overlay["kitsune"].features(table)
        assert len(ks) == 0
        _commit(state, overlay, begun)
        assert state["kitsune"] is ks and len(ks) > 0


class TestKitsuneStreamState:
    """Chunk-boundary invariance of the carried Kitsune statistics."""

    LAMBDAS = (1.0, 0.1)

    def batch(self, table):
        return kitsune_packet_features(table, self.LAMBDAS)

    def streamed(self, table, chunks):
        state = KitsuneStreamState(self.LAMBDAS)
        parts = [
            kitsune_packet_features_stream(chunk, self.LAMBDAS, state)
            for chunk in chunks
        ]
        return np.concatenate(parts, axis=0)

    def direct(self, table):
        state = KitsuneStreamState(self.LAMBDAS)
        state.features(table)
        return state

    def test_single_packet_chunks_match_batch(self, benign_trace):
        table = benign_trace.sort_by_time().select(np.arange(120))
        chunks = [table.select(np.array([i])) for i in range(len(table))]
        assert np.array_equal(self.batch(table), self.streamed(table, chunks))

    def test_one_second_chunks_match_batch(self, benign_trace):
        table = benign_trace.sort_by_time()
        streamed = self.streamed(table, chunked(table, 1.0))
        assert np.array_equal(self.batch(table), streamed)

    def test_whole_trace_chunk_matches_batch(self, benign_trace):
        table = benign_trace.sort_by_time()
        streamed = self.streamed(table, [table])
        assert np.array_equal(self.batch(table), streamed)

    def test_stream_wrapper_validates_state(self, benign_trace):
        with pytest.raises(TypeError):
            kitsune_packet_features_stream(benign_trace, self.LAMBDAS, {})
        state = KitsuneStreamState((1.0,))
        with pytest.raises(ValueError):
            kitsune_packet_features_stream(
                benign_trace, self.LAMBDAS, state
            )

    def test_overlay_chunks_match_batch(self, benign_trace):
        table = benign_trace.sort_by_time()
        state = KitsuneStreamState(self.LAMBDAS)
        parts = []
        for chunk in chunked(table, 1.0):
            overlay = state.begin()
            parts.append(overlay.features(chunk))
            state.commit(overlay)
        streamed = np.concatenate(parts, axis=0)
        assert np.array_equal(self.batch(table), streamed)
        assert pickle.dumps(state) == pickle.dumps(self.direct(table))

    def test_dropped_overlay_leaves_state_unchanged(self, benign_trace):
        table = benign_trace.sort_by_time()
        head = table.select(np.arange(len(table) // 2))
        tail = table.select(np.arange(len(table) // 2, len(table)))
        state = KitsuneStreamState(self.LAMBDAS)
        state.features(head)
        committed = pickle.dumps(state)
        state.begin().features(tail)
        assert pickle.dumps(state) == committed
        assert np.array_equal(self.batch(table)[len(head):],
                              state.features(tail))

    def test_commit_refuses_foreign_or_spent_overlay(self, benign_trace):
        state = KitsuneStreamState(self.LAMBDAS)
        other = KitsuneStreamState(self.LAMBDAS)
        with pytest.raises(ValueError, match="not begun"):
            state.commit(other.begin())
        overlay = state.begin()
        overlay.features(benign_trace.sort_by_time())
        state.commit(overlay)
        with pytest.raises(ValueError, match="not begun"):
            state.commit(overlay)

    def test_state_bytes_follow_the_walk(self, benign_trace):
        table = benign_trace.sort_by_time()
        state = KitsuneStreamState(self.LAMBDAS)
        for chunk in chunked(table, 10.0):
            overlay = state.begin()
            overlay.features(chunk)
            state.commit(overlay)
        walked = _carried_state_bytes(state)
        assert abs(state.state_bytes - walked) <= 0.1 * walked
        # eviction gives the bytes back
        state.evict_idle(float(table.ts.max()) + 1e6, 3600.0)
        walked = _carried_state_bytes(state)
        assert abs(state.state_bytes - walked) <= 0.1 * walked

    def test_evict_idle_bounds_state(self, benign_trace):
        table = benign_trace.sort_by_time()
        state = KitsuneStreamState(self.LAMBDAS)
        state.features(table)
        populated = len(state)
        assert populated > 0
        # nothing is older than the trace itself
        assert state.evict_idle(float(table.ts.max()), 3600.0) == 0
        assert len(state) == populated
        # everything is idle from far enough in the future
        evicted = state.evict_idle(float(table.ts.max()) + 1e6, 3600.0)
        assert evicted == populated
        assert len(state) == 0

    def test_state_survives_eviction(self, benign_trace):
        table = benign_trace.sort_by_time()
        state = KitsuneStreamState(self.LAMBDAS)
        state.features(table)
        state.evict_idle(float(table.ts.max()) + 1e6, 3600.0)
        # an evicted stream restarts cleanly, like a fresh host
        fresh = KitsuneStreamState(self.LAMBDAS)
        assert np.array_equal(state.features(table), fresh.features(table))


class TestConvertedOpStreams:
    """Every op with a registered stream body is chunk-size invariant."""

    CONVERTED = {
        "ProtocolOneHot": {},
        "PacketFields": {"fields": ["length", "ttl"]},
        "NprintEncode": {"payload_bytes": 4},
        "Labels": {},
        "KitsuneFeatures": {"lambdas": [1.0, 0.1]},
    }

    @pytest.mark.parametrize("name", sorted(CONVERTED))
    def test_chunked_stream_matches_batch(self, benign_trace, name):
        operation = OPERATIONS[name]
        assert operation.stream_fn is not None
        table = benign_trace.sort_by_time().select(np.arange(200))
        params = operation.validate_params(dict(self.CONVERTED[name]))
        expected = operation.fn([table], params)
        for splits in ([len(table)], [77, 123], [1] * len(table)):
            state: dict = {}
            parts, start = [], 0
            for size in splits:
                chunk = table.select(np.arange(start, start + size))
                parts.append(
                    operation.stream_fn([chunk], params, state)
                )
                start += size
            streamed = np.concatenate(parts, axis=0)
            assert np.array_equal(expected, streamed), (name, splits)
