"""``ServeDaemon.verify_against_offline`` compares as the offline stream runs.

The check matches each offline chunk's rows against the same rows of
the daemon's kept chunk outputs, whose chunk edges need not line up,
and concatenates neither side.  Its oracle is the whole comparison it
replaced: ``run_stream`` over the surviving rows, the daemon's
concatenated outputs, and ``np.array_equal`` per output.  Every case
here checks the verdict against that oracle, on kept parts that are
re-cut, altered in one element, or short or long by a row.
"""

import numpy as np
import pytest

from repro.core.errors import TemplateError
from repro.core.streaming import chunked
from repro.faults import FaultPlan, FaultRule, active
from repro.obs import RingBufferSink, get_tracer

from tests.serve.test_daemon import make_daemon


def concatenating_verdict(daemon) -> dict:
    """The verdict of the whole comparison: both sides concatenated."""
    reference = daemon.engine.run_stream(
        daemon.session.pipeline,
        daemon.surviving_table(),
        chunk_seconds=daemon.config.chunk_seconds,
        outputs=daemon.session.outputs,
    )
    mine = daemon.collected()
    verdict = {}
    for name in daemon.session.outputs:
        ours, theirs = mine.get(name), reference.get(name)
        if ours is None or theirs is None:
            verdict[name] = ours is None and theirs is None
        else:
            verdict[name] = bool(np.array_equal(np.asarray(ours), np.asarray(theirs)))
    return verdict


def assert_verdict(daemon, expected: dict) -> None:
    """The streaming check gives ``expected``, as the oracle does."""
    assert concatenating_verdict(daemon) == expected
    assert daemon.verify_against_offline() == expected


def recut(parts: list[np.ndarray], edges: list[int]) -> list[np.ndarray]:
    """The rows of ``parts`` split again at the row ``edges``."""
    return np.split(np.concatenate(parts), edges)


@pytest.fixture
def daemon(serve_trace):
    daemon = make_daemon(serve_trace, chunk_seconds=3.0)
    assert daemon.run().ok
    assert len(daemon._collected["X"]) > 4
    return daemon


def test_clean_run_verifies(daemon):
    assert_verdict(daemon, {"X": True, "y": True})


def test_one_element_differs_in_a_middle_chunk(daemon):
    parts = daemon._collected["X"]
    middle = len(parts) // 2
    changed = parts[middle].copy()
    changed[len(changed) // 2, -1] += 1.0
    parts[middle] = changed
    assert_verdict(daemon, {"X": False, "y": True})


@pytest.mark.parametrize("edges", [
    [1],  # one row, then everything else
    [7, 8, 300, 301, 302],  # one-row pieces between larger ones
    "offset",  # every kept edge moved by three rows
])
def test_chunk_edges_that_do_not_line_up(daemon, edges):
    for name, parts in daemon._collected.items():
        if edges == "offset":
            cuts = (np.cumsum([len(part) for part in parts])[:-1] + 3).tolist()
        else:
            cuts = edges
        daemon._collected[name] = recut(parts, cuts)
    assert_verdict(daemon, {"X": True, "y": True})


def test_misaligned_edges_and_one_element_differs(daemon):
    parts = recut(daemon._collected["y"], [5, 6, 50])
    parts[2] = parts[2].copy()
    parts[2][-1] ^= 1
    daemon._collected["y"] = parts
    assert_verdict(daemon, {"X": True, "y": False})


@pytest.mark.parametrize("change", ["one row short", "one row long", "first row gone"])
def test_row_count_differs(daemon, change):
    parts = daemon._collected["X"]
    if change == "one row short":
        parts[-1] = parts[-1][:-1]
    elif change == "one row long":
        parts.append(parts[-1][-1:])
    else:
        parts[0] = parts[0][1:]
    assert_verdict(daemon, {"X": False, "y": True})


def test_quarantined_chunks_leave_edges_that_do_not_line_up(serve_trace):
    plan = FaultPlan(rules=(FaultRule("score_chunk", fail_first=4),))
    daemon = make_daemon(serve_trace, retries=1, chunk_seconds=3.0)
    with active(plan):
        report = daemon.run()
    assert report.chunks_quarantined == 2
    kept = np.cumsum([len(part) for part in daemon._collected["X"]])
    offline = np.cumsum([
        len(chunk) for chunk in chunked(daemon.surviving_table().sort_by_time(), 3.0)
    ])
    assert kept[-1] == offline[-1] and set(kept) != set(offline)
    assert_verdict(daemon, {"X": True, "y": True})


def test_nothing_survived_raises_as_before(serve_trace):
    plan = FaultPlan(rules=(FaultRule("score_chunk", fail_first=10**6),))
    daemon = make_daemon(serve_trace, retries=0)
    with active(plan):
        assert daemon.run().chunks_scored == 0
    with pytest.raises(TemplateError, match="non-empty source"):
        concatenating_verdict(daemon)
    with pytest.raises(TemplateError, match="non-empty source"):
        daemon.verify_against_offline()


def test_the_run_stream_span_keeps_its_chunk_count(daemon):
    sink = RingBufferSink()
    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        daemon.verify_against_offline()
    finally:
        tracer.remove_sink(sink)
    spans = [e for e in sink.events() if e.get("name") == "run_stream"]
    assert len(spans) == 1
    assert spans[0]["status"] == "ok"
    assert spans[0]["attrs"]["chunks"] == daemon._scored
