"""Each workload end to end on tiny inputs, and the runner's refusals."""

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import common
import ingest
import matrix
import serve
from common import ROOT
from repro.obs import JsonlFileSink, Tracer, read_trace

PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}


def _short(module, monkeypatch, seconds):
    """Shorten every scenario the module generates to ``seconds``."""
    monkeypatch.setattr(
        module, "seeded_scenario",
        lambda dataset_id, seed: dataclasses.replace(
            common.seeded_scenario(dataset_id, seed), duration=seconds
        ),
    )


def _traced(module, context, outcome, tmp_path):
    sink = JsonlFileSink(tmp_path / "trace.jsonl")
    traced = module.traced_pass(context, Tracer(sinks=[sink]), outcome)
    sink.close()
    assert traced.problems == [] and traced.failed == 0 and traced.attempted > 0
    metrics = {**traced.metrics,
               **module.layer_metrics(read_trace(sink.path), traced, outcome)}
    assert set(metrics) <= PER_LAYER
    return metrics


def _assert_clean(outcome):
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted > 0
    assert len(outcome.pass_seconds) >= common.MIN_PASSES
    assert len(outcome.wall_seconds) == len(outcome.pass_seconds)
    assert 0 < min(outcome.pass_seconds) and 0 < min(outcome.wall_seconds)
    assert outcome.throughput == outcome.work / statistics.median(outcome.pass_seconds)


def _measure(module, context):
    with common.HostSpeed() as speed:
        return module.measure(context, 0, speed)


def test_ingest_tiny(tmp_path, monkeypatch):
    _short(ingest, monkeypatch, 20.0)
    captures = ingest.setup(1, tmp_path, datasets=("P0", "P2"))
    outcome = _measure(ingest, captures)
    _assert_clean(outcome)
    assert set(outcome.digests) == {"P0", "P2"}
    metrics = _traced(ingest, captures, outcome, tmp_path)
    assert metrics["net.packets"] == sum(len(c.reference) for c in captures)
    assert 0 < metrics["net.non_ipv4_share"] <= 1


def test_ingest_flags_a_wrong_column(tmp_path, monkeypatch):
    _short(ingest, monkeypatch, 10.0)
    capture = ingest.setup(0, tmp_path, datasets=("F0",))[0]
    capture.flow_counts = tuple(
        len(ingest.assemble_flows(capture.reference, g)) for g in ingest.GRANULARITIES
    )
    table, flows = ingest._ingest(capture)
    table.columns["dst_port"][3] += 1
    problems, _ = ingest.check_capture(capture, table, flows)
    assert problems == [f"{capture.name}: column dst_port differs in 1 rows"]


def test_matrix_tiny(tmp_path):
    sl = matrix.setup(0, tmp_path, algorithms=("A14",), datasets=("F0", "F2"))
    outcome = _measure(matrix, sl)
    _assert_clean(outcome)
    assert set(outcome.digests) == {"A14/F0/F0", "A14/F2/F2", "A14/F0/F2", "A14/F2/F0"}
    metrics = _traced(matrix, sl, outcome, tmp_path)
    assert metrics["analysis.calls"] > 0 and metrics["ml.fit_s.A14"] > 0


def test_serve_tiny(tmp_path):
    replay = serve.setup(2, tmp_path, trace_seconds=20.0)
    outcome = _measure(serve, replay)
    _assert_clean(outcome)
    metrics = _traced(serve, replay, outcome, tmp_path)
    assert metrics["serve.chunks"] == len(outcome.digests) == 10
    assert metrics["core.state_bytes_final"] > 0
    assert metrics["serve.max_pps"] in (0, *serve.RATES)
    assert {f"serve.latency_{r}_p90_ms" for r in ("1k", "5k", "20k")} <= set(metrics)


def test_serve_replay_supports_p90():
    chunks = int(serve.TRACE_SECONDS / serve.ServeConfig().chunk_seconds)
    assert common.tail_percentile(chunks) >= 90


def _run(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seconds", "1"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(tmp_path)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "no program source" in proc.stderr


@pytest.mark.parametrize("name", ["REPRO_TRACE_FILE", "REPRO_DISK_CACHE"])
def test_refuses_to_time_with_trace_or_disk_cache(name, tmp_path):
    proc = _run(ROOT, env={**os.environ, name: str(tmp_path / "x")})
    assert proc.returncode == 2 and proc.stdout == ""
    assert name in proc.stderr
