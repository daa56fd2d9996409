"""Which end-to-end metric each per-layer metric should move, and where.

Written down before measuring, as ``(workload, end-to-end metric)``
pairs; ``tests/test_benchmark_json.py`` checks that every per-layer
metric of ``BENCHMARK.json`` is here and names a real workload and
end-to-end metric.  ``<layer>.self_s`` is the layer's self time in the
traced run, summed over its spans (see ``breakdown.py``).
"""

from __future__ import annotations

from common import MATRIX_ALGORITHMS

MOVES: dict[str, list[tuple[str, str]]] = {
    # self time per layer, every workload
    "traffic.self_s": [("ingest", "setup_s"), ("matrix", "setup_s"), ("serve", "setup_s")],
    "net.self_s": [("ingest", "throughput_per_s")],
    "datasets.self_s": [("ingest", "throughput_per_s"), ("ingest", "setup_s")],
    "flows.self_s": [("ingest", "throughput_per_s")],
    "analysis.self_s": [("matrix", "throughput_per_s"), ("serve", "setup_s")],
    "core.self_s": [("matrix", "throughput_per_s"), ("serve", "throughput_per_s")],
    "ml.self_s": [("matrix", "throughput_per_s"), ("serve", "throughput_per_s")],
    "bench.self_s": [("matrix", "throughput_per_s")],
    "serve.self_s": [("serve", "setup_s")],
    # ingest: decode and table build should dominate; assembly is
    # predicted to move throughput by at most ~1 %
    "net.decode_s": [("ingest", "throughput_per_s")],
    "net.decode_pkts_per_s": [("ingest", "throughput_per_s")],
    "net.table_build_s": [("ingest", "throughput_per_s")],
    "datasets.label_join_s": [("ingest", "throughput_per_s")],
    "flows.assemble_uni_flow_s": [("ingest", "throughput_per_s")],
    "flows.assemble_connection_s": [("ingest", "throughput_per_s")],
    "flows.assemble_pair_s": [("ingest", "throughput_per_s")],
    "traffic.generate_s": [("ingest", "setup_s"), ("matrix", "setup_s"), ("serve", "setup_s")],
    "datasets.export_s": [("ingest", "setup_s")],
    "net.packets": [("ingest", "throughput_per_s")],
    "net.bytes": [("ingest", "throughput_per_s")],
    "net.non_ipv4_share": [("ingest", "throughput_per_s")],
    # matrix: fit and predict dominate; analysis is predicted negligible
    "core.featurize_s": [("matrix", "throughput_per_s")],
    "core.cache_hit_ratio": [("matrix", "throughput_per_s")],
    "core.cache_evictions": [("matrix", "throughput_per_s")],
    "analysis.analyze_s": [("matrix", "throughput_per_s")],
    "analysis.calls": [("matrix", "throughput_per_s")],
    "ml.fit_s": [("matrix", "throughput_per_s")],
    "ml.predict_s": [("matrix", "throughput_per_s")],
    "ml.metrics_s": [("matrix", "throughput_per_s")],
    **{
        f"ml.fit_s.{algorithm}": [("matrix", "throughput_per_s")]
        for algorithm in MATRIX_ALGORITHMS
    },
    # serve: snapshots, scoring and daemon overhead per chunk set the
    # capacity; chunk latency under overload is backlog over capacity
    "core.stream_chunk_p50_ms": [("serve", "throughput_per_s")],
    "core.stream_chunk_p90_ms": [("serve", "throughput_per_s")],
    "core.snapshot_p50_ms": [("serve", "throughput_per_s")],
    "core.snapshot_p90_ms": [("serve", "throughput_per_s")],
    "core.state_bytes_final": [("serve", "throughput_per_s"), ("serve", "peak_rss_mb")],
    "ml.score_p50_ms": [("serve", "throughput_per_s")],
    "serve.overhead_ms_per_chunk": [("serve", "throughput_per_s")],
    "serve.chunks": [("serve", "throughput_per_s")],
    "serve.rows_per_chunk_p50": [("serve", "throughput_per_s")],
    **{
        f"serve.latency_{rate}_{q}_ms": [("serve", "throughput_per_s")]
        for rate in ("1k", "5k", "20k")
        for q in ("p50", "p90")
    },
    "serve.max_pps": [("serve", "throughput_per_s")],
    "ml.kitnet_train_s": [("serve", "setup_s")],
    "analysis.session_open_s": [("serve", "setup_s")],
}
