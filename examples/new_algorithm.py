#!/usr/bin/env python3
"""Prototyping a brand-new algorithm with the template language.

This is the paper's Figure 4 workflow: describe a detection algorithm
as a template, let the engine validate and run it, and compare it
head-to-head with the state of the art on the same dataset -- reusing
the cached Groupby/aggregate work where pipelines overlap.

The toy algorithm here ("portwatch") flags connections by combining
port-entropy aggregates with Zeek-style state features and a random
forest.

Run with:  python examples/new_algorithm.py
"""

from repro.algorithms import AlgorithmSpec, build_algorithm
from repro.bench import BenchmarkRunner
from repro.core import ExecutionEngine, Pipeline, TemplateError
from repro.flows import Granularity

# ---- 1. write the template (the Figure 4 format) -----------------------
MY_FEATURES = (
    {"func": "FieldExtract", "input": None, "output": "validated",
     "param": ["srcIP", "dstIP", "TCPFlags", "packetLength"]},
    {"func": "Groupby", "input": ["validated"], "output": "flows",
     "flowid": ["connection"]},
    {"func": "ApplyAggregates", "input": ["flows"], "output": "ports",
     "list": ["entropy:src_port", "entropy:dst_port", "nunique:dst_port",
              "flag_frac:SYN", "flag_frac:RST"]},
    {"func": "ZeekConnLog", "input": ["flows"], "output": "states"},
    {"func": "ConcatFeatures", "input": ["ports", "states"], "output": "X"},
    {"func": "Labels", "input": ["flows"], "output": "y"},
)

MY_MODEL = (
    {"func": "model", "model_type": "RandomForest", "input": None,
     "output": "raw", "params": {"n_estimators": 40}},
    {"func": "WithScaler", "input": ["raw"], "output": "clf"},
)


def main() -> None:
    # ---- 2. the engine validates before anything runs ------------------
    broken = list(MY_FEATURES)
    broken[2] = dict(broken[2], list=["entropy:warp_core"])
    try:
        Pipeline.from_template(broken)
    except TemplateError as error:
        print(f"validator caught the typo up front: {error}")
    engine = ExecutionEngine(track_memory=False)

    portwatch = AlgorithmSpec(
        algorithm_id="X01",
        name="portwatch (this example)",
        paper="you, just now",
        granularity=Granularity.CONNECTION,
        feature_template=MY_FEATURES,
        model_template=MY_MODEL,
    )

    # ---- 3. compare with the state of the art --------------------------
    from repro.algorithms.catalog import ALGORITHMS

    ALGORITHMS["X01"] = portwatch  # register so the runner can see it
    try:
        runner = BenchmarkRunner(engine=engine, seed=0)
        print("\nsame-dataset precision/recall on two datasets:")
        # A07 and A08 share their whole feature pipeline; X01 shares the
        # trace with everyone -- the engine computes each stage once.
        for algorithm_id in ("X01", "A14", "A10", "A07", "A08"):
            for dataset_id in ("F0", "F6"):
                result = runner.evaluate(algorithm_id, dataset_id, dataset_id)
                print(
                    f"  {algorithm_id:>4} on {dataset_id}: "
                    f"precision={result.precision:.3f} "
                    f"recall={result.recall:.3f} ({result.seconds:.2f}s)"
                )
        hits = engine.shared_cache.hits
        print(f"\nintermediate results shared across algorithms: "
              f"{hits} cache hits (e.g. A08 reused A07's Groupby + "
              f"first-N-packet features wholesale)")
    finally:
        ALGORITHMS.pop("X01", None)


if __name__ == "__main__":
    main()
