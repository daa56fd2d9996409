#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of this repository.

    python3 perfbench/run.py --workload {ingest,matrix,serve} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; the program is imported from
``src/``.  A run sets the workload up ``SETUP_REPEATS`` times, measures
passes of it for ``--seconds`` (at least ``MIN_PASSES``), checks every
output and prints a report followed, as its last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Set-up and passes
are timed in calibrated seconds: ``common.HostSpeed`` samples the host's
speed throughout and scales wall time to the reference host's.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it sets up once, measures as usual, then runs the traced
pass ``TRACED_PAIRS`` times, alternating with untraced runs of it.  Spans go
to ``perfbench/_work/<workload>-seed<N>.trace.jsonl``, and the per-layer
metrics come from the set-up and the fastest traced pass.
``perfbench/breakdown.py`` and ``repro trace`` read that file.  The exit
status is 0 when every output
check passed and 1 when one failed; it is 2, with no result printed,
when the benchmark refuses to run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ingest", "matrix", "serve")
#: timing is refused while these are set: a trace file or a disk cache
#: would change what is measured
REFUSED_ENV = ("REPRO_TRACE_FILE", "REPRO_DISK_CACHE")


def _refuse(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        _refuse(f"cannot read {path}: {exc}")


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, and only from there."""
    package = ROOT / "src" / "repro"
    if not (package / "__init__.py").is_file():
        _refuse(f"no program source at {package}; run from the root of a checkout")
    sys.path.insert(0, str(package.parent))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        _refuse(f"imported repro from {repro.__file__}, not from {package}")


def _terminate(signum, frame):
    # unwind through the finally blocks that delete the temp captures
    raise SystemExit(128 + signum)


def _golden_problems(workload: str, seed: int, digests: dict) -> list[str]:
    """Seed 0 outputs must match the digests in golden.json."""
    if seed != 0:
        return []
    golden = json.loads((HERE / "golden.json").read_text()).get(workload, {})
    if not golden:
        return [f"golden.json has no digests for {workload}"]
    differing = sorted(k for k in golden.keys() | digests.keys() if golden.get(k) != digests.get(k))
    if not differing:
        return []
    return [f"golden: {len(differing)} of {len(golden)} outputs differ, e.g. "
            + ", ".join(differing[:5])]


def _untraced(module, args, work: Path, lines: list[str]):
    from common import SETUP_REPEATS, HostSpeed, peak_rss_mb, summary

    setups, context = [], None
    with HostSpeed() as speed:
        for _ in range(SETUP_REPEATS):
            context = None  # one set-up's data in memory at a time
            gc.collect()
            t0 = time.monotonic()
            context = module.setup(args.seed, work)
            setups.append((t0, time.monotonic()))
        outcome = module.measure(context, args.seconds, speed)
    setup_seconds = [speed.seconds(a, b) for a, b in setups]
    values = {
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": outcome.throughput,
    }
    # calibrated samples behind the metrics, then the same uncalibrated
    samples = {
        "setup_s": ("set-ups", setup_seconds),
        "throughput_per_s": ("passes", [outcome.work / s for s in outcome.pass_seconds]),
        "setup.wall_s": ("set-ups", [speed.active(a, b) for a, b in setups]),
        "throughput.wall_per_s": ("passes", [outcome.work / s for s in outcome.wall_seconds]),
        "kernel_ms": ("samples", [1000 * k for k in speed.kernels()]),
    }
    lines.append(f"{'metric':<26} {'value':>14}  {'median':>14} {'q1':>14} {'q3':>14}  samples")
    for name in {**values, **samples}:
        value = f"{values[name]:>14.4f}" if name in values else " " * 14
        if name not in samples:
            lines.append(f"{name:<26} {value}")
            continue
        what, sample = samples[name]
        s = summary(sample)
        lines.append(f"{name:<26} {value}  {s['median']:>14.4f} {s['q1']:>14.4f} "
                     f"{s['q3']:>14.4f}  {s['n']} {what}")
    for name, (value, unit) in outcome.extra.items():
        lines.append(f"{name:<26} {value:>14.4f}  {unit}")
    return values, outcome, list(outcome.problems), outcome.attempted, outcome.failed


def _traced(module, args, work: Path, lines: list[str]):
    import breakdown
    from common import WORK, HostSpeed, provenance
    from repro.obs import JsonlFileSink, Tracer, read_trace

    path = WORK / f"{args.workload}-seed{args.seed}.trace.jsonl"
    path.unlink(missing_ok=True)
    sink = JsonlFileSink(path)
    tracer = Tracer(sinks=[sink])
    try:
        with tracer.span(f"perfbench.{args.workload}.setup", workload=args.workload,
                         **provenance(args.seed)) as setup_root:
            context = module.setup(args.seed, work, tracer)
        with HostSpeed() as speed:
            outcome = module.measure(context, args.seconds, speed)
        traced = module.traced_pass(context, tracer, outcome)
    finally:
        sink.close()
    # per-layer figures: the set-up and the fastest traced pass
    kept = {setup_root.span_id, traced.root_id}
    events = [e for e in read_trace(path) if e.get("trace_id") in kept]
    entry = breakdown.breakdown(events)[args.workload]
    values = {f"{layer}.self_s": entry["layers"].get(layer, 0.0) for layer in breakdown.LAYERS}
    values.update(traced.metrics)
    values.update(module.layer_metrics(events, traced, outcome))
    baseline = min(traced.untraced_seconds)
    overhead = traced.seconds - baseline
    lines.append(breakdown.render({args.workload: entry}))
    lines.append(f"trace file {path}")
    lines.append(f"trace.attributed_share {breakdown.attributed_share(entry):.4f}")
    lines.append(f"trace.overhead_s {overhead:.4f} (fastest traced pass {traced.seconds:.4f} s, "
                 f"fastest untraced pass {baseline:.4f} s, share {overhead / baseline:.4f})")
    for name in sorted(values):
        lines.append(f"{name:<34} {values[name]:>16.6f}")
    problems = outcome.problems + traced.problems
    return (values, outcome, problems, outcome.attempted + traced.attempted,
            outcome.failed + traced.failed)


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        _refuse("--seed must be >= 0 and --seconds >= 1")
    for name in REFUSED_ENV:
        if os.environ.get(name):
            _refuse(f"refusing to time while {name} is set")
    _import_program()
    signal.signal(signal.SIGTERM, _terminate)

    from common import WORK, provenance

    module = importlib.import_module(args.workload)
    lines = [
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        "provenance " + json.dumps(provenance(args.seed), sort_keys=True),
    ]
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        measure = _traced if args.trace else _untraced
        values, outcome, problems, attempted, failed = measure(module, args, Path(tmp), lines)
    problems += _golden_problems(args.workload, args.seed, outcome.digests)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    undeclared = set(values) - set(units)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    unmeasured = set(units) - set(values)
    if unmeasured and not args.trace:  # layers a workload never runs read 0
        raise RuntimeError(f"end-to-end metrics not measured: {sorted(unmeasured)}")
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    correct = not problems and failed == 0
    lines.append(f"checks: {'ok' if correct else 'FAILED'}, {failed} of {attempted} "
                 "operations failed")
    lines.extend(f"  problem: {p}" for p in problems)
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
