"""Command-line interface: ``python -m repro <command>``.

The operator-facing surface of the benchmarking suite:

* ``datasets`` / ``algorithms`` / ``operations`` -- inventories;
* ``evaluate`` -- one (algorithm, train, test) evaluation;
* ``matrix`` (alias ``run-matrix``) -- the full faithful matrix, saved
  as JSON/CSV; ``--keep-going``/``--retries``/``--cell-timeout`` tune
  the guard every cell runs under, ``--checkpoint``/``--resume`` journal
  and restart interrupted campaigns, and ``--faults`` injects
  deterministic chaos (see ``docs/ROBUSTNESS.md``);
* ``figure`` -- render any Section 5 figure from saved results;
* ``validate`` -- the Section 5.2 validation table;
* ``profile`` -- per-operation time/memory for one featurization;
* ``synthesize`` -- the Section 5.4 greedy AM search;
* ``plan`` -- report, lint or render the work the matrix shares
  through the engine's result cache (``--lint``/``--json``/``--dot``/
  ``--strict``; pure static analysis, nothing runs);
* ``trace`` -- run any repro command and print its span tree (or
  render a saved ``.jsonl`` trace file);
* ``metrics`` -- the process metrics registry, optionally after
  running a command;
* ``audit`` -- the static audit of every registered operation:
  purity, vectorization, streaming and concurrency safety
  (``--strict`` is the CI gate).

``matrix --progress`` shows a live done/total + ETA line while the
campaign runs; ``--progress-file`` journals the same events as JSONL.

Commands that execute pipelines (``evaluate``, ``matrix``, ``profile``,
``run-template``, ``validate``) accept ``--trace PATH`` to export the
run's spans as JSONL (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager


def _cmd_datasets(args: argparse.Namespace) -> int:
    from repro.datasets import DATASETS, load_dataset

    for dataset_id, spec in DATASETS.items():
        line = (
            f"{dataset_id}  {spec.granularity.name:<11} "
            f"{spec.stands_in_for:<26} attacks: {', '.join(spec.attacks)}"
        )
        if args.verbose:
            line += f"\n      {load_dataset(dataset_id).summary()}"
        print(line)
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    from repro.algorithms import ALGORITHMS

    for algorithm_id, spec in sorted(ALGORITHMS.items()):
        print(
            f"{algorithm_id}  {spec.name:<38} {spec.granularity.name:<11} "
            f"{spec.paper}"
        )
    return 0


def _cmd_operations(args: argparse.Namespace) -> int:
    from repro.core import OPERATIONS

    for name, operation in sorted(OPERATIONS.items()):
        inputs = ", ".join(t.value for t in operation.input_types) or "-"
        print(f"{name:<20} ({inputs}) -> {operation.output_type.value}")
        if args.verbose:
            print(f"    {operation.description.splitlines()[0]}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.bench import BenchmarkRunner

    runner = BenchmarkRunner(seed=args.seed)
    test = args.test or args.train
    result = runner.evaluate(args.algorithm, args.train, test)
    print(
        f"{result.algorithm} trained on {result.train_dataset}, tested on "
        f"{result.test_dataset} ({result.mode}):"
    )
    print(f"  precision {result.precision:.3f}  recall {result.recall:.3f}  "
          f"f1 {result.f1:.3f}  accuracy {result.accuracy:.3f}")
    if result.per_attack:
        print("  per attack:")
        for attack, metrics in result.per_attack.items():
            print(f"    {attack:<22} precision {metrics['precision']:.3f} "
                  f"recall {metrics['recall']:.3f}")
    return 0


@contextmanager
def _fault_plan(args: argparse.Namespace):
    """Install the ``--faults``/``--fault-seed`` plan around a command,
    uninstalling it on the way out however the body exits.  A bad spec
    raises :class:`InputError` before anything is installed."""
    if not args.faults:
        yield
        return
    from repro.faults import FaultInjector, FaultPlan, install, uninstall

    plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
    install(FaultInjector(plan))
    print(f"fault injection active: {plan.describe()}")
    try:
        yield
    finally:
        uninstall()


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.bench import BenchmarkRunner, MatrixProgress, TtyProgressRenderer

    algorithms = args.algorithms.split(",") if args.algorithms else None
    datasets = args.datasets.split(",") if args.datasets else None
    runner = BenchmarkRunner(
        seed=args.seed,
        retries=args.retries,
        cell_timeout=args.cell_timeout,
    )
    with _fault_plan(args):
        progress = None
        if args.progress or args.progress_file:
            progress = MatrixProgress()
            if args.progress:
                progress.add_sink(TtyProgressRenderer(sys.stderr))
            if args.progress_file:
                from repro.obs import JsonlFileSink

                progress.add_sink(JsonlFileSink(args.progress_file))
        try:
            runner.run_matrix(
                algorithms,
                datasets,
                keep_going=args.keep_going,
                checkpoint=args.checkpoint,
                resume=args.resume,
                retry_failed=args.retry_failed,
                progress=progress,
            )
        finally:
            if progress is not None:
                progress.close()
    runner.store.save_json(args.out)
    if args.csv:
        runner.store.save_csv(args.csv)
    summary = f"{len(runner.store)} evaluations"
    if runner.store.failures:
        summary += f", {len(runner.store.failures)} failure(s)"
    print(f"{summary} -> {args.out}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.bench import (
        ResultStore,
        best_gap_by_algorithm,
        distribution_by_algorithm,
        per_attack_precision,
        train_test_median_matrix,
    )

    store = ResultStore.load_json(args.results)
    name = args.name
    if name in ("fig1b", "fig8"):
        print(distribution_by_algorithm(store, metric=args.metric,
                                        mode="same").render())
    elif name in ("fig1c", "fig9"):
        print(distribution_by_algorithm(store, metric=args.metric,
                                        mode="cross").render())
    elif name == "fig5":
        print(per_attack_precision(store, metric=args.metric).render())
    elif name == "fig7":
        print(best_gap_by_algorithm(store, metric=args.metric).render())
    elif name == "fig10":
        print(train_test_median_matrix(store, metric=args.metric).render())
    else:
        print(f"unknown figure: {name}", file=sys.stderr)
        return 2
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.bench.validation import render_validation, validation_report

    print(render_validation(validation_report(quick=args.quick)))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.algorithms import build_algorithm
    from repro.core import ExecutionEngine, Pipeline
    from repro.datasets import load_dataset

    spec = build_algorithm(args.algorithm)
    engine = ExecutionEngine(use_cache=False, track_memory=True)
    engine.run(
        Pipeline.from_template(list(spec.feature_template)),
        load_dataset(args.dataset),
        outputs=["X", "y"],
    )
    print(engine.last_report.render())
    return 0


def _cmd_synthesize(args: argparse.Namespace) -> int:
    from repro.algorithms.synthesis import GreedySynthesizer

    datasets = args.datasets.split(",")
    synthesizer = GreedySynthesizer(datasets, fraction=args.fraction,
                                    seed=args.seed)
    synthesizer.search(max_blocks=args.max_blocks)
    ranked = sorted(synthesizer.results, key=lambda r: r.f1, reverse=True)
    print(f"{len(ranked)} candidates; best {args.top}:")
    for result in ranked[: args.top]:
        print(f"  {result.describe()}")
    if args.out:
        payload = [result.__dict__ for result in ranked]
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, default=list)
        print(f"saved -> {args.out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.net.inspect import describe_trace, render_description

    table = load_dataset(args.dataset)
    print(render_description(describe_trace(table)))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.bench.diffing import diff_stores, render_diff
    from repro.bench.results import ResultStore

    before = ResultStore.load_json(args.before)
    after = ResultStore.load_json(args.after)
    diff = diff_stores(before, after)
    print(render_diff(diff))
    return 0 if diff.is_clean else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.bench.report import generate_report
    from repro.bench.results import ResultStore

    store = ResultStore.load_json(args.results)
    text = generate_report(store)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"report -> {args.out}")
    else:
        print(text)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.datasets import load_dataset
    from repro.datasets.export import export_dataset

    table = load_dataset(args.dataset)
    pcap_path, labels_path = export_dataset(table, args.directory,
                                            args.dataset)
    print(f"wrote {pcap_path} and {labels_path} ({len(table)} packets)")
    return 0


def _cmd_template(args: argparse.Namespace) -> int:
    from repro.core.template_io import save_template, starter_template

    template = starter_template(args.starter)
    save_template(template, args.out)
    print(f"wrote starter template {args.starter!r} -> {args.out}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import LintTarget, analyze_template, collect_targets
    from repro.core import InputError

    # an unreadable file is a lint failure (exit 1), not a usage error
    try:
        targets = list(collect_targets(args.paths))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.catalog:
        from repro.algorithms import ALGORITHMS

        targets.extend(
            LintTarget(f"catalog:{algorithm_id}", spec.full_template())
            for algorithm_id, spec in sorted(ALGORITHMS.items())
        )
    if not targets:
        print("nothing to lint", file=sys.stderr)
        return 2

    total_errors = 0
    total_warnings = 0
    for target in targets:
        result = analyze_template(target.template, dataset_id=args.dataset)
        total_errors += len(result.errors)
        total_warnings += len(result.warnings)
        if result.diagnostics:
            print(f"{target.label}:")
            for diagnostic in result.diagnostics:
                print(f"  {diagnostic}")
        elif args.verbose:
            print(f"{target.label}: ok")
    print(
        f"{len(targets)} template(s): {total_errors} error(s), "
        f"{total_warnings} warning(s)"
    )
    return 1 if total_errors else 0


def _finding_lines(op: dict) -> None:
    for finding in op["findings"]:
        print(
            f"    line {finding['line']}: {finding['kind']} "
            f"-- {finding['detail']}"
        )


def _codes(op: dict) -> str:
    return ",".join(sorted({d.split()[0] for d in op["diagnostics"]})) or "-"


def _print_effects(section: dict, verbose: bool) -> None:
    header = (
        f"{'operation':<22} {'purity':<18} {'cache':<6} "
        f"{'seeds':<12} codes"
    )
    print(header)
    print("-" * len(header))
    for op in section["operations"]:
        print(
            f"{op['operation']:<22} {op['purity']:<18} "
            f"{'yes' if op['cacheable'] else 'NO':<6} "
            f"{','.join(op['seed_params']) or '-':<12} "
            f"{','.join(op['codes']) or '-'}"
        )
        if verbose:
            _finding_lines(op)
    summary = section["summary"]
    print(
        f"{summary['total']} operation(s): {summary['pure']} pure, "
        f"{summary['seeded']} seeded, {summary['io']} io, "
        f"{summary['stateful']} stateful"
    )


def _print_vectorize(section: dict, verbose: bool) -> None:
    header = f"{'operation':<22} {'verdict':<20} {'sort_key':<9} codes"
    print(header)
    print("-" * len(header))
    for op in section["operations"]:
        print(
            f"{op['operation']:<22} {op['verdict']:<20} "
            f"{op['sort_key'] or '-':<9} {_codes(op)}"
        )
        if verbose:
            _finding_lines(op)
    summary = section["summary"]
    print(
        f"{summary['total']} operation(s): "
        f"{summary['elementwise']} elementwise, "
        f"{summary['row_parallel']} row-parallel, "
        f"{summary['sequential']} sequential, "
        f"{summary['opaque']} opaque"
    )


def _print_streamable(section: dict, verbose: bool) -> None:
    header = (
        f"{'operation':<22} {'verdict':<18} {'bound':<10} "
        f"{'stream':<7} codes"
    )
    print(header)
    print("-" * len(header))
    for op in section["operations"]:
        stream = "-"
        if op["stream_fn"]:
            stream = "yes" if op["streamable"] else "DRIFT"
        print(
            f"{op['operation']:<22} {op['verdict']:<18} "
            f"{op['state_bound']:<10} {stream:<7} {_codes(op)}"
        )
        if verbose:
            _finding_lines(op)
            if op["refusal"]:
                print(f"    refusal: {op['refusal']}")
    summary = section["summary"]
    print(
        f"{summary['total']} operation(s): "
        f"{summary['stateless']} stateless, "
        f"{summary['prefix_mergeable']} prefix-mergeable, "
        f"{summary['window_bounded']} window-bounded, "
        f"{summary['batch_only']} batch-only, "
        f"{summary['opaque']} opaque; "
        f"{summary['streamable']} streamable"
    )


def _print_races(section: dict, verbose: bool) -> None:
    header = f"{'operation':<22} {'verdict':<18} codes"
    print(header)
    print("-" * len(header))
    for op in section["operations"]:
        print(f"{op['operation']:<22} {op['verdict']:<18} {_codes(op)}")
        if verbose:
            for name, line, guards in op["shared_writes"]:
                held = f" (under {guards})" if guards else ""
                print(f"    line {line}: shared write -- {name}{held}")
            for line, detail in op["escapes"]:
                print(f"    line {line}: state escape -- {detail}")
            for line, dotted in op["hostile"]:
                print(f"    line {line}: hostile call -- {dotted}")
    print()
    header = f"{'module':<34} {'verdict':<18} cycles codes"
    print(header)
    print("-" * len(header))
    for module in section["modules"]:
        print(
            f"{module['module']:<34} {module['verdict']:<18} "
            f"{len(module['cycles']):<6} {_codes(module)}"
        )
        if verbose:
            for name, state in sorted(module["state"].items()):
                guard = state["guard"] or "-"
                print(
                    f"    {name}: {state['verdict']} "
                    f"(guard={guard}, writes={state['writes']})"
                )
    summary = section["summary"]
    print(
        f"\n{summary['total']} operation(s): "
        f"{summary['session_confined']} session-confined, "
        f"{summary['lock_guarded']} lock-guarded, "
        f"{summary['read_only_shared']} read-only-shared, "
        f"{summary['racy']} racy, "
        f"{summary['opaque']} opaque; "
        f"{summary['racy_modules']} racy module(s), "
        f"{summary['module_cycles']} lock cycle(s)"
    )


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.analysis.audit import audit_payload, strict_problems

    payload = audit_payload(catalog=args.catalog)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    if args.json:
        print(text)
    else:
        sections = (
            ("effects", "purity and caching", _print_effects),
            ("vectorize", "row dependence", _print_vectorize),
            ("streamable", "incrementality and state bounds",
             _print_streamable),
            ("races", "shared state and lock discipline", _print_races),
        )
        for number, (key, title, render) in enumerate(sections):
            if number:
                print()
            print(f"== {key}: {title} ==")
            render(payload[key], args.verbose)
    problems = strict_problems(payload) if args.strict else []
    for problem in problems:
        print(f"strict: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import Severity
    from repro.analysis.planner import (
        build_matrix_plan,
        render_dot,
        render_plan,
    )

    algorithms = args.algorithms.split(",") if args.algorithms else None
    datasets = args.datasets.split(",") if args.datasets else None
    plan = build_matrix_plan(algorithms, datasets)
    diagnostics = plan.diagnostics

    if args.json:
        print(json.dumps(plan.to_dict(), indent=2))
    elif args.dot:
        print(render_dot(plan))
    else:
        print(render_plan(plan))

    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    warnings = [d for d in diagnostics if d.severity is Severity.WARNING]
    if args.lint or errors:
        for diagnostic in diagnostics:
            print(f"  {diagnostic}", file=sys.stderr)
        print(
            f"plan lint: {len(errors)} error(s), {len(warnings)} "
            f"warning(s)",
            file=sys.stderr,
        )
    if errors:
        return 1
    if args.strict and args.lint and warnings:
        print("strict: warnings are fatal", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import os

    from repro.obs import RingBufferSink, TreeRenderer, get_tracer, read_trace

    if not args.run:
        print("usage: repro trace <file.jsonl | command ...>",
              file=sys.stderr)
        return 2
    renderer = TreeRenderer(show_events=args.events)
    if len(args.run) == 1 and os.path.isfile(args.run[0]):
        try:
            events = read_trace(args.run[0])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(renderer.render(events))
        return 0
    sink = RingBufferSink(capacity=None)
    tracer = get_tracer()
    tracer.add_sink(sink)
    try:
        code = main(list(args.run))
    finally:
        tracer.remove_sink(sink)
    print()
    print(renderer.render(sink.events()))
    return code


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import get_metrics, observe_uptime

    code = 0
    if args.run:
        code = main(list(args.run))
        print()
    # counters are process-lifetime values; refresh the uptime gauge at
    # render time so the exposition carries how long that lifetime is
    observe_uptime()
    print(get_metrics().render_prometheus() or "(no metrics recorded)")
    return code


def _cmd_run_template(args: argparse.Namespace) -> int:
    from repro.core import ExecutionEngine
    from repro.core.template_io import load_pipeline
    from repro.datasets import load_dataset

    pipeline = load_pipeline(args.template)
    engine = ExecutionEngine()
    out = engine.run(pipeline, load_dataset(args.dataset))
    for name, value in out.items():
        print(f"{name}: {value}")
    print()
    print(engine.last_report.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeStatus

    # query mode: render another daemon's status file as a readiness
    # probe (0 alive, 3 stopped, 2 missing or unreadable)
    if args.status:
        status = ServeStatus.load(args.status)
        print(status.render())
        return 0 if status.ready else 3

    from repro.datasets import load_dataset
    from repro.serve import (
        MonotonicClock,
        ReplayClock,
        ServeConfig,
        ServeDaemon,
    )

    if not args.dataset:
        print("error: a dataset id is required (or use --status PATH)",
              file=sys.stderr)
        return 2
    with _fault_plan(args):
        table = load_dataset(args.dataset)
        config = ServeConfig(
            chunk_seconds=args.chunk_seconds,
            pps=args.pps,
            queue_capacity=args.queue_capacity,
            policy=args.policy,
            retries=args.retries,
            backoff_base=args.backoff_base,
            stall_seconds=args.stall_seconds,
            max_watchdog_restarts=args.max_watchdog_restarts,
            chunk_deadline=args.chunk_deadline,
            outputs=args.outputs.split(",") if args.outputs else None,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            quarantine_path=args.quarantine,
            status_path=args.status_file,
            results_path=args.out,
            seed=args.seed,
            max_chunks=args.max_chunks,
            collect=args.verify_offline,
            model=args.model,
            model_cache=args.model_cache,
            train_fraction=args.train_fraction,
            epochs=args.epochs,
        )
        clock = ReplayClock() if args.virtual_time else MonotonicClock()
        daemon = ServeDaemon(
            table,
            config=config,
            template_path=args.template,
            clock=clock,
            dataset_id=args.dataset,
        )

        import signal

        previous: dict = {}
        if not args.virtual_time and hasattr(signal, "SIGHUP"):
            previous[signal.SIGHUP] = signal.signal(
                signal.SIGHUP, lambda *_: daemon.request_reload()
            )
            previous[signal.SIGTERM] = signal.signal(
                signal.SIGTERM, lambda *_: daemon.request_stop()
            )
        try:
            report = daemon.run()
        finally:
            for number, handler in previous.items():
                signal.signal(number, handler)
    summary = (
        f"served {report.chunks_scored} chunk(s) over "
        f"{report.packets_ingested}/{report.packets_total} packets "
        f"in {report.uptime_seconds:.1f}s"
    )
    if config.model != "none":
        summary += f" ({report.anomalies} anomalies)"
    print(summary)
    if report.chunks_quarantined or report.chunks_dropped:
        print(
            f"degraded: {report.chunks_quarantined} quarantined, "
            f"{report.chunks_dropped} dropped "
            f"({report.packets_lost} packets, journaled)"
        )
    if report.reloads or report.watchdog_restarts:
        print(
            f"recovered: {report.reloads} reload(s), "
            f"{report.watchdog_restarts} watchdog restart(s)"
        )
    if not report.ok:
        print(f"error: serve aborted: {report.reason}", file=sys.stderr)
        return 1
    if args.verify_offline:
        verdict = daemon.verify_against_offline()
        for name, equal in sorted(verdict.items()):
            print(f"offline check {name}: {'byte-equal' if equal else 'MISMATCH'}")
        if not all(verdict.values()):
            print("error: daemon outputs diverge from offline run_stream",
                  file=sys.stderr)
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lumen reproduction: develop and evaluate ML-based "
        "IoT network anomaly detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list the benchmark datasets")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=_cmd_datasets)

    p = sub.add_parser("algorithms", help="list the algorithm catalog")
    p.set_defaults(fn=_cmd_algorithms)

    p = sub.add_parser("operations", help="list the framework operations")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=_cmd_operations)

    p = sub.add_parser("evaluate", help="run one evaluation")
    p.add_argument("algorithm")
    p.add_argument("train")
    p.add_argument("test", nargs="?", default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("matrix", aliases=["run-matrix"],
                       help="run the faithful evaluation matrix")
    p.add_argument("--algorithms", default=None,
                   help="comma-separated ids (default: all)")
    p.add_argument("--datasets", default=None)
    p.add_argument("--out", default="results.json")
    p.add_argument("--csv", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--keep-going", action="store_true",
                   help="continue past cells whose retries are "
                   "exhausted, recording a failure record per cell")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="retry each failing cell up to N times with "
                   "seeded exponential backoff")
    p.add_argument("--cell-timeout", type=float, default=None, metavar="S",
                   help="per-cell wall-clock deadline in seconds "
                   "(exceeded cells raise EvaluationTimeout)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="journal each finished cell to a JSONL file as "
                   "the run progresses")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="skip cells already journaled in PATH, merging "
                   "their records; continues journaling to PATH")
    p.add_argument("--retry-failed", action="store_true",
                   help="with --resume: re-run journaled failures "
                   "instead of carrying them forward")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="deterministic fault injection, e.g. "
                   "'featurize:0.25,train:#2:oserror' "
                   "(see docs/ROBUSTNESS.md)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the fault plan's firing decisions")
    p.add_argument("--progress", action="store_true",
                   help="live progress on stderr: cells done/total, "
                   "cells/hour, ETA, failures, cache hit-rate")
    p.add_argument("--progress-file", default=None, metavar="PATH",
                   help="also append each progress event as a JSON line "
                   "to PATH (tail-able; schema in docs/OBSERVABILITY.md)")
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("figure", help="render a figure from saved results")
    p.add_argument("name",
                   choices=["fig1b", "fig1c", "fig5", "fig7", "fig8",
                            "fig9", "fig10"])
    p.add_argument("--results", default="results.json")
    p.add_argument("--metric", default="precision",
                   choices=["precision", "recall", "f1", "accuracy"])
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("validate", help="the Section 5.2 validation table")
    p.add_argument("--quick", action="store_true")
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("profile", help="profile one featurization")
    p.add_argument("algorithm")
    p.add_argument("dataset")
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("inspect", help="operator summary of one dataset")
    p.add_argument("dataset")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("diff", help="compare two saved result stores")
    p.add_argument("before")
    p.add_argument("after")
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("report", help="markdown report from saved results")
    p.add_argument("--results", default="results.json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("export", help="export a dataset as pcap + labels")
    p.add_argument("dataset")
    p.add_argument("--directory", default="exported")
    p.set_defaults(fn=_cmd_export)

    p = sub.add_parser("template", help="write a starter template file")
    p.add_argument("--starter", default="connection-rf",
                   choices=["connection-rf", "packet-anomaly",
                            "windowed-flow"])
    p.add_argument("--out", default="template.json")
    p.set_defaults(fn=_cmd_template)

    p = sub.add_parser(
        "lint",
        help="statically analyze templates (no execution)")
    p.add_argument("paths", nargs="*",
                   help=".json templates, .py files with literal "
                   "templates, or directories")
    p.add_argument("--dataset", default=None,
                   help="also run the faithfulness lint against this "
                   "dataset id")
    p.add_argument("--catalog", action="store_true",
                   help="lint the full templates of all catalog "
                   "algorithms")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "audit",
        help="static audit of every registered operation: purity, "
        "vectorization, streaming and concurrency safety")
    p.add_argument("--json", action="store_true",
                   help="print the four sections as one JSON object")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="also write the JSON audit to a file")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on any stateful/io operation, stream "
                   "declaration drift, opaque verdict, racy operation "
                   "or module, or lock cycle")
    p.add_argument("--catalog", action="store_true",
                   help="also attach vectorization and streaming "
                   "verdicts to every catalog algorithm's template")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="show per-finding detail under each operation")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("run-template",
                       help="validate and run a template file")
    p.add_argument("template")
    p.add_argument("dataset")
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_run_template)

    p = sub.add_parser(
        "plan",
        help="report the work the evaluation matrix shares through the "
        "result cache -- static analysis only, nothing runs")
    p.add_argument("--algorithms", default=None,
                   help="comma-separated ids (default: all)")
    p.add_argument("--datasets", default=None)
    p.add_argument("--lint", action="store_true",
                   help="print planning diagnostics (L029-L032)")
    p.add_argument("--strict", action="store_true",
                   help="with --lint: treat warnings as fatal")
    p.add_argument("--json", action="store_true",
                   help="print the plan as JSON instead of a table")
    p.add_argument("--dot", action="store_true",
                   help="print the super-DAG as Graphviz dot")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser(
        "trace",
        help="run a repro command and print its span tree, or render "
        "a saved .jsonl trace file")
    p.add_argument("--events", action="store_true",
                   help="include point events (cache hits, traffic "
                   "builds) in the tree")
    p.add_argument("run", nargs=argparse.REMAINDER,
                   help="a trace file, or a repro command line")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "metrics",
        help="print the process metrics registry (Prometheus text "
        "format), optionally after running a command")
    p.add_argument("run", nargs=argparse.REMAINDER,
                   help="optional repro command to run first")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser(
        "serve",
        help="fault-tolerant online detection daemon: replay a dataset "
        "at a controlled rate and score it chunk by chunk")
    p.add_argument("dataset", nargs="?", default=None,
                   help="dataset id to replay (e.g. F0)")
    p.add_argument("--template", default=None, metavar="PATH",
                   help="streamable template to score with (default: "
                   "built-in Kitsune feature template); re-read on SIGHUP")
    p.add_argument("--chunk-seconds", type=float, default=2.0)
    p.add_argument("--pps", type=float, default=0.0,
                   help="replay rate in packets/second (<= 0: unpaced)")
    p.add_argument("--queue-capacity", type=int, default=8)
    p.add_argument("--policy", choices=["block", "drop-oldest"],
                   default="block",
                   help="backpressure policy when the ingest queue fills")
    p.add_argument("--retries", type=int, default=2,
                   help="scoring attempts per chunk beyond the first")
    p.add_argument("--backoff-base", type=float, default=0.05)
    p.add_argument("--stall-seconds", type=float, default=30.0,
                   help="watchdog window: restart the scoring loop after "
                   "this long with no progress")
    p.add_argument("--max-watchdog-restarts", type=int, default=3)
    p.add_argument("--chunk-deadline", type=float, default=None,
                   help="wall-clock bound per scoring attempt (live mode)")
    p.add_argument("--outputs", default=None,
                   help="comma-separated template outputs to collect")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="torn-tail-tolerant checkpoint journal for crash "
                   "recovery")
    p.add_argument("--checkpoint-every", type=int, default=5,
                   metavar="CHUNKS")
    p.add_argument("--resume", action="store_true",
                   help="resume replay offset and stream state from the "
                   "newest checkpoint in --checkpoint")
    p.add_argument("--quarantine", default=None, metavar="PATH",
                   help="JSONL journal of quarantined/dropped chunks")
    p.add_argument("--status-file", default=None, metavar="PATH",
                   help="atomically rewritten JSON health file")
    p.add_argument("--status", default=None, metavar="PATH",
                   help="query mode: render a daemon's status file and "
                   "exit (0 alive, 3 stopped, 2 missing)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="per-chunk results journal (JSONL)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-chunks", type=int, default=None,
                   help="stop after this many handled chunks (smoke runs)")
    p.add_argument("--model", choices=["none", "kitnet"], default="none",
                   help="train a KitNET detector at startup and flag "
                   "anomalous packets per chunk")
    p.add_argument("--model-cache", default=None, metavar="PATH",
                   help="pickle the trained model here / load it if present")
    p.add_argument("--train-fraction", type=float, default=0.3)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--virtual-time", action="store_true",
                   help="drive pacing/backoff/watchdog on a virtual clock "
                   "(deterministic soak; sleeps cost nothing)")
    p.add_argument("--verify-offline", action="store_true",
                   help="after replay, prove the served outputs byte-equal "
                   "an offline run_stream over the surviving rows")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="deterministic fault plan, e.g. "
                   "'score_chunk:0.3,ingest:0.1'")
    p.add_argument("--fault-seed", type=int, default=0)
    _add_trace_flag(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("synthesize", help="greedy AM synthesis (Sec. 5.4)")
    p.add_argument("--datasets", default="F0,F1,F4,F6")
    p.add_argument("--fraction", type=float, default=0.1)
    p.add_argument("--max-blocks", type=int, default=2)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_synthesize)

    return parser


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="export this run's spans as JSONL to PATH")


def main(argv: list[str] | None = None) -> int:
    """Run one command; its exit code (see docs/OPERATIONS.md).

    :class:`InputError` -- input the program cannot use -- is reported
    here, for every command, as one ``error:`` line with exit 2.  Any
    other exception is a program fault and keeps its traceback.
    """
    from repro.core.errors import InputError

    args = build_parser().parse_args(argv)
    sink = None
    if getattr(args, "trace", None):
        from repro.obs import JsonlFileSink, get_tracer

        sink = JsonlFileSink(args.trace)
        get_tracer().add_sink(sink)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if sink is not None:
            from repro.obs import get_tracer

            get_tracer().remove_sink(sink)
            sink.close()


if __name__ == "__main__":
    raise SystemExit(main())
