"""Per-layer self time from a span trace, ranked per workload.

Reads any span JSONL file: this benchmark's traces
(``perfbench/_work/<workload>-seed<N>.trace.jsonl``, span names
``<layer>.<call>`` under ``perfbench.<workload>.<phase>`` roots) or a
program trace written through ``REPRO_TRACE_FILE`` (engine, runner and
daemon span names, mapped to layers below).  A span's self time is its
duration minus the part of that interval its child spans cover.
Roots group spans into workloads: a root's ``workload`` attribute, or
its name when it has none.  Time in spans of no layer, such as the
benchmark's own root spans, is reported as ``(unattributed)``.  Several
files are broken down one by one and summed, since span ids are unique
within one process only.

    python3 perfbench/breakdown.py TRACE.jsonl [MORE.jsonl ...]
"""

from __future__ import annotations

import sys
from pathlib import Path

#: the program's layers, named by module
LAYERS = (
    "traffic", "net", "datasets", "flows", "analysis",
    "core", "ml", "bench", "serve",
)

#: span names the program itself emits, by layer
PROGRAM_SPANS = {
    "run": "core",
    "wave": "core",
    "plan": "core",
    "run_stream": "core",
    "stream_chunk": "core",
    "evaluate": "bench",
    "featurize": "bench",
    "train": "ml",
    "test": "ml",
    "serve": "serve",
    "ingest": "serve",
    "score_chunk": "serve",
}


def layer_of(name: str) -> str | None:
    """The layer a span name belongs to, or None."""
    if name.startswith("step:"):
        return "core"
    head, dot, _ = name.partition(".")
    if dot and head in LAYERS:
        return head
    return PROGRAM_SPANS.get(name)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """``span_id -> duration minus the time its children cover``."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            start = float(span["ts"])
            children.setdefault(parent, []).append(
                (start, start + float(span["duration_seconds"]))
            )
    out = {}
    for span in spans:
        start = float(span["ts"])
        duration = float(span["duration_seconds"])
        covered = _covered(start, start + duration, children.get(span["span_id"], []))
        out[span["span_id"]] = max(0.0, duration - covered)
    return out


def _roots(spans: list[dict]) -> dict[int, dict]:
    """``span_id -> the root span of its tree`` (a missing parent is a root)."""
    by_id = {span["span_id"]: span for span in spans}
    roots: dict[int, dict] = {}
    for span in spans:
        chain = []
        node = span
        while True:
            if node["span_id"] in roots:
                root = roots[node["span_id"]]
                break
            chain.append(node["span_id"])
            parent = by_id.get(node.get("parent_id"))
            if parent is None:
                root = node
                break
            node = parent
        for span_id in chain:
            roots[span_id] = root
    return roots


def breakdown(events: list[dict]) -> dict[str, dict]:
    """Per workload: traced wall seconds and self seconds per layer.

    ``{workload: {"wall": s, "layers": {layer or None: s}}}`` where the
    wall is the summed duration of the workload's root spans and the
    None key holds unattributed self time.  Point events are skipped.
    """
    spans = [e for e in events if e.get("kind") == "span"]
    selfs = self_times(spans)
    roots = _roots(spans)
    out: dict[str, dict] = {}
    for span in spans:
        root = roots[span["span_id"]]
        group = str(root.get("attrs", {}).get("workload") or root["name"])
        entry = out.setdefault(group, {"wall": 0.0, "layers": {}})
        if span is root:
            entry["wall"] += float(span["duration_seconds"])
        layer = layer_of(span["name"])
        entry["layers"][layer] = entry["layers"].get(layer, 0.0) + selfs[span["span_id"]]
    return out


def attributed_share(entry: dict) -> float:
    """Share of a workload's traced wall time spent in named layers."""
    named = sum(s for layer, s in entry["layers"].items() if layer is not None)
    return named / entry["wall"] if entry["wall"] > 0 else 0.0


def render(result: dict[str, dict]) -> str:
    lines = []
    for group in sorted(result):
        entry = result[group]
        wall = entry["wall"]
        lines.append(
            f"workload {group}: traced wall {wall:.3f} s, "
            f"{100 * attributed_share(entry):.1f} % in named layers"
        )
        lines.append(f"  {'rank':>4}  {'layer':<16} {'self_s':>10} {'share':>8}")
        ranked = sorted(
            ((layer, s) for layer, s in entry["layers"].items() if layer is not None),
            key=lambda item: -item[1],
        )
        for rank, (layer, seconds) in enumerate(ranked, start=1):
            share = 100 * seconds / wall if wall else 0.0
            lines.append(f"  {rank:>4}  {layer:<16} {seconds:>10.3f} {share:>7.1f}%")
        rest = entry["layers"].get(None, 0.0)
        share = 100 * rest / wall if wall else 0.0
        lines.append(f"  {'-':>4}  {'(unattributed)':<16} {rest:>10.3f} {share:>7.1f}%")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.obs import read_trace

    # span ids are unique per process only: break each file down alone
    combined: dict[str, dict] = {}
    for path in argv:
        for group, entry in breakdown(read_trace(path)).items():
            into = combined.setdefault(group, {"wall": 0.0, "layers": {}})
            into["wall"] += entry["wall"]
            for layer, seconds in entry["layers"].items():
                into["layers"][layer] = into["layers"].get(layer, 0.0) + seconds
    if not combined:
        print("no spans in " + ", ".join(argv), file=sys.stderr)
        return 1
    print(render(combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
