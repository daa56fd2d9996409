"""The shared-work planner: one interned super-DAG for a whole matrix.

Given the catalog's featurization templates and the datasets they run
against, the planner canonicalizes every template
(:mod:`repro.analysis.equivalence`), merges equal-fingerprint nodes
into shared **stages**, and emits an :class:`ExecutionPlan`: a
JSON-serializable, topologically ordered list of stages with refcounts
and static cost estimates.  The plan is a static report: nothing runs.
The sharing it reports is performed by the engine's result cache
(:class:`repro.core.engine.ExecutionEngine`), where the first matrix
cell that computes a proven-equivalent featurization prefix fills the
entry every later consumer on the same dataset reads.

The merge is also a lint surface.  Planning diagnostics:

* **L029** -- near-duplicate steps: templates spell the same stage with
  different parameter text (e.g. one writes a default out explicitly);
* **L030** -- dead template branches pruned by canonicalization;
* **L031** -- a prefix that is structurally shared by several templates
  but cannot be deduplicated because its closure contains a stateful or
  I/O operation;
* **L032** -- fingerprint collision: two different structures hashed to
  the same fingerprint (a broken digest -- always an error).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.diagnostics import AnalysisResult, Diagnostic, Severity
from repro.analysis.equivalence import (
    SOURCE_FINGERPRINT,
    CanonicalGraph,
    canonicalize,
)

__all__ = [
    "ExecutionPlan",
    "PlanStage",
    "build_matrix_plan",
    "build_plan",
    "render_dot",
    "render_plan",
]

#: the output names the benchmark matrix consumes per algorithm
MATRIX_OUTPUTS = ("X", "y", "attack_ids")

#: static relative cost weights per operation (1.0 when unlisted):
#: coarse, but enough to rank stages and estimate matrix-wide savings
COST_WEIGHTS = {
    "NprintEncode": 8.0,
    "KitsuneFeatures": 8.0,
    "Groupby": 4.0,
    "ApplyAggregates": 3.0,
    "FlowDiscriminators": 3.0,
    "ZeekConnLog": 3.0,
    "TimeSlice": 2.0,
    "PacketFields": 1.5,
    "Downsample": 0.5,
    "Labels": 0.5,
    "AttackIds": 0.5,
}


@dataclass(frozen=True)
class PlanStage:
    """One interned node of the super-DAG.

    ``stage_id`` is the semantic fingerprint for shareable stages; an
    unshareable stage gets a per-template id (fingerprint + owner) so
    the merge never deduplicates work it cannot prove safe.
    """

    stage_id: str
    func: str
    params: dict
    inputs: tuple[str, ...]
    consumers: tuple[str, ...]
    refcount: int
    cost: float
    shareable: bool
    purity: str

    @property
    def shared(self) -> bool:
        return self.refcount > 1

    def to_dict(self) -> dict:
        return {
            "stage_id": self.stage_id,
            "func": self.func,
            "params": self.params,
            "inputs": list(self.inputs),
            "consumers": list(self.consumers),
            "refcount": self.refcount,
            "cost": self.cost,
            "shareable": self.shareable,
            "purity": self.purity,
        }


@dataclass
class ExecutionPlan:
    """The shared-work schedule for one catalog x dataset matrix."""

    algorithms: tuple[str, ...]
    datasets: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]
    stages: tuple[PlanStage, ...]
    #: algorithm id -> output name -> stage id
    outputs: dict[str, dict[str, str]]
    diagnostics: list[Diagnostic] = field(default_factory=list)

    # ------------------------------------------------------------------

    @property
    def shared_stages(self) -> tuple[PlanStage, ...]:
        return tuple(s for s in self.stages if s.shared)

    def analysis(self) -> AnalysisResult:
        return AnalysisResult(list(self.diagnostics))

    def stage_map(self) -> dict[str, PlanStage]:
        return {stage.stage_id: stage for stage in self.stages}

    def cost_summary(self) -> dict:
        """Static cost of the plan versus the naive unshared matrix."""
        planned = sum(stage.cost for stage in self.stages)
        unshared = sum(stage.cost * stage.refcount for stage in self.stages)
        return {
            "stages": len(self.stages),
            "shared": sum(1 for s in self.stages if s.shared),
            "planned_cost": round(planned, 3),
            "unshared_cost": round(unshared, 3),
            "savings": round(unshared - planned, 3),
        }

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "algorithms": list(self.algorithms),
            "datasets": list(self.datasets),
            "pairs": [list(pair) for pair in self.pairs],
            "stages": [stage.to_dict() for stage in self.stages],
            "outputs": {
                algorithm: dict(mapping)
                for algorithm, mapping in sorted(self.outputs.items())
            },
            "diagnostics": [
                {
                    "code": d.code,
                    "severity": d.severity.value,
                    "message": d.message,
                    "step": d.step,
                    "operation": d.operation,
                    "hint": d.hint,
                }
                for d in self.diagnostics
            ],
            "cost_summary": self.cost_summary(),
        }


# ----------------------------------------------------------------------
# Building
# ----------------------------------------------------------------------


def _stage_cost(func: str) -> float:
    return float(COST_WEIGHTS.get(func, 1.0))


def build_plan(
    templates: dict[str, object],
    *,
    datasets: tuple[str, ...] | list[str] = (),
    pairs=None,
    outputs: tuple[str, ...] | None = None,
) -> ExecutionPlan:
    """Merge ``{label: template}`` into one interned super-DAG.

    ``outputs`` names the per-template values the plan must deliver
    (default: each template's final output).  ``pairs`` restricts which
    (label, dataset) combinations the plan covers; by default every
    label runs on every dataset.
    """
    diagnostics: list[Diagnostic] = []
    canon: dict[str, CanonicalGraph] = {}
    for label in sorted(templates):
        wanted = list(outputs) if outputs else None
        graph = canonicalize(templates[label], outputs=wanted)
        canon[label] = graph
        if graph.pruned:
            dead = ", ".join(
                f"step {index} ({func} -> {output!r})"
                for index, func, output in graph.pruned
            )
            diagnostics.append(
                Diagnostic(
                    "L030", Severity.WARNING,
                    f"template {label!r} carries dead branches the plan "
                    f"prunes: {dead}",
                    operation=label,
                    hint="remove the steps, or request their outputs",
                )
            )
        for fp, left, right in graph.collisions:
            diagnostics.append(
                Diagnostic(
                    "L032", Severity.ERROR,
                    f"fingerprint collision in template {label!r}: "
                    f"{left} and {right} both hash to {fp[:16]}...",
                    operation=label,
                    hint="the digest is broken; fingerprints must be "
                    "computed with a cryptographic hash",
                )
            )

    # intern across templates: shareable stages merge on fingerprint,
    # unshareable stages stay one-per-template
    merged: dict[str, dict] = {}
    structural: dict[str, list] = {}
    for label, graph in canon.items():
        rename: dict[str, str] = {SOURCE_FINGERPRINT: SOURCE_FINGERPRINT}
        for step in graph.steps:
            stage_id = (
                step.fingerprint
                if step.shareable
                else f"{step.fingerprint}!{label}"
            )
            rename[step.fingerprint] = stage_id
            inputs = tuple(rename[fp] for fp in step.inputs)
            entry = merged.get(stage_id)
            if entry is None:
                merged[stage_id] = entry = {
                    "step": step,
                    "inputs": inputs,
                    "consumers": set(),
                    "raw_tokens": set(),
                    "identity": (step.func,) + step.identity()[1:],
                }
            elif entry["identity"] != (step.func,) + step.identity()[1:]:
                diagnostics.append(
                    Diagnostic(
                        "L032", Severity.ERROR,
                        f"fingerprint collision across templates: "
                        f"{entry['step'].func} and {step.func} both hash "
                        f"to {step.fingerprint[:16]}...",
                        operation=label,
                        hint="the digest is broken; fingerprints must be "
                        "computed with a cryptographic hash",
                    )
                )
                continue
            entry["consumers"].add(label)
            entry["raw_tokens"].update(step.raw_tokens)
            structural.setdefault(step.fingerprint, []).append(
                (label, step)
            )

    for stage_id, entry in sorted(merged.items()):
        step = entry["step"]
        if len(entry["raw_tokens"]) > 1 and len(entry["consumers"]) >= 1:
            spellings = " vs ".join(sorted(entry["raw_tokens"]))
            diagnostics.append(
                Diagnostic(
                    "L029", Severity.WARNING,
                    f"near-duplicate {step.func} steps differ only by "
                    f"redundant params ({spellings}); they are one shared "
                    f"stage after normalization",
                    operation=step.func,
                    hint="drop params that restate operation defaults so "
                    "templates read identically",
                )
            )

    # structurally shared but unshareable prefixes (L031)
    for fingerprint, members in sorted(structural.items()):
        owners = sorted({label for label, _ in members})
        step = members[0][1]
        if not step.shareable and len(owners) > 1:
            diagnostics.append(
                Diagnostic(
                    "L031", Severity.WARNING,
                    f"{step.func} prefix is structurally identical across "
                    f"{', '.join(owners)} but cannot be shared: its "
                    f"closure audits {step.purity}",
                    operation=step.func,
                    hint="make the operation pure or seed-threaded to "
                    "unlock matrix-wide deduplication "
                    "(see `repro audit -v`)",
                )
            )

    # topological order over the merged DAG, fingerprint-sorted
    placed: set[str] = set()
    ordered: list[PlanStage] = []
    remaining = dict(merged)
    while remaining:
        ready = sorted(
            stage_id
            for stage_id, entry in remaining.items()
            if all(
                inp == SOURCE_FINGERPRINT or inp in placed
                for inp in entry["inputs"]
            )
        )
        if not ready:  # pragma: no cover - inputs always resolve
            ready = sorted(remaining)
        stage_id = ready[0]
        entry = remaining.pop(stage_id)
        placed.add(stage_id)
        step = entry["step"]
        consumers = tuple(sorted(entry["consumers"]))
        ordered.append(
            PlanStage(
                stage_id=stage_id,
                func=step.func,
                params=dict(step.params),
                inputs=entry["inputs"],
                consumers=consumers,
                refcount=len(consumers),
                cost=_stage_cost(step.func),
                shareable=step.shareable,
                purity=step.purity,
            )
        )

    labels = tuple(sorted(templates))
    datasets = tuple(datasets)
    if pairs is None:
        pairs = tuple(
            (label, dataset) for label in labels for dataset in datasets
        )
    else:
        pairs = tuple(tuple(pair) for pair in pairs)
    plan_outputs = {}
    for label, graph in canon.items():
        rename = {
            step.fingerprint: (
                step.fingerprint
                if step.shareable
                else f"{step.fingerprint}!{label}"
            )
            for step in graph.steps
        }
        plan_outputs[label] = {
            name: rename[fp] for name, fp in sorted(graph.outputs.items())
        }
    return ExecutionPlan(
        algorithms=labels,
        datasets=datasets,
        pairs=pairs,
        stages=tuple(ordered),
        outputs=plan_outputs,
        diagnostics=diagnostics,
    )


def _matrix_templates(algorithm_ids=None):
    """The featurization-with-attacks templates the matrix executes."""
    from repro.algorithms import ALGORITHMS, build_algorithm
    from repro.bench.runner import _units_template

    ids = sorted(algorithm_ids) if algorithm_ids else sorted(ALGORITHMS)
    return {
        algorithm_id: _units_template(build_algorithm(algorithm_id))
        for algorithm_id in ids
    }


def build_matrix_plan(algorithm_ids=None, dataset_ids=None) -> ExecutionPlan:
    """The plan for the full (faithful) catalog x dataset matrix.

    Mirrors :meth:`repro.bench.runner.BenchmarkRunner.matrix_cells`:
    only faithful (algorithm, dataset) pairs are planned, and the
    planned templates are exactly the ones the runner featurizes with
    (feature template + per-unit attack ids).
    """
    from repro.bench.runner import faithful_pairs

    pairs = faithful_pairs(algorithm_ids, dataset_ids)
    algorithms = sorted({algorithm for algorithm, _ in pairs})
    datasets = sorted(
        dataset_ids if dataset_ids is not None
        else {dataset for _, dataset in pairs}
    )
    return build_plan(
        _matrix_templates(algorithms),
        datasets=tuple(datasets),
        pairs=tuple(pairs),
        outputs=MATRIX_OUTPUTS,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------


def render_plan(plan: ExecutionPlan) -> str:
    """Human-readable stage table plus the cost summary."""
    lines = [
        f"execution plan: {len(plan.algorithms)} algorithm(s) x "
        f"{len(plan.datasets)} dataset(s), {len(plan.stages)} stage(s)"
    ]
    header = (
        f"{'stage':<18} {'operation':<20} {'refs':>4} {'cost':>6} "
        f"{'shared':<7} consumers"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for stage in plan.stages:
        consumers = ",".join(stage.consumers)
        if len(consumers) > 40:
            consumers = consumers[:37] + "..."
        marker = "yes" if stage.shared else ("no" if stage.shareable
                                             else "UNSAFE")
        lines.append(
            f"{stage.stage_id[:16]:<18} {stage.func:<20} "
            f"{stage.refcount:>4} {stage.cost:>6.1f} {marker:<7} "
            f"{consumers}"
        )
    summary = plan.cost_summary()
    lines.append(
        f"{summary['shared']} shared stage(s); static cost "
        f"{summary['planned_cost']} planned vs {summary['unshared_cost']} "
        f"unshared (saves {summary['savings']} per dataset)"
    )
    return "\n".join(lines)


def render_dot(plan: ExecutionPlan) -> str:
    """Graphviz rendering of the super-DAG (shared stages doubled)."""
    lines = [
        "digraph plan {",
        "  rankdir=LR;",
        "  node [shape=box, fontsize=10];",
        f'  "{SOURCE_FINGERPRINT}" [label="source", shape=ellipse];',
    ]
    for stage in plan.stages:
        shape = "box"
        peripheries = 2 if stage.shared else 1
        style = "" if stage.shareable else ', style="dashed"'
        label = f"{stage.func}\\nrefs={stage.refcount}"
        lines.append(
            f'  "{stage.stage_id}" [label="{label}", shape={shape}, '
            f"peripheries={peripheries}{style}];"
        )
        for inp in stage.inputs:
            lines.append(f'  "{inp}" -> "{stage.stage_id}";')
    lines.append("}")
    return "\n".join(lines)
