"""Cross-template equivalence: canonicalization and semantic fingerprints.

The engine's result cache already shares work *dynamically* -- two runs
that happen to compute the same (operation, params) chain hit the same
cache key.  This module proves the sharing *statically*: it rewrites a
template's dataflow graph into a **normal form** -- stable operation
ordering, renamed intermediates, validated params with defaults filled,
dead outputs pruned -- and hashes every node's upstream closure into a
*semantic fingerprint*.  Two steps with equal fingerprints compute the
same value on any source trace, so a planner
(:mod:`repro.analysis.planner`) can merge whole catalogs of templates
into one interned super-DAG and materialize each shared prefix once.

A fingerprint is valid for deduplication only when the effect analyzer
(:mod:`repro.analysis.safety`) proves the node's whole upstream closure
pure or seeded-stochastic.  A step's fingerprint is its
:func:`~repro.core.pipeline.step_key` chained from
``SOURCE_FINGERPRINT`` -- the same function the engine keys its cache
with, seed values included, so a seeded step memoized under one seed
never answers for another.  Steps whose closure contains a stateful or
I/O operation keep their fingerprint -- it still names the *structure*
-- but are marked unshareable.

All hashes go through :func:`~repro.core.pipeline.digest` (sha256) so
they are stable across processes; never use the builtin ``hash()`` for
persisted fingerprints (astlint AL008 enforces this repo-wide).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.diagnostics import Severity
from repro.analysis.graph import StepNode, TemplateGraph, build_graph
from repro.analysis.passes import pass_dataflow, pass_parameters
from repro.analysis.safety import PURE, SEEDED, operation_report
from repro.core.errors import TemplateDiagnosticError
from repro.core.pipeline import SOURCE_NAME, digest, params_token, step_key

__all__ = [
    "CanonicalGraph",
    "CanonicalStep",
    "canonicalize",
]

#: the symbolic fingerprint of the (dataset-independent) source trace
SOURCE_FINGERPRINT = SOURCE_NAME


@dataclass(frozen=True)
class CanonicalStep:
    """One node of a template in normal form.

    ``fingerprint`` hashes the node's entire upstream closure --
    operation names, validated params, seed values -- so equality means
    semantic equivalence (same value on any source), not syntactic
    match.  ``inputs`` reference producers by *their* fingerprints
    (``SOURCE_FINGERPRINT`` for the implicit trace), which is what
    makes renamed intermediates canonical.
    """

    fingerprint: str
    func: str
    params: dict
    inputs: tuple[str, ...]
    purity: str
    shareable: bool
    seeds: tuple[str, ...]
    #: distinct raw (pre-default-fill) param spellings merged here
    raw_tokens: tuple[str, ...]
    #: original template step indices this canonical node covers
    source_indices: tuple[int, ...]

    def identity(self) -> tuple:
        """The structural identity a fingerprint must map to 1:1."""
        return (self.func, params_token(self.params), self.inputs)


@dataclass
class CanonicalGraph:
    """A template rewritten into normal form.

    ``steps`` are in canonical topological order (ready nodes ordered
    by fingerprint), ``outputs`` maps every requested output name to
    the fingerprint of its producer, ``pruned`` records dead steps
    removed by the rewrite, and ``collisions`` records fingerprints
    that mapped to two different structures (which is a broken hash,
    surfaced as L032 by the planner).
    """

    steps: tuple[CanonicalStep, ...]
    outputs: dict[str, str]
    pruned: tuple[tuple[int, str, str], ...] = ()
    collisions: tuple[tuple[str, str, str], ...] = ()
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if not self.fingerprint:
            material = "|".join(
                f"{name}={fp}" for name, fp in sorted(self.outputs.items())
            )
            material += "||" + "|".join(s.fingerprint for s in self.steps)
            self.fingerprint = digest(material)

    def to_template(self) -> list[dict]:
        """Render the normal form back into the template language.

        Intermediates are renamed ``%0``, ``%1``, ... in canonical
        order; steps producing a requested output keep that name so
        the rendered template is runnable with the same ``outputs``.
        Canonicalizing the result is a fixed point:
        ``canonicalize(g.to_template(), outputs=...)`` reproduces the
        same fingerprints.
        """
        names: dict[str, str] = {SOURCE_FINGERPRINT: SOURCE_NAME}
        by_fp = {fp: name for name, fp in sorted(self.outputs.items())}
        template: list[dict] = []
        for position, step in enumerate(self.steps):
            name = by_fp.get(step.fingerprint, f"%{position}")
            names[step.fingerprint] = name
            entry: dict = {"func": step.func}
            entry["input"] = [names[fp] for fp in step.inputs] or None
            entry["output"] = name
            entry.update(step.params)
            template.append(entry)
        return template


def _resolve_producers(graph: TemplateGraph) -> dict[int, tuple]:
    """For each step index, its inputs resolved to producer indices
    (``None`` stands for the implicit source)."""
    producers = graph.producers()
    resolved: dict[int, tuple] = {}
    for node in graph.nodes:
        bindings = []
        for name in node.inputs:
            if name == SOURCE_NAME:
                bindings.append(None)
                continue
            earlier = [i for i in producers.get(name, []) if i < node.index]
            bindings.append(earlier[-1] if earlier else None)
        resolved[node.index] = tuple(bindings)
    return resolved


def _closure_shareable(
    node: StepNode, input_shareable: list[bool]
) -> tuple[str, bool, tuple]:
    """(purity, closure-shareable, seed params) for one node."""
    report = operation_report(node.operation)
    own = report.purity in (PURE, SEEDED)
    return (
        report.purity,
        own and all(input_shareable),
        tuple(report.seed_params),
    )


def canonicalize(
    template: object,
    *,
    outputs: list[str] | None = None,
) -> CanonicalGraph:
    """Rewrite a template into normal form.

    Raises :class:`~repro.core.errors.TemplateDiagnosticError` when the
    template has analyzer *errors* (unknown ops, undefined inputs, bad
    params): a defective template has no meaningful normal form.
    ``outputs`` names the values to keep (default: the final step's
    output); everything not on a path to a kept output is pruned.
    """
    graph, diagnostics = build_graph(template)
    pass_parameters(graph, diagnostics)
    pass_dataflow(graph, diagnostics, outputs)
    errors = [d for d in diagnostics if d.severity is Severity.ERROR]
    if errors:
        raise TemplateDiagnosticError(errors)

    producers = graph.producers()
    resolved = _resolve_producers(graph)

    # the kept roots: requested outputs, or the final step's output
    if outputs:
        wanted = list(dict.fromkeys(outputs))
    else:
        wanted = [graph.nodes[-1].output] if graph.nodes else []
    roots = [
        producers[name][-1]
        for name in wanted
        if name in producers
    ]

    # liveness: walk back from the roots
    live: set[int] = set()
    stack = list(roots)
    while stack:
        index = stack.pop()
        if index in live:
            continue
        live.add(index)
        for producer in resolved[index]:
            if producer is not None:
                stack.append(producer)

    # fingerprints, bottom-up (template order is a valid topo order)
    fingerprints: dict[int, str] = {}
    shareable: dict[int, bool] = {}
    details: dict[int, tuple] = {}
    for node in graph.nodes:
        if node.index not in live:
            continue
        input_fps = []
        input_ok = []
        for producer in resolved[node.index]:
            if producer is None:
                input_fps.append(SOURCE_FINGERPRINT)
                input_ok.append(True)
            else:
                input_fps.append(fingerprints[producer])
                input_ok.append(shareable[producer])
        purity, ok, seeds = _closure_shareable(node, input_ok)
        fingerprints[node.index] = step_key(
            node.func, node.params, input_fps, seeds
        )
        shareable[node.index] = ok
        details[node.index] = (purity, ok, seeds, tuple(input_fps))

    # intern: merge live nodes with equal fingerprints, detect collisions
    interned: dict[str, dict] = {}
    collisions: list[tuple[str, str, str]] = []
    for node in graph.nodes:
        if node.index not in live:
            continue
        fp = fingerprints[node.index]
        purity, ok, seeds, input_fps = details[node.index]
        raw = params_token(node.raw_params)
        identity = (node.func, params_token(node.params), input_fps)
        entry = interned.get(fp)
        if entry is None:
            interned[fp] = {
                "func": node.func,
                "params": dict(node.params),
                "inputs": input_fps,
                "purity": purity,
                "shareable": ok,
                "seeds": seeds,
                "raw_tokens": {raw},
                "indices": [node.index],
                "identity": identity,
            }
            continue
        if entry["identity"] != identity:
            collisions.append(
                (fp, f"{entry['func']}@{entry['indices'][0]}",
                 f"{node.func}@{node.index}")
            )
            continue
        entry["raw_tokens"].add(raw)
        entry["indices"].append(node.index)

    # canonical topological order: among ready nodes, smallest
    # fingerprint first -- stable under any reordering of independent
    # steps in the source template
    placed: set[str] = set()
    ordered: list[CanonicalStep] = []
    remaining = dict(interned)
    while remaining:
        ready = sorted(
            fp
            for fp, entry in remaining.items()
            if all(
                inp == SOURCE_FINGERPRINT or inp in placed
                for inp in entry["inputs"]
            )
        )
        if not ready:  # unreachable for validated templates
            ready = sorted(remaining)
        fp = ready[0]
        entry = remaining.pop(fp)
        placed.add(fp)
        ordered.append(
            CanonicalStep(
                fingerprint=fp,
                func=entry["func"],
                params=entry["params"],
                inputs=entry["inputs"],
                purity=entry["purity"],
                shareable=entry["shareable"],
                seeds=entry["seeds"],
                raw_tokens=tuple(sorted(entry["raw_tokens"])),
                source_indices=tuple(sorted(entry["indices"])),
            )
        )

    output_map = {
        name: fingerprints[producers[name][-1]]
        for name in wanted
        if name in producers
    }
    pruned = tuple(
        (node.index, node.func or "?", node.output or "?")
        for node in graph.nodes
        if node.index not in live
    )
    return CanonicalGraph(
        steps=tuple(ordered),
        outputs=output_map,
        pruned=pruned,
        collisions=tuple(collisions),
    )
