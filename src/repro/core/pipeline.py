"""The template language: parsing and validation.

A Lumen algorithm is written as a list of operation descriptions, each a
dict exactly like the paper's Figure 4::

    algorithm = [
        {"func": "FieldExtract", "input": None, "output": "Packets",
         "param": ["srcIP", "dstIP", "TCPFlags", "packetLength"]},
        {"func": "Groupby", "input": ["Packets"],
         "output": "Grouped_packets", "flowid": ["5tuple"]},
        {"func": "ApplyAggregates", "input": ["Sliced_packets"],
         "output": "Features", "list": [...]},
        {"func": "model", "model_type": "RandomForest",
         "input": None, "output": "clf1"},
        {"func": "train", "input": ["clf1", "Features"],
         "output": "save_path"},
    ]

``input`` may be ``None`` (source operations, or operations consuming
the implicit trace), a single name, or a list of names.  Any key other
than ``func``/``input``/``output`` is an operation parameter (``param``
is accepted as an alias for the operation's first required parameter,
matching the paper's template style).

:meth:`Pipeline.from_template` parses through the static analyzer
(:mod:`repro.analysis`), so the engine's checks all run before
execution: operations exist, parameters are complete, every input name
is defined by an earlier step, and the declared value types line up.

Step identity lives here too: :func:`step_key` is the one answer to
"are two steps the same step?" that the engine's result cache, the
stream checkpoints (through :func:`step_token`) and the equivalence
analyzer's semantic fingerprints all share.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.operations import Operation


@dataclass(frozen=True)
class OperationCall:
    """One validated step: the operation, its inputs and parameters."""

    operation: Operation
    inputs: tuple[str, ...]
    output: str
    params: dict

    @property
    def name(self) -> str:
        return self.operation.name


def params_token(params: dict) -> str:
    """Canonical text of a params dict: sorted keys, JSON.

    Tuples serialize as lists and unknown objects via ``repr``.
    """
    return json.dumps(params, sort_keys=True, default=repr)


def step_token(func: str, params: dict) -> str:
    """A step's (operation, params) identity: ``Name({"k": v})``.

    Stream snapshots record it per step and checkpoints pickle them, so
    this spelling is part of the checkpoint format.
    """
    return f"{func}({params_token(params)})"


def digest(material: str) -> str:
    """The one identity hash (sha256: stable across processes)."""
    return hashlib.sha256(material.encode()).hexdigest()


def step_key(
    func: str,
    params: dict,
    input_ids: Iterable[str],
    seed_params: Iterable[str] = (),
) -> str:
    """A step's identity: equal keys compute the same value.

    Hashes the step token, the identities of its inputs (the upstream
    steps' keys, or a source identity) and the values of its seed
    params.  The seeds are named explicitly so a seeded op keyed under
    one seed never answers for another, even for a hand-built call
    whose params omit the seed default.
    """
    material = f"{step_token(func, params)}<-[{','.join(input_ids)}]"
    seeds = ",".join(f"{name}={params.get(name)!r}" for name in seed_params)
    if seeds:
        material += f"|seeds[{seeds}]"
    return digest(material)


#: the reserved name for the trace a pipeline is run against
SOURCE_NAME = "__source__"


@dataclass
class Pipeline:
    """A validated sequence of operation calls."""

    calls: list[OperationCall] = field(default_factory=list)

    @classmethod
    def from_template(cls, template: list[dict]) -> "Pipeline":
        """Parse + validate a template (the Figure 4 format).

        The static analyzer is the one parser: a bad template fails
        here -- with structured ``L0xx`` diagnostics on the raised
        :class:`~repro.core.errors.TemplateDiagnosticError` -- before
        any trace generation or execution, and each checked step of a
        good one becomes an :class:`OperationCall`.
        """
        # lazy import: repro.analysis imports this module
        from repro.analysis import checked_graph

        return cls([
            OperationCall(node.operation, node.inputs, node.output, node.params)
            for node in checked_graph(template).nodes
        ])

    # ------------------------------------------------------------------

    def consumers(self) -> dict[str, int]:
        """For each value name, the index of its last consuming step.

        Used by the engine's dead-value elimination: after a value's
        last consumer has run, the engine drops it from the environment
        ("removing variables/data that are not used in future
        operations to conserve memory").
        """
        last_use: dict[str, int] = {}
        for index, call in enumerate(self.calls):
            for name in call.inputs:
                last_use[name] = index
        return last_use

    def to_template(self) -> list[dict]:
        """Render the pipeline back into the template language.

        The round trip ``Pipeline.from_template(p.to_template())``
        reproduces an equivalent pipeline (params carry their filled
        defaults).  Used by the equivalence analyzer so hand-built
        pipelines canonicalize exactly like templates loaded from JSON.
        """
        template: list[dict] = []
        for call in self.calls:
            step: dict = {"func": call.name}
            step["input"] = list(call.inputs) or None
            step["output"] = call.output
            step.update(call.params)
            template.append(step)
        return template

    @property
    def output_name(self) -> str:
        """The final step's output (the pipeline's result by default)."""
        return self.calls[-1].output
