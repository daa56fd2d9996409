"""The cell-level checkpoint journal: kill a run, resume in seconds.

As the runner works through a matrix it appends one JSON line per
*finished* cell -- ``{"kind": "result", ...}`` on success,
``{"kind": "failure", ...}`` when retries were exhausted -- flushing
after every line so a killed process loses at most the cell it was
executing.  ``run_matrix(..., resume=path)`` reads the journal back,
merges the journaled records into the store, and skips those cells,
composing with the engine's featurization cache so a restarted 300-cell
campaign costs seconds, not hours.

A torn final line (the signature of a hard kill mid-write) is detected
and ignored -- its cell simply re-runs.  The append/flush/torn-tail
mechanics live in :class:`repro.obs.sinks.JsonlJournal`, which the
serve daemon's journals share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.results import EvaluationResult, FailureRecord
from repro.core.errors import dataclass_from_json
from repro.obs import JsonlJournal, get_tracer, read_journal


@dataclass
class CheckpointState:
    """What a journal said: the records and the cells they cover."""

    results: list[EvaluationResult] = field(default_factory=list)
    failures: list[FailureRecord] = field(default_factory=list)
    torn_lines: int = 0

    @property
    def succeeded(self) -> set[tuple[str, str, str]]:
        return {r.cell for r in self.results}

    @property
    def failed(self) -> set[tuple[str, str, str]]:
        return {f.cell for f in self.failures}

    @property
    def completed(self) -> set[tuple[str, str, str]]:
        """Every journaled cell, successful or exhausted."""
        return self.succeeded | self.failed


class CheckpointJournal(JsonlJournal):
    """Append-only JSONL journal of finished evaluation cells."""

    def append_result(self, record: EvaluationResult) -> None:
        from dataclasses import asdict

        self.append({"kind": "result", **asdict(record)})

    def append_failure(self, record: FailureRecord) -> None:
        self.append({"kind": "failure", **record.to_dict()})

    def append_outcome(
        self, outcome: EvaluationResult | FailureRecord
    ) -> None:
        if isinstance(outcome, FailureRecord):
            self.append_failure(outcome)
        else:
            self.append_result(outcome)

    def __enter__(self) -> "CheckpointJournal":
        return self

    # ------------------------------------------------------------------

    @staticmethod
    def load(path: str | Path) -> CheckpointState:
        """Parse a journal, tolerating a torn (killed-mid-write) tail.

        A record of a known kind that :func:`dataclass_from_json`
        refuses raises :class:`InputError` naming the path and line:
        that is a foreign file, not a torn one.
        """
        records, torn = read_journal(path)
        state = CheckpointState(torn_lines=torn)
        for number, payload in records:
            payload = dict(payload)
            kind = payload.pop("kind", None)
            where = f"{path}:{number}"
            if kind == "result":
                state.results.append(
                    dataclass_from_json(EvaluationResult, payload, where)
                )
            elif kind == "failure":
                state.failures.append(
                    dataclass_from_json(FailureRecord, payload, where)
                )
            else:
                state.torn_lines += 1
                get_tracer().event(
                    "checkpoint.unknown_kind", path=str(path), kind=kind
                )
        return state
