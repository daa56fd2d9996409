"""Result records and the query-friendly store.

The paper: "Lumen stores all results in a query-friendly format" so that
operators can drill into them beyond the built-in plots.  Here that is a
list of flat :class:`EvaluationResult` records with filtering helpers
and JSON/CSV persistence.  Guarded (fault-tolerant) runs additionally
record a :class:`FailureRecord` per cell that exhausted its retries, so
a partially-failed campaign stays queryable instead of vanishing.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.core.errors import InputError, dataclass_from_json, read_json


@dataclass(frozen=True)
class EvaluationResult:
    """One (algorithm, train dataset, test dataset) evaluation."""

    algorithm: str
    train_dataset: str
    test_dataset: str
    mode: str  # "same" or "cross"
    granularity: str
    precision: float
    recall: float
    f1: float
    accuracy: float
    n_train: int
    n_test: int
    seconds: float = 0.0
    per_attack: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.train_dataset, self.test_dataset)

    @property
    def cell(self) -> tuple[str, str, str]:
        return (self.algorithm, self.train_dataset, self.test_dataset)


@dataclass(frozen=True)
class FailureRecord:
    """One cell that failed for good (its retries, if any, exhausted).

    ``phase`` names where the last attempt died (``featurize``,
    ``train`` or ``test``); ``cause`` keeps the live exception for
    in-process callers and is never serialized.
    """

    algorithm: str
    train_dataset: str
    test_dataset: str
    mode: str  # "same" or "cross"
    phase: str  # "featurize" | "train" | "test"
    error_type: str
    message: str
    attempts: int
    seconds: float = 0.0
    cause: Exception | None = field(default=None, compare=False, repr=False)

    @property
    def pair(self) -> tuple[str, str]:
        return (self.train_dataset, self.test_dataset)

    @property
    def cell(self) -> tuple[str, str, str]:
        return (self.algorithm, self.train_dataset, self.test_dataset)

    def to_dict(self) -> dict:
        """JSON-friendly form (drops the live ``cause`` exception)."""
        return {
            "algorithm": self.algorithm,
            "train_dataset": self.train_dataset,
            "test_dataset": self.test_dataset,
            "mode": self.mode,
            "phase": self.phase,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "seconds": self.seconds,
        }


class ResultStore:
    """An append-only collection of evaluation results with queries."""

    def __init__(
        self,
        results: list[EvaluationResult] | None = None,
        failures: list[FailureRecord] | None = None,
    ) -> None:
        self.results: list[EvaluationResult] = list(results or [])
        self.failures: list[FailureRecord] = list(failures or [])

    def add(self, result: EvaluationResult) -> None:
        self.results.append(result)

    def add_failure(self, failure: FailureRecord) -> None:
        self.failures.append(failure)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self,
        *,
        algorithm: str | None = None,
        train_dataset: str | None = None,
        test_dataset: str | None = None,
        mode: str | None = None,
        granularity: str | None = None,
    ) -> "ResultStore":
        """Filter on any combination of record fields."""

        def keep(result) -> bool:
            return (
                (algorithm is None or result.algorithm == algorithm)
                and (train_dataset is None or result.train_dataset == train_dataset)
                and (test_dataset is None or result.test_dataset == test_dataset)
                and (mode is None or result.mode == mode)
                and (granularity is None
                     or getattr(result, "granularity", None) == granularity)
            )

        return ResultStore(
            [r for r in self.results if keep(r)],
            [f for f in self.failures if keep(f)],
        )

    def algorithms(self) -> list[str]:
        return sorted({r.algorithm for r in self.results})

    def datasets(self) -> list[str]:
        names = {r.train_dataset for r in self.results}
        names |= {r.test_dataset for r in self.results}
        return sorted(names)

    def values(self, metric: str) -> list[float]:
        return [getattr(r, metric) for r in self.results]

    def completed_cells(self) -> set[tuple[str, str, str]]:
        """The (algorithm, train, test) keys that succeeded."""
        return {r.cell for r in self.results}

    def failed_cells(self) -> set[tuple[str, str, str]]:
        """The (algorithm, train, test) keys that failed for good."""
        return {f.cell for f in self.failures}

    def failed_pairs(self) -> set[tuple[str, str]]:
        """(train, test) dataset pairs with at least one failed cell."""
        return {f.pair for f in self.failures}

    def best_per_pair(self, metric: str = "precision") -> dict[tuple[str, str], float]:
        """For each (train, test) pair, the best score any algorithm got."""
        best: dict[tuple[str, str], float] = {}
        for result in self.results:
            value = getattr(result, metric)
            if value > best.get(result.pair, -1.0):
                best[result.pair] = value
        return best

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save_json(self, path: str | Path) -> None:
        """Write results (and failures, when any were recorded).

        A store with no failures writes the legacy flat list, so runs
        that never enable the guarded mode produce byte-identical
        output; failures upgrade the payload to a tagged object.
        """
        if self.failures:
            payload: object = {
                "results": [asdict(result) for result in self.results],
                "failures": [failure.to_dict() for failure in self.failures],
            }
        else:
            payload = [asdict(result) for result in self.results]
        Path(path).write_text(json.dumps(payload, indent=2))

    @classmethod
    def load_json(cls, path: str | Path) -> "ResultStore":
        """Read a store written by :meth:`save_json`.

        Raises :class:`InputError` naming the path and the reason for
        a file that is missing or not JSON, a top level that is neither
        a list of results nor a ``{"results": [...], "failures":
        [...]}`` object, and a record
        :func:`~repro.core.errors.dataclass_from_json` refuses.
        """
        payload = read_json(path, "result store")
        if isinstance(payload, list):
            payload = {"results": payload}
        if not (
            isinstance(payload, dict)
            and set(payload) <= {"results", "failures"}
            and isinstance(payload.get("results"), list)
            and isinstance(payload.get("failures", []), list)
        ):
            raise InputError(
                f"{path}: a result store is a JSON array of results or an "
                f"object with a 'results' array and a 'failures' array"
            )

        def records(key: str, record_cls: type) -> list:
            return [
                dataclass_from_json(
                    record_cls, record, f"{path}: {key}[{index}]"
                )
                for index, record in enumerate(payload.get(key, []))
            ]

        return cls(
            records("results", EvaluationResult),
            records("failures", FailureRecord),
        )

    def save_csv(self, path: str | Path) -> None:
        columns = [
            "algorithm", "train_dataset", "test_dataset", "mode",
            "granularity", "precision", "recall", "f1", "accuracy",
            "n_train", "n_test", "seconds",
        ]
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for result in self.results:
                record = asdict(result)
                writer.writerow([record[name] for name in columns])
